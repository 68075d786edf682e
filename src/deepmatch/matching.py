"""Nearest-neighbor matching across treatment arms and effect estimation.

Matching is exact Euclidean search (no approximation), so results are
deterministic and agree bit for bit with a plain scan. The search is pruned:
a Z-order bound on each query's k-th distance limits it to a window of pool
rows along one axis, and no row at or below that distance can lie outside
the window (see `knn`). Every neighbor search in the library (effect
matching, score matching, LLE) runs through this one kernel, `knn`. Each
public function checks its whole input where it enters, through `data`'s
rules: representations by `finite_matrix`, labels by `treatment`, and
outcomes and scores by `finite_vector`, so a non-finite row is rejected
even in an arm that no query matches into. Neighbors come back only as
index arrays: `knn`'s (indices, distances), one query's row of them from
`nearest_opposite`, and (queries, matched) from `propensity_match`. Every
unit gets its k matches, so each estimated effect is finite. The unit-level
effect estimate differences each unit's observed outcome against the mean
outcome of its k nearest opposite-arm neighbors:

    ite[i] = y_obs[i] - mean(matched control outcomes)   if w[i] = 1
    ite[i] = mean(matched treated outcomes) - y_obs[i]   if w[i] = 0

Distance ties are always broken by the lower candidate index, and matching
is with replacement, so outcomes never depend on query order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import finite_matrix, finite_vector, treatment


@dataclass(frozen=True)
class EffectEstimate:
    """Per-query-unit effects `ite` of k-NN matching, all finite, and their mean `ate`."""

    ite: np.ndarray

    def __post_init__(self):
        ite = finite_vector(self.ite, "effect estimates ite")
        if ite.size == 0:
            raise ValueError("effect estimates ite must be a non-empty vector of finite values")
        object.__setattr__(self, "ite", ite)

    @property
    def ate(self) -> float:
        return float(np.mean(self.ite))


# distances one scan block may hold at once; bounds the kernel's scratch memory
_BLOCK_ENTRIES = 1 << 16
# queries that share one axis window
_QUERY_BLOCK = 128
# below this gap a squared difference leaves the normal range (see propensity_match)
_UNDERFLOW_GAP = 1.5e-154


def _distances(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Kernel distances sqrt(sum((p-q)^2)) over the last axis of broadcast q and p.

    Summed one coordinate at a time left to right, so every entry has the bits
    of a plain scalar scan (numpy's vectorized sum reassociates terms).
    """
    dist = np.zeros(np.broadcast_shapes(q.shape, p.shape)[:-1])
    delta = np.empty_like(dist)
    for c in range(q.shape[-1]):
        np.subtract(p[..., c], q[..., c], out=delta)
        np.multiply(delta, delta, out=delta)
        dist += delta
    return np.sqrt(dist, out=dist)


def _morton(x: np.ndarray, lo: np.ndarray, span: np.ndarray, bits: int) -> np.ndarray:
    """Z-order keys of x's rows: `bits` bits of each coordinate's cell, interleaved.

    Cells divide the range [lo, lo + 2*span] evenly, and coordinates outside it
    clip to its edge cells. Halving before subtracting keeps every value finite.
    """
    unit = np.clip(x / 2 - lo / 2, 0, span) / span
    cells = np.minimum(unit * (1 << bits), (1 << bits) - 1).astype(np.int64)
    key = np.zeros(x.shape[0], dtype=np.int64)
    for b in range(bits):
        for c in range(x.shape[1]):
            key |= ((cells[:, c] >> b) & 1) << (b * x.shape[1] + c)
    return key


def _scan(block: np.ndarray, pool: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest pool rows of each block row, by a full scan of `pool`."""
    dist = _distances(block[:, None, :], pool[None, :, :])
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    near = dist <= kth
    if np.count_nonzero(near) > 2 * k * dist.shape[0]:
        # heavy ties: the strictly closer, then the lowest-index tied, k per row
        closer = dist < kth
        tied = near & ~closer
        near = closer | (tied & (np.cumsum(tied, axis=1) <= k - closer.sum(axis=1, keepdims=True)))
    # candidates by (row, distance, index); each row's first k win
    row, col = np.nonzero(near)
    order = np.lexsort((col, dist[row, col], row))
    pick = order[np.searchsorted(row, np.arange(dist.shape[0]))[:, None] + np.arange(k)]
    return col[pick], dist[row[pick], col[pick]]


def knn(queries: np.ndarray, pool: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest pool rows of each query row: (indices, distances), n_queries x k.

    Nearest first; ties go to the lower pool index. A distance is sqrt(sum((a-b)^2)),
    never the inner-product identity, summed one coordinate at a time left to right,
    so it agrees digit-for-digit with a plain scalar scan.

    The search is pruned, never approximate. Each query's k-th distance is
    bounded above by r, the k-th smallest distance to the 2k pool rows next to
    it in Z-order (Morton 1966): any k pool rows give a valid bound, so the key
    only affects speed. Queries then go in blocks of _QUERY_BLOCK, in order of
    the pool's widest coordinate, and each block scans only the pool rows whose
    coordinate a on that axis lies within pad = r*(1 + 1e-9) + 1.5e-154 of some
    block query's. No row at or below the k-th distance falls outside: a
    left-to-right sum of squares is never below its axis term, so such a row's
    axis gap is at most its distance, up to a few roundings that the 1e-9
    covers, or is below 1.5e-154, where its square underflows. The scanned
    distances have the same bits as a full scan, and the window, kept in pool
    order, holds the same ties. A scan block holds at most _BLOCK_ENTRIES
    distances, or one query.
    """
    queries = finite_matrix(queries, "queries")
    pool = finite_matrix(pool, "pool", queries.shape[1])
    n_pool = pool.shape[0]
    if not 1 <= k <= n_pool:
        raise ValueError(f"k must be in [1, {n_pool}] (pool size), got {k}")
    indices = np.empty((queries.shape[0], k), dtype=np.intp)
    distances = np.empty((queries.shape[0], k))
    if pool.shape[1] == 0:  # no coordinates: every distance is 0, as with one zero column
        queries, pool = np.zeros((queries.shape[0], 1)), np.zeros((n_pool, 1))
    lo = pool.min(axis=0)
    span = pool.max(axis=0) / 2 - lo / 2
    axis = int(np.argmax(span))
    span[span == 0] = 1.0
    # 10 bits per coordinate, fewer where the key would not fit in an int64
    bits = min(10, 63 // pool.shape[1])
    pool_keys = _morton(pool, lo, span, bits)
    by_key = np.argsort(pool_keys, kind="stable")
    # each query's bound rows: `width` consecutive places in Z-order, around its own key
    width = min(2 * k, n_pool)
    first = np.searchsorted(pool_keys[by_key], _morton(queries, lo, span, bits)) - k
    first = np.clip(first, 0, n_pool - width)
    by_axis = np.argsort(pool[:, axis], kind="stable")
    pool_axis = pool[by_axis, axis]
    by_query_axis = np.argsort(queries[:, axis], kind="stable")
    step = max(1, min(_QUERY_BLOCK, _BLOCK_ENTRIES // width))
    for start in range(0, queries.shape[0], step):
        rows = by_query_axis[start : start + step]
        block = queries[rows]
        near = pool[by_key[first[rows, None] + np.arange(width)]]
        r = np.partition(_distances(block[:, None, :], near), k - 1, axis=1)[:, k - 1]
        pad = r * (1 + 1e-9) + _UNDERFLOW_GAP
        a = block[:, axis]
        left = np.searchsorted(pool_axis, np.min(a - pad))
        right = np.searchsorted(pool_axis, np.max(a + pad), side="right")
        window = np.sort(by_axis[left:right])
        scanned = pool[window]
        sub = max(1, _BLOCK_ENTRIES // window.shape[0])
        for s in range(0, rows.shape[0], sub):
            idx, dist = _scan(block[s : s + sub], scanned, k)
            indices[rows[s : s + sub]] = window[idx]
            distances[rows[s : s + sub]] = dist
    return indices, distances


def nearest_opposite(
    z: np.ndarray, w: np.ndarray, i: int, k: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of unit i's k nearest opposite-arm units in z, nearest first."""
    z = finite_matrix(z, "representations z")
    w = treatment(w, z.shape[0])
    opp = np.flatnonzero(w != w[i])
    idx, d = knn(z[i : i + 1], z[opp], k)
    return opp[idx[0]], d[0]


def estimate_effects(
    z: np.ndarray, w: np.ndarray, y_obs: np.ndarray, k: int = 1
) -> EffectEstimate:
    """Effect estimates matching every unit within one dataset."""
    z = finite_matrix(z, "representations z")
    treatment(w, z.shape[0])
    finite_vector(y_obs, "outcomes y_obs", z.shape[0])
    return estimate_effects_pooled(z, w, y_obs, z, w, y_obs, k)


def estimate_effects_pooled(
    z_query, w_query, y_query, z_pool, w_pool, y_pool, k: int = 1
) -> EffectEstimate:
    """Effect estimates for query units matched against a separate pool.

    Used for held-out evaluation: queries are test units, the pool is the
    training set, and each test unit matches into the pool's opposite arm.
    The k matched outcomes are summed left to right, as a scalar scan would.
    """
    z_query = finite_matrix(z_query, "representations z_query")
    z_pool = finite_matrix(z_pool, "representations z_pool", z_query.shape[1])
    w_query = treatment(w_query, z_query.shape[0], both_arms=False)
    w_pool = treatment(w_pool, z_pool.shape[0], both_arms=False)
    y_query = finite_vector(y_query, "outcomes y_query", z_query.shape[0])
    y_pool = finite_vector(y_pool, "outcomes y_pool", z_pool.shape[0])
    # every row is filled below; EffectEstimate rejects a NaN left behind
    ite = np.full(z_query.shape[0], np.nan)
    for arm, side in ((1, "control"), (0, "treated")):
        rows = np.flatnonzero(w_query == arm)
        if rows.shape[0] == 0:
            continue
        pool = np.flatnonzero(w_pool != arm)
        if pool.shape[0] == 0:
            raise ValueError(f"{side} arm of the matching pool is empty")
        if pool.shape[0] < k:
            raise ValueError(f"k={k} exceeds the {side} matching pool of size {pool.shape[0]}")
        idx, _ = knn(z_query[rows], z_pool[pool], k)
        y = y_pool[pool[idx]]
        total = np.zeros(rows.shape[0])
        for c in range(k):
            total += y[:, c]
        mean = total / k
        ite[rows] = y_query[rows] - mean if arm == 1 else mean - y_query[rows]
    return EffectEstimate(ite=ite)


def propensity_match(scores, w, query_arm: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Match every unit of `query_arm` to its nearest opposite-arm score.

    Returns (queries, matched): the query-arm units in index order, and
    matched[r], the opposite-arm unit matched to queries[r].

    Nearness is the kernel distance sqrt(d*d) of the score difference d,
    which equals |d| unless |d| is below about 1.5e-154, where d*d
    underflows to 0 and the distance reads 0. Matching is with replacement
    and ties take the lower index. The default matches treated units to
    controls; query_arm=0 runs the symmetric direction.
    """
    scores = finite_vector(scores, "scores")
    if query_arm not in (0, 1):
        raise ValueError(f"query_arm must be 0 or 1, got {query_arm}")
    w = treatment(w, scores.shape[0])
    queries = np.flatnonzero(w == query_arm)
    cand = np.flatnonzero(w != query_arm)
    idx, _ = knn(scores[queries, None], scores[cand, None], 1)
    return queries, cand[idx[:, 0]]
