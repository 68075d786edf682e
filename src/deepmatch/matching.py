"""Nearest-neighbor matching across treatment arms and effect estimation.

Matching is exact Euclidean search (no approximation), so results are
deterministic and agree bit for bit with a plain scan. The search is pruned:
a Z-order bound on each query's k-th distance limits it to its own window of
pool rows along one axis, and no row at or below that distance can lie
outside the window (see `knn`). Every neighbor search in the library (effect
matching, score matching, LLE) runs through this one kernel, `knn`. Each
public function checks its whole input where it enters, through `data`'s
rules: representations by `finite_matrix`, labels by `treatment`, and
outcomes and scores by `finite_vector`, so a non-finite row is rejected
even in an arm that no query matches into; `knn` also rejects rows spread
so wide that a distance could overflow. Neighbors come back only as
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

from .data import count, finite_matrix, finite_vector, treatment


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


# distances one scan group may hold at once; bounds the kernel's scratch memory
_BLOCK_ENTRIES = 1 << 15
# below this gap a squared difference leaves the normal range (see propensity_match)
_UNDERFLOW_GAP = 1.5e-154


def _check_span(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Reject points, the columns of a and b, whose bounding box has a diagonal past 2^511.

    Up to it, about 6.7e153, a sum of squared gaps is at most 2^1022, a quarter
    of the largest float; past 2^512 a distance can overflow, and every
    farther point then ties with it at inf. Halved spans, scaled by 2^-600,
    keep the check's own squares finite.
    """
    lo = np.minimum(a.min(axis=1, initial=np.inf), b.min(axis=1, initial=np.inf))
    hi = np.maximum(a.max(axis=1, initial=-np.inf), b.max(axis=1, initial=-np.inf))
    if np.square((hi / 2 - lo / 2) * 2.0**-600).sum() > 2.0**-180:  # half-diagonal 2^510
        raise ValueError(f"{what} span too wide: the diagonal of the bounding box passes "
                         "2^511 (about 6.7e153), where a squared distance could overflow")


def _distances(q: np.ndarray, p: np.ndarray, slots: np.ndarray | None = None) -> np.ndarray:
    """Kernel distances sqrt(sum((p-q)^2)) over the first axis, the coordinates, of q and p.

    With `slots`, each coordinate of p is gathered at those places as it is
    summed. Summed one coordinate at a time left to right, so every entry has
    the bits of a plain scalar scan (numpy's vectorized sum reassociates terms).
    """
    shape = p.shape[1:] if slots is None else slots.shape
    dist = np.zeros(np.broadcast_shapes(q.shape[1:], shape))
    delta = np.empty_like(dist)
    for c in range(q.shape[0]):
        pc = p[c] if slots is None else p[c].take(slots, mode="clip", out=delta)
        np.subtract(pc, q[c], out=delta)
        np.multiply(delta, delta, out=delta)
        dist += delta
    return np.sqrt(dist, out=dist)


def _morton(x: np.ndarray, lo: np.ndarray, span: np.ndarray, bits: int) -> np.ndarray:
    """Z-order keys of x's columns: `bits` bits of each coordinate's cell, interleaved.

    Cells split each row's range [lo, lo + 2*span] evenly; values outside clip to the
    edge cells. Halving before subtracting keeps every value finite.
    """
    unit = np.clip(x / 2 - lo / 2, 0, span) / span * (1 << bits)
    cells = np.minimum(unit, (1 << bits) - 1, out=unit).astype(np.int64)
    # spread[v]: v's bit b moved to place b*d, so coordinate c's land at b*d + c
    spread = np.zeros(1, dtype=np.int64)
    for b in range(bits):
        spread = np.concatenate([spread, spread | 1 << b * x.shape[0]])
    return (spread[cells] << np.arange(x.shape[0])[:, None]).sum(axis=0)


def _positions(ascending: np.ndarray, v: np.ndarray, side: str = "left") -> np.ndarray:
    """np.searchsorted(ascending, v, side), run on v in sorted order, where it is faster."""
    order = np.argsort(v)
    out = np.empty(v.shape[0], dtype=np.intp)
    out[order] = np.searchsorted(ascending, v[order], side)
    return out


def _scan(dist: np.ndarray, col: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(col, dist) of the k least (dist, col) entries of each row; a row's cols are distinct."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    near = dist <= kth
    if np.count_nonzero(near) > 2 * k * dist.shape[0]:
        # heavy ties: the strictly closer, and each row's k lowest-index tied
        tied = dist == kth
        last = np.where(tied, col, np.iinfo(col.dtype).max)
        last.partition(k - 1, axis=1)
        near = (dist < kth) | (tied & (col <= last[:, k - 1 : k]))
    # candidates by (row, distance, index); each row's first k win
    row, slot = np.nonzero(near)
    order = np.lexsort((col[row, slot], dist[row, slot], row))
    pick = order[np.flatnonzero(np.diff(row, prepend=-1))[:, None] + np.arange(k)]
    return col[row[pick], slot[pick]], dist[row[pick], slot[pick]]


def _zorder_bound(q: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """Each query's k-th smallest distance to the 2k pool rows next to it in Z-order."""
    n_pool = p.shape[1]
    lo = p.min(axis=1, keepdims=True)
    span = p.max(axis=1, keepdims=True) / 2 - lo / 2
    span[span == 0] = 1.0
    # 10 bits per coordinate, fewer where the key would not fit in an int64
    keys = _morton(np.concatenate([p, q], axis=1), lo, span, min(10, 63 // p.shape[0]))
    by_key = np.argsort(keys[:n_pool])
    width = min(2 * k, n_pool)
    first = np.clip(_positions(keys[by_key], keys[n_pool:]) - k, 0, n_pool - width)
    r = np.empty(q.shape[1])
    step = max(1, _BLOCK_ENTRIES // width)
    for s in range(0, q.shape[1], step):
        near = by_key[first[s : s + step, None] + np.arange(width)]
        r[s : s + step] = np.partition(
            _distances(q[:, s : s + step, None], p, near), k - 1, axis=1)[:, k - 1]
    return r


def knn(queries: np.ndarray, pool: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest pool rows of each query row: (indices, distances), n_queries x k.

    Nearest first; ties go to the lower pool index. A distance is sqrt(sum((a-b)^2)),
    never the inner-product identity, summed one coordinate at a time left to right,
    so it agrees digit-for-digit with a plain scalar scan.

    The search is pruned, never approximate. Each query's k-th distance is
    bounded above by r, the k-th smallest distance to the 2k pool rows next to
    it in Z-order (Morton 1966); any k rows give a valid bound, so the key only
    affects speed. A query scans only its window, the pool rows whose coordinate
    on the pool's widest axis is within r*(1 + 1e-9) + 1.5e-154 of its own. No
    row at or below the k-th distance falls outside: a left-to-right sum of
    squares is never below its axis term, so such a row's axis gap is at most
    its distance, up to roundings that the 1e-9 covers, or is below 1.5e-154,
    where its square underflows. Queries go in groups by window width; a group
    pads each window with inf to its widest, at most twice its narrowest, and
    holds at most _BLOCK_ENTRIES distances, or one query.
    """
    queries = finite_matrix(queries, "queries")
    pool = finite_matrix(pool, "pool", queries.shape[1])
    n_queries, n_pool = queries.shape[0], pool.shape[0]
    count(k, "k", 1)
    if k > n_pool:
        raise ValueError(f"k must be in [1, {n_pool}] (pool size), got {k}")
    # one row per coordinate from here on, each a contiguous array
    q, p = queries.T.copy(), pool.T.copy()
    _check_span(q, p, "queries and pool")
    if p.shape[0] == 0:  # no coordinates: every distance is 0, as with one zero column
        q, p = np.zeros((1, n_queries)), np.zeros((1, n_pool))
    # the pool in order of its widest coordinate (halved, so no difference
    # overflows); each query's window is a slice [left, right) of that order
    axis = int(np.argmax(p.max(axis=1) / 2 - p.min(axis=1) / 2))
    by_axis = np.argsort(p[axis])
    p = p[:, by_axis]
    pad = _zorder_bound(q, p, k) * (1 + 1e-9) + _UNDERFLOW_GAP
    left = _positions(p[axis], q[axis] - pad)
    right = _positions(p[axis], q[axis] + pad, side="right")
    order = np.argsort(right - left)
    size = (right - left)[order]
    indices = np.empty((n_queries, k), dtype=np.intp)
    distances = np.empty((n_queries, k))
    start = 0
    while start < n_queries:
        # sizes ascend, so a group's last window is its widest
        stop = np.searchsorted(size, 2 * size[start], side="right")
        stop = min(stop, start + max(1, _BLOCK_ENTRIES // size[start]))
        stop = start + max(1, min(stop - start, _BLOCK_ENTRIES // size[stop - 1]))
        rows = order[start:stop]
        slots = left[rows, None] + np.arange(size[stop - 1])
        dist = _distances(q.take(rows, axis=1)[:, :, None], p, slots)
        dist[slots >= right[rows, None]] = np.inf
        indices[rows], distances[rows] = _scan(dist, by_axis.take(slots, mode="clip"), k)
        start = stop
    return indices, distances


def nearest_opposite(
    z: np.ndarray, w: np.ndarray, i: int, k: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances) of unit i's k nearest opposite-arm units in z, nearest first."""
    z = finite_matrix(z, "representations z")
    w = treatment(w, z.shape[0])
    count(i, "i", 0, z.shape[0] - 1)
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
    count(k, "k", 1)
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
    count(query_arm, "query_arm", 0, 1)
    w = treatment(w, scores.shape[0])
    queries = np.flatnonzero(w == query_arm)
    cand = np.flatnonzero(w != query_arm)
    idx, _ = knn(scores[queries, None], scores[cand, None], 1)
    return queries, cand[idx[:, 0]]
