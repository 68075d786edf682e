from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepmatch import matching
from deepmatch.data import SwissRollConfig, duplicate_twins, gen_swiss_roll
from deepmatch.embedding import fit_lle, lle_weight_matrix
from deepmatch.matching import (
    EffectEstimate,
    estimate_effects,
    estimate_effects_pooled,
    knn,
    nearest_opposite,
    propensity_match,
)
from oracles import effects_scan, knn_scan, lle_dense_weights


def random_instance(rng, n_max=200, d_max=5):
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    z = rng.standard_normal((n, d))
    w = np.zeros(n, dtype=int)
    n1 = int(rng.integers(1, n))
    w[rng.permutation(n)[:n1]] = 1
    y = rng.standard_normal(n)
    return z, w, y


def tied_instance(rng, n_pool_max=30, d_max=4):
    """Queries and pool on a coarse integer grid, with duplicated pool rows."""
    d = int(rng.integers(1, d_max + 1))
    base = rng.integers(-2, 3, size=(int(rng.integers(1, n_pool_max + 1)), d)).astype(float)
    pool = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, n_pool_max + 1)))]
    queries = rng.integers(-2, 3, size=(int(rng.integers(1, 12)), d)).astype(float)
    return queries, pool


def scan_pool(query, pool, k):
    """knn_scan of one query against a pool: the query is the only treated unit."""
    z = [list(query)] + pool.tolist()
    idx, dist = knn_scan(z, [1] + [0] * pool.shape[0], 0, k)
    return [j - 1 for j in idx], dist


@st.composite
def knn_cases(draw, dims=st.integers(1, 5)):
    """(queries, pool, k) on a coarse grid at one scale, with repeated pool rows.

    The scale puts coordinates at 1, at the 1e-154 underflow floor of a
    squared difference, far below it, or at 1e150; queries reach past the
    pool's range on every side.
    """
    d = draw(dims)
    scale = draw(st.sampled_from([1.0, 1e-154, 1e-162, 1e150]))
    coords = st.one_of(st.integers(-3, 3), st.floats(-3, 3).map(lambda v: round(v, 2)))
    rows = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=30))
    pool = np.array([rows[i] for i in picks], dtype=float).reshape(-1, d) * scale
    wide = st.one_of(coords, st.integers(-9, 9))
    queries = draw(st.lists(st.lists(wide, min_size=d, max_size=d), min_size=1, max_size=8))
    queries = np.array(queries, dtype=float).reshape(-1, d) * scale
    k = draw(st.one_of(st.just(pool.shape[0]), st.integers(1, pool.shape[0])))
    return queries, pool, k


def assert_scan_exact(queries, pool, k):
    idx, dist = knn(queries, pool, k)
    assert idx.shape == dist.shape == (queries.shape[0], k)
    for r, q in enumerate(queries):
        assert (idx[r].tolist(), dist[r].tolist()) == scan_pool(q, pool, k)


KNN_PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


class TestKnnProperties:
    @KNN_PROPERTY
    @given(case=knn_cases(), block_entries=st.sampled_from([1, 40, 1 << 16]))
    def test_agrees_with_scan_oracle(self, case, block_entries):
        # small budgets split the queries into many groups, down to one query each
        with mock.patch.object(matching, "_BLOCK_ENTRIES", block_entries):
            assert_scan_exact(*case)

    @settings(KNN_PROPERTY, max_examples=25)
    @given(case=knn_cases(dims=st.integers(64, 70)))
    def test_agrees_with_scan_oracle_past_63_columns(self, case):
        # 63 // d = 0 key bits: every Z-order key is equal, the bound stays valid
        assert_scan_exact(*case)

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_one_dimensional_all_equal_scores(self, n):
        # every pool row ties at distance 0: each query takes rows 0..k-1
        for k in sorted({1, min(3, n), n}):
            idx, dist = knn(np.full((5, 1), 0.25), np.full((n, 1), 0.25), k)
            assert idx.tolist() == [list(range(k))] * 5
            assert dist.tolist() == [[0.0] * k] * 5

    def test_zero_columns_every_distance_zero(self):
        idx, dist = knn(np.zeros((3, 0)), np.zeros((5, 0)), 4)
        assert idx.tolist() == [[0, 1, 2, 3]] * 3
        assert dist.tolist() == [[0.0] * 4] * 3

    @pytest.mark.parametrize("block_entries", [1, 50, 700])
    def test_scan_blocks_stay_within_block_entries(self, monkeypatch, block_entries):
        rng = np.random.default_rng(34)
        cases = [
            (np.full((40, 1), 0.5), np.full((90, 1), 0.5), 4),  # the window is the whole pool
            (rng.standard_normal((60, 3)), rng.standard_normal((200, 3)), 5),
        ]
        want = [knn(*case) for case in cases]
        monkeypatch.setattr(matching, "_BLOCK_ENTRIES", block_entries)
        scan = matching._scan
        shapes = []

        def recording_scan(dist, col, k):
            shapes.append(dist.shape)
            return scan(dist, col, k)

        monkeypatch.setattr(matching, "_scan", recording_scan)
        for case, (want_idx, want_dist) in zip(cases, want):
            idx, dist = knn(*case)
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
        assert shapes
        assert all(rows == 1 or rows * width <= block_entries for rows, width in shapes)


class TestKnnKernel:
    def test_twin_queries_agree_with_scan(self):
        # every query has a zero-distance duplicate in the pool, as in twin mode
        ds = duplicate_twins(gen_swiss_roll(SwissRollConfig(n=150), seed=35))
        for z in (ds.x, ds.x[:, :2]):
            queries, pool = z[ds.w == 1], z[ds.w == 0]
            for k in (1, 2, 5):
                idx, dist = knn(queries, pool, k)
                assert dist[:, 0].tolist() == [0.0] * queries.shape[0]
                for r in range(queries.shape[0]):
                    assert (idx[r].tolist(), dist[r].tolist()) == scan_pool(queries[r], pool, k)

    def test_outlier_leaves_other_windows_unchanged(self, monkeypatch):
        # the pool is widest along x, and the outlier lies far off along y, so its
        # window spans the whole pool; the other queries' windows stay as they were
        rng = np.random.default_rng(36)
        pool = rng.random((2000, 2)) * [2.0, 1.0]
        queries = rng.random((300, 2)) * [2.0, 1.0]
        scan = matching._scan
        windows = []

        def recording_scan(dist, col, k):
            windows.extend(np.isfinite(dist).sum(axis=1).tolist())
            return scan(dist, col, k)

        monkeypatch.setattr(matching, "_scan", recording_scan)
        want = knn(queries, pool, 3)
        alone = sorted(windows)
        windows.clear()
        idx, dist = knn(np.vstack([queries[:150], [[1.0, 50.0]], queries[150:]]), pool, 3)
        assert np.array_equal(np.delete(idx, 150, axis=0), want[0])
        assert np.array_equal(np.delete(dist, 150, axis=0), want[1])
        assert sorted(windows) == sorted(alone + [pool.shape[0]])

    def test_zero_queries_return_empty_arrays(self):
        idx, dist = knn(np.zeros((0, 3)), np.ones((5, 3)), 2)
        assert idx.shape == dist.shape == (0, 2)
        assert idx.dtype == np.intp and dist.dtype == np.float64

    @pytest.mark.parametrize(
        "queries, pool",
        [
            ([[0.0]], [[2e154], [1.5e154]]),  # 2e154^2 overflows: both rows would read inf
            ([[0.0, 0.0]], [[1e154, 1e154], [9e153, 9e153]]),  # only the diagonal overflows
            ([[1e308]], [[-1.5e308], [-1e308]]),  # the gap itself overflows
            ([[-1e308, 1e308]], [[1e308, -1e308], [0.0, 0.0]]),
        ],
        ids=["1d", "2d", "1e308", "1e308-2d"],
    )
    def test_span_whose_distances_could_overflow_rejected(self, queries, pool):
        # the check itself neither overflows nor warns, even at +-1e308
        with pytest.raises(ValueError, match="queries and pool span too wide"):
            knn(queries, pool, 1)
        with pytest.raises(ValueError, match="span too wide"):  # through the pooled effects
            estimate_effects_pooled(queries, [1], [0.0], pool, [0, 0], [0.0, 0.0])

    def test_span_just_inside_the_limit_stays_exact(self):
        # diagonals of 6e153 and 5.7e153, below 2^511: every square is finite
        for pool in ([[6e153], [5e153]], [[4e153, 4e153], [3e153, 3e153]]):
            pool = np.array(pool)
            query = np.zeros(pool.shape[1])
            idx, dist = knn(query[None], pool, 1)
            assert idx.tolist() == [[1]]
            assert (idx[0].tolist(), dist[0].tolist()) == scan_pool(query, pool, 1)

    @pytest.mark.parametrize("block_entries", [1 << 16, 40, 1])
    def test_matches_scan_oracle_with_heavy_ties(self, monkeypatch, block_entries):
        # small block budgets force one query (or a few) per block
        monkeypatch.setattr(matching, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(30)
        for _ in range(25):
            queries, pool = tied_instance(rng)
            full = [scan_pool(q, pool, pool.shape[0]) for q in queries]
            for k in range(1, pool.shape[0] + 1):
                idx, dist = knn(queries, pool, k)
                assert idx.shape == dist.shape == (queries.shape[0], k)
                for r, (want_idx, want_dist) in enumerate(full):
                    assert idx[r].tolist() == want_idx[:k]
                    assert dist[r].tolist() == want_dist[:k]

    def test_continuous_data_across_many_blocks(self):
        # 12 columns: numpy's pairwise sum would reassociate these, the kernel must not
        rng = np.random.default_rng(31)
        pool = rng.standard_normal((1500, 12))
        queries = np.vstack([rng.standard_normal((60, 12)), pool[:5]])
        idx, dist = knn(queries, pool, 4)
        for r in range(0, queries.shape[0], 7):
            assert (idx[r].tolist(), dist[r].tolist()) == scan_pool(queries[r], pool, 4)
        assert dist[-5:, 0].tolist() == [0.0] * 5

    def test_one_dimensional_scores_agree_with_abs_difference_scan(self, monkeypatch):
        monkeypatch.setattr(matching, "_BLOCK_ENTRIES", 50)
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            scores = np.round(rng.random(n), int(rng.integers(1, 4)))
            w = (rng.random(n) < 0.5).astype(int)
            w[:2] = (0, 1)
            for arm in (0, 1):
                queries = np.flatnonzero(w == arm)
                cand = np.flatnonzero(w != arm)
                idx, dist = knn(scores[queries, None], scores[cand, None], 1)
                got, matched = propensity_match(scores, w, query_arm=arm)
                assert got.tolist() == queries.tolist()
                for r, q in enumerate(queries):
                    gaps = [abs(scores[q] - scores[j]) for j in cand]
                    best = min(range(len(cand)), key=lambda t: (gaps[t], cand[t]))
                    assert idx[r].tolist() == [best]
                    assert dist[r].tolist() == [gaps[best]]
                    assert matched[r] == cand[best]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, bad):
        pool = np.zeros((4, 2))
        with pytest.raises(ValueError, match="finite"):
            knn(np.array([[0.0, bad]]), pool, 1)
        pool[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            knn(np.zeros((1, 2)), pool, 1)

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_k_outside_pool_rejected(self, k):
        with pytest.raises(ValueError, match="k must"):
            knn(np.zeros((1, 2)), np.zeros((4, 2)), k)

    def test_lle_neighbours_skip_self_among_many_duplicates(self):
        # point 0 appears 9 times, more than k+1 = 6, so ties at distance 0
        # can rank i itself beyond the k+1 nearest
        rng = np.random.default_rng(33)
        x = np.vstack([np.tile([[0.5, -1.0, 2.0]], (9, 1)), rng.standard_normal((25, 3))])
        x = x[rng.permutation(x.shape[0])]
        k = 5
        w = lle_dense_weights(*lle_weight_matrix(x, k, 1e-3))
        for i in range(x.shape[0]):
            assert w[i, i] == 0.0
            want, _ = knn_scan(x.tolist(), [int(j == i) for j in range(x.shape[0])], i, k)
            assert np.flatnonzero(w[i]).tolist() == sorted(want)
        assert np.all(np.isfinite(fit_lle(x, 2, k_neighbors=k).embedding))


class TestNearestOpposite:
    def test_two_candidate_example(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        w = np.array([1, 0, 0])
        idx, dist = nearest_opposite(z, w, 0, k=1)
        assert idx.tolist() == [1]
        assert dist.tolist() == [1.0]

    def test_duplicate_gives_distance_zero(self):
        z = np.array([[2.0, 2.0], [2.0, 2.0], [5.0, 5.0]])
        w = np.array([1, 0, 0])
        idx, dist = nearest_opposite(z, w, 0, k=1)
        assert idx[0] == 1
        assert dist[0] == 0.0

    def test_ties_take_lower_index(self):
        z = np.array([[0.0], [1.0], [-1.0], [1.0]])
        w = np.array([1, 0, 0, 0])
        idx, _ = nearest_opposite(z, w, 0, k=3)
        assert idx.tolist() == [1, 2, 3]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            z, w, y = random_instance(rng, n_max=60)
            k_cap = min(3, int((w == 1).sum()), int((w == 0).sum()))
            for k in range(1, k_cap + 1):
                for i in range(z.shape[0]):
                    got_idx, got_dist = nearest_opposite(z, w, i, k=k)
                    idx, dist = knn_scan(z.tolist(), w.tolist(), i, k)
                    assert got_idx.tolist() == idx
                    assert got_dist.tolist() == dist

    def test_empty_arm_rejected(self):
        z = np.zeros((3, 1))
        with pytest.raises(ValueError, match="treated arm is empty"):
            nearest_opposite(z, np.array([0, 0, 0]), 0, k=1)
        with pytest.raises(ValueError, match="control arm is empty"):
            nearest_opposite(z, np.array([1, 1, 1]), 0, k=1)

    def test_k_beyond_opposite_arm_rejected(self):
        z = np.zeros((3, 1))
        with pytest.raises(ValueError, match="k must"):
            nearest_opposite(z, np.array([1, 0, 1]), 0, k=2)


_Z6, _W6 = np.arange(12.0).reshape(6, 2), np.array([1, 0, 1, 0, 1, 0])


@pytest.mark.parametrize(
    "call, good, bad, name",
    [
        (lambda v: nearest_opposite(_Z6, _W6, v), 5, 6, "i"),
        (lambda v: nearest_opposite(_Z6, _W6, v), 0, -1, "i"),
        (lambda v: nearest_opposite(_Z6, _W6, v), 2, 2.5, "i"),
        (lambda v: nearest_opposite(_Z6, _W6, v), 1, True, "i"),
        (lambda v: propensity_match(_Z6[:, 0], _W6, v), 1, True, "query_arm"),
        (lambda v: propensity_match(_Z6[:, 0], _W6, v), 1, 1.0, "query_arm"),
    ],
    ids=["i-past-end", "i-negative", "i-float", "i-bool", "query_arm-bool", "query_arm-float"],
)
def test_unit_and_arm_arguments_rejected_where_they_enter(call, good, bad, name):
    call(np.int64(good))  # a NumPy integer is an integer
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(bad)


class TestEstimateEffects:
    def test_identical_units_both_branches(self):
        z = np.zeros((2, 3))
        est = estimate_effects(z, np.array([1, 0]), np.array([5.0, 3.0]), k=1)
        assert est.ite.tolist() == [2.0, 2.0]
        assert est.ate == 2.0

    def test_constant_effect_with_duplicated_covariates(self):
        rng = np.random.default_rng(1)
        n = 25
        x = rng.standard_normal((n, 3))
        tau = 1.75
        y0 = rng.standard_normal(n)
        z = np.vstack([x, x])
        w = np.concatenate([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
        y = np.concatenate([y0 + tau, y0])
        est = estimate_effects(z, w, y, k=1)
        assert np.allclose(est.ite, tau, atol=1e-12)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            z, w, y = random_instance(rng, n_max=50)
            k_cap = min(3, int((w == 1).sum()), int((w == 0).sum()))
            for k in range(1, k_cap + 1):
                est = estimate_effects(z, w, y, k=k)
                expect = effects_scan(z.tolist(), w.tolist(), y.tolist(), k)
                assert est.ite.tolist() == expect
                assert est.ate == np.mean(np.asarray(expect))

    def test_isometry_invariance(self):
        rng = np.random.default_rng(3)
        z, w, y = random_instance(rng, n_max=40, d_max=3)
        d = z.shape[1]
        rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
        base = estimate_effects(z, w, y, k=1)
        moved = estimate_effects(z @ rot + 7.5, w, y, k=1)
        assert np.allclose(base.ite, moved.ite, atol=1e-9)

    def test_uniform_scaling_invariance(self):
        rng = np.random.default_rng(4)
        z, w, y = random_instance(rng, n_max=40)
        base = estimate_effects(z, w, y, k=1)
        scaled = estimate_effects(z * 3.7, w, y, k=1)
        assert np.array_equal(base.ite, scaled.ite)

    def test_twin_dataset_recovers_truth_exactly(self):
        ds = duplicate_twins(gen_swiss_roll(SwissRollConfig(n=80), 5))
        est = estimate_effects(ds.x, ds.w, ds.y_obs, k=1)
        assert np.abs(est.ite - ds.truth.ite_true).max() <= 1e-10

    def test_ate_is_mean_of_ite(self):
        rng = np.random.default_rng(6)
        z, w, y = random_instance(rng)
        est = estimate_effects(z, w, y, k=1)
        assert est.ate == np.mean(est.ite)

    def test_estimate_invariants_enforced(self):
        for ite in ([1.0, np.nan], [np.inf, 2.0], []):
            with pytest.raises(ValueError, match="finite"):
                EffectEstimate(ite=np.array(ite))


class TestPooledEffects:
    def test_queries_match_into_pool_only(self):
        z_pool = np.array([[0.0], [10.0]])
        w_pool = np.array([0, 1])
        y_pool = np.array([1.0, 7.0])
        est = estimate_effects_pooled(
            np.array([[0.2]]), np.array([1]), np.array([4.0]),
            z_pool, w_pool, y_pool, k=1,
        )
        assert est.ite.tolist() == [3.0]

    def test_agrees_with_in_sample_on_self_pool(self):
        rng = np.random.default_rng(7)
        z, w, y = random_instance(rng, n_max=30)
        a = estimate_effects(z, w, y, k=1)
        b = estimate_effects_pooled(z, w, y, z, w, y, k=1)
        # self-matching differs (a unit can match itself across arms is impossible;
        # same arms, same candidates) so the two routes must agree exactly
        assert np.array_equal(a.ite, b.ite)

    def test_missing_pool_arm_rejected(self):
        with pytest.raises(ValueError, match="control arm of the matching pool"):
            estimate_effects_pooled(
                np.zeros((1, 1)), np.array([1]), np.zeros(1),
                np.zeros((2, 1)), np.array([1, 1]), np.zeros(2), k=1,
            )


_Z = np.random.default_rng(40).standard_normal((20, 3))
_W = np.tile([1, 0], 10)
_Y = np.random.default_rng(41).standard_normal(20)


def _z_with(value, row):
    z = _Z.copy()
    z[row] = value
    return z


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: estimate_effects(_z_with(np.nan, 7), _W, _Y), "finite", id="nan_row"),
        pytest.param(lambda: estimate_effects(_z_with(np.inf, 4), _W, _Y), "finite", id="inf_row"),
        pytest.param(lambda: estimate_effects(_Z, _W, _Y, k=-1), "k must", id="k_negative"),
        pytest.param(lambda: estimate_effects(_Z, _W, _Y, k=0), "k must", id="k_zero"),
        pytest.param(
            lambda: estimate_effects_pooled(_Z[:5], _W[:5], _Y[:5], _Z, _W, _Y, k=0),
            "k must", id="pooled_k_zero",
        ),
        pytest.param(
            lambda: estimate_effects_pooled(_Z[:5], _W[:5], _Y[:5], _Z, _W[:12], _Y),
            r"treatment w has shape \(12,\), expected \(20,\)", id="short_w_pool",
        ),
        pytest.param(
            lambda: estimate_effects_pooled(_Z[:5], _W[:5], _Y[:5], _Z, _W, _Y[:12]),
            "outcomes y_pool must be a vector of length 20", id="short_y_pool",
        ),
        pytest.param(
            lambda: estimate_effects_pooled(_Z[:5], _W[:8], _Y[:5], _Z, _W, _Y),
            r"treatment w has shape \(8,\), expected \(5,\)", id="long_w_query",
        ),
        pytest.param(
            lambda: estimate_effects_pooled(_Z[:5], _W[:5], _Y[:5], _z_with(np.nan, 9), _W, _Y),
            "finite", id="nan_pool_row",
        ),
        pytest.param(
            lambda: estimate_effects(_Z, _W, np.where(np.arange(20) == 3, np.nan, _Y)),
            "finite", id="nan_y_query",
        ),
        pytest.param(
            lambda: estimate_effects_pooled(
                _Z[:5], _W[:5], _Y[:5], _Z, _W, np.where(np.arange(20) == 6, np.inf, _Y)
            ),
            "finite", id="inf_y_pool",
        ),
    ],
)
def test_bad_matching_input_rejected_where_it_enters(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestPropensityMatch:
    def test_nearest_score_example(self):
        scores = np.array([0.9, 0.1, 0.85])
        w = np.array([1, 0, 0])
        queries, matched = propensity_match(scores, w)
        assert queries.tolist() == [0]
        assert matched.tolist() == [2]

    def test_identical_scores_tie_to_first_control(self):
        scores = np.full(6, 0.4)
        w = np.array([1, 1, 0, 1, 0, 0])
        _, matched = propensity_match(scores, w)
        assert matched.tolist() == [2, 2, 2]

    def test_direction_flag(self):
        scores = np.array([0.2, 0.8, 0.25])
        w = np.array([1, 1, 0])
        queries, matched = propensity_match(scores, w, query_arm=0)
        assert queries.tolist() == [2]
        assert matched.tolist() == [0]

    def test_matching_with_replacement(self):
        scores = np.array([0.5, 0.51, 0.49, 0.5])
        w = np.array([1, 1, 1, 0])
        _, matched = propensity_match(scores, w)
        assert matched.tolist() == [3, 3, 3]

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            propensity_match(np.array([0.5, np.nan]), np.array([1, 0]))

    def test_query_results_cover_query_arm(self):
        rng = np.random.default_rng(8)
        scores = rng.random(30)
        w = (rng.random(30) < 0.5).astype(int)
        if w.sum() in (0, 30):
            w[0] = 1 - w[0]
        queries, matched = propensity_match(scores, w)
        assert queries.tolist() == np.flatnonzero(w == 1).tolist()
        assert np.all(w[matched] == 0)
