"""Splitter determination (Algorithms 2+3) tests.

The central invariant: for every boundary, some achievable left-count in
``[L, U]`` is within tolerance of the target, splitter values are
monotone, and the realized ranks reproduce the requested capacities.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SplitterConfig, find_splitters
from repro.core.multiselect import SplitterConvergenceError, _ProbeArithmetic
from repro.data import make_partition
from repro.mpi import SPMDError
from tests.conftest import spmd


def _find(run, parts, caps=None, eps=0.0, config=None):
    p = len(parts)

    def prog(comm):
        return find_splitters(
            comm, np.sort(parts[comm.rank]), capacities=caps, eps=eps, config=config
        )

    return run(p, prog)


def _assert_valid(parts, res, eps=0.0):
    """Check the splitter result against a global oracle."""
    allk = np.sort(np.concatenate([np.asarray(q) for q in parts]))
    n = allk.size
    p = len(parts)
    tol = int(np.floor(eps * n / (2 * p)))
    assert res.nboundaries == p - 1
    prev = None
    for i in range(p - 1):
        v = res.values[i]
        L = np.searchsorted(allk, v, side="left")
        U = np.searchsorted(allk, v, side="right")
        assert res.lower[i] == L and res.upper[i] == U, f"bounds wrong at {i}"
        r = res.realized_ranks[i]
        assert L <= r <= U, f"realized rank not achievable at {i}"
        assert abs(r - res.targets[i]) <= tol, f"tolerance violated at {i}"
        if prev is not None:
            assert v >= prev, "splitter values must be monotone"
            assert r >= res.realized_ranks[i - 1], "realized ranks must be monotone"
        prev = v


class TestFindSplitters:
    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_uniform_ints(self, run, rng, p):
        parts = [rng.integers(0, 10**9, 2000).astype(np.uint64) for _ in range(p)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_normal_floats(self, run, rng):
        parts = [rng.normal(size=1500) for _ in range(6)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_float32(self, run, rng):
        parts = [rng.normal(size=1500).astype(np.float32) for _ in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)
        assert res.values.dtype == np.float32

    def test_heavy_duplicates(self, run, rng):
        parts = [rng.integers(0, 4, 3000).astype(np.int64) for _ in range(5)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_all_equal(self, run):
        parts = [np.full(1000, 7, dtype=np.int64) for _ in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)
        assert res.rounds == 0  # resolved by the min-run pre-acceptance

    def test_sparse_partitions(self, run, rng):
        parts = [
            rng.integers(0, 10**6, 0 if r % 2 else 2000).astype(np.int64)
            for r in range(6)
        ]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_single_holder(self, run, rng):
        parts = [rng.integers(0, 1000, 4000).astype(np.int64)] + [
            np.zeros(0, dtype=np.int64) for _ in range(3)
        ]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)
        # trailing empty ranks: boundaries at the global end
        assert res.realized_ranks[-1] == 4000

    def test_negative_keys(self, run, rng):
        parts = [rng.integers(-10**6, 10**6, 1500).astype(np.int64) for _ in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_nearly_sorted(self, run):
        parts = [np.arange(r * 1000, (r + 1) * 1000, dtype=np.int64) for r in range(4)]
        res = _find(run, parts)[0]
        _assert_valid(parts, res)

    def test_custom_capacities(self, run, rng):
        parts = [rng.integers(0, 10**6, 1000).astype(np.int64) for _ in range(4)]
        caps = [4000, 0, 0, 0]
        res = _find(run, parts, caps=caps)[0]
        _assert_valid(parts, res)
        assert res.realized_ranks.tolist() == [4000, 4000, 4000]

    def test_capacities_must_sum(self, run, rng):
        parts = [rng.integers(0, 100, 10).astype(np.int64) for _ in range(2)]
        with pytest.raises(SPMDError):
            _find(run, parts, caps=[5, 6])

    def test_eps_reduces_rounds(self, run, rng):
        parts = [rng.integers(0, 10**9, 4000).astype(np.uint64) for _ in range(6)]
        exact = _find(run, parts, eps=0.0)[0]
        loose = _find(run, parts, eps=0.1)[0]
        _assert_valid(parts, loose, eps=0.1)
        assert loose.rounds < exact.rounds

    def test_empty_world(self, run):
        parts = [np.zeros(0, dtype=np.int64) for _ in range(3)]
        res = _find(run, parts)[0]
        assert res.total == 0
        assert res.rounds == 0

    def test_single_rank(self, run, rng):
        parts = [rng.normal(size=100)]
        res = _find(run, parts)[0]
        assert res.nboundaries == 0

    def test_replicated_result(self, run, rng):
        parts = [rng.normal(size=500) for _ in range(4)]
        out = _find(run, parts)
        for r in out[1:]:
            assert np.array_equal(r.values, out[0].values)
            assert np.array_equal(r.realized_ranks, out[0].realized_ranks)

    def test_rounds_bounded_by_key_width(self, run, rng):
        parts = [rng.integers(0, 2**16, 4000).astype(np.uint64) for _ in range(4)]
        res = _find(run, parts)[0]
        assert res.rounds <= 16 + 2

    def test_rounds_independent_of_p(self, run, rng):
        rounds = []
        for p in (2, 4, 8):
            parts = [rng.integers(0, 10**9, 2000).astype(np.uint64) for _ in range(p)]
            rounds.append(_find(run, parts)[0].rounds)
        assert max(rounds) - min(rounds) <= 6  # §V-A: P does not drive rounds

    def test_convergence_guard(self, run, rng):
        parts = [rng.normal(size=500) for _ in range(4)]
        cfg = SplitterConfig(max_rounds=1)
        with pytest.raises(SPMDError) as ei:
            _find(run, parts, config=cfg)
        assert isinstance(
            ei.value.failures[min(ei.value.failures)], SplitterConvergenceError
        )

    def test_2d_rejected(self, run):
        def prog(comm):
            return find_splitters(comm, np.zeros((2, 2)))

        with pytest.raises(SPMDError):
            run(2, prog)

    def test_nonnumeric_rejected(self, run):
        def prog(comm):
            return find_splitters(comm, np.array(["a", "b"]))

        with pytest.raises(SPMDError):
            run(2, prog)


class TestSplitterConfigs:
    @pytest.mark.parametrize(
        "config",
        [
            SplitterConfig(initial_guess="sample"),
            SplitterConfig(initial_guess="sample", sample_factor=32),
            SplitterConfig(cross_probe=True),
            SplitterConfig(initial_guess="sample", cross_probe=True),
        ],
        ids=["sample", "sample32", "crossprobe", "both"],
    )
    def test_configs_stay_correct(self, run, rng, config):
        parts = [rng.integers(0, 10**9, 2000).astype(np.uint64) for _ in range(5)]
        res = _find(run, parts, config=config)[0]
        _assert_valid(parts, res)

    def test_cross_probe_never_slower(self, run, rng):
        parts = [rng.normal(size=3000) for _ in range(8)]
        plain = _find(run, parts)[0]
        crossed = _find(run, parts, config=SplitterConfig(cross_probe=True))[0]
        assert crossed.rounds <= plain.rounds

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SplitterConfig(initial_guess="bogus")
        with pytest.raises(ValueError):
            SplitterConfig(sample_factor=0)
        with pytest.raises(ValueError):
            SplitterConfig(max_rounds=0)


# ------------------------------------------------ vectorized bracket state

_IUF = ["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "f2", "f4", "f8"]


def _keys(dtype: np.dtype):
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        edges = [info.min, info.min + 1, 0, 1, info.max - 1, info.max]
        return st.one_of(st.sampled_from(edges), st.integers(info.min, info.max))
    info = np.finfo(dtype)
    specials = [-np.inf, -info.max, -1.0, -info.tiny, -info.smallest_subnormal,
                -0.0, 0.0, info.smallest_subnormal, info.tiny, 1.0, info.max,
                np.inf, np.nan]
    return st.one_of(st.sampled_from(specials), st.floats(width=8 * dtype.itemsize))


@st.composite
def _brackets(draw):
    dtype = np.dtype(draw(st.sampled_from(_IUF)))
    keys = _keys(dtype)
    pairs = draw(st.lists(st.tuples(keys, keys), min_size=1, max_size=32))
    # collapsed brackets (lo == hi) next to whatever order the draw gave
    pairs += [(lo, lo) for lo, _ in pairs[: draw(st.integers(0, 4))]]
    lo = np.array([a for a, _ in pairs], dtype=dtype)
    hi = np.array([b for _, b in pairs], dtype=dtype)
    return lo, hi


class TestProbeMidpoints:
    @settings(max_examples=300, deadline=None)
    @given(_brackets())
    def test_midpoints_match_scalar_bitwise(self, bracket):
        lo, hi = bracket
        arith = _ProbeArithmetic(lo.dtype)
        with np.errstate(all="ignore"):
            want = np.array([arith.midpoint(a, b) for a, b in zip(lo, hi)],
                            dtype=lo.dtype)
        got = arith.midpoints(lo, hi)
        assert got.dtype == lo.dtype
        bits = f"u{lo.dtype.itemsize}"
        np.testing.assert_array_equal(got.view(bits), want.view(bits))

    @pytest.mark.parametrize("dt", ["i8", "u8"])
    def test_integer_extremes(self, dt):
        info = np.iinfo(dt)
        lo = np.array([info.min, info.min, info.max - 1, info.max], dtype=dt)
        hi = np.array([info.max, info.min + 1, info.max, info.min], dtype=dt)
        got = _ProbeArithmetic(np.dtype(dt)).midpoints(lo, hi)
        want = [
            info.min + (int(info.max) - int(info.min) + 1) // 2,  # full range
            info.min + 1,  # one-step bracket lands on hi
            info.max,
            info.min,  # inverted bracket collapses onto hi
        ]
        assert got.tolist() == want


def _golden_parts(dist, p, n, seed):
    g = np.random.default_rng(seed)
    if dist == "int64_full":
        info = np.iinfo(np.int64)
        parts = [g.integers(info.min, info.max, n, dtype=np.int64, endpoint=True)
                 for _ in range(p)]
        parts[0] = np.concatenate([parts[0], [info.min, info.max]])
        return parts
    if dist == "uint64_full":
        top = np.iinfo(np.uint64).max
        parts = [g.integers(0, top, n, dtype=np.uint64, endpoint=True) for _ in range(p)]
        parts[-1] = np.concatenate([parts[-1], np.array([0, top], dtype=np.uint64)])
        return parts
    if dist == "int8":
        return [g.integers(-128, 127, n, dtype=np.int8, endpoint=True) for _ in range(p)]
    if dist == "sparse":
        return [make_partition("uniform_u64", n if r % 3 == 0 else 0, rank=r, seed=seed)
                for r in range(p)]
    return [make_partition(dist, n + 13 * r, rank=r, seed=seed) for r in range(p)]


def _splitter_fingerprint(dist, p, n, seed, config, eps):
    """(rounds, probes_total, digest of values/realized/lower/upper)."""
    parts = _golden_parts(dist, p, n, seed)
    res = _find(spmd, parts, eps=eps, config=config)
    h = hashlib.sha256()
    for a in (res[0].values, res[0].realized_ranks, res[0].lower, res[0].upper):
        h.update(np.ascontiguousarray(a).tobytes())
    return res[0].rounds, res[0].probes_total, h.hexdigest()[:16]


_PLAIN = SplitterConfig()
_CROSS = SplitterConfig(cross_probe=True)
_SAMPLE = SplitterConfig(initial_guess="sample")
_SAMPLE_CROSS = SplitterConfig(initial_guess="sample", cross_probe=True)

#: splitter values, rounds and probe counts recorded with the scalar
#: (per-boundary Python loop) implementation; the vectorized bracket state
#: must reproduce them exactly
_SPLITTER_GOLDEN = [
    # (dist, p, n, seed, config, eps, (rounds, probes_total, digest))
    ('uniform_u64', 3, 300, 3, _PLAIN, 0.0, (10, 19, 'aaf6c74f61d0aed7')),
    ('uniform_u64', 3, 300, 3, _SAMPLE_CROSS, 0.0, (10, 19, 'e65e6e0f7e791c15')),
    ('uniform_u64', 8, 300, 8, _PLAIN, 0.0, (16, 82, 'b420f0d3029e789d')),
    ('uniform_u64', 8, 300, 8, _SAMPLE_CROSS, 0.0, (15, 58, '3d5e7c2fbaeaa16c')),
    ('uniform_u64', 56, 64, 56, _PLAIN, 0.0, (21, 801, '3433695e860ab99f')),
    ('uniform_u64', 56, 64, 56, _SAMPLE_CROSS, 0.0, (16, 611, '00dae7c57e10f8cf')),
    ('normal_f64', 3, 300, 3, _PLAIN, 0.0, (11, 20, 'fecdb5a66f0a8555')),
    ('normal_f64', 3, 300, 3, _SAMPLE_CROSS, 0.0, (10, 18, '08313a8b9d93c993')),
    ('normal_f64', 8, 300, 8, _PLAIN, 0.0, (15, 79, 'e65628099a5de13f')),
    ('normal_f64', 8, 300, 8, _SAMPLE_CROSS, 0.0, (11, 55, '83ae7024763607d8')),
    ('normal_f64', 56, 64, 56, _PLAIN, 0.0, (22, 811, '4f193ee6e78ef41a')),
    ('normal_f64', 56, 64, 56, _SAMPLE_CROSS, 0.0, (16, 572, '6125a132de02c901')),
    ('normal_f32', 3, 300, 3, _PLAIN, 0.0, (11, 20, 'dc08b15478f9f47f')),
    ('normal_f32', 3, 300, 3, _SAMPLE_CROSS, 0.0, (10, 18, '7369479292ed0d41')),
    ('normal_f32', 8, 300, 8, _PLAIN, 0.0, (15, 79, '0ffc7c901e565d45')),
    ('normal_f32', 8, 300, 8, _SAMPLE_CROSS, 0.0, (11, 55, 'b07480b10c94b997')),
    ('zipf_u64', 3, 300, 3, _PLAIN, 0.0, (9, 9, 'a0ec07b74fdfee88')),
    ('zipf_u64', 3, 300, 3, _SAMPLE_CROSS, 0.0, (2, 2, 'a0ec07b74fdfee88')),
    ('zipf_u64', 8, 300, 8, _PLAIN, 0.0, (14, 38, '3ac86351e8cddf47')),
    ('zipf_u64', 8, 300, 8, _SAMPLE_CROSS, 0.0, (3, 5, '3ac86351e8cddf47')),
    ('zipf_u64', 56, 64, 56, _PLAIN, 0.0, (21, 325, 'de5dffe87eceea23')),
    ('zipf_u64', 56, 64, 56, _SAMPLE_CROSS, 0.0, (11, 50, 'de5dffe87eceea23')),
    ('duplicates_i64', 3, 300, 3, _PLAIN, 0.0, (3, 5, '4f36d43f55fb4661')),
    ('duplicates_i64', 3, 300, 3, _SAMPLE_CROSS, 0.0, (1, 2, '4f36d43f55fb4661')),
    ('duplicates_i64', 8, 300, 8, _PLAIN, 0.0, (4, 18, 'd6efc820696b31d7')),
    ('duplicates_i64', 8, 300, 8, _SAMPLE_CROSS, 0.0, (3, 11, 'd6efc820696b31d7')),
    ('exponential_f64', 3, 300, 3, _PLAIN, 0.0, (12, 23, '464fdaed2c2e32f8')),
    ('exponential_f64', 3, 300, 3, _SAMPLE_CROSS, 0.0, (11, 20, 'b6e69c218f35079d')),
    ('exponential_f64', 8, 300, 8, _PLAIN, 0.0, (17, 94, 'd4555962c8d1f1db')),
    ('exponential_f64', 8, 300, 8, _SAMPLE_CROSS, 0.0, (14, 64, '79ea3b1bd1a0e1ce')),
    ('exponential_f64', 56, 64, 56, _PLAIN, 0.0, (25, 957, 'c979d0354a60ef44')),
    ('exponential_f64', 56, 64, 56, _SAMPLE_CROSS, 0.0, (17, 639, '9ae25256ea751056')),
    ('uniform_u64', 8, 300, 4, _CROSS, 0.0, (15, 76, '7612780c43c5b627')),
    ('normal_f64', 8, 300, 4, _CROSS, 0.0, (14, 84, 'f070592db94f0d33')),
    ('normal_f64', 8, 300, 4, _SAMPLE, 0.0, (14, 84, '024aecb15766acc2')),
    ('int64_full', 3, 200, 11, _PLAIN, 0.0, (11, 19, 'a7af93ef4d93983d')),
    ('int64_full', 8, 200, 11, _PLAIN, 0.0, (12, 70, '114465103d41f4fb')),
    ('int64_full', 8, 200, 12, _SAMPLE_CROSS, 0.0, (14, 64, 'e6cff68eab470bcb')),
    ('uint64_full', 3, 200, 11, _PLAIN, 0.0, (9, 14, 'e207f58adbc7ba7b')),
    ('uint64_full', 8, 200, 11, _PLAIN, 0.0, (14, 72, '5fb7ae43e647c3dd')),
    ('uint64_full', 8, 200, 12, _SAMPLE_CROSS, 0.0, (14, 58, '17e17f254c302089')),
    ('int8', 3, 200, 11, _PLAIN, 0.0, (8, 15, '60189f2623e91c2f')),
    ('int8', 8, 200, 11, _PLAIN, 0.0, (8, 50, 'afc8a72d81f27da9')),
    ('int8', 8, 200, 12, _SAMPLE_CROSS, 0.0, (7, 36, '1ed175ecdb009b2b')),
    ('sparse', 3, 200, 11, _PLAIN, 0.0, (0, 0, '0772c723d7833d6c')),
    ('sparse', 8, 200, 11, _PLAIN, 0.0, (10, 54, 'f878832db5f4bedb')),
    ('sparse', 8, 200, 12, _SAMPLE_CROSS, 0.0, (8, 48, '464532fdac17f07c')),
    ('nearly_sorted_i64', 3, 200, 11, _PLAIN, 0.0, (10, 20, '41d0a64af57f3782')),
    ('nearly_sorted_i64', 8, 200, 11, _PLAIN, 0.0, (10, 58, 'b1ec715bb0861222')),
    ('nearly_sorted_i64', 8, 200, 12, _SAMPLE_CROSS, 0.0, (9, 43, '1a06db44c6d4d25a')),
    ('uniform_u64', 8, 300, 5, _SAMPLE_CROSS, 0.05, (6, 30, 'b3ca56d9e2e79816')),
    ('normal_f32', 8, 300, 5, _PLAIN, 0.1, (8, 49, 'c08c12e22dcb79f7')),
    ('zipf_u64', 56, 64, 5, _SAMPLE_CROSS, 0.02, (10, 47, '19648b10bfae4097')),
]


class TestSplitterGolden:
    @pytest.mark.parametrize(
        "dist,p,n,seed,config,eps,expected",
        _SPLITTER_GOLDEN,
        ids=[f"{c[0]}-p{c[1]}-{'x' if c[4].cross_probe else ''}"
             f"{c[4].initial_guess}-eps{c[5]}" for c in _SPLITTER_GOLDEN],
    )
    def test_unchanged(self, dist, p, n, seed, config, eps, expected):
        assert _splitter_fingerprint(dist, p, n, seed, config, eps) == expected
