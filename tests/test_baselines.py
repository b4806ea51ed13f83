"""Correctness and behavioural tests of the baseline sorters."""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    BASELINES,
    bitonic_sort,
    hss_sort,
    hyksort,
    hyperquicksort,
    psrs_sort,
    sample_sort,
)
from repro.data import make_partition
from repro.mpi import SPMDError
from repro.seq import is_globally_sorted, is_permutation
from tests.conftest import spmd


def _run_baseline(run, algo, parts, **kwargs):
    p = len(parts)

    def prog(comm):
        return algo(comm, parts[comm.rank], **kwargs)

    return run(p, prog)


def _check(parts, results):
    outs = [r.output for r in results]
    assert is_globally_sorted(outs)
    assert is_permutation(parts, outs)


POW2_ONLY = {"hyperquicksort", "bitonic"}


class TestAllBaselines:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    @pytest.mark.parametrize("dist", ["uniform_u64", "normal_f64", "duplicates_i64"])
    def test_correct_pow2(self, run, name, dist):
        parts = [make_partition(dist, 800, rank=r, seed=21) for r in range(8)]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize(
        "name", sorted(set(BASELINES) - POW2_ONLY)
    )
    def test_correct_odd_rank_count(self, run, name):
        parts = [make_partition("uniform_u64", 700, rank=r, seed=22) for r in range(5)]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_single_rank(self, run, name):
        parts = [make_partition("normal_f64", 300, rank=0, seed=23)]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize("name", sorted(set(BASELINES) - POW2_ONLY))
    def test_empty_partitions(self, run, name):
        parts = [
            make_partition("uniform_u64", 0 if r % 2 else 900, rank=r, seed=24)
            for r in range(4)
        ]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_phases_recorded(self, run, name):
        parts = [make_partition("uniform_u64", 400, rank=r, seed=25) for r in range(4)]
        out = _run_baseline(run, BASELINES[name], parts)
        assert out[0].phases
        assert out[0].time > 0


class TestSampleSort:
    def test_balance_depends_on_oversampling(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=26) for r in range(8)]
        small = _run_baseline(run, sample_sort, parts, oversampling=4)
        big = _run_baseline(run, sample_sort, parts, oversampling=256)
        def imbalance(results):
            sizes = np.array([r.output.size for r in results])
            return float(np.abs(sizes - 4000).max())
        assert imbalance(big) <= imbalance(small)

    def test_psrs_balances_well(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=27) for r in range(8)]
        out = _run_baseline(run, psrs_sort, parts)
        sizes = np.array([r.output.size for r in out])
        assert np.abs(sizes - 4000).max() < 4000  # never catastrophically off


class TestHss:
    def test_perfect_partitioning(self, run):
        parts = [make_partition("uniform_u64", 1500, rank=r, seed=28) for r in range(6)]
        out = _run_baseline(run, hss_sort, parts)
        assert all(r.output.size == 1500 for r in out)

    def test_diagnostics(self, run):
        parts = [make_partition("uniform_u64", 1500, rank=r, seed=28) for r in range(4)]
        out = _run_baseline(run, hss_sort, parts)
        diag = out[0].info["diagnostics"]
        assert diag.rounds >= 1
        assert diag.probes_total > 0

    def test_interval_sampling_converges_faster(self, run):
        parts = [make_partition("uniform_u64", 3000, rank=r, seed=29) for r in range(6)]
        glob = _run_baseline(run, hss_sort, parts, sampling="global")
        ideal = _run_baseline(run, hss_sort, parts, sampling="interval")
        assert (
            ideal[0].info["diagnostics"].rounds
            <= glob[0].info["diagnostics"].rounds
        )

    def test_invalid_sampling(self, run):
        parts = [np.arange(10)] * 2
        with pytest.raises(SPMDError):
            _run_baseline(run, hss_sort, parts, sampling="nope")

    def test_eps_tolerance(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=30) for r in range(4)]
        out = _run_baseline(run, hss_sort, parts, eps=0.1)
        outs = [r.output for r in out]
        assert is_globally_sorted(outs) and is_permutation(parts, outs)


def _hss_parts(dist, p, n, seed):
    if dist not in ("special_f64", "nan_rank0_f64"):
        return [make_partition(dist, n + 17 * r, rank=r, seed=seed) for r in range(p)]
    parts = [make_partition("normal_f64", n + 17 * r, rank=r, seed=seed) for r in range(p)]
    if dist == "nan_rank0_f64":
        # rank 0's NaN becomes the global max: no candidate survives the
        # [gmin, gmax] filter, so every round histograms an empty vector
        parts[0][0] = np.nan
        return parts
    big = np.finfo(np.float64).max
    parts[1][:5] = [np.inf, -np.inf, np.nan, big, -big]
    return parts


def _hss_fingerprint(dist, p, n, seed, sampling, eps, max_rounds):
    """(rounds, probes_total, converged, digest of every rank's output)."""
    parts = _hss_parts(dist, p, n, seed)
    out = _run_baseline(spmd, hss_sort, parts, eps=eps, seed=seed,
                        sampling=sampling, max_rounds=max_rounds)
    h = hashlib.sha256()
    for r in out:
        h.update(np.int64(r.output.size).tobytes())
        h.update(r.output.tobytes())
    d = out[0].info["diagnostics"]
    return d.rounds, d.probes_total, d.converged, h.hexdigest()[:16]


#: HSS outcomes recorded with the per-boundary Python refinement loops; the
#: vectorized refinement must reproduce them exactly (same RNG draw order)
_HSS_GOLDEN = [
    # (dist, p, n, seed, sampling, eps, max_rounds,
    #  (rounds, probes_total, converged, digest))
    ('uniform_u64', 3, 400, 1, 'global', 0.0, 128, (3, 80, True, '265181556d6aeb04')),
    ('uniform_u64', 8, 300, 2, 'interval', 0.0, 128, (2, 628, True, '4ff53d2a5d191d2d')),
    ('uniform_u64', 13, 200, 3, 'global', 0.1, 128, (1, 1481, True, 'e0515c7d82866d41')),
    ('normal_f64', 8, 300, 1, 'global', 0.0, 128, (6, 649, True, '3c4e2df4c7ccdfa8')),
    ('normal_f64', 8, 300, 9, 'global', 0.0, 2, (2, 631, False, '8cd938c8105eca2b')),
    ('normal_f64', 5, 300, 4, 'interval', 0.05, 128, (2, 256, True, '9918259106c264bc')),
    ('normal_f32', 8, 250, 5, 'global', 0.1, 128, (1, 590, True, '43e6097702fa6578')),
    ('duplicates_i64', 8, 300, 1, 'global', 0.0, 128, (1, 10, True, '15617053cc260f6d')),
    ('duplicates_i64', 6, 300, 2, 'interval', 0.0, 128, (1, 10, True, 'a139a00b097615c0')),
    ('zipf_u64', 8, 300, 3, 'global', 0.0, 128, (1, 50, True, '31153736873d6b8e')),
    ('zipf_u64', 16, 150, 4, 'interval', 0.1, 128, (1, 142, True, '6d28cd863a2ea0f8')),
    ('exponential_f64', 11, 200, 6, 'global', 0.0, 128, (6, 1143, True, '133286e4c209634d')),
    ('exponential_f64', 11, 200, 6, 'interval', 0.0, 3, (2, 1150, True, '133286e4c209634d')),
    ('nearly_sorted_i64', 7, 300, 7, 'interval', 0.0, 128, (2, 490, True, '23dac8d83f53ea35')),
    ('all_equal_i64', 4, 100, 1, 'global', 0.0, 128, (1, 1, True, 'a28ce4e9d45a1762')),
    ('special_f64', 6, 200, 2, 'global', 0.0, 128, (2, 332, True, '8a4d67a24bb269d3')),
    ('special_f64', 6, 200, 3, 'interval', 0.0, 128, (2, 349, True, 'fd67f52716ca6691')),
    ('nan_rank0_f64', 4, 100, 1, 'global', 0.0, 12, (12, 0, False, '9c5b347f30424256')),
    ('nan_rank0_f64', 4, 100, 2, 'interval', 0.0, 12, (12, 0, False, '5ef5151f8cd4b4e3')),
]


class TestHssGolden:
    @pytest.mark.parametrize(
        "dist,p,n,seed,sampling,eps,max_rounds,expected",
        _HSS_GOLDEN,
        ids=[f"{c[0]}-p{c[1]}-{c[4]}-eps{c[5]}-r{c[6]}" for c in _HSS_GOLDEN],
    )
    def test_unchanged(self, dist, p, n, seed, sampling, eps, max_rounds, expected):
        assert _hss_fingerprint(dist, p, n, seed, sampling, eps, max_rounds) == expected


class TestHypercubeFamily:
    def test_hyperquicksort_requires_pow2(self, run):
        parts = [np.arange(10)] * 3
        with pytest.raises(SPMDError):
            _run_baseline(run, hyperquicksort, parts)

    def test_hyperquicksort_moves_data_log_times(self, run):
        parts = [make_partition("uniform_u64", 1000, rank=r, seed=31) for r in range(8)]
        out = _run_baseline(run, hyperquicksort, parts)
        assert out[0].info["rounds"] == 3  # log2(8)

    def test_bitonic_requires_pow2(self, run):
        parts = [np.arange(10)] * 3
        with pytest.raises(SPMDError):
            _run_baseline(run, bitonic_sort, parts)

    def test_bitonic_requires_equal_sizes(self, run):
        parts = [np.arange(10), np.arange(5)]
        with pytest.raises(SPMDError):
            _run_baseline(run, bitonic_sort, parts)

    def test_bitonic_stage_count(self, run):
        parts = [make_partition("uniform_u64", 500, rank=r, seed=32) for r in range(8)]
        out = _run_baseline(run, bitonic_sort, parts)
        assert out[0].info["stages"] == 6  # 3*(3+1)/2

    def test_bitonic_preserves_sizes(self, run):
        parts = [make_partition("uniform_u64", 512, rank=r, seed=33) for r in range(4)]
        out = _run_baseline(run, bitonic_sort, parts)
        assert all(r.output.size == 512 for r in out)

    def test_hyksort_k_values(self, run):
        parts = [make_partition("uniform_u64", 700, rank=r, seed=34) for r in range(8)]
        for k in (2, 3, 8):
            _check(parts, _run_baseline(run, hyksort, parts, k=k))

    def test_hyksort_k_validation(self, run):
        parts = [np.arange(4)] * 2
        with pytest.raises(SPMDError):
            _run_baseline(run, hyksort, parts, k=1)

    def test_hyksort_fewer_rounds_with_bigger_k(self, run):
        parts = [make_partition("uniform_u64", 600, rank=r, seed=35) for r in range(8)]
        k2 = _run_baseline(run, hyksort, parts, k=2)[0].info["rounds"]
        k8 = _run_baseline(run, hyksort, parts, k=8)[0].info["rounds"]
        assert k8 < k2
