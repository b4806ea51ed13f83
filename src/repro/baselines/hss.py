"""Histogram Sort with Sampling — the paper's Charm++ comparator [1].

Harsh, Kale & Solomonik (SPAA'19) iterate histogramming like the histogram
sort, but generate probe candidates by *sampling*: each round draws random
keys from the still-unresolved splitter intervals, histograms the candidate
vector, keeps probes that satisfy their target ranks, and re-samples the
rest.  Convergence therefore depends on sample luck — the volatility the
paper observes in Figs. 2/3 (wide confidence intervals, 5–25 s
histogramming in weak scaling, non-termination on a normal distribution
within the job limit).

This implementation reproduces that structure: interval-tracked targets,
sampled probe generation (``samples_per_round`` per rank), histogram
rounds, and a final tie-aware exchange so the comparison against the
histogram sort is about *splitter determination*, not tie handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..seq.kmerge import binary_merge_tree
from ..seq.search import local_histogram
from ..trace.timer import PhaseTimer
from .common import BaselineResult

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["hss_sort", "HSSDiagnostics"]


@dataclass(frozen=True)
class HSSDiagnostics:
    rounds: int
    probes_total: int
    converged: bool


def hss_sort(
    comm: "Comm",
    local: np.ndarray,
    eps: float = 0.0,
    samples_per_round: int = 12,
    max_rounds: int = 128,
    seed: int = 1,
    sampling: str = "global",
) -> BaselineResult:
    """Sort via sampled iterative histogramming (HSS).

    ``sampling`` selects the probe generator:

    * ``"global"`` (default) — every round draws random keys from the whole
      local partition and keeps those that fall into a still-open splitter
      interval.  Narrow intervals are rarely hit, so convergence is slow
      and seed-dependent — this mirrors the "improper sampling in each
      histogramming round" the paper suspects in the Charm++ runs and
      reproduces their volatility.
    * ``"interval"`` — importance sampling inside each open interval (the
      idealized HSS of the SPAA'19 paper): a handful of rounds suffice.

    With ``eps == 0`` exact boundary ranks are required; sampled probes can
    only *bracket* them, so the final boundary refinement falls back to the
    achievable-interval acceptance (as the Charm++ code must around ties).
    """
    if sampling not in ("global", "interval"):
        raise ValueError(f"sampling must be 'global' or 'interval', got {sampling!r}")
    local = np.asarray(local)
    p = comm.size
    compute = comm.cost.compute
    timer = PhaseTimer(comm)

    work = np.sort(local)
    comm.compute(compute.sort(work.size))
    timer.mark("local_sort")

    if p == 1:
        timer.mark("splitting")
        timer.mark("exchange")
        timer.mark("merge")
        return BaselineResult(
            output=work,
            phases=dict(timer.phases),
            info={"diagnostics": HSSDiagnostics(0, 0, True)},
        )

    sizes = np.asarray(comm.allgather(int(work.size)), dtype=np.int64)
    total = int(sizes.sum())
    targets = np.cumsum(sizes)[:-1]
    tol = max(int(np.floor(eps * total / (2 * p))), 0)

    dtype = work.dtype
    rng = np.random.Generator(np.random.MT19937([seed, comm.rank]))

    if total == 0:
        timer.mark("splitting")
        timer.mark("exchange")
        timer.mark("merge")
        return BaselineResult(
            output=work,
            phases=dict(timer.phases),
            info={"diagnostics": HSSDiagnostics(0, 0, True)},
        )

    # Interval state per boundary: value bounds and their achieved ranks.
    if work.size:
        lmin, lmax = work[0], work[-1]
    else:
        info = np.iinfo(dtype) if dtype.kind in "iu" else np.finfo(dtype)
        lmin, lmax = dtype.type(info.max), dtype.type(info.min)
    from ..mpi.ops import ReduceOp

    gmin, gmax = comm.allreduce(
        (lmin, lmax), op=ReduceOp("minmax", lambda a, b: (min(a[0], b[0]), max(a[1], b[1])))
    )

    m = p - 1
    lo_val = np.full(m, gmin, dtype=dtype)
    hi_val = np.full(m, gmax, dtype=dtype)
    lo_rank = np.zeros(m, dtype=np.int64)           # rank of lo_val (keys < lo)
    hi_rank = np.full(m, total, dtype=np.int64)     # at-or-below count of hi_val
    values = np.empty(m, dtype=dtype)
    realized = np.zeros(m, dtype=np.int64)
    lower = np.zeros(m, dtype=np.int64)
    upper = np.zeros(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)

    rounds = 0
    probes_total = 0
    tracer = comm.tracer
    while active.any() and rounds < max_rounds:
        t_round = comm.clock
        rounds += 1
        act = np.flatnonzero(active)
        # Sampled probe generation (the "sampling" of HSS); one gathering
        # round merges every rank's proposals into the candidate vector.
        if sampling == "interval":
            starts = np.searchsorted(work, lo_val[act], side="right").tolist()
            stops = np.searchsorted(work, hi_val[act], side="left").tolist()
            proposals = [
                work[rng.integers(a, b, size=min(samples_per_round, b - a))]
                for a, b in zip(starts, stops)
                if b > a
            ]
            flat = np.concatenate(proposals) if proposals else work[:0]
        else:
            # Global sampling: draw from the whole partition, keep what
            # lands in any open interval.
            take = min(samples_per_round * max(act.size, 1), int(work.size))
            draw = work[rng.integers(0, work.size, size=take)] if take else work[:0]
            flat = draw[_in_any_interval(draw, lo_val[act], hi_val[act])]
        gathered = comm.allgather(flat)
        # Two deterministic probe families ride along with the samples:
        # the current interval bounds (duplicate-run boundaries resolve
        # once a bracket collapses onto the duplicated value) and a
        # rank-interpolated probe per open target — HSS's regula-falsi
        # style refinement, whose convergence is fast exactly when the key
        # CDF is locally linear and slow on skewed regions (the source of
        # the volatility the paper observes).
        span = (hi_rank[act] - lo_rank[act]).astype(np.float64)
        below_t = (targets[act] - lo_rank[act]).astype(np.float64)
        frac = np.full(act.size, 0.5)
        np.divide(below_t, span, out=frac, where=span > 0)
        frac = np.minimum(np.maximum(frac, 0.02), 0.98)
        lo64 = lo_val[act].astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            interp = lo64 + (hi_val[act].astype(np.float64) - lo64) * frac
        interp = interp.astype(dtype)
        cand = np.unique(
            np.concatenate([*gathered, lo_val[act], hi_val[act], interp])
        )
        cand = cand[(cand >= gmin) & (cand <= gmax)]
        comm.compute(compute.sort(max(int(cand.size), 1)))

        l_loc, u_loc = local_histogram(work, cand)
        comm.compute(compute.search(2 * int(cand.size), max(int(work.size), 1)))
        glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
        L, U = glob[: cand.size], glob[cand.size :]
        probes_total += int(cand.size)

        # Candidates are sorted and unique, so L and U are monotone: the
        # candidates with L <= t + tol form a prefix [0, a) and those with
        # U >= t - tol a suffix [b, n).  A target is met by the first
        # candidate of their overlap (b < a); otherwise the last candidate
        # below it (b - 1) and the first above it (a) bracket it.
        if cand.size:
            t = targets[act]
            b = np.searchsorted(U, t - tol, side="left")
            a = np.searchsorted(L, t + tol, side="right")
            hit = b < a
            done, first = act[hit], b[hit]
            values[done] = cand[first]
            lower[done], upper[done] = L[first], U[first]
            realized[done] = np.clip(t[hit], L[first], U[first])
            active[done] = False
            miss, below_at, above_at = act[~hit], b[~hit] - 1, a[~hit]
            below = cand[np.maximum(below_at, 0)]
            up_lo = (below_at >= 0) & (below > lo_val[miss])
            lo_val[miss[up_lo]] = below[up_lo]
            lo_rank[miss[up_lo]] = U[below_at[up_lo]]
            above = cand[np.minimum(above_at, cand.size - 1)]
            down_hi = (above_at < cand.size) & (above < hi_val[miss])
            hi_val[miss[down_hi]] = above[down_hi]
            hi_rank[miss[down_hi]] = L[above_at[down_hi]]
        comm.compute(compute.call_overhead + 2.0e-9 * int(cand.size))
        tracer.record(
            "hss_round",
            t_round,
            round=rounds,
            candidates=int(cand.size),
            open=int(active.sum()),
        )

    converged = not active.any()
    if not converged:
        # Residual open boundaries: resolve on their upper endpoints with a
        # final exact histogram (what keeps HSS from hanging forever on
        # duplicate-heavy inputs; the Charm++ prototype lacked this and
        # timed out — see §VI-B).
        act = np.flatnonzero(active)
        probes = hi_val[act].astype(dtype)
        l_loc, u_loc = local_histogram(work, probes)
        glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
        L, U = glob[: act.size], glob[act.size :]
        values[act] = probes
        lower[act], upper[act] = L, U
        realized[act] = np.clip(targets[act], L, U)
        active[act] = False

    timer.mark("splitting")

    # Tie-aware exchange reusing the histogram sort's Algorithm 4 machinery.
    from ..core.exchange import build_exchange_plan, exchange
    from ..core.multiselect import SplitterResult

    # Sort the accepted values (independent per-target acceptance can land
    # out of order around ties) and re-derive exact global bounds so the
    # rank-order fill sees consistent numbers even for tol-accepted probes.
    values = np.sort(values)
    l_loc, u_loc = local_histogram(work, values)
    glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
    lower = glob[: values.size].astype(np.int64)
    upper = glob[values.size :].astype(np.int64)
    realized = np.clip(targets, lower, upper)
    realized = np.maximum.accumulate(realized)

    splitters = SplitterResult(
        values=values,
        realized_ranks=realized,
        lower=lower,
        upper=upper,
        targets=targets,
        capacities=sizes,
        total=total,
        tolerance=tol,
        rounds=rounds,
        probes_total=probes_total,
    )
    plan = build_exchange_plan(comm, work, splitters)
    received = exchange(comm, work, plan)
    timer.mark("exchange")

    n_recv = int(sum(c.size for c in received))
    output = binary_merge_tree(received)
    comm.compute(compute.kway_merge(n_recv, max(len(received), 2)))
    timer.mark("merge")

    return BaselineResult(
        output=output,
        phases=dict(timer.phases),
        info={"diagnostics": HSSDiagnostics(rounds, probes_total, converged)},
    )


def _in_any_interval(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the ``x`` lying strictly inside some open interval ``(lo_i, hi_i)``.

    Among the intervals whose ``lo`` lies below ``x`` (a prefix in ``lo``
    order), ``x`` is covered iff the largest ``hi`` exceeds it.  NaN bounds
    cover nothing, as with elementwise comparisons: ``np.sort`` puts NaN
    ``lo`` last and ``fmax`` skips NaN ``hi``.
    """
    order = np.argsort(lo, kind="stable")
    reach = np.fmax.accumulate(hi[order])
    n_below = np.searchsorted(lo[order], x, side="left")
    return (n_below > 0) & (reach[np.maximum(n_below, 1) - 1] > x)
