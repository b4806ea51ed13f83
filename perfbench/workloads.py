"""The benchmark's four workloads.

Each workload makes its inputs from the run's seed, and hands the program
only the generated partitions (or, on ``serve``, the generated job
script).  ``run_block`` runs a fixed block of operations one after the
other -- a closed loop with a single client -- and returns the host
seconds spent inside the operations with one :class:`Op` per operation.
Every operation is checked by :mod:`oracle` after its timed interval.

Why these four (also recorded in ``BENCHMARK.json``):

* ``wide`` -- p=56 on two SuperMUC nodes: the splitter search does most
  of the host work, so ``core.multiselect`` moves it.
* ``deep`` -- p=8 with 262144 doubles per rank: local sort and merge lead,
  and one sort in eight carries the float special values that the
  splitter search cannot handle yet; those sorts count as failed.
* ``serve`` -- many small epochs of one long-lived service: runtime
  start-up, collectives and the service tiers dominate.
* ``observed`` -- trace, check and sanitize all on: the only workload in
  which the observer hooks of the communicator do work.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np
import repro.core.histsort as histsort
from repro.data import make_partition
from repro.machine.presets import supermuc_phase2
from repro.mpi import run_spmd
from repro.serve import AdmissionError, SortService, make_workload, oracle_all
from repro.trace.export import to_chrome_json

from oracle import check_epoch_sizes, check_jobs, check_same_run, check_sort

#: host-seconds limit of one SPMD run before it counts as a timeout
OP_TIMEOUT = 60.0

#: the values one special-valued ``deep`` sort puts on one rank
SPECIALS = np.array([
    np.inf, -np.inf, np.nan, np.finfo(np.float64).max, -np.finfo(np.float64).max,
])


@dataclass
class Op:
    """One operation: host latency, input keys, modelled makespan, outcome."""

    latency_s: float
    keys: int
    virtual_s: float = math.nan
    #: empty when the operation succeeded, else why it failed
    error: str = ""
    #: it completed but its output failed the oracle
    wrong: bool = False
    extra: dict[str, float] = field(default_factory=dict)


def data_seed(seed: int, index: int) -> int:
    """Generator seed of operation ``index`` (negative: set-up operations;
    spans of negative operation ids are left out of the per-layer metrics)."""
    return seed * 1_000_003 + 1_000 + index


def describe(exc: BaseException) -> str:
    lines = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {lines[0][:160] if lines else ''}"


def _sort_rank(comm, parts):
    # a module attribute looked up at call time, so the traced run's wrapper applies
    return histsort.histogram_sort(comm, parts[comm.rank]).output


class SortWorkload:
    """``histogram_sort`` on fresh partitions, one sort per operation."""

    def __init__(self, name: str, *, p: int, dist: str, n: int, nodes: int,
                 ranks_per_node: int | None = None, block: int = 1,
                 specials: bool = False, observers: bool = False):
        self.name, self.p, self.dist, self.n = name, p, dist, n
        self.nodes, self.ranks_per_node, self.block = nodes, ranks_per_node, block
        self.specials, self.observers = specials, observers
        self.log = None
        self.traced = False

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.machine = supermuc_phase2(nodes=self.nodes)
        rng = np.random.default_rng([seed, 8])
        self.special_slot = int(rng.integers(self.block)) if self.specials else -1
        warm = self._op(-1)
        if warm.error:
            raise RuntimeError(f"{self.name}: warm-up sort failed: {warm.error}")

    def counters(self) -> dict[str, float]:
        return {}

    def inputs(self, index: int) -> list[np.ndarray]:
        s = data_seed(self.seed, index)
        parts = [make_partition(self.dist, self.n, rank=r, seed=s) for r in range(self.p)]
        if index >= 0 and index % self.block == self.special_slot:
            rng = np.random.default_rng([self.seed, index])
            rank = int(rng.integers(self.p))
            parts[rank][rng.choice(self.n, SPECIALS.size, replace=False)] = SPECIALS
        return parts

    def _run(self, parts: list[np.ndarray], observed: bool):
        return run_spmd(
            self.p, _sort_rank, parts, machine=self.machine,
            ranks_per_node=self.ranks_per_node, trace=observed, check=observed,
            sanitize=observed, timeout=OP_TIMEOUT, return_runtime=True,
        )

    def run_block(self, block: int) -> tuple[float, list[Op]]:
        ops = [self._op(block * self.block + k) for k in range(self.block)]
        return sum(op.latency_s for op in ops), ops

    def _op(self, index: int) -> Op:
        parts = self.inputs(index)
        keys = self.n * self.p
        if self.log is not None:
            self.log.op = index
        t0 = perf_counter()
        try:
            outs, rt = self._run(parts, self.observers)
        except Exception as exc:  # noqa: BLE001 - a failed operation, the run goes on
            return Op(perf_counter() - t0, keys, error=describe(exc))
        op = Op(perf_counter() - t0, keys, virtual_s=rt.elapsed())
        if index < 0:
            self.warm = (parts, outs, op.virtual_s)
        op.error = check_sort(parts, outs)
        if self.observers and not op.error:
            op.error = self._against_plain(op, index, parts, outs, rt)
        op.wrong = bool(op.error)
        return op

    def _against_plain(self, op: Op, index: int, parts, outs, rt) -> str:
        """The observed run must equal the plain run of the same input."""
        if self.traced:
            t0 = perf_counter()
            json.dumps(to_chrome_json(rt.trace))
            op.extra["export_s"] = perf_counter() - t0
            op.extra["trace_events"] = float(len(rt.trace))
        if self.log is not None:
            self.log.op = -1  # the reference run is not part of the operation
        t0 = perf_counter()
        try:
            plain, plain_rt = self._run(parts, False)
        except Exception as exc:  # noqa: BLE001
            return f"plain reference run failed: {describe(exc)}"
        op.extra["plain_s"] = perf_counter() - t0
        if index < 0:
            self.warm_plain = (plain, plain_rt.elapsed())
        return check_same_run(outs, op.virtual_s, plain, plain_rt.elapsed())

    def self_check(self) -> list[str]:
        """Corrupt the warm-up output; return the corruptions the oracle missed.
        Releases the warm-up arrays."""
        (parts, outs, vs), self.warm = self.warm, None
        missed = []
        out0 = outs[0]
        k = int(np.flatnonzero(out0[1:] != out0[:-1])[0])
        swapped = [o.copy() for o in outs]
        swapped[0][[k, k + 1]] = swapped[0][[k + 1, k]]
        if not check_sort(parts, swapped):
            missed.append("swapped keys")
        shifted = [outs[0][:-1], np.concatenate([outs[0][-1:], outs[1]])] + list(outs[2:])
        if not check_sort(parts, shifted):
            missed.append("moved partition boundary")
        if self.observers:
            (plain, plain_vs), self.warm_plain = self.warm_plain, None
            if not check_same_run(outs, vs, plain, math.nextafter(plain_vs, math.inf)):
                missed.append("perturbed virtual makespan")
        return missed


class ServeWorkload:
    """One long-lived ``SortService`` replaying seeded job scripts.

    One block is one script of the standard mixed workload, its arrival
    times shifted to the service clock; one operation is one job.  A job's
    latency runs from the start of the scheduling step in which it became
    ready to the end of the step that finished it.
    """

    name = "serve"
    p = 8
    n_small = 2048
    warm_scripts = 2

    def __init__(self) -> None:
        self.log = None
        self.traced = False

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.service = SortService(self.p, machine=supermuc_phase2(nodes=1))
        self.prev_sorts: list[Any] = []
        for index in range(-self.warm_scripts, 0):
            _, ops = self.run_block(index)
            bad = [op.error for op in ops if op.error]
            if bad:
                raise RuntimeError(f"serve: warm-up script failed: {bad[0]}")

    def counters(self) -> dict[str, float]:
        return {
            "warm_hits": self.service.registry.value("serve_warm_plan_hits_total"),
            "sort_epochs": float(self.service.sort_epochs),
        }

    def script(self, index: int) -> list[Any]:
        offset = self.service.clock
        return [
            dataclasses.replace(spec, arrival=spec.arrival + offset)
            for spec in make_workload(self.p, seed=data_seed(self.seed, index),
                                      n_small=self.n_small)
        ]

    def run_block(self, block: int) -> tuple[float, list[Op]]:
        svc = self.service
        specs = self.script(block)
        if self.log is not None:
            self.log.op = block
        errors: dict[int, str] = {}  # typed failures, by script position
        wrong: dict[int, str] = {}  # finished with a wrong result
        jobs: list[Any] = []
        busy = 0.0
        n_events = len(svc.events)
        t0 = perf_counter()
        for i, spec in enumerate(specs):
            try:
                jobs.append(svc.submit(spec))
            except AdmissionError as exc:
                jobs.append(None)
                errors[i] = describe(exc)
        busy += perf_counter() - t0

        ready_at: dict[int, float] = {}
        done_at: dict[int, float] = {}
        pending = {i: job for i, job in enumerate(jobs) if job is not None}
        more = True
        while more and pending:
            for job in pending.values():
                if job.state == "PENDING" and job.spec.arrival <= svc.clock:
                    ready_at.setdefault(job.job_id, busy)
            t0 = perf_counter()
            try:
                more = svc.step()
            except Exception as exc:  # noqa: BLE001 - the script fails, the run goes on
                busy += perf_counter() - t0
                for i in pending:
                    errors[i] = describe(exc)
                break
            busy += perf_counter() - t0
            finished = {i: j for i, j in pending.items() if j.state in ("DONE", "FAILED")}
            for i, job in finished.items():
                del pending[i]
                done_at[job.job_id] = busy
                if job.state == "FAILED":
                    errors[i] = f"job failed: {job.error}"
            self._check_epochs(finished, wrong)
        for i in pending:
            errors.setdefault(i, "job never finished")

        expected = oracle_all(self.prev_sorts + specs, self.p)[len(self.prev_sorts):]
        self.prev_sorts = [s for s in specs if s.kind == "sort"]
        makespan = {e["epoch"]: e["t1"] - e["t0"] for e in svc.events[n_events:]}
        answers = check_jobs(
            [j.result.value if j is not None and j.result is not None else None for j in jobs],
            expected,
        )
        ops = []
        for i, (spec, job) in enumerate(zip(specs, jobs)):
            keys = spec.n_per_rank * self.p if spec.kind == "sort" else 0
            if i in errors:
                ops.append(Op(0.0, keys, error=errors[i]))
                continue
            reason = wrong.get(i) or answers[i]
            ops.append(Op(done_at[job.job_id] - ready_at[job.job_id], keys,
                          virtual_s=makespan[job.result.epoch], error=reason,
                          wrong=bool(reason)))
        if block < 0:
            self.warm = (jobs, expected)
        return busy, ops

    def _check_epochs(self, finished: dict[int, Any], wrong: dict[int, str]) -> None:
        """Every sort epoch that just ran keeps each rank's key count."""
        epochs: dict[int, list[tuple[int, Any]]] = defaultdict(list)
        for i, job in finished.items():
            if job.state == "DONE" and job.spec.kind == "sort":
                epochs[job.result.epoch].append((i, job))
        for members in epochs.values():
            sizes = [
                [part.size for part in self.service.datasets[j.spec.tenant, j.spec.dataset].parts]
                for _, j in members
            ]
            per_rank_in = [sum(j.spec.n_per_rank for _, j in members)] * self.p
            reason = check_epoch_sizes(sizes, per_rank_in)
            for i, _ in members:
                if reason:
                    wrong[i] = reason

    def self_check(self) -> list[str]:
        """Corrupt a warm-up answer and an epoch layout; return what the
        oracle missed."""
        (jobs, expected), self.warm = self.warm, None
        missed = []
        i = next(k for k, j in enumerate(jobs) if j is not None and j.spec.kind == "sort")
        bad = dict(jobs[i].result.value, checksum=jobs[i].result.value["checksum"] ^ 1)
        if not check_jobs([bad], [expected[i]])[0]:
            missed.append("corrupted sort checksum")
        n = self.n_small
        if not check_epoch_sizes([[n + 1] + [n] * (self.p - 2) + [n - 1]], [n] * self.p):
            missed.append("moved partition boundary")
        return missed


def make(name: str):
    """The workload called ``name``."""
    if name == "wide":
        return SortWorkload("wide", p=56, dist="uniform_u64", n=4096, nodes=2,
                            ranks_per_node=28)
    if name == "deep":
        return SortWorkload("deep", p=8, dist="normal_f64", n=262144, nodes=1,
                            block=8, specials=True)
    if name == "observed":
        return SortWorkload("observed", p=16, dist="uniform_u64", n=4096, nodes=1,
                            observers=True)
    if name == "serve":
        return ServeWorkload()
    raise ValueError(f"unknown workload {name!r}")
