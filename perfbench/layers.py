"""Per-layer attribution for the traced run.

The traced run wraps the public entry points of each layer, from this
file, and records one span per call: name, start, end, parent span,
operation id, and the rank thread's CPU time (``time.thread_time``) spent
inside.  Spans stay in memory; :func:`write_spans` writes them out when
the run ends, and :func:`summarize` turns them into the per-layer metrics
of ``BENCHMARK.json``.

Nothing under ``src/`` changes: every wrapper is installed by
:func:`instrument` and removed when its ``with`` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Callable, Iterator

#: per-layer metric -> (end-to-end metrics it should move, on which workloads);
#: units and directions are in BENCHMARK.json
MOVES: dict[str, tuple[str, str]] = {
    "core.multiselect.cpu_s": ("keys_per_s,op_p50_s", "wide (not deep)"),
    "core.multiselect.wait_s": ("keys_per_s,op_p50_s", "wide (not deep)"),
    "core.multiselect.rounds": ("keys_per_s,op_p50_s", "wide (not deep)"),
    "core.multiselect.virtual_s": ("virtual_s_per_op", "wide (not deep)"),
    "core.histsort.self_cpu_s": ("keys_per_s,op_p50_s", "deep"),
    "core.local_sort.virtual_s": ("virtual_s_per_op", "deep"),
    "core.merge.cpu_s": ("keys_per_s,op_p50_s", "deep"),
    "core.merge.virtual_s": ("virtual_s_per_op", "deep"),
    "core.exchange.cpu_s": ("keys_per_s,peak_rss_mb", "deep"),
    "core.exchange.bytes": ("keys_per_s,peak_rss_mb", "deep"),
    "core.exchange.virtual_s": ("virtual_s_per_op", "deep"),
    "mpi.collective.calls": ("op_p50_s", "wide,serve"),
    "mpi.collective.cpu_s": ("op_p50_s", "wide,serve"),
    "mpi.collective.wait_s": ("op_p50_s", "wide,serve"),
    "mpi.payload.copies": ("keys_per_s,peak_rss_mb", "deep"),
    "mpi.payload.copy_cpu_s": ("keys_per_s,peak_rss_mb", "deep"),
    "mpi.runtime.runs": ("ops_per_s", "serve"),
    "mpi.runtime.spawn_s": ("ops_per_s", "serve"),
    "mpi.wire_bytes": ("virtual_s_per_op", "all"),
    "mpi.messages": ("virtual_s_per_op", "all"),
    "serve.epochs": ("ops_per_s,op_p90_s", "serve"),
    "serve.jobs_per_epoch": ("ops_per_s,op_p90_s", "serve"),
    "serve.sort_epoch_s": ("ops_per_s,op_p90_s", "serve"),
    "serve.query_epoch_s": ("ops_per_s,op_p90_s", "serve"),
    "tune.plan_sort_calls": ("setup_s,ops_per_s", "serve"),
    "tune.plan_sort_s": ("setup_s,ops_per_s", "serve"),
    "tune.cache_hit_ratio": ("ops_per_s", "serve"),
    "trace.events": ("keys_per_s", "observed (unchanged elsewhere)"),
    "trace.export_s": ("keys_per_s", "observed (unchanged elsewhere)"),
    "observers.overhead_ratio": ("keys_per_s", "observed (unchanged elsewhere)"),
    "bench.trace_overhead": ("none: cost of this tracing", "all"),
    "host.ref_loop_s": ("none: machine drift reference", "all"),
}

#: the ``Comm`` methods counted as ``mpi.collective``
COLLECTIVES = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "alltoallv", "scan", "exscan",
)

#: columns of one span row
FIELDS = ("id", "parent", "op", "name", "thread", "start", "end", "cpu_s", "attrs")


class SpanLog:
    """In-memory span store shared by the benchmark loop and the rank threads.

    ``op`` is the benchmark loop's current operation id; spans opened on a rank
    thread inherit the parent and operation id of the ``mpi.runtime`` span
    that started the thread.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[tuple[int, int, str]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][2] if stack else None

    def span(self, name: str, parent: int | None = None, op: int | None = None) -> "_Span":
        stack = self._stack()
        if parent is None:
            parent, op = (stack[-1][0], stack[-1][1]) if stack else (0, self.op)
        span = _Span(self, name, next(self._ids), parent, op)
        stack.append((span.sid, op, name))
        return span


class _Span:
    __slots__ = ("log", "name", "sid", "parent", "op", "attrs", "t0", "c0")

    def __init__(self, log: SpanLog, name: str, sid: int, parent: int, op: int):
        self.log, self.name, self.sid, self.parent, self.op = log, name, sid, parent, op
        self.attrs: dict[str, Any] = {}

    def __enter__(self) -> "_Span":
        self.t0 = perf_counter()
        self.c0 = thread_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        cpu = thread_time() - self.c0
        t1 = perf_counter()
        log = self.log
        log.rows.append((
            self.sid, self.parent, self.op, self.name,
            threading.current_thread().name, self.t0, t1, cpu, self.attrs,
        ))
        log._stack().pop()


def _wrap(log: SpanLog, name: str, fn: Callable, after: Callable | None = None,
          clocked: bool = False, outermost: bool = False) -> Callable:
    """``fn`` inside a span; ``clocked`` records the rank's virtual-clock
    advance (``args[0]`` is the communicator), ``after`` adds attributes
    from the arguments and result, ``outermost`` skips nested calls."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if outermost and log.current() == name:
            return fn(*args, **kwargs)
        with log.span(name) as span:
            v0 = args[0].clock if clocked else 0.0
            out = fn(*args, **kwargs)
            if clocked:
                span.attrs["virtual"] = args[0].clock - v0
            if after is not None:
                after(span.attrs, args, out)
        return out

    return traced


@contextlib.contextmanager
def instrument(log: SpanLog) -> Iterator[None]:
    """Wrap every layer's entry points for the duration of the block."""
    import repro.core.api as api
    import repro.core.histsort as histsort
    import repro.mpi.comm as comm_mod
    import repro.tune.planner as planner
    from repro.mpi import Comm, Runtime
    from repro.serve import SortService

    def sort_attrs(attrs: dict, args: tuple, out: Any) -> None:
        attrs["local_sort"] = out.phases["local_sort"]

    def rounds_attrs(attrs: dict, args: tuple, out: Any) -> None:
        attrs["rounds"] = out.rounds

    def bytes_attrs(attrs: dict, args: tuple, out: Any) -> None:
        attrs["bytes"] = sum(int(c.nbytes) for c in out)

    def jobs_attrs(attrs: dict, args: tuple, out: Any) -> None:
        batch_or_jobs = args[1]
        attrs["jobs"] = len(getattr(batch_or_jobs, "jobs", batch_or_jobs))

    traced_sort = _wrap(log, "core.histsort", histsort.histogram_sort, sort_attrs)
    patches: list[tuple[Any, str, Any]] = [
        (histsort, "histogram_sort", traced_sort),
        (api, "histogram_sort", traced_sort),
        (histsort, "find_splitters",
         _wrap(log, "core.multiselect", histsort.find_splitters, rounds_attrs, clocked=True)),
        (histsort, "build_exchange_plan",
         _wrap(log, "core.exchange", histsort.build_exchange_plan, clocked=True)),
        (histsort, "exchange",
         _wrap(log, "core.exchange", histsort.exchange, bytes_attrs, clocked=True)),
        (histsort, "local_merge",
         _wrap(log, "core.merge", histsort.local_merge, clocked=True)),
        (comm_mod, "copy_payload", _wrap(log, "mpi.payload", comm_mod.copy_payload)),
        (planner, "plan_sort", _wrap(log, "tune.plan_sort", planner.plan_sort)),
        (SortService, "_run_sort_epoch",
         _wrap(log, "serve.sort_epoch", SortService._run_sort_epoch, jobs_attrs)),
        (SortService, "_run_query_epoch",
         _wrap(log, "serve.query_epoch", SortService._run_query_epoch, jobs_attrs)),
        (Runtime, "run", _traced_run(log, Runtime.run)),
    ]
    patches += [
        (Comm, name, _wrap(log, "mpi.collective", getattr(Comm, name), outermost=True))
        for name in COLLECTIVES
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def _traced_run(log: SpanLog, run: Callable) -> Callable:
    """``Runtime.run`` inside an ``mpi.runtime`` span whose children are the
    rank programs; the span also keeps the run's ``Stats.snapshot()``."""

    @functools.wraps(run)
    def traced(self, fn, *, args=(), per_rank_args=None, timeout=None):
        with log.span("mpi.runtime") as span:
            parent, op = span.sid, span.op

            def rank_program(comm, *rank_args):
                with log.span("mpi.rank", parent=parent, op=op):
                    return fn(comm, *rank_args)

            out = run(self, rank_program, args=args, per_rank_args=per_rank_args,
                      timeout=timeout)
            snap = self.stats.snapshot()
            span.attrs["wire_bytes"] = snap.wire_bytes
            span.attrs["messages"] = snap.total_msgs_sent + snap.total_collective_calls
        return out

    return traced


def _self_seconds(rows: list[tuple]) -> dict[int, tuple[float, float]]:
    """Span id -> (wall self time, CPU self time).

    Wall self time is the span's duration minus the part of it that its
    children cover (children of ``mpi.runtime`` run in parallel threads);
    CPU self time subtracts the CPU of children on the span's own thread.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    for row in rows:
        children[row[1]].append(row)
    out = {}
    for row in rows:
        sid, start, end, cpu, thread = row[0], row[5], row[6], row[7], row[4]
        covered, reach = 0.0, start
        for kid in sorted(children.get(sid, ()), key=lambda r: r[5]):
            lo, hi = max(kid[5], reach), min(kid[6], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        kid_cpu = sum(k[7] for k in children.get(sid, ()) if k[4] == thread)
        out[sid] = (end - start - covered, cpu - kid_cpu)
    return out


def summarize(rows: list[tuple], n_ops: int) -> dict[str, float]:
    """Per-layer metrics over the spans of the measured window.

    The window's spans carry operation ids >= 0 (set-up ones are negative).
    Times and counts are per operation (``n_ops``); CPU and wait times are
    summed over rank threads; a virtual time is the slowest rank's total
    within each SPMD run, summed over runs.  ``tune.*`` call counts and
    times also include the set-up, where the plan cache is warmed.
    """
    window = [r for r in rows if r[2] >= 0]
    by_id = {r[0]: r for r in rows}
    selfs = _self_seconds(window)

    def run_of(row: tuple) -> int:
        while row is not None and row[3] != "mpi.runtime":
            row = by_id.get(row[1])
        return row[0] if row is not None else 0

    named: dict[str, list[tuple]] = defaultdict(list)
    for row in window:
        named[row[3]].append(row)

    def per_op(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    def cpu(name: str) -> float:
        return per_op(sum(r[7] for r in named[name]))

    def wait(name: str) -> float:
        return per_op(sum(r[6] - r[5] - r[7] for r in named[name]))

    def slowest_rank(name: str, key: str) -> float:
        per_rank: dict[tuple[int, str], float] = defaultdict(float)
        for r in named[name]:
            if key in r[8]:
                per_rank[run_of(r), r[4]] += r[8][key]
        per_run: dict[int, float] = defaultdict(float)
        for (run, _), value in per_rank.items():
            per_run[run] = max(per_run[run], value)
        return per_op(sum(per_run.values()))

    rank_rows: dict[int, list[tuple]] = defaultdict(list)
    for row in named["mpi.rank"]:
        rank_rows[row[1]].append(row)

    def spawn(row: tuple) -> float:
        ranks = rank_rows.get(row[0])
        if not ranks:
            return 0.0
        inside = max(k[6] for k in ranks) - min(k[5] for k in ranks)
        return row[6] - row[5] - inside

    epochs = named["serve.sort_epoch"] + named["serve.query_epoch"]
    plans = [r for r in rows if r[3] == "tune.plan_sort"]

    def mean_wall(rs: list[tuple]) -> float:
        return sum(r[6] - r[5] for r in rs) / len(rs) if rs else 0.0

    runtimes = named["mpi.runtime"]
    return {
        "core.multiselect.cpu_s": cpu("core.multiselect"),
        "core.multiselect.wait_s": wait("core.multiselect"),
        "core.multiselect.rounds": slowest_rank("core.multiselect", "rounds"),
        "core.multiselect.virtual_s": slowest_rank("core.multiselect", "virtual"),
        "core.histsort.self_cpu_s": per_op(sum(selfs[r[0]][1] for r in named["core.histsort"])),
        "core.local_sort.virtual_s": slowest_rank("core.histsort", "local_sort"),
        "core.merge.cpu_s": cpu("core.merge"),
        "core.merge.virtual_s": slowest_rank("core.merge", "virtual"),
        "core.exchange.cpu_s": cpu("core.exchange"),
        "core.exchange.bytes": per_op(sum(r[8].get("bytes", 0) for r in named["core.exchange"])),
        "core.exchange.virtual_s": slowest_rank("core.exchange", "virtual"),
        "mpi.collective.calls": per_op(len(named["mpi.collective"])),
        "mpi.collective.cpu_s": cpu("mpi.collective"),
        "mpi.collective.wait_s": wait("mpi.collective"),
        "mpi.payload.copies": per_op(len(named["mpi.payload"])),
        "mpi.payload.copy_cpu_s": cpu("mpi.payload"),
        "mpi.runtime.runs": per_op(len(runtimes)),
        "mpi.runtime.spawn_s": per_op(sum(spawn(r) for r in runtimes)),
        "mpi.wire_bytes": per_op(sum(r[8].get("wire_bytes", 0.0) for r in runtimes)),
        "mpi.messages": per_op(sum(r[8].get("messages", 0) for r in runtimes)),
        "serve.epochs": per_op(len(epochs)),
        "serve.jobs_per_epoch": (
            sum(r[8].get("jobs", 0) for r in epochs) / len(epochs) if epochs else 0.0
        ),
        "serve.sort_epoch_s": mean_wall(named["serve.sort_epoch"]),
        "serve.query_epoch_s": mean_wall(named["serve.query_epoch"]),
        "tune.plan_sort_calls": float(len(plans)),
        "tune.plan_sort_s": sum(r[6] - r[5] for r in plans),
    }


def write_spans(path: Path, rows: list[tuple], meta: dict[str, Any]) -> None:
    """Write every span, with its wall and CPU self time, as one JSON file."""
    selfs = _self_seconds(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        **meta,
        "fields": list(FIELDS) + ["self_s", "self_cpu_s"],
        "spans": [list(r) + list(selfs[r[0]]) for r in sorted(rows, key=lambda r: r[5])],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
