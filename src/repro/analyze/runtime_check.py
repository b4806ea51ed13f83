"""Runtime verification of SPMD programs (the ``check=True`` layer).

A :class:`RuntimeChecker` hangs off a :class:`~repro.mpi.runtime.Runtime`
(``runtime.checker``) and verifies, while the program runs:

* **Collective congruence** — every rank's Nth collective on a
  communicator must agree on operation name and root.  A mismatch raises
  :class:`~repro.mpi.errors.CollectiveMismatchError` carrying both ranks'
  call sites instead of silently folding incompatible deposits.
* **Deadlock detection** — a wait-for graph over blocked receives and
  collective rendezvous crossings.  When every non-finished rank is blocked and
  no pending message or collective completion can wake any of them, the
  run aborts with a :class:`~repro.mpi.errors.DeadlockError` describing
  the cycle, instead of hanging until ``timeout``.
* **Finalize accounting** — at the end of a clean run the runtime reports
  undelivered mailbox messages and never-completed ``irecv`` requests
  (:class:`~repro.mpi.errors.MessageLeakError`).

Invariants
----------
The checker must never perturb the virtual clocks: it only *observes*
state transitions, so a checked run's clocks are bit-identical to an
unchecked run's (the same guarantee event tracing gives).  Lock ordering:
checker methods may be called while a mailbox condition is held, so the
checker never acquires mailbox locks itself — it keeps its own shadow
table of in-flight messages, updated *before* the mailbox (sends) and
*after* it (receives), which makes the table conservative in exactly the
safe direction (it may claim a wakeup is coming that has not landed yet,
never the opposite).

Deadlock analysis runs only when the acting rank observes that no rank is
``running`` — every transition that could complete the all-blocked
condition (a rank blocking or finishing) triggers one analysis pass under
the checker lock, so there is no polling thread and no wall-clock timer.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..mpi.errors import CollectiveMismatchError, DeadlockError

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.comm import _CommState
    from ..mpi.runtime import Runtime

__all__ = ["RuntimeChecker", "RequestRecord", "call_site"]

_RUNNING = "running"
_BLOCKED = "blocked"
_FINISHED = "finished"

#: filenames whose frames are skipped when attributing a call site
_INTERNAL_PARTS = ("repro/mpi/", "repro\\mpi\\", "repro/analyze/", "repro\\analyze\\")


def call_site(skip: int = 2) -> str:
    """``file:line (function)`` of the first frame outside the runtime."""
    frame = sys._getframe(skip)
    while frame is not None:
        fn = frame.f_code.co_filename
        if not any(part in fn for part in _INTERNAL_PARTS):
            return f"{fn}:{frame.f_lineno} ({frame.f_code.co_name})"
        frame = frame.f_back
    return "<unknown>"


@dataclass
class RequestRecord:
    """One outstanding non-blocking receive, for finalize accounting."""

    world_rank: int
    source: int
    tag: int
    site: str
    done: bool = False


@dataclass
class _Wait:
    """What one blocked rank is waiting on."""

    kind: str                      # "recv" | "collective"
    state: Any                     # the _CommState
    idx: int                       # group rank within the communicator
    source: int = -1               # recv: group-rank source spec (-1 = ANY)
    tag: int = -1                  # recv: tag spec (-1 = ANY)
    op: str = ""                   # collective: operation name
    site: str = ""
    extra: dict = field(default_factory=dict)

    def describe(self, world_rank: int) -> str:
        if self.kind == "recv":
            src = "ANY" if self.source < 0 else str(self.state.world_ranks[self.source])
            tag = "ANY" if self.tag < 0 else str(self.tag)
            return (
                f"rank {world_rank}: blocked in recv(source={src}, tag={tag}) "
                f"at {self.site}"
            )
        return (
            f"rank {world_rank}: blocked in collective '{self.op}' on "
            f"comm#{self.state.trace_id} (members {self.state.world_ranks}) "
            f"at {self.site}"
        )


class RuntimeChecker:
    """Online verifier for one :class:`~repro.mpi.runtime.Runtime`."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.size = runtime.size
        self._lock = threading.Lock()
        self._rank_state = [_RUNNING] * self.size
        self._waits: list[_Wait | None] = [None] * self.size
        #: (comm trace_id, dest group rank) -> Counter[(src group rank, tag)]
        self._inflight: dict[tuple[int, int], Counter] = {}
        #: (comm trace_id, group rank) -> next collective sequence number
        self._coll_seq: dict[tuple[int, int], int] = {}
        #: comm trace_id -> total rendezvous-crossing arrivals (generation counter)
        self._coll_arrivals: dict[int, int] = {}
        #: (comm trace_id, seq) -> [op, root, site, world_rank, arrivals]
        self._coll_ops: dict[tuple[int, int], list] = {}
        self._deadlock: str | None = None
        self.requests: list[RequestRecord] = []

    # ------------------------------------------------------------ run lifecycle

    def begin_run(self) -> None:
        with self._lock:
            self._rank_state = [_RUNNING] * self.size
            self._waits = [None] * self.size
            self._deadlock = None

    def reset(self) -> None:
        """Discard all shadow state (paired with :meth:`Runtime.reset`).

        Without this, inflight counters and collective sequence numbers
        from a previous run would poison congruence checking of the next
        one on the same runtime."""
        with self._lock:
            self._rank_state = [_RUNNING] * self.size
            self._waits = [None] * self.size
            self._inflight.clear()
            self._coll_seq.clear()
            self._coll_arrivals.clear()
            self._coll_ops.clear()
            self._deadlock = None
            self.requests = []

    def finish(self, world_rank: int) -> None:
        """A rank's function returned (or raised); it will act no more."""
        with self._lock:
            self._rank_state[world_rank] = _FINISHED
            self._waits[world_rank] = None
            diagnosis = self._analyze()
        if diagnosis is not None:
            # The deadlocked peers are woken by the abort and re-raise the
            # stored diagnosis from their own blocked call sites.
            self.runtime.abort()

    def pending_requests(self) -> list[RequestRecord]:
        with self._lock:
            return [r for r in self.requests if not r.done]

    # ------------------------------------------------------------- p2p shadow

    def note_send(self, state: "_CommState", dest_idx: int, src_idx: int, tag: int) -> None:
        """Called by ``Comm.send`` *before* the mailbox append."""
        with self._lock:
            key = (state.trace_id, dest_idx)
            box = self._inflight.get(key)
            if box is None:
                box = self._inflight[key] = Counter()
            box[(src_idx, tag)] += 1

    def note_consume(self, state: "_CommState", dest_idx: int, src_idx: int, tag: int) -> None:
        """Called by ``Comm.recv`` after removing a message from the mailbox."""
        with self._lock:
            box = self._inflight.get((state.trace_id, dest_idx))
            if box is not None:
                box[(src_idx, tag)] -= 1
                if box[(src_idx, tag)] <= 0:
                    del box[(src_idx, tag)]

    def note_irecv(self, world_rank: int, source: int, tag: int) -> RequestRecord:
        rec = RequestRecord(world_rank, source, tag, call_site())
        with self._lock:
            self.requests.append(rec)
        return rec

    # ---------------------------------------------------------------- blocking

    def block_recv(self, state: "_CommState", idx: int, source: int, tag: int) -> None:
        """Register a rank about to wait on its mailbox; may raise DeadlockError."""
        wr = state.world_ranks[idx]
        wait = _Wait("recv", state, idx, source=source, tag=tag, site=call_site())
        self._block(wr, wait)

    def block_collective(self, state: "_CommState", idx: int, op: str) -> None:
        """Register a rank about to wait on one crossing of a collective's
        rendezvous (two per collective: entry and exit).

        Arrivals at a communicator's rendezvous are counted globally:
        crossings proceed in lockstep (the rendezvous itself enforces it),
        so arrival ``n`` belongs to generation ``n // size``.  A waiter of
        a fully-arrived generation has been *released* even if its thread
        has not been scheduled to unregister yet — the analyzer must not
        mistake it for stuck.
        """
        wr = state.world_ranks[idx]
        wait = _Wait("collective", state, idx, op=op, site=call_site())
        with self._lock:
            n = self._coll_arrivals.get(state.trace_id, 0)
            self._coll_arrivals[state.trace_id] = n + 1
            wait.extra["gen"] = n // state.size
        self._block(wr, wait)

    def unblock(self, world_rank: int) -> None:
        with self._lock:
            self._rank_state[world_rank] = _RUNNING
            self._waits[world_rank] = None

    def maybe_raise_deadlock(self) -> None:
        """Re-raise a stored deadlock diagnosis (for abort-woken peers)."""
        with self._lock:
            diagnosis = self._deadlock
        if diagnosis is not None:
            raise DeadlockError(diagnosis)

    def _block(self, world_rank: int, wait: _Wait) -> None:
        with self._lock:
            if self._deadlock is not None:
                raise DeadlockError(self._deadlock)
            self._rank_state[world_rank] = _BLOCKED
            self._waits[world_rank] = wait
            diagnosis = self._analyze()
        if diagnosis is not None:
            self.runtime.abort()
            raise DeadlockError(diagnosis)

    # ------------------------------------------------------ deadlock analysis

    def _recv_can_progress(self, wait: _Wait) -> bool:
        box = self._inflight.get((wait.state.trace_id, wait.idx))
        if not box:
            return False
        for (src, tag), n in box.items():
            if n <= 0:
                continue
            if (wait.source < 0 or src == wait.source) and (
                wait.tag < 0 or tag == wait.tag
            ):
                return True
        return False

    def _collective_can_progress(self, wait: _Wait) -> bool:
        # The waiter's crossing generation is released once every member has
        # arrived at it — whether or not the woken threads ran yet.
        arrivals = self._coll_arrivals.get(wait.state.trace_id, 0)
        return arrivals >= (wait.extra["gen"] + 1) * wait.state.size

    def _analyze(self) -> str | None:
        """Deadlock test; caller holds the lock.  Returns the diagnosis."""
        if self.runtime._aborted or self._deadlock is not None:
            return None
        if self.runtime._faults is not None:
            # Under a fault plan, stuck configurations are injected, not
            # programming errors; the never-hang guarantee is the wait
            # registry's quiescence arbiter, which knows about retry
            # deadlines and crashed ranks.  Stay out of its way.
            return None
        if self.runtime._registry.has_pending_deadline():
            # A virtual-time timeout will resolve this wait; the verdict
            # belongs to the timeout arbiter.
            return None
        if any(s == _RUNNING for s in self._rank_state):
            return None
        blocked = [r for r, s in enumerate(self._rank_state) if s == _BLOCKED]
        if not blocked:
            return None
        for r in blocked:
            wait = self._waits[r]
            if wait is None:  # racing unblock; treat as runnable
                return None
            can = (
                self._recv_can_progress(wait)
                if wait.kind == "recv"
                else self._collective_can_progress(wait)
            )
            if can:
                return None
        self._deadlock = self._diagnose(blocked)
        return self._deadlock

    def _wait_edges(self, r: int) -> list[int]:
        """World ranks that could (but will not) wake blocked rank ``r``."""
        wait = self._waits[r]
        assert wait is not None
        members = wait.state.world_ranks
        if wait.kind == "recv":
            if wait.source >= 0:
                return [members[wait.source]]
            return [wr for wr in members if wr != r]
        absent = []
        for wr in members:
            w = self._waits[wr]
            if w is None or w.kind != "collective" or w.state is not wait.state:
                absent.append(wr)
        return absent

    def _find_cycle(self, blocked: list[int]) -> list[int] | None:
        edges = {r: [e for e in self._wait_edges(r) if e in blocked] for r in blocked}
        color: dict[int, int] = {}
        stack: list[int] = []

        def dfs(r: int) -> list[int] | None:
            color[r] = 1
            stack.append(r)
            for nxt in edges[r]:
                if color.get(nxt, 0) == 1:
                    return stack[stack.index(nxt) :] + [nxt]
                if color.get(nxt, 0) == 0:
                    found = dfs(nxt)
                    if found is not None:
                        return found
            stack.pop()
            color[r] = 2
            return None

        for r in blocked:
            if color.get(r, 0) == 0:
                found = dfs(r)
                if found is not None:
                    return found
        return None

    def _diagnose(self, blocked: list[int]) -> str:
        lines = ["SPMD deadlock: every live rank is blocked and none can progress"]
        for r in blocked:
            wait = self._waits[r]
            assert wait is not None
            lines.append("  " + wait.describe(r))
        finished = [r for r, s in enumerate(self._rank_state) if s == _FINISHED]
        if finished:
            lines.append(f"  finished rank(s): {finished}")
        cycle = self._find_cycle(blocked)
        if cycle is not None:
            lines.append(
                "  wait-for cycle: " + " -> ".join(f"rank {r}" for r in cycle)
            )
        return "\n".join(lines)

    # ------------------------------------------------------------- congruence

    def collective_op(
        self, state: "_CommState", idx: int, op: str, root: int | None
    ) -> None:
        """Verify the Nth collective of this rank matches its peers'."""
        wr = state.world_ranks[idx]
        site = call_site()
        mismatch: str | None = None
        with self._lock:
            key = (state.trace_id, idx)
            seq = self._coll_seq.get(key, 0)
            self._coll_seq[key] = seq + 1
            op_key = (state.trace_id, seq)
            rec = self._coll_ops.get(op_key)
            if rec is None:
                self._coll_ops[op_key] = [op, root, site, wr, 1]
            else:
                rec[4] += 1
                if rec[4] >= state.size:
                    del self._coll_ops[op_key]
                if rec[0] != op or rec[1] != root:
                    mismatch = (
                        f"mismatched collectives on comm#{state.trace_id} "
                        f"(members {state.world_ranks}), sequence {seq}: "
                        f"rank {rec[3]} called {_fmt_op(rec[0], rec[1])} at {rec[2]}; "
                        f"rank {wr} called {_fmt_op(op, root)} at {site}"
                    )
        if mismatch is not None:
            self.runtime.abort()
            raise CollectiveMismatchError(mismatch)


def _fmt_op(op: str, root: int | None) -> str:
    return f"{op}(root={root})" if root is not None else f"{op}()"
