"""Always-on wait registry + virtual-time timeout arbiter.

Every rank thread registers what it is blocked on (a receive, one crossing
of a collective's rendezvous, or a fault-tolerant rendezvous).  Two consumers:

* ``Runtime.run(timeout=...)`` expiry reports *which ranks* were blocked
  and on what operation (:meth:`WaitRegistry.describe_blocked`).
* Virtual-time p2p deadlines (``recv(timeout=...)``): there is no global
  event queue in this runtime — ranks run as free threads — so a timeout
  cannot "fire at virtual time T" eagerly.  Instead the registry detects
  *quiescence* (no rank is runnable and no blocked wait can make
  progress) and only then fires the earliest ``(deadline, rank)``
  timeout.  That is exactly the point where the virtual clocks can no
  longer advance on their own, so firing is deterministic: quiescent
  configurations are determined by the program + fault schedule, not by
  thread scheduling.

Lock discipline: the registry lock is a leaf for condition variables —
wait predicates (``can_progress``) only *read* mailbox lists and rendezvous
state, which are stable at quiescence; notifications and aborts happen
after the registry lock is released, and callers never invoke
``block_*`` while holding a mailbox condition.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .comm import _Rendezvous

RUNNING, BLOCKED, FINISHED, DEAD = range(4)

_STATE_NAMES = {RUNNING: "running", BLOCKED: "blocked",
                FINISHED: "finished", DEAD: "dead"}


class WaitInfo:
    """One rank's current wait."""

    __slots__ = ("rank", "kind", "detail", "deadline", "fired", "awake",
                 "hoisted", "can_progress", "notify", "revocable")

    def __init__(self, rank: int, kind: str, detail: str,
                 deadline: float | None = None,
                 can_progress: Callable[[], bool] | None = None,
                 notify: Callable[[], None] | None = None,
                 revocable: Callable[[], bool] | None = None):
        self.rank = rank
        self.kind = kind
        self.detail = detail
        self.deadline = deadline
        self.fired = False
        #: the waiter's thread woke and is re-checking its predicate — it
        #: may be about to consume the very message the predicate sees, so
        #: the arbiter must treat it as in-flight progress (non-monotone
        #: recv predicates only; barrier/ft predicates are monotone)
        self.awake = False
        #: the arbiter decided this wait must abandon with a revocation
        #: error (quiescence reached, nothing can progress, comm revoked)
        self.hoisted = False
        self.can_progress = can_progress
        self.notify = notify
        self.revocable = revocable


class WaitRegistry:
    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        self._state = [RUNNING] * size
        self._waits: list[WaitInfo | None] = [None] * size
        self._nrunning = size
        # rendezvous arrival counters (keyed per rendezvous object) so the
        # arbiter can tell "release in flight" from "stuck waiting"
        self._arrivals: dict[int, int] = {}
        self._faults_active = False
        self._on_deadlock: Callable[[str], None] | None = None
        self._on_fire: Callable[[WaitInfo], None] | None = None

    def begin(self, *, faults_active: bool,
              on_deadlock: Callable[[str], None] | None = None,
              on_fire: Callable[[WaitInfo], None] | None = None) -> None:
        """Reset for a fresh run.  ``on_fire`` observes every fired
        virtual deadline (the failure detector's *suspicion* events —
        quiescence-determined, hence deterministic; used for counting)."""
        with self._lock:
            self._state = [RUNNING] * self.size
            self._waits = [None] * self.size
            self._nrunning = self.size
            self._arrivals.clear()
            self._faults_active = faults_active
            self._on_deadlock = on_deadlock
            self._on_fire = on_fire

    # -- transitions -----------------------------------------------------

    def block(self, rank: int, kind: str, detail: str, *,
              deadline: float | None = None,
              can_progress: Callable[[], bool] | None = None,
              notify: Callable[[], None] | None = None,
              revocable: Callable[[], bool] | None = None) -> WaitInfo:
        """Mark ``rank`` blocked.  Must NOT be called while holding any
        mailbox condition (the arbiter's follow-up actions may notify
        arbitrary conditions or abort the runtime)."""
        w = WaitInfo(rank, kind, detail, deadline, can_progress, notify,
                     revocable)
        with self._lock:
            if self._state[rank] == RUNNING:
                self._nrunning -= 1
            self._state[rank] = BLOCKED
            self._waits[rank] = w
            action = self._arbitrate_locked()
        self._perform(action)
        return w

    def block_barrier(self, rank: int, barrier: "_Rendezvous",
                      detail: str) -> WaitInfo:
        """Mark ``rank`` blocked on (and arrived at) one crossing of a
        collective's rendezvous.

        Every member arrives once per crossing, so arrival ``n`` belongs to
        generation ``n // parties``; the wait can progress once that
        generation is fully arrived (its release may still be in flight) or
        the rendezvous is broken."""
        key = id(barrier)
        with self._lock:
            n = self._arrivals.get(key, 0)
            self._arrivals[key] = n + 1
            parties = barrier.parties
            gen = n // parties
            arrivals = self._arrivals

            def arrived() -> bool:
                return barrier.broken or arrivals.get(key, 0) >= (gen + 1) * parties

            w = WaitInfo(rank, "collective", detail, can_progress=arrived)
            if self._state[rank] == RUNNING:
                self._nrunning -= 1
            self._state[rank] = BLOCKED
            self._waits[rank] = w
            action = self._arbitrate_locked()
        self._perform(action)
        return w

    def unblock(self, rank: int) -> None:
        with self._lock:
            if self._state[rank] == BLOCKED:
                self._nrunning += 1
                self._state[rank] = RUNNING
            self._waits[rank] = None

    def wake_ack(self, rank: int) -> None:
        """The waiter's thread resumed after a wake-up (registry lock is a
        leaf, so this is safe to call while holding the waited condition)."""
        with self._lock:
            w = self._waits[rank]
            if w is not None:
                w.awake = True

    def rearm(self, rank: int) -> None:
        """The waiter re-checked its predicate and is about to wait again."""
        with self._lock:
            w = self._waits[rank]
            if w is not None:
                w.awake = False

    def repoll(self, rank: int) -> None:
        """The waiter finished wake-up work that consumed progress invisibly
        (e.g. an ft-blocked rank drained protocol traffic from its mailbox
        without leaving the BLOCKED state) and is about to wait again.
        Unlike :meth:`rearm` this re-runs arbitration: the drain may have
        removed the last pending wake, leaving a deadline as the only way
        forward.  Must not be called while holding a mailbox or ft
        condition (the arbiter's follow-up may notify arbitrary ones)."""
        with self._lock:
            w = self._waits[rank]
            if w is not None:
                w.awake = False
            action = self._arbitrate_locked()
        self._perform(action)

    def finish(self, rank: int) -> None:
        with self._lock:
            if self._state[rank] == RUNNING:
                self._nrunning -= 1
            if self._state[rank] != DEAD:
                self._state[rank] = FINISHED
            self._waits[rank] = None
            action = self._arbitrate_locked()
        self._perform(action)

    def die(self, rank: int) -> None:
        """Mark a rank dead (fault-injected crash).  Call *after* all
        death bookkeeping (failed sets, barrier aborts, notifications) so
        the arbiter sees a consistent picture."""
        with self._lock:
            if self._state[rank] == RUNNING:
                self._nrunning -= 1
            self._state[rank] = DEAD
            self._waits[rank] = None
            action = self._arbitrate_locked()
        self._perform(action)

    # -- arbiter ---------------------------------------------------------

    def _arbitrate_locked(self):
        if self._nrunning > 0:
            return None
        blocked = [w for w in self._waits if w is not None]
        if not blocked:
            return None
        for w in blocked:
            if w.fired or w.awake or w.hoisted:
                return None  # a firing or a wake-up is already in flight
            try:
                if w.can_progress is not None and w.can_progress():
                    return None
            except Exception:
                return None  # predicate raced with a wake-up: assume progress
        with_deadline = [w for w in blocked if w.deadline is not None]
        if with_deadline:
            w = min(with_deadline, key=lambda w: (w.deadline, w.rank))
            w.fired = True
            return ("fire", w)
        # No deadline left to drive progress: waits on a revoked
        # communicator abandon with CommRevokedError.  Deciding this only
        # here — at quiescence, where the revoked flag and every mailbox
        # are stable — rather than eagerly on wake-up keeps the schedule a
        # pure function of virtual time: a blocked receive whose message
        # is still (causally) coming always completes; revocation hoists
        # only the traffic that can never be satisfied.
        hoist = [w for w in blocked
                 if w.revocable is not None and w.revocable()]
        if hoist:
            for w in hoist:
                w.hoisted = True
            return ("hoist", hoist)
        if self._faults_active and self._on_deadlock is not None:
            return ("deadlock", self._describe_locked())
        return None

    def _perform(self, action) -> None:
        if action is None:
            return
        what, payload = action
        if what == "fire":
            cb = self._on_fire
            if cb is not None:
                cb(payload)
            if payload.notify is not None:
                payload.notify()
        elif what == "hoist":
            for w in payload:
                if w.notify is not None:
                    w.notify()
        elif what == "deadlock":
            cb = self._on_deadlock
            if cb is not None:
                cb(payload)

    # -- introspection ---------------------------------------------------

    def has_pending_deadline(self) -> bool:
        """True if any blocked wait carries a virtual-time deadline (the
        deadlock verdict then belongs to the timeout arbiter, not the
        checker)."""
        with self._lock:
            return any(w is not None and w.deadline is not None
                       for w in self._waits)

    def _describe_locked(self) -> str:
        lines = []
        for r in range(self.size):
            st = self._state[r]
            w = self._waits[r]
            if w is not None:
                extra = ""
                if w.deadline is not None:
                    extra = f" (deadline t={w.deadline:.6g})"
                lines.append(f"  rank {r}: blocked in {w.detail}{extra}")
            else:
                lines.append(f"  rank {r}: {_STATE_NAMES[st]}")
        return "\n".join(lines)

    def describe_blocked(self) -> str:
        """Human-readable per-rank wait table (for run-timeout reports)."""
        with self._lock:
            return self._describe_locked()
