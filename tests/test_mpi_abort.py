"""Abort semantics: a rank dying mid-operation must unwind its peers.

When any rank raises, the runtime aborts: every peer blocked in a p2p or
collective wait is hoisted out with :class:`Aborted` (the in-process
analogue of ``MPI_Abort``) and the driver raises :class:`SPMDError`
carrying only the *real* failure.  These tests pin that contract for the
three wait flavours — an ``alltoallv`` (payload collective), a
``barrier`` (pure rendezvous), and a blocking ``recv`` — with a wall
timeout so a regression shows up as a failure, not a hung test run.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.mpi import RankFailedError, ReduceOp, SPMDError
from tests.conftest import spmd

WALL = 60.0  # generous wall-clock backstop: failure mode is a hang


class Boom(RuntimeError):
    pass


def _assert_only_rank_failed(excinfo, rank: int):
    err = excinfo.value
    assert isinstance(err, SPMDError)
    assert set(err.failures) == {rank}
    assert isinstance(err.failures[rank], Boom)


def test_peer_death_unblocks_alltoallv():
    def prog(comm):
        if comm.rank == 1:
            raise Boom("rank 1 dies before the exchange")
        chunks = [np.full(4, comm.rank, dtype=np.int64)
                  for _ in range(comm.size)]
        comm.alltoallv(chunks)  # spmd: ignore[DIV-COLLECTIVE]
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(4, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 1)


def test_peer_death_unblocks_barrier():
    def prog(comm):
        if comm.rank == 2:
            raise Boom("rank 2 dies before the barrier")
        comm.barrier()  # spmd: ignore[DIV-COLLECTIVE]
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(4, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 2)


def test_peer_death_unblocks_recv():
    def prog(comm):
        if comm.rank == 0:
            raise Boom("rank 0 dies instead of sending")
        if comm.rank == 1:
            comm.recv(source=0)  # would block forever without the abort
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(2, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 0)


def test_death_mid_collective_sequence():
    # The failing rank has already completed one collective; peers are one
    # operation ahead when it dies, so the abort must reach ranks blocked
    # in a *later* collective than the one the victim last joined.
    def prog(comm):
        comm.barrier()
        if comm.rank == 3:
            raise Boom("rank 3 dies between collectives")
        comm.allreduce(comm.rank)  # spmd: ignore[DIV-COLLECTIVE]
        comm.barrier()  # spmd: ignore[DIV-COLLECTIVE]
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(4, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 3)


def test_surviving_ranks_do_not_report_phantom_failures():
    # Aborted peers are secondary casualties: the error must name rank 0
    # only, and its per-rank summary must point at the real exception.
    def prog(comm):
        if comm.rank == 0:
            raise Boom("primary failure")
        comm.recv(source=0)

    with pytest.raises(SPMDError) as excinfo:
        spmd(3, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 0)
    assert "rank 0: Boom: primary failure" in str(excinfo.value)


# ------------------------------------------------- the collective rendezvous
#
# Collectives cross a two-step rendezvous: the last arrival combines the
# deposits before releasing the entry crossing, and an exit crossing keeps
# deposits alive until every member has extracted.  An abort or crash may
# land while peers are parked in either crossing.


def test_peer_abort_while_peers_parked_in_collective():
    def prog(comm):
        if comm.rank == 2:
            time.sleep(0.05)  # let the peers park in the allreduce first
            raise Boom("rank 2 dies while its peers wait")
        comm.allreduce(np.arange(8))  # spmd: ignore[DIV-COLLECTIVE]
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(6, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 2)


def test_peer_crash_while_peers_parked_in_collective():
    def prog(comm):
        comm.barrier()
        try:
            comm.allreduce(comm.rank)  # rank 1 is killed on entry
        except RankFailedError as exc:
            return sorted(exc.failed)
        return "unreachable"

    plan = FaultPlan(
        FaultSpec(crashes=(CrashEvent(rank=1, at_op=1),)), seed=1, size=4
    )
    results = spmd(4, prog, faults=plan, timeout=WALL)
    assert results == [[1], None, [1], [1]]


def test_raising_combine_aborts_and_surfaces_original():
    def combine(a, b):
        raise Boom("combine failed")

    def prog(comm):
        comm.allreduce(comm.rank, op=ReduceOp("boom", combine))
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(4, prog, timeout=WALL)
    err = excinfo.value
    # Whichever rank arrived last ran the combine; it alone reports, and
    # every peer is a secondary (Aborted) casualty.
    assert len(err.failures) == 1
    (exc,) = err.failures.values()
    assert isinstance(exc, Boom)
    assert err.__cause__ is exc


class _CopyBomb:
    """Payload whose copy fails on one rank's thread only."""

    def __init__(self, victim: str):
        self.victim = victim

    def __deepcopy__(self, memo):
        if threading.current_thread().name == self.victim:
            raise Boom("copy failed at extraction")
        return _CopyBomb(self.victim)


def test_raising_extract_releases_peers_at_exit_crossing():
    def prog(comm):
        comm.allgather(_CopyBomb("rank-3"))
        return "unreachable"

    with pytest.raises(SPMDError) as excinfo:
        spmd(4, prog, timeout=WALL)
    _assert_only_rank_failed(excinfo, 3)
