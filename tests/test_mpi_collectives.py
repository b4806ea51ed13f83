"""Collective semantics of the SPMD runtime."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.mpi import MAX, MIN, PROD, SUM, CommunicatorError, SPMDError, run_spmd
from repro.mpi.comm import _Rendezvous


class TestBcast:
    def test_scalar(self, run):
        def prog(comm):
            return comm.bcast("payload" if comm.rank == 0 else None)

        assert run(4, prog) == ["payload"] * 4

    def test_nonzero_root(self, run):
        def prog(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        assert run(4, prog) == [2] * 4

    def test_array_copies_per_rank(self, run):
        def prog(comm):
            arr = comm.bcast(np.arange(3) if comm.rank == 0 else None)
            arr += comm.rank  # each rank owns its copy
            return int(arr[0])

        assert run(3, prog) == [0, 1, 2]


class TestReduceAllreduce:
    def test_allreduce_sum_scalar(self, run):
        def prog(comm):
            return comm.allreduce(comm.rank + 1)

        assert run(4, prog) == [10] * 4

    def test_allreduce_ops(self, run):
        def prog(comm):
            v = comm.rank + 1
            return (
                comm.allreduce(v, MIN),
                comm.allreduce(v, MAX),
                comm.allreduce(v, PROD),
            )

        assert run(3, prog)[0] == (1, 3, 6)

    def test_allreduce_array_elementwise(self, run):
        def prog(comm):
            return comm.allreduce(np.array([comm.rank, 1]))

        out = run(4, prog)
        for arr in out:
            assert np.array_equal(arr, [6, 4])

    def test_allreduce_tuple_elementwise(self, run):
        def prog(comm):
            return comm.allreduce((comm.rank, -comm.rank), MIN)

        assert run(4, prog)[0] == (0, -3)

    def test_reduce_only_root_gets_value(self, run):
        def prog(comm):
            return comm.reduce(1, SUM, root=1)

        out = run(3, prog)
        assert out == [None, 3, None]

    def test_reduce_rank_order_fold(self, run):
        # String concatenation is non-commutative: order must be rank order.
        from repro.mpi import ReduceOp

        cat = ReduceOp("cat", lambda a, b: a + b)

        def prog(comm):
            return comm.reduce(str(comm.rank), cat, root=0)

        assert run(4, prog)[0] == "0123"


class TestGatherScatter:
    def test_gather(self, run):
        def prog(comm):
            return comm.gather(comm.rank * 2, root=0)

        out = run(4, prog)
        assert out[0] == [0, 2, 4, 6]
        assert out[1] is None

    def test_allgather(self, run):
        def prog(comm):
            return comm.allgather(comm.rank)

        assert run(3, prog) == [[0, 1, 2]] * 3

    def test_scatter(self, run):
        def prog(comm):
            vals = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(vals, root=0)

        assert run(4, prog) == [0, 1, 4, 9]

    def test_scatter_wrong_length_raises(self, run):
        def prog(comm):
            vals = [1] if comm.rank == 0 else None
            return comm.scatter(vals, root=0)

        with pytest.raises(SPMDError):
            run(2, prog)


class TestAlltoall:
    def test_alltoall_transpose(self, run):
        def prog(comm):
            return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

        out = run(3, prog)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_alltoallv_roundtrip(self, run):
        def prog(comm):
            # deliberately p²-total payload — exercises varying row sizes
            chunks = [np.full(d + 1, comm.rank) for d in range(comm.size)]
            got = comm.alltoallv(chunks)  # spmd: ignore[P2-TRAFFIC]
            return [c.tolist() for c in got]

        out = run(3, prog)
        # rank 1 receives chunks of size 2 from every source
        assert out[1] == [[0, 0], [1, 1], [2, 2]]

    def test_alltoallv_wrong_count(self, run):
        def prog(comm):
            comm.alltoallv([np.zeros(1)])

        with pytest.raises(SPMDError):
            run(2, prog)

    def test_alltoallv_empty_chunks(self, run):
        def prog(comm):
            chunks = [np.zeros(0) for _ in range(comm.size)]
            got = comm.alltoallv(chunks)
            return sum(c.size for c in got)

        assert run(4, prog) == [0, 0, 0, 0]


class TestScans:
    def test_inclusive_scan(self, run):
        def prog(comm):
            return comm.scan(comm.rank + 1)

        assert run(4, prog) == [1, 3, 6, 10]

    def test_exscan(self, run):
        def prog(comm):
            return comm.exscan(comm.rank + 1)

        assert run(4, prog) == [None, 1, 3, 6]

    def test_scan_arrays(self, run):
        def prog(comm):
            return comm.scan(np.array([1, comm.rank]))

        out = run(3, prog)
        assert np.array_equal(out[2], [3, 3])


class TestBarrierAndClocks:
    def test_barrier_synchronizes_clocks(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(1.0)
            comm.barrier()
            return comm.clock

        clocks = run(4, prog)
        assert min(clocks) > 1.0
        assert max(clocks) - min(clocks) < 1e-9

    def test_compute_accumulates(self, run):
        def prog(comm):
            comm.compute(0.5)
            comm.compute(0.25)
            return comm.clock

        assert run(2, prog)[0] >= 0.75

    def test_negative_compute_rejected(self, run):
        def prog(comm):
            comm.compute(-1.0)

        with pytest.raises(SPMDError):
            run(1, prog)

    def test_collective_clock_monotone(self, run):
        def prog(comm):
            t0 = comm.clock
            comm.allreduce(1)
            t1 = comm.clock
            assert t1 > t0
            return True

        assert all(run(4, prog))


class TestStats:
    def test_traffic_recorded(self):
        def prog(comm):
            comm.allreduce(np.zeros(16))
            if comm.rank == 0:
                comm.send(np.zeros(8), dest=1)
            if comm.rank == 1:
                comm.recv(source=0)

        _, rt = run_spmd(2, prog, return_runtime=True)
        summary = rt.stats.summary()
        assert summary["msgs_sent"] == 1
        assert summary["bytes_sent"] == 64
        assert "allreduce" in summary["collectives"]


class TestRendezvous:
    def test_rendezvous_stress_with_short_switch_interval(self):
        # More threads than cores, preempted every few microseconds: each
        # generation's action must see every party's arrival, run exactly
        # once, and happen before any party leaves the crossing.
        parties, rounds = 12, 300
        rdv = _Rendezvous(parties)
        arrived = [0] * parties
        actions = []
        errors = []

        def action():
            actions.append(min(arrived) == max(arrived) == len(actions) + 1)

        def worker(i):
            try:
                for k in range(1, rounds + 1):
                    arrived[i] = k
                    rdv.wait(action)
                    if len(actions) < k:
                        errors.append((i, k))
            except BaseException as exc:  # surfaced by the assertions below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(parties)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert actions == [True] * rounds

    def test_send_buffer_reuse_after_return(self, run):
        # MPI blocking semantics: once a collective returns, the caller owns
        # its send buffers again.  Overwriting them at once must never reach
        # a peer that is still extracting (the exit crossing forbids it).
        def prog(comm):
            wrong = 0
            for k in range(40):
                mine = np.full(64, comm.rank * 1000 + k, dtype=np.int64)
                got = comm.allgather(mine)
                mine[:] = -1
                chunks = [np.full(16, comm.rank * 1000 + k, dtype=np.int64)
                          for _ in range(comm.size)]
                recv = comm.alltoallv(chunks)
                for c in chunks:
                    c[:] = -1
                for src in range(comm.size):
                    wrong += int((got[src] != src * 1000 + k).sum())
                    wrong += int((recv[src] != src * 1000 + k).sum())
            return wrong

        assert run(8, prog) == [0] * 8

    def test_back_to_back_mixed_collectives_p56(self, run):
        p, steps = 56, 1000

        def step(comm, k):
            r = comm.rank
            kind = k % 6
            if kind == 0:
                return int(comm.allreduce(np.array([r + k, 1]))[0])
            if kind == 1:
                return sum(comm.allgather(r * k))
            if kind == 2:
                return comm.bcast(7 * k if r == k % p else None, root=k % p)
            if kind == 3:
                chunks = [np.full(1 + (d + k) % 3, 1000 * r + d, dtype=np.int64)
                          for d in range(p)]
                got = comm.alltoallv(chunks)
                return sum(int(c.sum()) for c in got)
            if kind == 4:
                return comm.scan(r + k)
            return comm.exscan(r + k) or 0

        def reference(r, k):
            kind = k % 6
            if kind == 0:
                return p * k + p * (p - 1) // 2
            if kind == 1:
                return k * p * (p - 1) // 2
            if kind == 2:
                return 7 * k
            if kind == 3:
                return sum((1 + (r + k) % 3) * (1000 * src + r) for src in range(p))
            if kind == 4:
                return sum(q + k for q in range(r + 1))
            return sum(q + k for q in range(r))

        def prog(comm):
            return [step(comm, k) for k in range(steps)]

        out = run(p, prog)
        for r in range(p):
            assert out[r] == [reference(r, k) for k in range(steps)], f"rank {r}"

    def test_last_collective_deposits_freed_without_gc(self):
        # The runtime and its communicator states form a reference cycle;
        # the deposits of the last collective must not ride on it until a
        # cyclic collection.
        refs = {}

        def prog(comm):
            chunks = [np.full(1000, comm.rank, dtype=np.int64)
                      for _ in range(comm.size)]
            refs[comm.rank] = weakref.ref(chunks[0])
            comm.alltoallv(chunks)

        gc.disable()
        try:
            run_spmd(4, prog)
            assert all(ref() is None for ref in refs.values())
        finally:
            gc.enable()

    def test_failed_rank_frames_freed_without_gc(self):
        # A stored per-rank exception must not pin its frames' locals (here
        # the deposit it just exchanged) once SPMDError is built.
        refs = {}

        def prog(comm):
            chunks = [np.full(1000, comm.rank, dtype=np.int64)
                      for _ in range(comm.size)]
            refs[comm.rank] = weakref.ref(chunks[0])
            comm.alltoallv(chunks)
            if comm.rank == 1:
                raise ValueError("after the exchange")

        gc.disable()
        try:
            with pytest.raises(SPMDError) as excinfo:
                run_spmd(4, prog)
            assert "rank 1: ValueError: after the exchange" in str(excinfo.value)
            del excinfo
            assert all(ref() is None for ref in refs.values())
        finally:
            gc.enable()
