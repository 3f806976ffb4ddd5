"""Unit tests for repro.distributed.faults: deterministic fault injection."""

import pytest

from repro.distributed import make_thread_world, spmd_run
from repro.distributed.faults import (
    FaultPlan,
    FaultyCommunicator,
    default_fault_matrix,
)
from repro.errors import (
    CollectiveOrderError,
    CommunicatorError,
    RankCrashError,
    RankFailedError,
)


def ring(comm):
    """Every rank sends to its successor, receives from its predecessor.

    Op 0 on every rank is a send, so targeted send faults at op 0 are
    guaranteed to fire.
    """
    comm.send(comm.rank * 10, (comm.rank + 1) % comm.size)
    return comm.recv((comm.rank - 1) % comm.size)


RING_4 = [30, 0, 10, 20]


def run_with_plan(fn, nranks, plan, attempt=0, checked=None):
    return spmd_run(
        fn, nranks, backend="thread", checked=checked,
        wrap_comm=plan.binder(attempt),
    )


class TestDeterminism:
    def test_uniform_is_pure_function_of_coordinates(self):
        plan = FaultPlan(seed=42, drop_prob=0.5)
        comms = make_thread_world(2)
        a = FaultyCommunicator(comms[0], plan, attempt=0)
        b = FaultyCommunicator(comms[0], plan, attempt=0)
        draws_a = [a._uniform(0x10001, op) for op in range(32)]
        draws_b = [b._uniform(0x10001, op) for op in range(32)]
        assert draws_a == draws_b

    def test_attempt_reseeds_the_stream(self):
        plan = FaultPlan(seed=42, drop_prob=0.5)
        comms = make_thread_world(2)
        a0 = FaultyCommunicator(comms[0], plan, attempt=0)
        a1 = FaultyCommunicator(comms[0], plan, attempt=1)
        draws0 = [a0._uniform(0x10001, op) for op in range(32)]
        draws1 = [a1._uniform(0x10001, op) for op in range(32)]
        assert draws0 != draws1

    def test_kinds_draw_independent_streams(self):
        plan = FaultPlan(seed=42)
        comms = make_thread_world(2)
        c = FaultyCommunicator(comms[0], plan)
        drop = [c._uniform(0x10001, op) for op in range(16)]
        delay = [c._uniform(0x30003, op) for op in range(16)]
        assert drop != delay


class TestCrash:
    def test_crash_at_first_op(self):
        plan = FaultPlan(seed=1, crash_rank=1, crash_at=0)
        with pytest.raises(RankFailedError, match="rank 1"):
            run_with_plan(ring, 4, plan)

    def test_crash_exception_names_plan_and_op(self):
        plan = FaultPlan(seed=1, name="boom", crash_rank=0, crash_at=0)
        comms = make_thread_world(1)
        faulty = FaultyCommunicator(comms[0], plan)
        with pytest.raises(RankCrashError, match="boom"):
            faulty.barrier()
        assert faulty.counters.crashes == 1

    def test_crash_is_a_communicator_error(self):
        assert issubclass(RankCrashError, CommunicatorError)

    def test_disarmed_on_later_attempt(self):
        plan = FaultPlan(seed=1, crash_rank=1, crash_at=0)
        assert run_with_plan(ring, 4, plan, attempt=1) == RING_4


class TestDrop:
    def test_targeted_drop_times_out_receiver(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.3")
        plan = FaultPlan(seed=2, drop_at=((0, 0),))
        with pytest.raises(RankFailedError) as err:
            run_with_plan(ring, 4, plan)
        assert isinstance(err.value.__cause__, CommunicatorError)

    def test_targeted_drop_fires_at_first_send_at_or_after(self):
        # Rank 0's ops are: send (op 0), recv (op 1).  A drop scheduled at
        # op 1 must still fire -- on the op-0 send, the first eligible one.
        comms = make_thread_world(2)
        plan = FaultPlan(seed=2, drop_at=((0, 0),))
        faulty = FaultyCommunicator(comms[0], plan)
        faulty.send("x", 1)
        assert faulty.counters.dropped == 1

    def test_targeted_drop_fires_once(self):
        comms = make_thread_world(2)
        plan = FaultPlan(seed=2, drop_at=((0, 0),))
        faulty = FaultyCommunicator(comms[0], plan)
        faulty.send("x", 1)
        faulty.send("y", 1)
        assert faulty.counters.dropped == 1
        assert comms[1].recv(0) == "y"

    def test_drop_on_other_rank_does_not_fire(self):
        comms = make_thread_world(2)
        plan = FaultPlan(seed=2, drop_at=((1, 0),))
        faulty = FaultyCommunicator(comms[0], plan)
        faulty.send("x", 1)
        assert faulty.counters.dropped == 0


class TestDelay:
    def test_delay_is_transparent(self):
        plan = FaultPlan(
            seed=4, delay_prob=1.0, delay_s=0.001, fault_attempts=1 << 20
        )
        assert run_with_plan(ring, 4, plan) == RING_4

    def test_delay_counter(self):
        comms = make_thread_world(1)
        plan = FaultPlan(seed=4, delay_at=((0, 0),), delay_s=0.0)
        faulty = FaultyCommunicator(comms[0], plan)
        faulty.barrier()
        assert faulty.counters.delayed == 1


class TestComposition:
    def test_faults_flow_through_checked_collectives(self):
        # Faulty sits beneath the sentinel, so a crash scheduled inside a
        # collective still surfaces as the rank failure, not a sentinel bug.
        plan = FaultPlan(seed=5, crash_rank=2, crash_at=0)

        def prog(comm):
            return comm.allreduce(comm.rank, lambda a, b: a + b)

        with pytest.raises(RankFailedError, match="rank 2"):
            spmd_run(
                prog, 4, backend="thread", checked=True,
                wrap_comm=plan.binder(0),
            )

    def test_checked_world_still_catches_divergence(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "5")
        plan = FaultPlan(seed=5)  # no faults

        def diverge(comm):
            if comm.rank == 0:
                comm.bcast(1)
            else:
                comm.barrier()

        with pytest.raises(RankFailedError) as err:
            spmd_run(
                diverge, 2, backend="thread", checked=True,
                wrap_comm=plan.binder(0),
            )
        assert isinstance(err.value.__cause__, CollectiveOrderError)

    def test_delegation_to_inner(self):
        comms = make_thread_world(2)
        faulty = FaultyCommunicator(comms[0], FaultPlan())
        assert faulty.rank == 0 and faulty.size == 2
        assert faulty.inner is comms[0]


class TestMatrix:
    def test_nine_distinct_plans(self):
        plans = default_fault_matrix(seed=0, nranks=4)
        assert len(plans) == 9
        assert len({p.label() for p in plans}) == len(plans)

    def test_every_kind_covered(self):
        plans = default_fault_matrix(seed=0, nranks=4)
        assert any(p.crash_rank is not None for p in plans)
        assert any(p.drop_prob or p.drop_at for p in plans)
        assert any(p.delay_prob or p.delay_at for p in plans)

    def test_tolerated_plans_stay_armed(self):
        plans = default_fault_matrix(seed=0, nranks=4)
        for p in plans:
            if p.crash_rank is None and not (p.drop_prob or p.drop_at):
                assert p.fault_attempts > 1, p.label()

    def test_crash_ranks_within_world(self):
        for nranks in (1, 2, 4, 8):
            for p in default_fault_matrix(seed=0, nranks=nranks):
                if p.crash_rank is not None:
                    assert 0 <= p.crash_rank < nranks
