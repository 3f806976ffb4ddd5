"""Per-rule fixture tests for repro.lint: each family must catch its
seeded violation and stay quiet on the known-good twin."""

import textwrap

import pytest

from repro.lint import analyze_paths, lint_source, resolve_selection


def findings_for(source, path="distributed/mod.py", select=None):
    return lint_source(textwrap.dedent(source), path=path, select=select)


def rules_hit(source, path="distributed/mod.py"):
    return {f.rule for f in findings_for(source, path)}


class TestCollectiveSymmetry:
    def test_rank_guarded_barrier_flagged(self):
        fs = findings_for(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()
            """
        )
        assert [f.rule for f in fs] == ["collective-symmetry"]
        assert fs[0].severity == "error"
        assert "barrier" in fs[0].message

    def test_rank_guarded_early_exit_flagged(self):
        fs = findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    return None
                return comm.allreduce(x, max)
            """
        )
        assert [f.rule for f in fs] == ["collective-symmetry"]
        assert "early exit" in fs[0].message

    def test_rank_dependent_while_flagged(self):
        fs = findings_for(
            """
            def f(comm):
                while comm.rank < comm.size - 1:
                    comm.bcast(1)
            """
        )
        assert [f.rule for f in fs] == ["collective-symmetry"]

    @pytest.mark.parametrize(
        "op", ["barrier()", "bcast(1)", "gather(1)", "allgather(1)",
               "allreduce(1, max)", "alltoall([1])"]
    )
    def test_every_collective_covered(self, op):
        src = f"""
        def f(comm):
            if comm.rank == 0:
                comm.{op}
        """
        assert rules_hit(src) == {"collective-symmetry"}

    def test_unguarded_collectives_clean(self):
        fs = findings_for(
            """
            def f(comm, x):
                comm.barrier()
                vals = comm.allgather(x)
                return comm.allreduce(len(vals), max)
            """
        )
        assert fs == []

    def test_rank_guarded_p2p_is_fine(self):
        # rank-dependent send/recv is the normal SPMD idiom
        fs = findings_for(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.send(1, dest=1)
                    return None
                return comm.recv(0)
            """
        )
        assert fs == []

    def test_symmetric_exit_not_flagged(self):
        # both branches return: following code is unreachable, not guarded
        fs = findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    return comm.allgather(x)
                else:
                    return comm.allgather(None)
            """
        )
        # collectives inside the rank-guarded branches are still flagged
        assert len(fs) == 2
        assert all(f.rule == "collective-symmetry" for f in fs)

    def test_nested_function_gets_fresh_scope(self):
        fs = findings_for(
            """
            def f(comm):
                if comm.rank == 0:
                    def helper(c):
                        c.barrier()
                    return helper
            """
        )
        assert fs == []


class TestBufferOwnership:
    def test_item_assignment_flagged(self):
        fs = findings_for(
            """
            def f(comm, out):
                data = comm.alltoall(out)
                data[0] = None
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]
        assert "alltoall" in fs[0].message

    def test_mutating_method_flagged(self):
        fs = findings_for(
            """
            def f(comm):
                blocks = comm.allgather(1)
                blocks.sort()
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]

    def test_augassign_flagged(self):
        fs = findings_for(
            """
            def f(comm):
                buf = comm.recv(0)
                buf += 1
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]

    def test_alias_tracked(self):
        fs = findings_for(
            """
            def f(comm):
                buf = comm.recv(0)
                alias = buf
                alias.fill(0)
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]

    def test_loop_over_received_taints_target(self):
        fs = findings_for(
            """
            def f(comm, out):
                for blk in comm.alltoall(out):
                    blk.sort()
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]

    def test_copy_clears_taint(self):
        fs = findings_for(
            """
            def f(comm):
                buf = comm.recv(0)
                buf = buf.copy()
                buf += 1
                buf.sort()
            """
        )
        assert fs == []

    def test_reading_received_is_fine(self):
        fs = findings_for(
            """
            def f(comm, out):
                import numpy as np
                incoming = comm.alltoall(out)
                return np.vstack([b for b in incoming if b is not None])
            """
        )
        assert fs == []

    def test_mutator_straight_on_receiving_call(self):
        fs = findings_for(
            """
            def f(comm, out):
                comm.recv(0).sort()
                comm.alltoall(out)[1].fill(0)
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"] * 2
        assert "'recv(...)'" in fs[0].message
        assert "'alltoall(...)'" in fs[1].message

    def test_wait_result_is_received(self):
        fs = findings_for(
            """
            def f(comm, out):
                req = comm.alltoall_start(out)
                got = req.wait()
                got[0] += 1
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]
        assert "wait() at line 4" in fs[0].message

    def test_loop_over_wait_result_taints_target(self):
        fs = findings_for(
            """
            def f(comm, out):
                req = comm.alltoall_start(out)
                for blk in req.wait():
                    blk.sort()
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]

    def test_received_on_one_branch_only(self):
        # the copy on the other arm does not make the received arm safe
        fs = findings_for(
            """
            def f(comm, blocks):
                if comm.rank:
                    buf = comm.recv(0)
                else:
                    buf = blocks[0].copy()
                buf[0] = 7
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]
        assert "recv() at line 4" in fs[0].message

    def test_received_before_break_reaches_after_loop(self):
        fs = findings_for(
            """
            def f(comm, n):
                buf = None
                for i in range(n):
                    if i:
                        buf = comm.recv(0)
                        break
                buf[0] = 1
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]

    def test_received_in_try_reaches_handler(self):
        fs = findings_for(
            """
            def f(comm, parse):
                try:
                    buf = comm.recv(0)
                    parse(buf)
                except ValueError:
                    buf.clear()
            """
        )
        assert [f.rule for f in fs] == ["buffer-ownership"]


class TestFramework:
    def test_line_suppression(self):
        fs = findings_for(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()  # repro-lint: disable=collective-symmetry
            """
        )
        assert fs == []

    def test_suppress_all(self):
        fs = findings_for(
            """
            def f(comm):
                buf = comm.recv(0)
                buf += 1  # repro-lint: disable=all
            """
        )
        assert fs == []

    def test_file_suppression(self):
        fs = findings_for(
            """
            # repro-lint: disable-file=collective-symmetry
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()
            """
        )
        assert fs == []

    def test_unrelated_suppression_keeps_finding(self):
        fs = findings_for(
            """
            def f(comm):
                if comm.rank == 0:
                    comm.barrier()  # repro-lint: disable=wall-clock
            """
        )
        assert [f.rule for f in fs] == ["collective-symmetry"]

    def test_syntax_error_reported_as_finding(self):
        fs = findings_for("def broken(:\n")
        assert [f.rule for f in fs] == ["parse-error"]
        assert fs[0].severity == "error"

    def test_unknown_rule_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_selection(["no-such-rule"])

    def test_rule_selection(self):
        src = """
        import time
        def f(comm):
            if comm.rank == 0:
                comm.barrier()
        t = time.time()
        """
        only = findings_for(src, select=["wall-clock"])
        assert {f.rule for f in only} == {"wall-clock"}


class TestTimeoutLiteral:
    def test_bare_float_timeout_flagged(self):
        fs = findings_for(
            """
            def reap(q):
                return q.get(timeout=30.0)
            """,
            path="distributed/launcher.py",
        )
        assert [f.rule for f in fs] == ["timeout-literal"]
        assert fs[0].severity == "error"
        assert "recv_timeout" in fs[0].message

    def test_bare_int_timeout_flagged(self):
        fs = findings_for(
            """
            def join(t):
                t.join(timeout=300)
            """,
            path="distributed/launcher.py",
        )
        assert [f.rule for f in fs] == ["timeout-literal"]

    def test_timeout_s_kwarg_flagged(self):
        fs = findings_for(
            """
            def f(x):
                return x.wait(timeout_s=5)
            """,
            path="distributed/supervisor.py",
        )
        assert [f.rule for f in fs] == ["timeout-literal"]

    def test_derived_timeout_passes(self):
        fs = findings_for(
            """
            from repro.distributed.comm import poll_interval, recv_timeout

            def reap(q):
                return q.get(timeout=poll_interval())

            def join(t):
                t.join(timeout=5.0 * recv_timeout())
            """,
            path="distributed/launcher.py",
        )
        assert fs == []

    def test_none_and_zero_exempt(self):
        fs = findings_for(
            """
            def f(q):
                q.get(timeout=None)
                q.get(timeout=0)
            """,
            path="distributed/launcher.py",
        )
        assert fs == []

    def test_named_constant_passes(self):
        fs = findings_for(
            """
            GRACE = 3

            def f(q, poll):
                return q.get(timeout=GRACE * poll)
            """,
            path="distributed/launcher.py",
        )
        assert fs == []

    def test_out_of_scope_dir_ignored(self):
        fs = findings_for(
            """
            def f(q):
                return q.get(timeout=30.0)
            """,
            path="analytics/bfs.py",
        )
        assert fs == []


class TestWallClock:
    def test_time_time_call_flagged(self):
        fs = findings_for(
            """
            import time

            def f():
                return time.time()
            """,
            select=["wall-clock"],
        )
        assert [f.rule for f in fs] == ["wall-clock"]
        assert fs[0].severity == "warning"
        assert "repro.telemetry.clock" in fs[0].message

    @pytest.mark.parametrize(
        "call",
        ["time.perf_counter()", "time.monotonic()", "time.process_time()",
         "time.perf_counter_ns()", "time.monotonic_ns()", "time.time_ns()"],
    )
    def test_every_clock_read_covered(self, call):
        fs = findings_for(
            f"""
            import time

            def f():
                return {call}
            """,
            select=["wall-clock"],
        )
        assert [f.rule for f in fs] == ["wall-clock"]

    def test_from_import_flagged(self):
        fs = findings_for(
            """
            from time import monotonic

            def f():
                return monotonic()
            """,
            select=["wall-clock"],
        )
        assert [f.rule for f in fs] == ["wall-clock"]
        assert "monotonic" in fs[0].message

    def test_time_sleep_allowed(self):
        fs = findings_for(
            """
            import time
            from time import sleep

            def f():
                time.sleep(0.1)
                sleep(0.1)
            """,
            select=["wall-clock"],
        )
        assert fs == []

    def test_telemetry_clock_import_passes(self):
        fs = findings_for(
            """
            from repro.telemetry.clock import monotonic, perf_clock

            def f():
                return monotonic() + perf_clock()
            """,
            select=["wall-clock"],
        )
        assert fs == []

    def test_out_of_scope_dir_ignored(self):
        fs = findings_for(
            """
            import time

            def f():
                return time.time()
            """,
            path="telemetry/clock.py",
            select=["wall-clock"],
        )
        assert fs == []

    def test_distributed_tree_is_clean(self):
        # The runtime itself must satisfy its own rule.
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert analyze_paths([src / "distributed"], select=["wall-clock"]) == []
