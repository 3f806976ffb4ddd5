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


class TestDtypeOverflow:
    def test_alloc_without_dtype_flagged(self):
        fs = findings_for(
            """
            import numpy as np
            buf = np.empty(10)
            """,
            path="kronecker/mod.py",
        )
        assert [f.rule for f in fs] == ["dtype-overflow"]

    def test_zeros_without_dtype_flagged(self):
        fs = findings_for(
            "import numpy as np\nz = np.zeros(4)\n",
            path="distributed/mod.py",
        )
        assert [f.rule for f in fs] == ["dtype-overflow"]

    def test_explicit_dtype_clean(self):
        fs = findings_for(
            """
            import numpy as np
            a = np.empty(10, dtype=np.int64)
            b = np.zeros(4, dtype="float64")
            """,
            path="kronecker/mod.py",
        )
        assert fs == []

    def test_narrow_index_arithmetic_flagged(self):
        fs = findings_for(
            """
            import numpy as np
            def alpha(n, nb):
                i = np.arange(n).astype(np.int32)
                return i * nb + 3
            """,
            path="kronecker/indexing.py",
        )
        assert [f.rule for f in fs] == ["dtype-overflow"]
        assert "int32" in fs[0].message

    def test_int64_index_arithmetic_clean(self):
        fs = findings_for(
            """
            import numpy as np
            def alpha(n, nb):
                i = np.arange(n, dtype=np.int64)
                return i * nb + 3
            """,
            path="kronecker/indexing.py",
        )
        assert fs == []

    def test_scoped_out_of_tree(self):
        # the rule only applies to kronecker/ and distributed/
        fs = findings_for(
            "import numpy as np\nbuf = np.empty(10)\n",
            path="groundtruth/mod.py",
        )
        assert fs == []

    def test_scope_is_per_function(self):
        # one function's wide rebinding must not mask another's narrow i
        fs = findings_for(
            """
            import numpy as np
            def bad(n):
                i = np.arange(n).astype(np.int32)
                return i * n + 1
            def good(n):
                i = np.arange(n, dtype=np.int64)
                return i * n + 1
            """,
            path="kronecker/mod.py",
        )
        assert [f.rule for f in fs] == ["dtype-overflow"]
        assert fs[0].line == 5


class TestDeterminism:
    def test_legacy_np_random_flagged(self):
        fs = findings_for(
            "import numpy as np\nv = np.random.rand(5)\n",
            path="groundtruth/mod.py",
        )
        assert [f.rule for f in fs] == ["determinism"]
        assert "default_rng" in fs[0].message

    def test_unseeded_default_rng_flagged(self):
        fs = findings_for(
            "import numpy as np\nrng = np.random.default_rng()\n",
            path="kronecker/mod.py",
        )
        assert [f.rule for f in fs] == ["determinism"]

    def test_seeded_default_rng_clean(self):
        fs = findings_for(
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            path="kronecker/mod.py",
        )
        assert fs == []

    def test_set_iteration_flagged(self):
        fs = findings_for(
            """
            def edges():
                seen = {1, 2, 3}
                out = []
                for v in seen:
                    out.append(v)
                return out
            """,
            path="groundtruth/mod.py",
        )
        assert [f.rule for f in fs] == ["determinism"]

    def test_list_of_set_flagged(self):
        fs = findings_for(
            "def f(xs):\n    return list(set(xs))\n",
            path="groundtruth/mod.py",
        )
        assert [f.rule for f in fs] == ["determinism"]

    def test_sorted_set_clean(self):
        fs = findings_for(
            """
            def f(xs):
                out = []
                for v in sorted(set(xs)):
                    out.append(v)
                return out
            """,
            path="groundtruth/mod.py",
        )
        assert fs == []

    def test_time_seed_flagged(self):
        fs = findings_for(
            """
            import time
            import numpy as np
            def f():
                return np.random.default_rng(int(time.time()))
            """,
            path="kronecker/mod.py",
        )
        assert [f.rule for f in fs] == ["determinism"]
        assert "clock" in fs[0].message

    def test_seed_kwarg_from_clock_flagged(self):
        fs = findings_for(
            """
            import time
            def f(make):
                return make(seed=time.time_ns())
            """,
            path="groundtruth/mod.py",
        )
        assert [f.rule for f in fs] == ["determinism"]

    def test_scoped_out_of_tree(self):
        fs = findings_for(
            "import numpy as np\nv = np.random.rand(5)\n",
            path="distributed/mod.py",
        )
        assert fs == []


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
                    comm.barrier()  # repro-lint: disable=dtype-overflow
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
        import numpy as np
        def f(comm):
            if comm.rank == 0:
                comm.barrier()
        buf = np.empty(3)
        """
        only = findings_for(src, select=["dtype-overflow"])
        assert {f.rule for f in only} == {"dtype-overflow"}


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


class TestInflightBuffer:
    def test_mutation_before_wait_flagged(self):
        fs = findings_for(
            """
            def f(comm, buf):
                req = comm.alltoall_start(buf)
                buf.fill(0)
                req.wait()
            """
        )
        assert [f.rule for f in fs] == ["inflight-buffer"]
        assert fs[0].severity == "error"
        assert "alltoall_start" in fs[0].message
        assert fs[0].line == 4

    def test_item_assignment_into_inflight_exchange_flagged(self):
        fs = findings_for(
            """
            def f(comm, outgoing):
                req = comm.alltoall_start(outgoing)
                outgoing[0] = None
                return comm.alltoall_finish(req)
            """
        )
        assert [f.rule for f in fs] == ["inflight-buffer"]
        assert "alltoall_start" in fs[0].message
        assert fs[0].line == 4

    def test_augassign_on_inflight_buffer_flagged(self):
        fs = findings_for(
            """
            def f(comm, buf):
                req = comm.alltoall_start(buf)
                buf += 1
                req.wait()
            """
        )
        assert [f.rule for f in fs] == ["inflight-buffer"]
        assert fs[0].line == 4

    def test_wait_releases_buffer(self):
        fs = findings_for(
            """
            def f(comm, buf):
                req = comm.alltoall_start(buf)
                req.wait()
                buf.fill(0)
            """
        )
        assert fs == []

    def test_alltoall_finish_releases_buffers(self):
        fs = findings_for(
            """
            def f(comm, outgoing):
                req = comm.alltoall_start(outgoing)
                received = comm.alltoall_finish(req)
                outgoing[0] = None
                return received
            """
        )
        assert [f.rule for f in fs] == []

    def test_rebinding_clears_taint(self):
        fs = findings_for(
            """
            def f(comm, buf):
                req = comm.alltoall_start(buf)
                buf = [0]
                buf.append(1)
                req.wait()
            """
        )
        assert fs == []

    def test_inline_start_finish_is_clean(self):
        fs = findings_for(
            """
            def f(comm, outgoing):
                received = comm.alltoall_finish(comm.alltoall_start(outgoing))
                outgoing[0] = None
                return received
            """
        )
        assert fs == []

    def test_mutation_through_alias_flagged(self):
        fs = findings_for(
            """
            def f(comm, buf):
                req = comm.alltoall_start(buf)
                alias = buf
                alias.fill(0)
                req.wait()
            """
        )
        assert [(f.rule, f.line) for f in fs] == [("inflight-buffer", 5)]

    def test_wait_on_one_branch_only_still_in_flight(self):
        fs = findings_for(
            """
            def f(comm, buf, eager):
                req = comm.alltoall_start(buf)
                if eager:
                    req.wait()
                buf.fill(0)
                req.wait()
            """
        )
        assert [(f.rule, f.line) for f in fs] == [("inflight-buffer", 6)]
