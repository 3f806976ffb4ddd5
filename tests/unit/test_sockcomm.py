"""Unit tests for the TCP socket communicator backend.

Most coverage runs through :func:`make_socket_world` (real sockets on
loopback, all ranks in one process, so counters and fault hooks are
directly observable).  A handful of tests spawn real OS processes via
``spmd_run(backend="socket")``; those rank functions are module-level
for picklability, mirroring the process-backend test conventions.
"""

import json
import pickle
import socket
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.distributed import spmd_run
from repro.distributed.comm import RECV_TIMEOUT_ENV
from repro.distributed.faults import FaultPlan, FaultyCommunicator
from repro.distributed.sockcomm import (
    _HEADER,
    _K_HELLO,
    _MAX_REGISTRATION_BYTES,
    FRAME_MAGIC,
    RendezvousServer,
    SocketCommunicator,
    _make_listener,
    make_socket_world,
    parse_hostport,
)
from repro.errors import (
    CommunicatorError,
    DegradationWarning,
    RankDiedError,
    RankFailedError,
    ReproError,
    is_transient,
)
from repro.telemetry.session import (
    RankTelemetry,
    TelemetryConfig,
    TelemetrySession,
)


@pytest.fixture(autouse=True)
def _fast_timeouts(monkeypatch):
    # Keeps dead-rank detection and reconnect budgets test-sized.
    monkeypatch.setenv(RECV_TIMEOUT_ENV, "2.0")


def _close_world(comms):
    for c in comms:
        if c is not None:  # a rank that never booted
            c.close()


@pytest.fixture
def world3():
    comms = make_socket_world(3)
    yield comms
    _close_world(comms)


class TestParseHostport:
    def test_round_trip(self):
        assert parse_hostport("10.0.0.7:9310") == ("10.0.0.7", 9310)

    @pytest.mark.parametrize("bad", ["nohost", ":123", "h:notaport"])
    def test_rejects_malformed(self, bad):
        # A misconfiguration: no retry would make it parse.
        with pytest.raises(ReproError) as err:
            parse_hostport(bad)
        assert not is_transient(err.value)


class TestSocketWorldConformance:
    def test_ring_p2p_and_tags(self, world3):
        for c in world3:
            c.send(("ring", c.rank), (c.rank + 1) % 3, tag=4)
        for c in world3:
            got = c.recv((c.rank - 1) % 3, tag=4)
            assert got == ("ring", (c.rank - 1) % 3)

    def test_out_of_order_tags_stashed(self, world3):
        a, b = world3[0], world3[1]
        a.send("first-tag7", 1, tag=7)
        a.send("then-tag3", 1, tag=3)
        assert b.recv(0, tag=3) == "then-tag3"
        assert b.recv(0, tag=7) == "first-tag7"

    def test_collectives(self, world3):
        import threading

        results = {}

        def run(c):
            total = c.allreduce(np.full(3, c.rank + 1), lambda x, y: x + y)
            gathered = c.allgather(c.rank * 10)
            c.barrier()
            results[c.rank] = (total, gathered)

        threads = [threading.Thread(target=run, args=(c,)) for c in world3]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        for rank in range(3):
            total, gathered = results[rank]
            assert np.array_equal(total, np.full(3, 6))
            assert gathered == [0, 10, 20]

    def test_send_to_self_rejected(self, world3):
        with pytest.raises(CommunicatorError):
            world3[0].send("x", 0)


def _sock_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("sock-")}


class TestClose:
    def test_a_closed_world_has_stopped_its_threads(self):
        before = _sock_threads()
        comms = make_socket_world(3)
        try:
            comms[0].send("round", 1)
            assert comms[1].recv(0) == "round"
            assert _sock_threads() - before  # accept, reader, heartbeat
        finally:
            _close_world(comms)
        assert _sock_threads() - before == set()

    def test_a_silent_client_does_not_hold_close(self, monkeypatch):
        # A listener stalled on the silent connection would hold close()
        # for this long.
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "30")
        comms = make_socket_world(2)
        silent = socket.create_connection(comms[0]._listener.getsockname())
        try:
            deadline = time.monotonic() + 5
            while comms[0]._handshaking is None:  # noqa: SLF001
                assert time.monotonic() < deadline, "connection not accepted"
                time.sleep(0.01)
            t0 = time.monotonic()
            _close_world(comms)
            assert time.monotonic() - t0 < 5
        finally:
            silent.close()
            _close_world(comms)  # idempotent


class TestSelfHealing:
    def test_disconnect_heals_with_replay(self, world3):
        # Burst, sever the 1->2 link from rank 1's side, then keep
        # talking: the dialer (rank 2) re-dials and both sides replay
        # whatever the break swallowed.
        for i in range(5):
            world3[1].send(["burst", i], 2)
        world3[1].inject_disconnect(2)
        world3[1].send("after-break", 2)
        got = [world3[2].recv(1) for _ in range(6)]
        assert got == [["burst", i] for i in range(5)] + ["after-break"]
        assert world3[2].sock_counters.reconnects >= 1
        assert (
            world3[1].sock_counters.disconnects
            + world3[2].sock_counters.disconnects
            >= 1
        )

    def test_harvest_counts_a_heal_still_in_flight(self, world3):
        # Rank 2 owns the re-dial to rank 0 and needs nothing more from it
        # (the chaos cell ``sock-disc-r3-op0``, when rank 0's data won the
        # race): what it reports must not depend on its heal thread having
        # run yet.  The wrapper stands for a rank's whole wrapper stack.
        comm = FaultyCommunicator(world3[2], FaultPlan())
        comm.inject_disconnect(0)
        tel = RankTelemetry(TelemetryConfig(), rank=2)
        tel.harvest_sock_counters(comm)
        counters = tel.metrics.snapshot()["counters"]
        assert counters["sock.reconnects"] == counters["sock.disconnects"] == 1
        assert not world3[2]._peers[0].healing

    def test_heartbeat_acks_prune_replay(self, world3):
        for i in range(4):
            world3[0].send(i, 1)
        for _ in range(4):
            world3[1].recv(0)
        deadline = time.monotonic() + 5
        peer = world3[0]._peers[1]
        while peer.replay and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not peer.replay, "heartbeat acks should prune the buffer"
        assert peer.acked >= 4

    def test_partition_declares_peer_dead(self, world3):
        world3[1].inject_partition(2)
        with pytest.raises(RankDiedError) as err:
            # The victim link never heals; detection beats the recv
            # timeout by construction (reconnect budget is a fraction).
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                world3[2].send("probe", 1)
                time.sleep(0.05)
        assert err.value.heartbeat_age_s is None or (
            err.value.heartbeat_age_s >= 0
        )
        assert err.value.address and ":" in err.value.address

    def test_slow_peer_stays_alive(self, world3):
        world3[0].set_send_delay(0.05, 1)
        t0 = time.monotonic()
        world3[0].send("slow", 1)
        assert world3[1].recv(0) == "slow"
        assert time.monotonic() - t0 >= 0.05
        # the throttle slows data without tripping liveness
        assert not world3[0]._peers[1].declared_dead


class TestFaultyCompose:
    def test_disconnect_plan_fires_on_socket(self, world3):
        plan = FaultPlan(seed=1, name="t-disc", disconnect_at=((0, 0),))
        faulty = FaultyCommunicator(world3[0], plan)
        faulty.send("x", 1)
        assert faulty.counters.disconnects == 1
        assert world3[1].recv(0) == "x"

    def test_disconnect_plan_noop_on_thread_backend(self):
        from repro.distributed import make_thread_world

        comms = make_thread_world(2)
        plan = FaultPlan(seed=1, name="t-disc", disconnect_at=((0, 0),))
        faulty = FaultyCommunicator(comms[0], plan)
        faulty.send("x", 1)
        assert faulty.counters.disconnects == 0
        assert comms[1].recv(0) == "x"


class TestRendezvous:
    def test_two_sequential_rounds_one_server(self):
        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            for _ in range(2):
                comms = [None, None]
                import threading

                def boot(rank):
                    comms[rank] = SocketCommunicator.connect(
                        addr, rank, 2
                    )

                threads = [
                    threading.Thread(target=boot, args=(r,))
                    for r in range(2)
                ]
                try:
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=10)
                    comms[0].send("round", 1)
                    assert comms[1].recv(0) == "round"
                finally:
                    _close_world(comms)

    def test_size_disagreement_rejected(self):
        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            import threading

            errors = []

            def boot(rank, size):
                try:
                    c = SocketCommunicator.connect(addr, rank, size)
                    c.close()
                except CommunicatorError as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=boot, args=(0, 2)),
                threading.Thread(target=boot, args=(1, 3)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert errors, "conflicting world sizes must be rejected"


class TestHostileLengthPrefix:
    """Bytes from a connection nobody has authenticated never make a
    listener read, or allocate, a length of the sender's choosing."""

    #: Sent after the hostile header; a listener that believed the header
    #: would buffer it.
    JUNK = bytes(8 << 20)

    @pytest.fixture(autouse=True)
    def _long_timeout(self, monkeypatch):
        # A listener stalled on the hostile connection would hold the
        # bootstrapping world for this long -- far past the assertions.
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "30")

    def _attack(self, addr, header):
        hostile = socket.create_connection(addr, timeout=10)
        hostile.sendall(header)
        return hostile

    def _assert_dropped(self, hostile):
        try:
            hostile.sendall(self.JUNK)
        except OSError:
            pass  # already closed under us: the point
        try:
            assert hostile.recv(1) == b""
        except (ConnectionResetError, BrokenPipeError):
            pass  # closed with our junk unread: reset instead of EOF
        finally:
            hostile.close()

    def test_hello_claiming_a_payload(self):
        listeners = [_make_listener("127.0.0.1") for _ in range(2)]
        roster = [sock.getsockname()[:2] for sock in listeners]
        # Queued on rank 0's listener before its accept loop exists, so
        # it is served ahead of the real peer.
        hostile = self._attack(
            roster[0],
            _HEADER.pack(FRAME_MAGIC, _K_HELLO, 1, 0, 0, 1 << 40),
        )
        tracemalloc.start()
        t0 = time.monotonic()
        comms = [
            SocketCommunicator(r, 2, roster, listeners[r]) for r in range(2)
        ]
        try:
            self._assert_dropped(hostile)
            for c in comms:
                c._await_mesh()
            comms[1].send("unaffected", 0)
            assert comms[0].recv(1) == "unaffected"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _close_world(comms)
        assert time.monotonic() - t0 < 10
        assert peak < len(self.JUNK) // 4

    def test_oversized_rendezvous_registration(self):
        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            hostile = self._attack(server.address, struct.pack("<Q", 1 << 40))
            tracemalloc.start()
            t0 = time.monotonic()
            comms = [None, None]

            def boot(rank):
                comms[rank] = SocketCommunicator.connect(addr, rank, 2)

            threads = [
                threading.Thread(target=boot, args=(r,)) for r in range(2)
            ]
            try:
                for t in threads:
                    t.start()
                self._assert_dropped(hostile)
                for t in threads:
                    t.join(timeout=10)
                comms[0].send("unaffected", 1)
                assert comms[1].recv(0) == "unaffected"
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                _close_world(comms)
        assert time.monotonic() - t0 < 10
        assert peak < len(self.JUNK) // 4


class _WritesAFile:
    """What the pickle-speaking rendezvous could be made to run: unpickling
    this calls ``open(path, "w")`` in the server's thread."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _prefixed(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


def _read_reply(sock):
    (length,) = struct.unpack("<Q", sock.recv(8, socket.MSG_WAITALL))
    return json.loads(sock.recv(length, socket.MSG_WAITALL))


class TestRendezvousSpeaksJsonOnly:
    """Nothing a stranger sends the rendezvous is ever unpickled, and a
    rank reads no more of a reply than a roster of its world can take."""

    def test_pickled_registration_executes_nothing(self, tmp_path):
        target = tmp_path / "pwned"
        payload = pickle.dumps(_WritesAFile(str(target)))
        assert len(payload) < _MAX_REGISTRATION_BYTES
        with RendezvousServer() as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(_prefixed(payload))
                assert sock.recv(1) == b"", "dropped without a reply"
            # The server survived it and still bootstraps a world.
            comm = SocketCommunicator.connect(server.address, 0, 1)
            comm.close()
        assert not target.exists()

    @pytest.mark.parametrize(
        "registration",
        [
            {"size": 2, "rank": "0", "host": "127.0.0.1", "port": 1},
            {"size": 2, "rank": True, "host": "127.0.0.1", "port": 1},
            {"size": 2, "rank": 2, "host": "127.0.0.1", "port": 1},
            {"size": 2.0, "rank": 0, "host": "127.0.0.1", "port": 1},
            {"size": 2, "rank": 0, "host": ["127.0.0.1"], "port": 1},
            {"size": 2, "rank": 0, "host": "127.0.0.1", "port": 1 << 16},
            {"size": 2, "rank": 0, "host": "127.0.0.1"},
            ["register", 2, 0, "127.0.0.1", 1],
        ],
    )
    def test_mistyped_registration_gets_an_error_reply(self, registration):
        with RendezvousServer() as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(_prefixed(json.dumps(registration).encode()))
                assert _read_reply(sock) == {"error": "malformed registration"}
            # It took no slot in the round: a real 1-rank world still forms.
            SocketCommunicator.connect(server.address, 0, 1).close()

    def test_oversized_roster_reply_is_refused_unread(self):
        # A server of the attacker's choosing: whatever the registration,
        # it announces a terabyte of roster.
        listener = _make_listener("127.0.0.1")

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(struct.pack("<Q", 1 << 40) + bytes(1 << 16))
                conn.recv(1 << 16)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        tracemalloc.start()
        try:
            with pytest.raises(CommunicatorError, match="over the 8192-byte"):
                SocketCommunicator.connect(listener.getsockname()[:2], 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "reply",
        [
            [["127.0.0.1", 1]],                      # one entry for size 2
            [["127.0.0.1", 1], ["127.0.0.1", "2"]],  # port is not an int
            [["127.0.0.1", 1], "127.0.0.1:2"],
            "roster",
        ],
    )
    def test_malformed_roster_reply_is_refused(self, reply):
        listener = _make_listener("127.0.0.1")

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(_prefixed(json.dumps(reply).encode()))
                conn.recv(1 << 16)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with pytest.raises(CommunicatorError, match="no roster"):
                SocketCommunicator.connect(listener.getsockname()[:2], 0, 2)
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()


# ---- real multiprocess launches (module-level fns: picklability) ------ #
def _echo_rank(comm):
    return comm.rank


def _ring_pass(comm):
    comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=1)
    return comm.recv((comm.rank - 1) % comm.size, tag=1)


def _roster_hosts(comm):
    """The hosts this rank listens on and dials its peers at."""
    hosts = {peer.addr[0] for peer in comm._peers.values()}
    return sorted(hosts | {comm._listener.getsockname()[0]})


def _non_loopback_address():
    """An IPv4 address of a local non-loopback interface, or ``None``."""
    try:
        import fcntl

        names = [name for _, name in socket.if_nameindex()]
    except (ImportError, OSError):
        return None
    for name in names:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            try:
                packed = fcntl.ioctl(  # SIOCGIFADDR: the interface's address
                    probe.fileno(), 0x8915, struct.pack("256s", name[:15].encode())
                )
            except OSError:
                continue
        address = socket.inet_ntoa(packed[20:24])
        if not address.startswith("127."):
            return address
    return None


class TestSocketLauncher:
    def test_roster_carries_an_address_peers_can_reach(self):
        # A rank advertises the address its route to the rendezvous
        # leaves by, not loopback: a peer on another host dials that.
        host = _non_loopback_address()
        if host is None:
            pytest.skip("no non-loopback IPv4 interface on this host")
        with RendezvousServer(host) as server:
            addr = "%s:%d" % server.address
            assert spmd_run(
                _roster_hosts, 2, backend="socket", rendezvous=addr
            ) == [[host], [host]]

    def test_ranks_identify(self):
        assert spmd_run(_echo_rank, 3, backend="socket") == [0, 1, 2]

    def test_ring_point_to_point(self):
        out = spmd_run(_ring_pass, 4, backend="socket")
        assert out == [3, 0, 1, 2]

    def test_split_world_across_two_launches(self):
        # The two-host topology on one machine: two spmd_run invocations,
        # each owning half the ranks, meet at a shared rendezvous.
        import threading

        with RendezvousServer() as server:
            addr = "%s:%d" % server.address
            results = {}

            def launch(ranks):
                results[ranks] = spmd_run(
                    _ring_pass, 4, backend="socket",
                    rendezvous=addr, local_ranks=ranks,
                )

            threads = [
                threading.Thread(target=launch, args=(ranks,))
                for ranks in ((0, 1), (2, 3))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        # Each launch reports its own ranks; the others stay None.
        assert results[(0, 1)] == [3, 0, None, None]
        assert results[(2, 3)] == [None, None, 1, 2]

    def test_unreachable_rendezvous_fails_transient(self, monkeypatch):
        # No substitute backend: every rank's connect fails, the run
        # raises a retryable error naming the address, and nothing warns.
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "2")
        start = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradationWarning)
            with pytest.raises(RankFailedError) as err:
                spmd_run(
                    _ring_pass, 2, backend="socket",
                    rendezvous="127.0.0.1:1",  # nothing listens here
                )
        assert time.monotonic() - start < 10
        assert err.value.transient
        assert "127.0.0.1:1" in str(err.value)

    def test_failed_launch_leaves_nothing_for_the_next_run(self, monkeypatch):
        # Whatever the untraced launch did, a later clean traced run
        # reports its own ranks only: no degradation event, no counter.
        monkeypatch.setenv(RECV_TIMEOUT_ENV, "2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            try:
                spmd_run(_ring_pass, 2, backend="socket",
                         rendezvous="127.0.0.1:1")
            except CommunicatorError:
                pass
        session = TelemetrySession()
        assert spmd_run(_ring_pass, 2, telemetry=session) == [1, 0]
        assert "degradations" not in session.aggregated_metrics()["counters"]
        assert not [
            e for snap in session.ranks for e in snap.events
            if e.name == "degradation"
        ]

    def test_rendezvous_rejected_on_other_backends(self):
        with pytest.raises(ReproError):
            spmd_run(_echo_rank, 2, backend="thread",
                     rendezvous="127.0.0.1:9310")
