"""TCP socket communicator with self-healing connections.

The paper's deployment shape is genuinely multi-machine (HavoqGT/MPI at
up to 1.57M cores); this module gives the SPMD runtime a backend that
spans hosts: :class:`SocketCommunicator` implements the
:class:`~repro.distributed.comm.Communicator` contract over a TCP full
mesh, bootstrapped through a tiny rendezvous service
(:class:`RendezvousServer`, also ``repro-kron serve-rendezvous``).

Wire protocol
-------------
Every message is one length-prefixed frame::

    <4s magic "KSK1"> <u8 kind> <u32 src rank> <i64 tag> <u64 seq> <u64 len> <payload>

``DATA`` frames carry one pickled payload per :meth:`send`; ``seq`` is a
per-peer monotonic sequence number.  ``HEARTBEAT`` frames double as
cumulative acknowledgements: the ``seq`` field carries the highest DATA
sequence the sender has delivered from this peer, which prunes the
sender-side replay buffer.  ``HELLO`` identifies the dialing rank when a
connection (or reconnection) is established.  Only DATA frames have a
body: a ``HELLO`` or ``HEARTBEAT`` announcing one is rejected from its
header alone, so a connection that has not yet presented a valid HELLO
can never make this rank read (or allocate) a length of its choosing.

The rendezvous speaks length-capped JSON in both directions (a
registration ``{"size", "rank", "host", "port"}`` in, the roster or
``{"error"}`` out), every field type-checked before use: a stranger's
bytes never become anything but JSON there.  DATA payloads are another
matter (see above) and peers are identified by the world token alone, so
the mesh must run on a network whose members are trusted; authenticated
DATA frames are ROADMAP item 13.

Self-healing
------------
Connection direction is deterministic -- for a pair ``(i, j)`` with
``i < j``, rank ``j`` dials rank ``i`` -- so exactly one side owns
re-dialing after a break.  Every un-acknowledged DATA frame stays in a
per-peer replay buffer; on reconnect the dialer replays the tail and the
receiver drops frames whose ``seq`` it has already delivered (the same
dedup-by-sequence move the fault envelope of
:mod:`repro.distributed.faults` uses).  A transient socket error is
therefore invisible to the rank program.  A peer that cannot be reached
again inside the reconnect budget -- or whose process vanished, which
shows up as a refused connection -- is *declared dead*, and every
subsequent ``send``/``recv`` touching it raises
:class:`~repro.errors.RankDiedError` carrying the last-heartbeat age and
the peer's address, well before the full recv timeout.

Per the runtime's one-knob failure-detection ladder, every wait here
derives from :func:`repro.distributed.comm.recv_timeout` /
:func:`~repro.distributed.comm.poll_interval`; clocks come from
:mod:`repro.telemetry.clock` so traces stay deterministic under a fake
clock.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import queue
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.distributed.comm import (
    Communicator,
    decorrelated_jitter,
    poll_interval,
    recv_timeout,
)
from repro.errors import CommunicatorError, RankDiedError, ReproError
from repro.telemetry.clock import monotonic
from repro.telemetry.session import NULL_TELEMETRY

__all__ = [
    "SocketCommunicator",
    "SocketCounters",
    "RendezvousServer",
    "make_socket_world",
    "parse_hostport",
]

#: Frame magic; versioned independently of the edge wire format ("KWR2").
FRAME_MAGIC = b"KSK1"

_HEADER = struct.Struct("<4sBIqQQ")  # magic, kind, src, tag, seq, length

_K_HELLO = 1
_K_DATA = 2
_K_HEARTBEAT = 3

#: Reconnect budget (and acceptor-side re-dial grace) as a fraction of the
#: recv timeout: dead-rank detection resolves well before a blocked recv
#: would give up on its own.
_RECONNECT_FRACTION = 0.25

#: Consecutive refused connections before a peer is declared dead -- a
#: refused dial means no listener, i.e. the peer process is gone.
_REFUSED_LIMIT = 3

#: Listen backlog: every higher rank may dial before our accept loop runs.
_BACKLOG = 128

#: Largest registration the rendezvous reads from a not-yet-trusted
#: connection (tens of bytes plus headroom for long host names); a roster
#: is at most ``size`` of them, which caps the reply a rank will read.
_MAX_REGISTRATION_BYTES = 4096


def parse_hostport(spec: str) -> tuple[str, int]:
    """Parse ``"host:port"`` (the ``--rendezvous`` flag format); a
    malformed one is a non-transient :class:`~repro.errors.ReproError`."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"rendezvous address {spec!r} is not of the form host:port"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ReproError(
            f"rendezvous address {spec!r} has a non-numeric port"
        ) from exc


def _world_token(roster: Sequence[tuple[str, int]]) -> int:
    """64-bit world identity derived from the roster.

    Ephemeral listener ports make each world's roster effectively unique,
    so every HELLO carries this token and the acceptor rejects mismatches.
    Without it, a straggling reconnect thread of a just-closed world
    dialing a port the kernel has since reassigned to a *new* world's
    listener would be installed into the fresh mesh as a ghost peer --
    connected, never speaking, and silently displacing the real link.
    """
    blob = repr([tuple(entry) for entry in roster]).encode()
    return int.from_bytes(
        hashlib.blake2b(blob, digest_size=8).digest(), "little"
    )


def _make_listener(host: str) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, 0))
    sock.listen(_BACKLOG)
    return sock


def _shut(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.  close() alone wakes no thread
    blocked in ``accept()`` or ``recv()`` on it; shutdown() does."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # never connected, or already shut down
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_header(sock: socket.socket) -> tuple[int, int, int, int, int]:
    """Read one frame header; returns ``(kind, src, tag, seq, length)``.

    Only DATA frames carry a payload, so any other kind announcing one is
    malformed (or hostile) and is refused before a single body byte is
    read.
    """
    header = _read_exact(sock, _HEADER.size)
    magic, kind, src, tag, seq, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise CommunicatorError(
            f"bad frame magic {magic!r} (not a repro socket peer?)"
        )
    if length and kind != _K_DATA:
        raise CommunicatorError(
            f"frame of kind {kind} announces a {length}-byte payload; only "
            f"DATA frames carry one"
        )
    return kind, src, tag, seq, length


def _read_frame(sock: socket.socket) -> tuple[int, int, int, int, bytes]:
    """Read one frame; returns ``(kind, src, tag, seq, payload)``."""
    kind, src, tag, seq, length = _read_header(sock)
    payload = _read_exact(sock, length) if length else b""
    return kind, src, tag, seq, payload


def _send_json(sock: socket.socket, doc: Any) -> None:
    payload = json.dumps(doc).encode()
    sock.sendall(struct.pack("<Q", len(payload)) + payload)


def _recv_json(sock: socket.socket, max_bytes: int) -> Any:
    """Read one length-prefixed JSON document of at most ``max_bytes``."""
    (length,) = struct.unpack("<Q", _read_exact(sock, 8))
    if length > max_bytes:
        raise CommunicatorError(
            f"message announces {length} bytes, over the {max_bytes}-byte cap"
        )
    try:
        return json.loads(_read_exact(sock, length))
    except (ValueError, RecursionError) as exc:
        raise CommunicatorError(f"message is not JSON: {exc}") from exc


def _is_int(value: Any, lo: int, hi: int) -> bool:
    return type(value) is int and lo <= value < hi


def _is_address(entry: Any) -> bool:
    """Is ``entry`` a ``[host, port]`` pair as JSON carries one?"""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and _is_int(entry[1], 0, 1 << 16)
    )


@dataclass
class SocketCounters:
    """What one rank's socket layer actually did (tests/telemetry).

    Harvested into telemetry metrics as ``sock.<field>`` by
    :meth:`repro.telemetry.session.RankTelemetry.finalize`, which is how
    reconnect/replay counts reach the chaos report.
    """

    frames_sent: int = 0
    frames_received: int = 0
    deduplicated: int = 0
    replayed: int = 0
    disconnects: int = 0
    reconnects: int = 0
    heartbeats_sent: int = 0
    heartbeats_received: int = 0


class _Peer:
    """Per-peer connection state: socket, replay buffer, liveness."""

    __slots__ = (
        "rank", "addr", "sock", "send_lock", "state_lock", "connected",
        "joined", "replay", "next_seq", "acked", "last_seen",
        "last_heartbeat", "disconnected_at", "declared_dead", "dead_reason",
        "healing", "partitioned", "send_delay_s",
    )

    def __init__(self, rank: int, addr: tuple[str, int]) -> None:
        self.rank = rank
        self.addr = addr
        self.sock: socket.socket | None = None
        self.send_lock = threading.Lock()
        self.state_lock = threading.Lock()
        self.connected = threading.Event()
        #: Latches on first successful install and never clears: "this
        #: peer has joined the mesh at least once".  The bootstrap barrier
        #: waits on this, not on ``connected``, so a peer that joined and
        #: then exited cleanly (its program finished instantly) does not
        #: stall slower ranks still entering the barrier.
        self.joined = threading.Event()
        #: Un-acknowledged DATA frames as (seq, bytes), replayed on reconnect.
        self.replay: list[tuple[int, bytes]] = []
        self.next_seq = 0
        self.acked = 0
        self.last_seen = 0
        self.last_heartbeat: float | None = None
        self.disconnected_at: float | None = None
        self.declared_dead = False
        self.dead_reason = ""
        self.healing = False
        self.partitioned = False
        self.send_delay_s = 0.0


class SocketCommunicator(Communicator):
    """One rank of a TCP-mesh world (see module docstring).

    Collectives (the dissemination barrier and the split-phase
    ``alltoall_start``/``alltoall_finish`` included) are inherited from
    the :class:`Communicator` base and therefore route through the
    framed, sequence-numbered point-to-point primitives -- replay/dedup
    protects collective traffic with no extra plumbing.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        roster: Sequence[tuple[str, int]],
        listener: socket.socket,
    ) -> None:
        if not (0 <= rank < size):
            raise CommunicatorError(f"rank {rank} out of range for size {size}")
        if len(roster) != size:
            raise CommunicatorError(
                f"roster has {len(roster)} entries for world size {size}"
            )
        self._rank = rank
        self._size = size
        self._listener = listener
        #: Set by :meth:`close`; every background loop exits on it.
        self._closed = threading.Event()
        #: Accept, reader, heal and heartbeat threads, joined by close().
        self._threads: list[threading.Thread] = []
        self._threads_lock = threading.Lock()
        #: The accepted connection whose HELLO the accept loop is reading;
        #: close() shuts it so a silent client cannot hold the loop.
        self._handshaking: socket.socket | None = None
        self._peers: dict[int, _Peer] = {
            r: _Peer(r, tuple(roster[r])) for r in range(size) if r != rank
        }
        self._boxes: dict[tuple[int, int], queue.Queue] = {}
        self._boxes_lock = threading.Lock()
        self._world_token = _world_token(roster)
        self._telemetry = NULL_TELEMETRY
        self.sock_counters = SocketCounters()
        # Decorrelates reconnect backoff across ranks without reading the
        # wall clock (determinism lint); exact values are uncritical.
        self._jitter = random.Random((rank << 16) ^ size)
        self._spawn(self._accept_loop, f"sock-accept-{rank}")
        # Deterministic direction: this rank dials every lower rank.
        for r in range(rank):
            self._dial(self._peers[r])
        self._spawn(self._heartbeat_loop, f"sock-hb-{rank}")

    # ---- bootstrap -------------------------------------------------------
    @classmethod
    def connect(
        cls,
        rendezvous: str | tuple[str, int],
        rank: int,
        size: int,
    ) -> "SocketCommunicator":
        """Bootstrap via a rendezvous service: register, get the roster.

        Each rank dials the rendezvous server, binds an ephemeral listener
        on that connection's local address (the interface peers reach it
        on; loopback for a local server), registers ``(rank, host,
        port)``, and blocks until the server has broadcast the roster.
        """
        addr = (
            parse_hostport(rendezvous)
            if isinstance(rendezvous, str)
            else tuple(rendezvous)
        )
        listener = None
        try:
            with socket.create_connection(addr, timeout=recv_timeout()) as sock:
                listener = _make_listener(sock.getsockname()[0])
                host, port = listener.getsockname()[:2]
                _send_json(sock, dict(size=size, rank=rank, host=host, port=port))
                reply = _recv_json(sock, _MAX_REGISTRATION_BYTES * size)
            if not (
                isinstance(reply, list)
                and len(reply) == size
                and all(map(_is_address, reply))
            ):
                raise CommunicatorError(f"no roster in the reply {reply!r}")
        except (OSError, CommunicatorError) as exc:
            if listener is not None:
                listener.close()
            raise CommunicatorError(
                f"rank {rank}: rendezvous round at {addr[0]}:{addr[1]} "
                f"failed: {exc}"
            ) from exc
        roster = [tuple(entry) for entry in reply]
        comm = cls(rank, size, roster, listener)
        # Bootstrap is a mesh barrier: without it a rank whose program
        # never communicates could finish and close its listener while
        # slower peers are still dialing in (connection refused).
        comm._await_mesh()
        return comm

    def _await_mesh(self) -> None:
        """Block until every peer has joined the mesh at least once.

        Waits on the latching ``joined`` event rather than ``connected``:
        a fast peer may establish its links, finish its (trivial) rank
        program, and close -- tearing the live connection down again
        while this rank is still entering the barrier.  That peer *did*
        join; only a peer that never showed up is a bootstrap failure.
        """
        deadline = monotonic() + recv_timeout()
        for peer in self._peers.values():
            remaining = deadline - monotonic()
            if remaining <= 0 or not peer.joined.wait(timeout=remaining):
                raise CommunicatorError(
                    f"rank {self._rank}: peer {peer.rank} at "
                    f"{self._peer_desc(peer)} did not join the mesh within "
                    f"{recv_timeout():.1f}s of the roster"
                )

    # ---- Communicator surface -------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def bind_telemetry(self, telemetry) -> None:
        """Attach a rank telemetry sink (heartbeat/reconnect spans).

        Runs one heartbeat pass synchronously so every traced rank
        records at least one ``sock.heartbeat`` span even when the rank
        program finishes inside a single heartbeat interval (an extra
        heartbeat is harmless -- it just acks sooner).
        """
        self._telemetry = telemetry
        self._heartbeat_tick()

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "send")
        peer = self._peers[dest]
        self._raise_if_dead(peer)
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        with peer.send_lock:
            peer.next_seq += 1
            frame = (
                _HEADER.pack(
                    FRAME_MAGIC, _K_DATA, self._rank, tag, peer.next_seq,
                    len(payload),
                )
                + payload
            )
            # Buffer before writing: a frame lost to a mid-write socket
            # error is replayed verbatim after the reconnect.
            peer.replay.append((peer.next_seq, frame))
            if peer.send_delay_s > 0:
                time.sleep(peer.send_delay_s)  # slow-peer fault hook
            sock = peer.sock
            if sock is None:
                return  # disconnected: the frame rides the replay buffer
            try:
                sock.sendall(frame)
                self.sock_counters.frames_sent += 1
            except OSError:
                self._conn_broken(peer, sock)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "recv")
        peer = self._peers[source]
        box = self._box(source, tag)
        timeout = recv_timeout()
        deadline = monotonic() + timeout
        while True:
            self._raise_if_dead(peer)
            try:
                return box.get(timeout=poll_interval())
            except queue.Empty:
                pass
            if monotonic() > deadline:
                raise CommunicatorError(
                    f"rank {self._rank} timed out after {timeout:g}s waiting "
                    f"to receive from rank {source} (tag {tag}) over TCP; "
                    f"peer {self._peer_desc(peer)} is connected but silent "
                    f"({self._age_desc(peer)}) -- the sender never sent or "
                    f"is stalled"
                )

    def close(self) -> None:
        """Shut down the listener and every peer socket, then join the
        threads that served them (idempotent): once this returns, nothing
        this communicator started is still running."""
        self._closed.set()
        _shut(self._listener)
        for peer in self._peers.values():
            with peer.state_lock:
                sock, peer.sock = peer.sock, None
                peer.connected.clear()
            if sock is not None:
                _shut(sock)
        with self._threads_lock:
            threads = list(self._threads)
            conn, self._handshaking = self._handshaking, None
        if conn is not None:
            _shut(conn)
        deadline = monotonic() + recv_timeout()
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=max(0.0, deadline - monotonic()))

    # ---- fault-injection hooks ------------------------------------------
    def _fault_peer(self, peer_rank: int | None) -> _Peer:
        if peer_rank is None:
            peer_rank = (self._rank + 1) % self._size
        if peer_rank == self._rank or peer_rank not in self._peers:
            raise CommunicatorError(
                f"no socket peer {peer_rank} on rank {self._rank}"
            )
        return self._peers[peer_rank]

    def inject_disconnect(self, peer_rank: int | None = None) -> None:
        """Abruptly close one peer connection (self-heals via replay).

        Waits for the link to come up first: an early injection racing
        bootstrap would otherwise close nothing and silently test the
        happy path instead of the heal.  The break is recorded before this
        returns (the reader thread, woken later, finds it done), so a rank
        that owns the re-dial is ``healing`` from here on -- what
        :meth:`await_heals` relies on.
        """
        peer = self._fault_peer(peer_rank)
        peer.connected.wait(recv_timeout())
        with peer.state_lock:
            sock = peer.sock
        if sock is not None:
            try:
                # shutdown() (not just close()) wakes readers blocked on
                # this socket on both ends immediately.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover
                pass
            self._conn_broken(peer, sock)

    def await_heals(self) -> None:
        """Wait out the re-dials in flight (no longer than one reconnect
        budget, which each of them ends inside), so ``sock_counters`` read
        afterwards include them: a rank whose inbound data beat the break can
        otherwise finish its program, and report ``reconnects == 0``, while
        its heal thread still dials."""
        deadline = monotonic() + _RECONNECT_FRACTION * recv_timeout()
        for peer in self._peers.values():
            while (
                peer.healing
                and not self._closed.is_set()
                and monotonic() < deadline
            ):
                time.sleep(poll_interval() / 4.0)

    def inject_partition(self, peer_rank: int | None = None) -> None:
        """Sever one peer link for good: no reconnect is ever accepted."""
        peer = self._fault_peer(peer_rank)
        peer.partitioned = True
        self.inject_disconnect(peer.rank)

    def set_send_delay(
        self, seconds: float, peer_rank: int | None = None
    ) -> None:
        """Slow-peer fault: stall every DATA frame to one (or all) peers."""
        targets = (
            [self._fault_peer(peer_rank)]
            if peer_rank is not None
            else list(self._peers.values())
        )
        for peer in targets:
            peer.send_delay_s = float(seconds)

    # ---- internals -------------------------------------------------------
    def _spawn(
        self, target: Callable[..., None], name: str, *args: Any
    ) -> None:
        thread = threading.Thread(
            target=target, args=args, name=name, daemon=True
        )
        with self._threads_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()

    def _box(self, source: int, tag: int) -> queue.Queue:
        with self._boxes_lock:
            return self._boxes.setdefault((source, tag), queue.Queue())

    def _peer_desc(self, peer: _Peer) -> str:
        return f"{peer.addr[0]}:{peer.addr[1]}"

    def _heartbeat_age(self, peer: _Peer) -> float | None:
        if peer.last_heartbeat is None:
            return None
        return monotonic() - peer.last_heartbeat

    def _age_desc(self, peer: _Peer) -> str:
        age = self._heartbeat_age(peer)
        if age is None:
            return "no heartbeat ever received"
        return f"last heartbeat {age:.2f}s ago"

    def _declare_dead(self, peer: _Peer, reason: str) -> None:
        peer.dead_reason = reason
        peer.declared_dead = True

    def _raise_if_dead(self, peer: _Peer) -> None:
        if not peer.declared_dead and not peer.connected.is_set():
            # Acceptor side of a broken pair: the peer owns re-dialing;
            # if it stays gone past the reconnect grace, it is dead.
            t0 = peer.disconnected_at
            grace = _RECONNECT_FRACTION * recv_timeout()
            if t0 is not None and not peer.healing and monotonic() - t0 > grace:
                self._declare_dead(
                    peer,
                    f"connection lost and not re-established within "
                    f"{grace:.2f}s",
                )
        if peer.declared_dead:
            raise RankDiedError(
                f"rank {self._rank}: peer rank {peer.rank} at "
                f"{self._peer_desc(peer)} declared dead "
                f"({peer.dead_reason}); {self._age_desc(peer)}",
                ranks=(peer.rank,),
                heartbeat_age_s=self._heartbeat_age(peer),
                address=self._peer_desc(peer),
            )

    def _send_hello(self, sock: socket.socket) -> None:
        # The seq field of a HELLO carries the world token (see
        # _world_token); the acceptor drops connections from other worlds.
        sock.sendall(_HEADER.pack(
            FRAME_MAGIC, _K_HELLO, self._rank, 0, self._world_token, 0
        ))

    def _install(self, peer: _Peer, sock: socket.socket) -> None:
        """Adopt a fresh connection: replace, replay the unacked tail."""
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with peer.send_lock:
            with peer.state_lock:
                old, peer.sock = peer.sock, None
                replayable = [f for s, f in peer.replay if s > peer.acked]
            if old is not None:
                _shut(old)
            try:
                for frame in replayable:
                    sock.sendall(frame)
            except OSError:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
                raise
            self.sock_counters.replayed += len(replayable)
            with peer.state_lock:
                if self._closed.is_set():
                    # close() has already been through this peer.
                    _shut(sock)
                    return
                peer.sock = sock
                peer.disconnected_at = None
                peer.last_heartbeat = monotonic()
                peer.declared_dead = False
                peer.dead_reason = ""
                peer.connected.set()
                peer.joined.set()
        self._spawn(self._reader, f"sock-r{self._rank}-from{peer.rank}",
                    peer, sock)

    def _dial(self, peer: _Peer) -> None:
        """Bootstrap dial (lower-rank peer); retries inside one timeout."""
        deadline = monotonic() + recv_timeout()
        while True:
            try:
                sock = socket.create_connection(
                    peer.addr, timeout=recv_timeout()
                )
                self._send_hello(sock)
                self._install(peer, sock)
                return
            except OSError as exc:
                if monotonic() > deadline:
                    raise CommunicatorError(
                        f"rank {self._rank} could not connect to rank "
                        f"{peer.rank} at {self._peer_desc(peer)} during "
                        f"bootstrap: {exc}"
                    ) from exc
                time.sleep(poll_interval() / 4.0)

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._threads_lock:
                if self._closed.is_set():
                    _shut(conn)
                    return
                self._handshaking = conn
            try:
                conn.settimeout(recv_timeout())
                # Header only: nothing on an unauthenticated connection
                # is worth a body read (a HELLO has none by construction).
                kind, src, _tag, token, _length = _read_header(conn)
            except (OSError, ConnectionError, CommunicatorError):
                conn.close()
                continue
            finally:
                with self._threads_lock:
                    self._handshaking = None
            peer = self._peers.get(src)
            if (
                kind != _K_HELLO
                or token != self._world_token
                or peer is None
                or peer.partitioned
            ):
                conn.close()
                continue
            try:
                self._install(peer, conn)
            except OSError:
                continue

    def _reader(self, peer: _Peer, sock: socket.socket) -> None:
        counters = self.sock_counters
        try:
            while not self._closed.is_set():
                kind, _src, tag, seq, payload = _read_frame(sock)
                if kind == _K_DATA:
                    counters.frames_received += 1
                    with peer.state_lock:
                        if seq <= peer.last_seen:
                            # Replayed frame already delivered pre-break.
                            counters.deduplicated += 1
                            continue
                        peer.last_seen = seq
                    self._box(peer.rank, tag).put(pickle.loads(payload))
                elif kind == _K_HEARTBEAT:
                    counters.heartbeats_received += 1
                    peer.last_heartbeat = monotonic()
                    self._prune_replay(peer, ack=seq)
        except (OSError, ConnectionError, CommunicatorError):
            pass
        self._conn_broken(peer, sock)

    def _prune_replay(self, peer: _Peer, ack: int) -> None:
        with peer.state_lock:
            if ack > peer.acked:
                peer.acked = ack
                peer.replay = [(s, f) for s, f in peer.replay if s > ack]

    def _conn_broken(self, peer: _Peer, sock: socket.socket) -> None:
        spawn = False
        with peer.state_lock:
            if peer.sock is not sock:
                return  # already replaced by a newer connection
            peer.sock = None
            peer.connected.clear()
            peer.disconnected_at = monotonic()
            if (
                not self._closed.is_set()
                and not peer.healing
                and not peer.partitioned
                and peer.rank < self._rank
            ):
                peer.healing = True
                spawn = True
        _shut(sock)
        if self._closed.is_set():
            return
        self.sock_counters.disconnects += 1
        if spawn:
            self._spawn(self._reconnect,
                        f"sock-heal-{self._rank}-to{peer.rank}", peer)

    def _reconnect(self, peer: _Peer) -> None:
        """Bounded retry/backoff re-dial; replay happens in ``_install``."""
        budget = _RECONNECT_FRACTION * recv_timeout()
        deadline = monotonic() + budget
        pause = poll_interval() / 4.0
        refused = 0
        reason = ""
        with self._telemetry.span("sock.reconnect", cat="sock",
                                  peer=peer.rank):
            while not self._closed.is_set() and not peer.partitioned:
                try:
                    sock = socket.create_connection(
                        peer.addr, timeout=poll_interval() * 4.0
                    )
                    self._send_hello(sock)
                    # Count before installing: the replay inside _install
                    # releases peers blocked on this link, and the rank fn
                    # may finish (and harvest counters) immediately after.
                    self.sock_counters.reconnects += 1
                    self._install(peer, sock)
                    peer.healing = False
                    return
                except ConnectionRefusedError:
                    refused += 1
                    if refused >= _REFUSED_LIMIT:
                        reason = (
                            f"connection refused {refused}x -- no listener "
                            f"at {self._peer_desc(peer)}, peer process gone"
                        )
                        break
                except OSError:
                    refused = 0
                if monotonic() > deadline:
                    reason = (
                        f"reconnect budget exhausted after {budget:.2f}s"
                    )
                    break
                self._closed.wait(pause)
                poll = poll_interval()
                pause = decorrelated_jitter(
                    pause, poll / 4.0, 2.0, poll, self._jitter
                )
        peer.healing = False
        if not self._closed.is_set() and not peer.partitioned and reason:
            self._declare_dead(peer, reason)

    def _heartbeat_tick(self) -> None:
        counters = self.sock_counters
        with self._telemetry.span("sock.heartbeat", cat="sock"):
            for peer in self._peers.values():
                if not peer.connected.is_set():
                    continue
                frame = _HEADER.pack(
                    FRAME_MAGIC, _K_HEARTBEAT, self._rank, 0,
                    peer.last_seen, 0,
                )
                with peer.send_lock:
                    sock = peer.sock
                    if sock is None:
                        continue
                    try:
                        sock.sendall(frame)
                        counters.heartbeats_sent += 1
                    except OSError:
                        self._conn_broken(peer, sock)

    def _heartbeat_loop(self) -> None:
        while not self._closed.is_set():
            self._heartbeat_tick()
            self._closed.wait(poll_interval())


class RendezvousServer:
    """Roster bootstrap for socket worlds (``repro-kron serve-rendezvous``).

    Each rank connects, registers ``(size, rank, host, port)``, and blocks
    until all ``size`` ranks of the round have registered; the server then
    broadcasts the roster (listen addresses indexed by rank) to every
    waiting connection and resets for the next round -- so one long-lived
    server bootstraps every attempt of a supervised run, and sequential
    runs, without restarts.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(_BACKLOG)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = False
        self._cond = threading.Condition()
        self._round: dict[int, tuple[str, int]] = {}
        self._round_size: int | None = None
        self._epoch = 0
        self._roster: list[tuple[str, int]] | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "RendezvousServer":
        self._thread = threading.Thread(
            target=self._accept_loop, name="rendezvous-accept", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._closed = True
        _shut(self._listener)
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=recv_timeout())

    def __enter__(self) -> "RendezvousServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), name="rendezvous-serve",
                daemon=True,
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(recv_timeout())
            try:
                msg = _recv_json(conn, _MAX_REGISTRATION_BYTES)
            except (OSError, CommunicatorError):
                # Probe connections close without registering; an
                # oversized prefix is dropped before anything is allocated.
                return
            fields = msg if isinstance(msg, dict) else {}
            size, rank = fields.get("size"), fields.get("rank")
            address = [fields.get("host"), fields.get("port")]
            if not (
                _is_int(size, 1, 1 << 32)  # a frame header's src is a u32
                and _is_int(rank, 0, size)
                and _is_address(address)
            ):
                _send_json(conn, {"error": "malformed registration"})
                return
            with self._cond:
                if self._round_size is None:
                    self._round_size = size
                if size != self._round_size:
                    why = (f"rank {rank}/size {size} inconsistent with the "
                           f"current round (size {self._round_size})")
                    _send_json(conn, {"error": why})
                    return
                self._round[rank] = tuple(address)
                my_epoch = self._epoch
                if len(self._round) == self._round_size:
                    self._roster = [
                        self._round[r] for r in range(self._round_size)
                    ]
                    self._epoch += 1
                    self._round = {}
                    self._round_size = None
                    self._cond.notify_all()
                else:
                    deadline = monotonic() + recv_timeout()
                    while self._epoch == my_epoch and not self._closed:
                        remaining = deadline - monotonic()
                        if remaining <= 0:
                            return  # partial round: peer gets EOF, retries
                        self._cond.wait(timeout=min(remaining, poll_interval()))
                    if self._closed:
                        return
                roster = self._roster
            _send_json(conn, roster)
        except OSError:  # pragma: no cover - client vanished mid-reply
            pass
        finally:
            conn.close()


def make_socket_world(
    size: int, *, host: str = "127.0.0.1"
) -> list[SocketCommunicator]:
    """Create ``size`` socket communicators meshed over localhost.

    The in-process counterpart of the rendezvous bootstrap (all listeners
    are bound before any rank dials, exactly like a rendezvous round), for
    conformance tests and single-host experiments.
    """
    if size < 1:
        raise CommunicatorError(f"world size must be >= 1, got {size}")
    listeners = [_make_listener(host) for _ in range(size)]
    roster = [sock.getsockname()[:2] for sock in listeners]
    comms = [
        SocketCommunicator(r, size, roster, listeners[r]) for r in range(size)
    ]
    for comm in comms:
        comm._await_mesh()
    return comms
