"""Minimal HTTP/1.1 over asyncio streams (stdlib only, no frameworks).

The service speaks just enough HTTP for its JSON API and for load
generators and ``curl``: request-line + headers + ``Content-Length``
bodies in, status-line + headers + body out, persistent connections by
default (``Connection: close`` honored both ways).  Chunked transfer
encoding is deliberately rejected -- every client the project ships sends
sized bodies, and refusing early beats buffering unbounded input.

Errors raised by handlers map *deterministically* onto the wire: every
:class:`~repro.errors.ServiceError` subclass carries ``http_status`` and
``code``, and :func:`error_payload` renders the same failure to the same
JSON body every time -- machine-checkable by the CI service job.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from repro.errors import AssumptionError, GraphFormatError, ReproError, RequestError, ServiceError

__all__ = [
    "HTTPRequest",
    "read_request",
    "render_response",
    "error_payload",
    "int_ids",
    "id_batch",
    "array_body",
    "int_text",
    "neighborhoods_body",
    "status_of",
    "MAX_BATCH",
    "MAX_BODY_BYTES",
    "MAX_REPLY_IDS",
    "STATUS_REASONS",
]

#: Default request-body ceiling (16 MiB): a registered factor of ~500k
#: edges as JSON.  Oversized bodies get a 413 before any buffering.
MAX_BODY_BYTES = 16 << 20

#: Per-request batch ceiling (pairs / vertices); larger batches get a 400
#: so one request can never monopolize the loop.
MAX_BATCH = 1 << 16

#: Per-reply ceiling on neighbour ids (``sum(min(degree_total, limit))``
#: over a ``neighbors`` batch); a larger reply gets a 400 suggesting
#: ``limit`` before anything is expanded.  4Mi ids is ~32 MiB as ``int64``
#: and a reply body of tens of MiB.
MAX_REPLY_IDS = 1 << 22

#: Header-section ceiling; a request line + headers larger than this is
#: hostile or broken.
_MAX_HEAD_BYTES = 64 << 10

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


@dataclass
class HTTPRequest:
    """One parsed request: method, path, lowercase headers, raw body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default keep-alive unless ``Connection: close``."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict:
        """Decode the body as a JSON object (empty body -> ``{}``).

        Every route's body is an object, so any other JSON value is
        refused here, once, as a 400.
        """
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise RequestError(
                f"request body must be a JSON object, not {type(doc).__name__}"
            )
        return doc


def int_ids(value: Any, what: str, width: int = 1, **context: Any) -> np.ndarray:
    """Decoded JSON ``value`` as int64 ids: ``[v, ...]`` -> shape ``(k,)`` for
    ``width`` 1, ``[[u, v], ...]`` -> ``(k, width)`` otherwise.

    The one request boundary for ids.  Anything but JSON integers (``true``
    is not one) in exactly that shape and inside int64 is a 400 carrying
    ``context``; nothing is parsed from strings, truncated or reshaped.  The
    type checks run before numpy sees the list, so a hostile body cannot
    make it allocate more than the ids it was given.
    """
    ok = isinstance(value, list)
    if ok and width != 1:
        try:
            ok = set(map(len, value)) <= {width}
        except TypeError:  # a row that is a number or null
            ok = False
        if ok:
            # A row that is a string or an object of that length passes its
            # characters / keys on to the element check below, which fails.
            value = list(chain.from_iterable(value))
    if ok and set(map(type, value)) <= {int}:
        try:
            arr = np.array(value, dtype=np.int64)
            return arr if width == 1 else arr.reshape(-1, width)
        except OverflowError:
            pass  # an integer past int64: no id is
    shape = "integers" if width == 1 else f"lists of {width} integers"
    raise RequestError(f"{what} must be a list of {shape} (int64)", **context)


#: JSON's four whitespace bytes, the only ones allowed between tokens.
_JSON_WS = b" \t\n\r"
_DIGITS = b"0123456789"

#: ``{"<key>":`` -- one key, spelled without escapes.
_BATCH_HEAD = re.compile(rb'[ \t\n\r]*\{[ \t\n\r]*"([^"\\]*)"[ \t\n\r]*:[ \t\n\r]*')

#: Longest id :func:`id_batch` reads: every 18-digit decimal is below 2**63.
_MAX_ID_DIGITS = 18

#: Bodies shorter than this go straight to ``json.loads`` + :func:`int_ids`:
#: :func:`id_batch` is ~40 numpy calls whatever the body's size, and on short
#: bodies the C JSON decoder wins.  Measured on a 2-core VM, compact bodies,
#: medians of 15 interleaved rounds, id_batch vs ``json.loads`` + ``int_ids``:
#: 16 ids (105 B) 57 vs 8 us; 64 pairs (877 B) 69 vs 35; 96 pairs (1.3 kB)
#: 68 vs 49; 128 pairs (1.7 kB) 54 vs 65; 192 pairs (2.6 kB) 55 vs 87; 256
#: pairs (3.4 kB) 64 vs 117; 4096 pairs (55 kB) 700 vs 1870.  Below the
#: constant id_batch costs one length check.  A constant, not a parameter:
#: no answer depends on it.
_ID_BATCH_MIN_BYTES = 2048

#: ``_WORD_MASK[l]`` keeps the last ``l`` bytes of a little-endian word.
_WORD_MASK = np.array(
    [0] + [(1 << 64) - (1 << (64 - 8 * n)) for n in range(1, 9)], dtype=np.uint64
)


def _decimal_runs(raw: bytes, ends: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """int64 value of every digit run ``raw[end - len:end]`` (``len`` 1..18).

    Eight digits at a time: the 8 bytes before a run's end are loaded as one
    little-endian word (a stride-1 ``uint64`` view over a padded copy), the
    bytes before the run masked off, and the word folded to its value in
    three multiply-shift rounds (pairs, quads, octets of digits).
    """
    pad = np.frombuffer(b"0" * 24 + raw, dtype=np.uint8)  # 3 words before 0
    words = np.ndarray((len(pad) - 7,), dtype="<u8", buffer=pad, strides=(1,))
    out = None
    for chunk in range((int(lens.max()) + 7) // 8):
        left = np.minimum(lens - 8 * chunk, 8)
        if chunk:
            np.maximum(left, 0, out=left)
        word = words.take(ends + (16 - 8 * chunk))
        word &= _WORD_MASK.take(left)
        word &= np.uint64(0x0F0F0F0F0F0F0F0F)
        word *= np.uint64(10 << 8 | 1)
        word >>= np.uint64(8)
        word &= np.uint64(0x00FF00FF00FF00FF)
        word *= np.uint64(100 << 16 | 1)
        word >>= np.uint64(16)
        word &= np.uint64(0x0000FFFF0000FFFF)
        word *= np.uint64(10000 << 32 | 1)
        word >>= np.uint64(32)
        value = word.view(np.int64)
        if out is None:
            out = value
        else:
            value *= np.int64(10 ** (8 * chunk))
            out += value
    return out


def id_batch(body: bytes, field: str, width: int = 1) -> np.ndarray | None:
    """The ids of a ``{"<field>": [v, ...]}`` (``width`` 1) or ``{"<field>":
    [[u, v], ...]}`` request body, read from the bytes into int64 -- or
    ``None``: the caller then decodes the body with ``json.loads`` and
    :func:`int_ids`.

    Only the canonical spelling of a batch of at most :data:`MAX_BATCH`
    items is read: exactly one key, ids of 1 to 18 decimal digits without
    leading zeros, JSON whitespace between tokens and nowhere else.
    Anything else -- another key, a sign, a float, a 19-digit id, an escape
    in the key, a trailing comma, a longer batch -- is declined, never
    refused, so the general path stays the one owner of every other
    spelling and of every error body.  Where this returns an array it
    equals ``int_ids(json.loads(body)[field], ..., width)``.

    A few whole-body passes, each a C loop: the body without its digits
    must be exactly the separators of the canonical spelling, the digit
    runs (from the digit mask's transitions) must sit one to a slot
    between them, and :func:`_decimal_runs` folds them to values.  Memory
    is a few copies of the body; nothing is sized by a batch over the
    limit.
    """
    if len(body) < _ID_BATCH_MIN_BYTES:
        return None
    head = _BATCH_HEAD.match(body)
    if head is None or head.group(1) != field.encode():
        return None
    tail = body.rstrip(_JSON_WS)
    if tail[-1:] != b"}":
        return None
    raw = body[head.end():len(tail[:-1].rstrip(_JSON_WS))]
    runs = None
    text = np.frombuffer(raw, dtype=np.uint8)
    if (text < 33).any():
        # Whitespace goes; a run it split (``1 2``) would merge, so count
        # the runs first.
        digit = (text - 48) < 10
        runs = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[:1].any())
        raw = raw.translate(None, _JSON_WS)
    if raw == b"[]":
        return np.empty((0,) if width == 1 else (0, width), dtype=np.int64)
    # Everything but the digits is exactly the canonical spelling's
    # separators -- ``[a,b,c]`` for width 1, ``[[a,b],[c,d]]`` otherwise --
    # for a batch the server answers: longer ones go to the general path,
    # which refuses them, before anything here is sized by the body.
    item, edge = (b"", 1) if width == 1 else (b"[" + b"," * (width - 1) + b"]", 2)
    separators = raw.translate(None, _DIGITS)
    items = (len(separators) - 1) // (len(item) + 1)
    if not 0 < items <= MAX_BATCH or separators != (
        b"[" + ((item + b",") * items)[:-1] + b"]"
    ):
        return None
    # ... and one run of digits sits in each slot between them.
    text = np.frombuffer(raw, dtype=np.uint8)
    digit = (text - 48) < 10
    if digit[0] or digit[-1]:
        return None
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    k = items * width
    if len(ends) != k or (runs is not None and runs != k):
        return None
    gaps = starts[1:] - ends[:-1]
    if width == 1:
        spaced = np.count_nonzero(gaps != 1) == 0
    else:
        spaced = (gaps[width - 1::width] == 3).all() and (
            np.count_nonzero(gaps == 1) == k - items
        )
    lens = ends - starts
    if (
        not spaced
        or starts[0] != edge
        or ends[-1] != len(text) - edge
        or lens.max() > _MAX_ID_DIGITS
        or ((text[1:-1] == 48) & (digit[2:] > digit[:-2])).any()  # leading 0
    ):
        return None
    ids = _decimal_runs(raw, ends, lens)
    return ids if width == 1 else ids.reshape(-1, width)


#: The 4-byte little-endian cell of a 4-digit limb ``v``: ``_CELLS[v]`` is
#: ``v`` as the leading limb, unpadded and NUL-filled on the left (``42`` ->
#: ``"\\0\\042"``; 0, a limb above the leading one, renders as nothing);
#: ``_CELLS[v + 10**4]`` is ``v`` below it, zero-padded (``"0042"``).
#: ``_LAST_CELLS`` differs in one cell: a lone last limb 0 is the value 0.
_CELLS = np.frombuffer(
    b"".join(b"%4d" % v for v in range(10**4)).replace(b" ", b"\0")
    + "".join(f"{v:04d}" for v in range(10**4)).encode(),
    dtype="<u4",
).copy()
_LAST_CELLS = _CELLS.copy()
_CELLS[0] = 0
#: The separator ``", "``, NUL-padded to one cell.
_SEP_CELL = np.frombuffer(b", \0\0", dtype="<u4")[0]


def int_text(values: np.ndarray) -> bytes:
    """``(", ".join(map(str, values)) + ", ").encode()`` of a non-negative
    integer array (exact up to ``2**63 - 1``), without a Python object per
    element.

    One row of 4-byte cells per value: one per 4-digit limb, most
    significant first, then the separator.  Limbs come off the low end,
    one divide per limb, and each is looked up in :data:`_CELLS` --
    zero-padded where a higher limb is non-zero, unpadded where it is the
    leading one, nothing above that.  The padding NULs are deleted in one
    ``translate``.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.size:
        return b""
    limbs = (len(str(int(values.max()))) + 3) // 4
    cells = np.empty((len(values), limbs + 1), dtype="<u4")
    cells[:, limbs] = _SEP_CELL
    rest = values
    for col in range(limbs - 1, -1, -1):
        if col:
            above = rest // 10**4
            index = rest - above * 10**4
            np.add(index, 10**4, out=index, where=above > 0)
            rest = above
        else:  # the top limb: nothing above it
            index = rest
        table = _LAST_CELLS if col == limbs - 1 else _CELLS
        cells[:, col] = table.take(index)
    return cells.tobytes().translate(None, b"\0")


#: The rendered cells of ``False`` and ``True``, NUL-padded to one word.
_BOOL_CELLS = np.frombuffer(b"false, \0true, \0\0", dtype="<u8")


def array_body(key: str, values: np.ndarray) -> bytes:
    """``json.dumps({key: values.tolist()}, sort_keys=True) + "\n"``, encoded,
    rendered from a bool or non-negative integer array without a Python
    object per element: bools as one NUL-padded word each, integers by
    :func:`int_text`."""
    if values.dtype == np.bool_:
        cells = _BOOL_CELLS.take(values.view(np.uint8))
        text = cells.tobytes().translate(None, b"\0")
    else:
        text = int_text(values)
    return b'{"%s": [%s]}\n' % (key.encode(), text[:-2])


def neighborhoods_body(
    vertices: np.ndarray, totals: np.ndarray, counts: np.ndarray, ids: np.ndarray
) -> bytes:
    """The ``neighbors`` reply, rendered from arrays: ``json.dumps({
    "neighborhoods": [{"degree_total": t, "neighbors": [...], "p": p,
    "truncated": c < t}, ...]}, sort_keys=True) + "\n"``, encoded, where
    ``p, t, c`` run over ``vertices, totals, counts``.

    ``ids`` holds the first ``counts[v]`` neighbours of each ``vertices[v]``
    back to back.  They are rendered in one :func:`int_text` pass and the
    text is cut into per-vertex segments at its separators; each vertex
    then costs one small ``bytes %`` header, not a Python int per id.
    """
    text = int_text(ids)
    # offsets[j]: where id j's text starts (offsets[-1]: past the end).
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    offsets[1:] = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == 44)
    offsets[1:] += 2
    ends = np.cumsum(counts)
    starts = offsets.take(ends - counts)
    stops = offsets.take(ends) - 2  # drops the last id's separator
    np.maximum(stops, starts, out=stops)  # an empty segment slices to b""
    items = [
        b'{"degree_total": %d, "neighbors": [%s], "p": %d, "truncated": %s}'
        % (t, text[a:z], p, b"true" if c < t else b"false")
        for p, t, c, a, z in zip(
            vertices.tolist(), totals.tolist(), counts.tolist(),
            starts.tolist(), stops.tolist(),
        )
    ]
    return b'{"neighborhoods": [%s]}\n' % b", ".join(items)


class _ProtocolViolation(RequestError):
    """A request that cannot be parsed; the connection will be closed."""


class _PayloadTooLarge(RequestError):
    http_status = 413
    code = "payload_too_large"


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> HTTPRequest | None:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`RequestError` (mapped to 400/413 by the server) for
    malformed request lines, oversized heads/bodies, and chunked bodies.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests (keep-alive close)
        raise _ProtocolViolation("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise _ProtocolViolation("request head exceeds limit") from exc
    if len(head) > _MAX_HEAD_BYTES:
        raise _ProtocolViolation("request head exceeds limit")

    try:
        lines = head[:-4].decode("latin-1").split("\r\n")
        method, path, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise _ProtocolViolation(f"malformed request line: {head[:80]!r}") from exc
    if not version.startswith("HTTP/1."):
        raise _ProtocolViolation(f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep:
            raise _ProtocolViolation(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise _ProtocolViolation("chunked transfer encoding not supported")

    body = b""
    length_s = headers.get("content-length", "0")
    try:
        length = int(length_s)
    except ValueError as exc:
        raise _ProtocolViolation(f"bad Content-Length {length_s!r}") from exc
    if length < 0:
        raise _ProtocolViolation(f"bad Content-Length {length}")
    if length > max_body:
        raise _PayloadTooLarge(
            f"request body of {length} bytes exceeds the "
            f"{max_body}-byte limit"
        )
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _ProtocolViolation("connection closed mid-body") from exc
    return HTTPRequest(method=method.upper(), path=path, headers=headers, body=body)


def render_response(
    status: int,
    payload: Any,
    *,
    keep_alive: bool = True,
    content_type: str = "application/json",
) -> bytes:
    """Serialize one complete response (status line + headers + body).

    ``payload`` is JSON-encoded unless already ``bytes``.  The bytes are
    written in one ``writer.write`` call by the server so a response is
    never interleaved mid-connection.
    """
    if isinstance(payload, bytes):
        body = payload
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def status_of(exc: Exception) -> int:
    """Deterministic HTTP status of an exception.

    :class:`ServiceError` subclasses carry their own mapping;
    :class:`AssumptionError` (a ground-truth hypothesis the registered
    factors violate) is the request's fault at 422; any other library
    error is a 400 (bad input), anything else a 500.
    """
    if isinstance(exc, ServiceError):
        return exc.http_status
    if isinstance(exc, AssumptionError):
        return 422
    if isinstance(exc, (GraphFormatError, ReproError)):
        return 400
    return 500


def error_payload(exc: Exception) -> dict[str, Any]:
    """The JSON error body: stable ``error`` code + message + context."""
    if isinstance(exc, ServiceError):
        doc: dict[str, Any] = {"error": exc.code, "message": str(exc)}
        context = exc.context()
        if context:
            doc["context"] = context
        return doc
    if isinstance(exc, AssumptionError):
        return {"error": "assumption_violated", "message": str(exc)}
    if isinstance(exc, (GraphFormatError, ReproError)):
        return {"error": "bad_input", "message": str(exc)}
    return {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
