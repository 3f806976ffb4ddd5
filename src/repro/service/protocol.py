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
    "status_of",
    "MAX_BODY_BYTES",
    "STATUS_REASONS",
]

#: Default request-body ceiling (16 MiB): a registered factor of ~500k
#: edges as JSON.  Oversized bodies get a 413 before any buffering.
MAX_BODY_BYTES = 16 << 20

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
