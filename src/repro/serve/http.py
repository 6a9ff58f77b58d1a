"""Minimal HTTP/1.1 request parsing and response writing over asyncio
streams.

The service speaks a deliberately small subset of HTTP/1.1 — exactly
what a JSON API needs and nothing the standard library's ``http.client``
(the bundled :mod:`repro.serve.client`) or ``curl`` would not send:

* request line + headers + ``Content-Length``-framed bodies;
* keep-alive by default, ``Connection: close`` honoured;
* bodies larger than the server's limit are rejected with **413**
  *before* they are read (the connection is then closed, since the
  unread body would desynchronise the stream);
* chunked transfer encoding, multiline headers and control characters
  in header values are rejected rather than misparsed.

Parsing failures raise :class:`HttpError` subtypes carrying the status
code to respond with; the connection loop in
:mod:`repro.serve.server` turns them into JSON error responses.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from http import HTTPStatus

#: maximum size of one header section (request line + headers)
MAX_HEADER_BYTES = 16384
#: maximum number of header lines per request
MAX_HEADER_COUNT = 100

#: characters a header value may not hold (HTAB is allowed, RFC 9110)
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")

#: stream limit for ``asyncio.start_server`` — must exceed the longest
#: single line we are willing to parse
STREAM_LIMIT = 65536


class HttpError(Exception):
    """A protocol-level failure with the HTTP status to report.

    ``keep_alive`` is False when the stream can no longer be trusted
    (e.g. an unread oversized body) and the connection must close after
    the error response.
    """

    def __init__(self, status: int, message: str, *, keep_alive: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.keep_alive = keep_alive


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


async def read_request(reader, *, max_body: int) -> Request | None:
    """Parse one request from *reader*; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input (400), unsupported
    framing (411) or a declared body over *max_body* (413 — the body is
    left unread, so the error response must close the connection).
    """
    try:
        line = await reader.readline()
    except (ValueError, OSError) as exc:  # line over the stream limit
        raise HttpError(400, f"request line too long or unreadable: {exc}") from exc
    if not line:
        return None  # clean EOF between requests
    try:
        text = line.decode("latin-1").rstrip("\r\n")
        method, _, rest = text.partition(" ")
        target, _, version = rest.rpartition(" ")
    except Exception as exc:  # pragma: no cover - latin-1 never fails
        raise HttpError(400, "malformed request line") from exc
    if not method or not target or not version.startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {text!r}")
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    total = len(line)
    while True:
        try:
            raw = await reader.readline()
        except (ValueError, OSError) as exc:
            raise HttpError(400, f"header line too long: {exc}") from exc
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "header section too large")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise HttpError(400, "truncated header section")
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many header lines")
        decoded = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = decoded.partition(":")
        if not sep or not name or name != name.strip() or name.startswith(("\t", " ")):
            raise HttpError(400, f"malformed header line {decoded!r}")
        if _CONTROL.search(value):
            # a bare CR or LF would split an echoed header in two
            raise HttpError(400, f"control character in header line {decoded!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(411, "chunked transfer encoding is not supported; "
                             "send a Content-Length-framed body")
    length_text = headers.get("content-length")
    if length_text is None:
        if method in ("POST", "PUT", "PATCH"):
            raise HttpError(411, "Content-Length required")
        length = 0
    else:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, f"malformed Content-Length {length_text!r}") from exc
        if length < 0:
            raise HttpError(400, f"negative Content-Length {length}")
    if length > max_body:
        # the body stays unread: the stream is now desynchronised, so
        # the 413 response must be the connection's last
        raise HttpError(
            413,
            f"request body of {length} bytes exceeds the {max_body} byte limit",
            keep_alive=False,
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except Exception as exc:
            raise HttpError(400, f"truncated request body: {exc}") from exc
    return Request(
        method=method, path=path, query=query, version=version,
        headers=headers, body=body,
    )


def encode_response(
    status: int,
    payload: dict | bytes,
    *,
    request_id: str | None = None,
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialise one JSON response (headers + body) to wire bytes."""
    if isinstance(payload, bytes):
        body = payload
    else:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    try:
        reason = HTTPStatus(status).phrase
    except ValueError:
        reason = "Unknown"
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if request_id is not None:
        lines.append(f"X-Request-Id: {request_id}")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
