"""Minimal HTTP/1.1 plumbing for the exploration service.

The service is stdlib-only by charter.  ``socketserver`` gives it one
thread per connection; this module owns what goes over the wire, a
deliberately small subset of HTTP: request-line + headers +
``Content-Length`` bodies in, fixed-length JSON responses and unbounded
``text/event-stream`` responses out, one request per connection
(``Connection: close``).  ``http.server`` would parse the request for
free, but it speaks a wider subset (HTTP/0.9 request lines, heads past
the 16 KiB cap below), and that subset and its caps are the contract.
No keep-alive, no chunked encoding, no pipelining — every
simplification is one less state machine to get wrong, and SSE (the one
long-lived response) works on a closed connection by definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, BinaryIO
from urllib.parse import parse_qs, unquote, urlsplit

#: Hard caps so a misbehaving client cannot balloon service memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
#: An oversized head is still read up to here before the 400 goes out:
#: closing over unread bytes resets the connection, and the reset can
#: destroy the answer before the client reads it.
_HEAD_READ_LIMIT = 64 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    def query_one(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default

    def json(self) -> Any:
        """The request body as JSON (raises ``ValueError`` when invalid)."""
        if not self.body:
            raise ValueError("empty request body")
        return json.loads(self.body.decode("utf-8"))


class BadRequest(Exception):
    """The bytes on the wire are not the HTTP subset we speak."""


def read_request(rfile: BinaryIO) -> Request | None:
    """Parse one request from ``rfile`` (``None`` on a clean EOF)."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = rfile.readline(_HEAD_READ_LIMIT - len(head) + 1)
        if not line:
            if not head:
                return None
            raise BadRequest("truncated request head")
        head += line
        if len(head) > _HEAD_READ_LIMIT:
            raise BadRequest("request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise BadRequest("request head too large")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    split = urlsplit(target)
    path = unquote(split.path)
    query = parse_qs(split.query)

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise BadRequest(f"bad Content-Length {length_header!r}") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(f"unacceptable Content-Length {length}")
        body = rfile.read(length)
        if len(body) < length:
            raise BadRequest("truncated request body")

    return Request(method=method, path=path, query=query, headers=headers, body=body)


def response_bytes(
    status: int,
    body: bytes | str = b"",
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """A complete fixed-length HTTP response."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int, payload: Any, extra_headers: dict[str, str] | None = None
) -> bytes:
    return response_bytes(
        status,
        json.dumps(payload, indent=2, default=repr) + "\n",
        extra_headers=extra_headers,
    )


def error_response(
    status: int, message: str, extra_headers: dict[str, str] | None = None
) -> bytes:
    return json_response(
        status, {"error": message, "status": status}, extra_headers=extra_headers
    )


def sse_head() -> bytes:
    """The response head opening an unbounded SSE stream."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
