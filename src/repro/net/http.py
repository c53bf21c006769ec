"""Minimal HTTP/1.1 wire handling: parse requests, format responses.

Everything here is a pure function over bytes — no sockets, no event
loop — so the protocol corner cases (malformed request lines, header
limits, keep-alive negotiation) are unit-testable without a server.
The asyncio plumbing lives in :mod:`repro.net.server`.

Scope is deliberately the subset a JSON API needs: request line +
headers + optional ``Content-Length`` body, persistent connections,
and ``Connection`` negotiation.  Chunked request bodies are rejected
with 411 (length required) rather than half-supported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: Methods the parser accepts at all; routing narrows further.
KNOWN_METHODS = frozenset(
    ("GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH")
)

#: Reason phrases for every status the front-end emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """A request the parser refuses; carries the HTTP status to send.

    Attributes:
        status: the response status code (400 unless a more specific
            one applies — 405, 411, 413, 431 ...).
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class HTTPRequest:
    """One parsed request (head only; the body is read separately)."""

    method: str
    target: str
    version: str
    headers: dict[str, str]
    path: str = ""
    params: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Persistent-connection negotiation (RFC 9112 §9.3).

        HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
        HTTP/1.0 defaults to close unless ``Connection: keep-alive``.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def content_length(self, max_bytes: int) -> int:
        """The validated request-body length (0 when absent).

        Raises:
            BadRequest: 400 on a malformed ``Content-Length``, 411 on
                a chunked body, 413 when the declared length exceeds
                ``max_bytes``.
        """
        if "transfer-encoding" in self.headers:
            raise BadRequest(
                "chunked request bodies are not supported; send "
                "Content-Length",
                status=411,
            )
        raw = self.headers.get("content-length")
        if raw is None:
            return 0
        try:
            # RFC 9112 allows only 1*DIGIT: no sign, "_" or non-ASCII
            # digit, all of which Python's int() accepts.
            if not (raw.isascii() and raw.isdigit()):
                raise ValueError(raw)
            length = int(raw)
        except ValueError:
            raise BadRequest(f"invalid Content-Length {raw!r}") from None
        if length > max_bytes:
            raise BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{max_bytes}-byte limit",
                status=413,
            )
        return length

    def json(self) -> dict:
        """The body decoded as a JSON object.

        Raises:
            BadRequest: on undecodable bytes, invalid JSON, or a
                non-object top level.
        """
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # ValueError covers bad UTF-8, bad JSON and integers past
            # the int-string digit limit; RecursionError deep nesting.
            raise BadRequest(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload


def parse_request_head(head: bytes) -> HTTPRequest:
    """Parse the request line + headers (everything before the body).

    ``head`` is the raw bytes up to and including the blank line.
    Header names are lower-cased; duplicate headers keep the last
    value (none of the headers this API reads are list-valued).

    Raises:
        BadRequest: on any malformation — non-ASCII head, bad request
            line, unsupported version, header lines without a colon,
            or obs-fold continuation lines.
    """
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        raise BadRequest("request head is not ASCII") from None
    lines = text.split("\r\n")
    request_line = lines[0]
    parts = request_line.split(" ")
    if len(parts) != 3 or not all(parts):
        raise BadRequest(f"malformed request line {request_line!r}")
    method, target, version = parts
    if method.upper() != method or method not in KNOWN_METHODS:
        raise BadRequest(f"unknown method {method!r}")
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise BadRequest(f"unsupported HTTP version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if line[0] in " \t":
            raise BadRequest("obsolete header line folding")
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip():
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.lower()] = value.strip()
    request = HTTPRequest(
        method=method, target=target, version=version, headers=headers
    )
    request.path, request.params = parse_target(target)
    return request


def parse_target(target: str) -> tuple[str, dict[str, str]]:
    """Split a request target into a decoded path + query params.

    Raises:
        BadRequest: when the target is not origin-form (``/path``).
    """
    if not target.startswith("/"):
        raise BadRequest(f"unsupported request target {target!r}")
    try:
        split = urlsplit(target)  # ValueError on e.g. "//[x"
        params = dict(parse_qsl(split.query, keep_blank_values=True))
    except ValueError as error:
        raise BadRequest(f"malformed request target: {error}") from None
    return unquote(split.path), params


def json_body(payload: object) -> bytes:
    """Canonical JSON encoding for response bodies.

    Sorted keys and fixed separators so one logical answer is one byte
    sequence — the single-flight fan-out and its benchmark assert
    byte-identical payloads across coalesced responses.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def build_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """Serialize one HTTP/1.1 response, ``Content-Length`` framed."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Server: xclean",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("ascii") + body


def error_body(error: str, message: str, **extra: object) -> bytes:
    """The canonical error payload shape (see docs/http_api.md)."""
    payload: dict[str, object] = {"error": error, "message": message}
    payload.update(extra)
    return json_body(payload)


#: The correlation-id header, inbound (honored) and outbound (echoed).
REQUEST_ID_HEADER = "x-request-id"

#: Characters a client-supplied request id may use; anything else is
#: discarded and a fresh id is minted (log-injection hygiene: the id
#: lands verbatim in JSONL access logs and trace attributes).
_REQUEST_ID_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def valid_request_id(value: str | None) -> bool:
    """Whether an inbound ``X-Request-Id`` is safe to adopt."""
    if not value or len(value) > 64:
        return False
    return all(ch in _REQUEST_ID_OK for ch in value)


def retry_after_header(seconds: float | None) -> tuple[str, str]:
    """A ``Retry-After`` header from a (possibly sub-second) hint.

    The header's delta-seconds form is a non-negative integer, so
    sub-second hints round *up* — advertising 0 would invite an
    immediate retry into the same overload.
    """
    if seconds is None or seconds <= 0:
        value = 1
    else:
        value = int(seconds) + (1 if seconds != int(seconds) else 0)
    return ("Retry-After", str(max(1, value)))
