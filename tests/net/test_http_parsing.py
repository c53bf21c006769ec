"""Pure HTTP wire handling: parsing, limits, keep-alive, formatting."""

import json

import pytest

from repro.net.http import (
    BadRequest,
    HTTPRequest,
    build_response,
    error_body,
    json_body,
    parse_request_head,
    parse_target,
    retry_after_header,
)


def head(text: str) -> bytes:
    return text.replace("\n", "\r\n").encode("ascii")


class TestRequestLine:
    def test_simple_get(self):
        request = parse_request_head(
            head("GET /suggest?q=tree+icdt&k=3 HTTP/1.1\nHost: x\n\n")
        )
        assert request.method == "GET"
        assert request.path == "/suggest"
        assert request.params == {"q": "tree icdt", "k": "3"}
        assert request.headers["host"] == "x"

    def test_percent_decoding(self):
        request = parse_request_head(
            head("GET /suggest?q=tree%20icdt HTTP/1.1\n\n")
        )
        assert request.params["q"] == "tree icdt"

    @pytest.mark.parametrize("line", [
        "GET /x",                      # missing version
        "GET  /x HTTP/1.1",            # empty part
        "get /x HTTP/1.1",             # lower-case method
        "BREW /x HTTP/1.1",            # unknown method
        "GET /x HTTP/2.0",             # unsupported version
        "",                            # empty request line
        "GET //[x HTTP/1.1",           # urlsplit: invalid IPv6 netloc
    ])
    def test_malformed_request_lines(self, line):
        with pytest.raises(BadRequest) as excinfo:
            parse_request_head(head(f"{line}\nHost: x\n\n"))
        assert excinfo.value.status == 400

    def test_non_ascii_head(self):
        with pytest.raises(BadRequest):
            parse_request_head("GET /ä HTTP/1.1\r\n\r\n".encode("utf-8"))

    def test_non_origin_form_target(self):
        with pytest.raises(BadRequest):
            parse_target("http://evil.example/proxy")


class TestHeaders:
    def test_names_lowercased_values_stripped(self):
        request = parse_request_head(
            head("GET / HTTP/1.1\nContent-Type:  application/json \n\n")
        )
        assert request.headers["content-type"] == "application/json"

    def test_header_without_colon(self):
        with pytest.raises(BadRequest):
            parse_request_head(head("GET / HTTP/1.1\nBogusHeader\n\n"))

    def test_obs_fold_rejected(self):
        with pytest.raises(BadRequest):
            parse_request_head(
                head("GET / HTTP/1.1\nA: one\n  two\n\n")
            )

    def test_space_before_colon_rejected(self):
        with pytest.raises(BadRequest):
            parse_request_head(head("GET / HTTP/1.1\nA : one\n\n"))


class TestKeepAlive:
    def test_http11_default_keep_alive(self):
        request = parse_request_head(head("GET / HTTP/1.1\n\n"))
        assert request.keep_alive

    def test_http11_connection_close(self):
        request = parse_request_head(
            head("GET / HTTP/1.1\nConnection: close\n\n")
        )
        assert not request.keep_alive

    def test_http10_default_close(self):
        request = parse_request_head(head("GET / HTTP/1.0\n\n"))
        assert not request.keep_alive

    def test_http10_explicit_keep_alive(self):
        request = parse_request_head(
            head("GET / HTTP/1.0\nConnection: Keep-Alive\n\n")
        )
        assert request.keep_alive


class TestBody:
    def make(self, **headers) -> HTTPRequest:
        return HTTPRequest(
            method="POST", target="/suggest", version="HTTP/1.1",
            headers=headers,
        )

    def test_no_body(self):
        assert self.make().content_length(100) == 0

    def test_declared_length(self):
        request = self.make(**{"content-length": "42"})
        assert request.content_length(100) == 42

    def test_oversized_body_is_413(self):
        request = self.make(**{"content-length": "101"})
        with pytest.raises(BadRequest) as excinfo:
            request.content_length(100)
        assert excinfo.value.status == 413

    @pytest.mark.parametrize(
        "raw", ["-1", "abc", "1.5", "1_5", "+15", "\u0661\u0665"]
    )
    def test_malformed_length_is_400(self, raw):
        request = self.make(**{"content-length": raw})
        with pytest.raises(BadRequest) as excinfo:
            request.content_length(100)
        assert excinfo.value.status == 400

    def test_chunked_is_411(self):
        request = self.make(**{"transfer-encoding": "chunked"})
        with pytest.raises(BadRequest) as excinfo:
            request.content_length(100)
        assert excinfo.value.status == 411

    def test_json_object(self):
        request = self.make()
        request.body = b'{"query": "tree"}'
        assert request.json() == {"query": "tree"}

    @pytest.mark.parametrize("body", [
        b"not json", b'"a string"', b"[1,2]", b"\xff\xfe",
        # RecursionError inside json.loads; past the int digit limit
        pytest.param(b"[" * 60_000, id="deep"),
        pytest.param(b"1" * 5_000, id="long-int"),
    ])
    def test_bad_json_bodies(self, body):
        request = self.make()
        request.body = body
        with pytest.raises(BadRequest):
            request.json()


class TestResponses:
    def test_canonical_json_is_deterministic(self):
        a = json_body({"b": 1, "a": [2, 3]})
        b = json_body({"a": [2, 3], "b": 1})
        assert a == b == b'{"a":[2,3],"b":1}'

    def test_build_response_framing(self):
        body = json_body({"ok": True})
        raw = build_response(200, body)
        head_bytes, _, got_body = raw.partition(b"\r\n\r\n")
        assert got_body == body
        lines = head_bytes.decode("ascii").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: keep-alive" in lines

    def test_build_response_close_and_extra_headers(self):
        raw = build_response(
            503, b"{}", keep_alive=False,
            extra_headers=(("Retry-After", "2"),),
        )
        text = raw.decode("ascii")
        assert "HTTP/1.1 503 Service Unavailable" in text
        assert "Connection: close" in text
        assert "Retry-After: 2" in text

    def test_error_body_shape(self):
        payload = json.loads(error_body(
            "overloaded", "shed", retry_after=0.05
        ))
        assert payload == {
            "error": "overloaded",
            "message": "shed",
            "retry_after": 0.05,
        }


class TestRetryAfterHeader:
    @pytest.mark.parametrize("seconds,expect", [
        (None, "1"),      # no hint: never advertise 0
        (0.0, "1"),
        (0.05, "1"),      # sub-second rounds up
        (1.0, "1"),
        (1.2, "2"),
        (3.0, "3"),
    ])
    def test_rounding(self, seconds, expect):
        name, value = retry_after_header(seconds)
        assert name == "Retry-After"
        assert value == expect
