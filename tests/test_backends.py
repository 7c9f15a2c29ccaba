"""Backend protocol: wire format, retries, stop sequences, and the mock translator."""

from __future__ import annotations

import base64
import contextlib
import http.client
import json
import math
import random
import re
import socketserver
import threading
import time
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.backends import (
    _MAX_LINE,
    _MAX_READ,
    BackendError,
    GenerationRequest,
    HttpBackend,
    TaggingTranslator,
    TranslationRequest,
    _read_reply,
    apply_stop_sequences,
    run_requests,
)
from tests.conftest import StaticBackend
from tests.mock_server import (
    FAULTS,
    TLS_CERT,
    MockServer,
    ReversingTranslator,
    http_backend,
    scripted,
    send_reply,
)


@contextlib.contextmanager
def serving(handler):
    """Serve a raw-socket handler on a free local port for the duration of
    the block."""
    httpd = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    httpd.daemon_threads = True
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def generate(server, **backend_args) -> str:
    """One generate call of prompt "p" through an HttpBackend with no backoff."""
    with HttpBackend(base_url=server.url, retry_base_delay=0.0, **backend_args) as backend:
        return backend.generate(GenerationRequest(prompt="p", max_tokens=4))


def one_reply_per_connection(server, handler, payload):
    # As a server whose keep-alive timeout ran out: the reply does not say
    # Connection: close, but the connection is closed.
    server.answer(handler, payload)
    handler.close_connection = True
    return True


class TestWireFormat:
    def test_generate_request_and_response(self):
        # The reply comes back raw: only run_requests cuts it at a stop sequence.
        with MockServer(intercept=scripted((200, {"text": " Lyon\nPassage: next"}))) as server:
            with HttpBackend(base_url=server.url, token="sekrit", retry_base_delay=0.0) as backend:
                resp = backend.generate(
                    GenerationRequest(
                        prompt="PROMPT", max_tokens=64, stop_sequences=("\nPassage:",)
                    )
                )
        sent = server.requests[0]
        assert sent["path"] == "/v1/generate"
        assert sent["body"] == {
            "prompt": "PROMPT",
            "max_tokens": 64,
            "temperature": 0,
            "stop": ["\nPassage:"],
        }
        assert sent["headers"]["Authorization"] == "Bearer sekrit"
        assert resp == " Lyon\nPassage: next"

    def test_translate_request(self):
        with MockServer(intercept=scripted((200, {"text": "maison"}))) as server:
            with HttpBackend(base_url=server.url, retry_base_delay=0.0) as backend:
                resp = backend.translate(TranslationRequest(text="house", source="en", target="fr"))
        sent = server.requests[0]
        assert sent["path"] == "/v1/translate"
        assert sent["body"] == {"text": "house", "source": "en", "target": "fr"}
        assert "Authorization" not in sent["headers"]
        assert resp == "maison"

    def test_env_url_pickup(self, monkeypatch):
        with MockServer(intercept=scripted((200, {"text": "ok"}))) as server:
            monkeypatch.setenv("QAM_BACKEND_URL", server.url)
            with HttpBackend(retry_base_delay=0.0) as backend:
                assert backend.generate(GenerationRequest(prompt="p", max_tokens=4)) == "ok"

    def test_missing_url_fails_fast(self, monkeypatch):
        monkeypatch.delenv("QAM_BACKEND_URL", raising=False)
        with pytest.raises(ValueError, match="QAM_BACKEND_URL"):
            HttpBackend()

    @pytest.mark.parametrize(
        "url",
        ["localhost:8080", "ftp://x/y", "http://", "http://host:port",
         "http://user:pw@host", "http://host/v?x=1", "http://host/a b"],
    )
    @pytest.mark.parametrize("source", ["argument", "environment"])
    def test_malformed_url_fails_fast(self, monkeypatch, url, source):
        monkeypatch.setenv("QAM_BACKEND_URL", url)
        with pytest.raises(ValueError, match="backend URL must have the form"):
            HttpBackend(base_url=url if source == "argument" else None)

    @pytest.mark.parametrize("token", ["a\r\nX-Injected: 1", "two words", "t\u00e4"])
    def test_token_that_cannot_be_a_header_value_fails_fast(self, token):
        with pytest.raises(ValueError, match="token must be printable ASCII"):
            HttpBackend(base_url="http://127.0.0.1:9", token=token)

    @pytest.mark.parametrize("parallelism", [0, True, "2"])
    def test_rejects_bad_parallelism(self, parallelism):
        with pytest.raises(ValueError, match="parallelism must be an integer >= 1"):
            HttpBackend(base_url="http://127.0.0.1:9", parallelism=parallelism)

    @pytest.mark.parametrize("timeout", [-1, 0, math.nan, math.inf, "5", True])
    def test_rejects_bad_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
            HttpBackend(base_url="http://127.0.0.1:9", timeout=timeout)


class TestRetries:
    def test_5xx_then_success(self):
        with MockServer(intercept=scripted((500, {}), (503, {}), (200, {"text": "third"}))) as server:
            assert generate(server) == "third"
        assert len(server.requests) == 3

    def test_5xx_exhausts_after_three(self):
        with MockServer(intercept=scripted(*[(500, {})] * 5)) as server:
            with pytest.raises(BackendError):
                generate(server)
        assert len(server.requests) == 3

    def test_4xx_is_not_retried(self):
        with MockServer(intercept=scripted((403, {}))) as server:
            with pytest.raises(BackendError):
                generate(server)
        assert len(server.requests) == 1

    def test_malformed_json_is_not_retried(self):
        with MockServer(intercept=scripted((200, b"not json"))) as server:
            with pytest.raises(BackendError, match="malformed"):
                generate(server)
        assert len(server.requests) == 1

    def test_missing_text_field_rejected(self):
        with MockServer(intercept=scripted((200, {"output": "x"}))) as server:
            with pytest.raises(BackendError, match="text"):
                generate(server)

    def test_429_with_retry_after_is_retried(self):
        with MockServer(intercept=scripted(
            (429, {}, [("Retry-After", "0")]), (200, {"text": "second"})
        )) as server:
            assert generate(server) == "second"
        assert len(server.requests) == 2

    def test_non_ascii_digit_retry_after_falls_back_to_backoff(self):
        # http.client decodes the header as latin-1, so "²" arrives as a
        # str for which isdigit() is true but float() fails.
        with MockServer(intercept=scripted(
            (429, {}, [("Retry-After", "\u00b2")]), (200, {"text": "second"})
        )) as server:
            assert generate(server) == "second"
        assert len(server.requests) == 2

    def test_429_exhausts_after_three(self):
        with MockServer(intercept=scripted(*[(429, {})] * 5)) as server:
            with pytest.raises(BackendError, match="429"):
                generate(server)
        assert len(server.requests) == 3

    def test_retry_after_is_capped_at_timeout(self):
        with MockServer(intercept=scripted(
            (429, {}, [("Retry-After", "3600")]), (200, {"text": "ok"})
        )) as server:
            start = time.monotonic()
            assert generate(server, timeout=0.05) == "ok"
            assert time.monotonic() - start < 5

    def test_backoff_jitter_leaves_global_random_alone(self):
        with MockServer(intercept=scripted((500, {}), (503, {}), (200, {"text": "ok"}))) as server:
            with HttpBackend(base_url=server.url, retry_base_delay=0.001) as backend:
                random.seed(1234)
                state = random.getstate()
                assert backend.generate(GenerationRequest(prompt="p", max_tokens=4)) == "ok"
                assert random.getstate() == state

    def test_transport_failure_retried_then_raised(self):
        # nothing listens on this port
        backend = HttpBackend(base_url="http://127.0.0.1:9", retry_base_delay=0.0)
        with pytest.raises(BackendError, match="^transport failure"):
            backend.generate(GenerationRequest(prompt="p", max_tokens=4))


# The start of the BackendError each scheduled fault leaves when a request's
# attempts run out.
FAULT_ERRORS = {
    "503": "server error 503 from /v1/translate",
    "429": "rate limited (status 429) by /v1/translate",
    "close": "transport failure: connection closed without a reply",
    "cut": "transport failure: connection closed with ",
}


def retry_model(server, body: bytes):
    """(the error prefix, or None for the reply; the number of arrivals) for
    one request under the documented rules: up to 3 counted attempts, and
    one free resend per attempt when the connection closes before the
    status line."""
    arrivals = attempts = 0
    resent = False
    while True:
        arrivals += 1
        fault = server.fault(body, arrivals)
        if fault in (None, "close-after-reply", "chunked"):
            return None, arrivals
        if fault == "close" and not resent:
            resent = True
            continue
        attempts += 1
        resent = False
        if attempts == 3:
            return FAULT_ERRORS[fault], arrivals


class TestRetryRules:
    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_a_fault_schedule_gets_the_replies_and_sends_the_model_predicts(self, parallelism):
        texts = [f"text {i}" for i in range(60)]
        reqs = [TranslationRequest(text=t, source="en", target="fi") for t in texts]
        bodies = [json.dumps({"text": t, "source": "en", "target": "fi"}).encode() for t in texts]
        drawn, outcomes = set(), set()
        for seed in range(10):
            with MockServer(translator=ReversingTranslator(), faults=seed) as server:
                with HttpBackend(base_url=server.url, parallelism=parallelism, timeout=5,
                                 retry_base_delay=0.0) as backend:
                    results = run_requests(backend, reqs)
            expected = [retry_model(server, body) for body in bodies]
            for text, result, (error, _) in zip(texts, results, expected):
                if error is None:
                    assert result == text[::-1], (seed, text)
                else:
                    assert isinstance(result, BackendError), (seed, text)
                    assert str(result).startswith(error), (seed, text, result)
                outcomes.add(error)
            assert server.seen == {t: n for t, (_, n) in zip(texts, expected)}
            assert server.peak_inflight <= parallelism
            drawn |= {server.fault(body, k) for body, (_, n) in zip(bodies, expected)
                      for k in range(1, n + 1)}
        # Every fault was served, and both replies and errors came back.
        assert drawn == {None, *FAULTS}
        assert None in outcomes and len(outcomes) >= 3


class TestTLS:
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_replies_over_tls(self, monkeypatch, parallelism):
        for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("SSL_CERT_FILE", TLS_CERT)
        # Replies of up to 41 KB span several TLS records.
        texts = [f"t{i} " + "x" * (700 * i) for i in range(60)]
        reqs = [TranslationRequest(text=t, source="en", target="fi") for t in texts]
        with MockServer(translator=ReversingTranslator(), tls=True) as server:
            assert server.url.startswith("https://")
            with HttpBackend(base_url=server.url, parallelism=parallelism, timeout=5) as backend:
                results = run_requests(backend, reqs)
        assert results == [t[::-1] for t in texts]
        assert server.peak_inflight <= parallelism


@pytest.fixture
def keepalive_url():
    """A server that keeps every client connection open, and translates by
    reversing the text."""
    with MockServer(translator=ReversingTranslator()) as server:
        yield server.url


class TestClose:
    def test_close_closes_every_thread_session(self, keepalive_url, recorded_connections):
        # Fan-outs from two threads; close() closes what both opened.
        backend = HttpBackend(base_url=keepalive_url, parallelism=3)
        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(6)]
        results = []
        worker = threading.Thread(target=lambda: results.append(run_requests(backend, reqs)))
        worker.start()
        results.append(run_requests(backend, reqs))
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert results == [[req.text[::-1] for req in reqs]] * 2
        assert len(recorded_connections) >= 2
        assert not all(c.closed for c in recorded_connections)
        backend.close()
        assert all(c.closed for c in recorded_connections)

    def test_use_after_close_opens_a_tracked_session(self, keepalive_url, recorded_connections):
        backend = HttpBackend(base_url=keepalive_url)
        request = TranslationRequest(text="a", source="en", target="fi")
        backend.translate(request)
        backend.close()
        backend.translate(request)
        assert [c.closed for c in recorded_connections] == [True, False]
        backend.close()
        assert recorded_connections[1].closed

    def test_with_block_closes(self, keepalive_url, recorded_connections):
        with HttpBackend(base_url=keepalive_url) as backend:
            backend.translate(TranslationRequest(text="a", source="en", target="fi"))
            assert not recorded_connections[0].closed
        assert len(recorded_connections) == 1 and recorded_connections[0].closed


class TestConnections:
    def test_fan_outs_share_the_idle_connections(self):
        # Each reply waits a little, so a fan-out has every lane busy at once.
        def wait(server, handler, payload):
            time.sleep(0.02)

        with MockServer(translator=ReversingTranslator(), intercept=wait) as server:
            with HttpBackend(base_url=server.url, parallelism=2) as backend:
                for stage in range(3):
                    reqs = [
                        TranslationRequest(text=f"s{stage} t{i}", source="en", target="fi")
                        for i in range(4)
                    ]
                    results = run_requests(backend, reqs)
                    assert results == [req.text[::-1] for req in reqs]
                assert server.accepted == 2
                assert server.open == 2
            deadline = time.monotonic() + 5
            while server.open and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.open == 0

    def test_close_closes_every_connection_and_a_later_fan_out_opens_new_ones(
        self, recorded_connections
    ):
        # The fan-out runs on the calling thread: the client starts none.
        reqs = [GenerationRequest(prompt=f"[fi] p{i}", max_tokens=8) for i in range(3)]
        with http_backend(2) as (backend, server):
            for round_ in range(2):
                before = set(threading.enumerate())
                results = run_requests(backend, reqs)
                assert all(isinstance(r, str) for r in results)
                started = set(threading.enumerate()) - before
                assert all("process_request" in t.name for t in started)  # the server's
                assert len(recorded_connections) == 2 * (round_ + 1)
                assert not any(c.closed for c in recorded_connections[-2:])
                backend.close()
                assert all(c.closed for c in recorded_connections)

    def test_threads_calling_at_once_each_get_their_own_connections(self):
        # Four requests meet at the server: two threads fan out at
        # parallelism 2 at the same time, each over its own two connections.
        barrier = threading.Barrier(4, timeout=5)

        def wait(server, handler, payload):
            barrier.wait()

        texts = [[f"a{i}" for i in range(4)], [f"b{i}" for i in range(4)]]
        results = {}
        with http_backend(2, translator=ReversingTranslator(), intercept=wait) as (
            backend, server
        ):
            def fan_out(batch):
                reqs = [TranslationRequest(text=t, source="en", target="fi") for t in batch]
                results[batch[0]] = run_requests(backend, reqs)

            worker = threading.Thread(target=fan_out, args=(texts[1],))
            worker.start()
            fan_out(texts[0])
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert len(backend._idle) == 4
        assert results == {batch[0]: [t[::-1] for t in batch] for batch in texts}
        assert server.peak_inflight == 4


class TestMultiplexing:
    """One loop on the calling thread serves every connection: a request
    that waits or fails holds up none of the others."""

    @pytest.mark.parametrize(
        "status, base_delay", [(503, 1.0), (429, 0.0)], ids=["503-backoff", "429-retry-after"]
    )
    def test_a_backoff_does_not_stall_the_other_connection(self, status, base_delay):
        # "slow" first gets a 503 (a backoff of 0.5-1.5 s) or a 429 with
        # Retry-After: 1. Eight 20 ms requests fit in that wait, and the
        # waiting request keeps its slot, so they go one at a time.
        log = []  # (text, arrival time, requests in flight then)
        backoff_from = []

        def script(server, handler, payload):
            log.append((payload["text"], time.monotonic(), server.inflight))
            if payload["text"] == "slow" and server.seen["slow"] == 1:
                send_reply(handler, status, {}, [("Retry-After", "1")])
                backoff_from.append(time.monotonic())
                return True
            time.sleep(0.02)

        texts = ["slow"] + [f"t{i}" for i in range(8)]
        reqs = [TranslationRequest(text=t, source="en", target="fi") for t in texts]
        with MockServer(translator=ReversingTranslator(), intercept=script) as server:
            with HttpBackend(base_url=server.url, parallelism=2,
                             retry_base_delay=base_delay) as backend:
                results = run_requests(backend, reqs)
        assert results == [t[::-1] for t in texts]
        _, retried = [at for text, at, _ in log if text == "slow"]
        assert all(at < retried for text, at, _ in log if text != "slow")
        # Well inside the wait, only one request is in flight at a time.
        inside = [n for text, at, n in log if backoff_from[0] + 0.05 < at < retried]
        assert inside and set(inside) == {1}
        assert server.peak_inflight <= 2

    def test_a_reply_that_never_starts_times_out_alone(self):
        def hang(server, handler, payload):
            if payload["text"] == "stuck":
                server.release.wait(10)
                handler.close_connection = True
                return True

        texts = ["stuck"] + [f"t{i}" for i in range(8)]
        reqs = [TranslationRequest(text=t, source="en", target="fi") for t in texts]
        with MockServer(translator=ReversingTranslator(), intercept=hang) as server:
            with HttpBackend(base_url=server.url, parallelism=2, timeout=0.3,
                             retry_base_delay=0.0) as backend:
                start = time.monotonic()
                results = run_requests(backend, reqs)
                elapsed = time.monotonic() - start
        assert isinstance(results[0], BackendError)
        assert str(results[0]) == "transport failure: timed out"
        assert results[1:] == [t[::-1] for t in texts[1:]]
        assert server.seen["stuck"] == 3
        assert 0.9 <= elapsed < 3

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_every_request_to_a_closed_port_fails_in_transport(self, parallelism):
        # Each request in turn uses up its attempts while no connection is
        # open; the fan-out still sends every one.
        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(5)]
        with HttpBackend(base_url="http://127.0.0.1:9", parallelism=parallelism,
                         retry_base_delay=0.001) as backend:
            results = run_requests(backend, reqs)
        assert all(isinstance(r, BackendError) for r in results)
        assert all(str(r).startswith("transport failure: ") for r in results)

    def test_a_stale_keep_alive_connection_is_resent_once(self):
        texts = [f"t{i}" for i in range(8)]
        reqs = [TranslationRequest(text=t, source="en", target="fi") for t in texts]
        with MockServer(translator=ReversingTranslator(),
                        intercept=one_reply_per_connection) as server:
            with HttpBackend(base_url=server.url, parallelism=2,
                             retry_base_delay=5.0) as backend:
                start = time.monotonic()
                results = run_requests(backend, reqs)
                elapsed = time.monotonic() - start
        assert results == [t[::-1] for t in texts]
        assert server.seen == {t: 1 for t in texts}
        assert elapsed < 2  # one backoff would sleep 2.5 s or more


class TestTransport:
    @pytest.fixture(autouse=True)
    def no_proxy_settings(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_dropped_keepalive_is_resent_without_backoff(self):
        with MockServer(translator=ReversingTranslator(),
                        intercept=one_reply_per_connection) as server:
            start = time.monotonic()
            with HttpBackend(base_url=server.url, retry_base_delay=60.0) as backend:
                texts = [
                    backend.translate(TranslationRequest(text=f"t{i}", source="en", target="fi"))
                    for i in range(5)
                ]
            elapsed = time.monotonic() - start
        assert texts == [f"{i}t" for i in range(5)]
        assert len(server.requests) == 5
        assert elapsed < 10  # one backoff would sleep 30 s or more

    def test_path_prefix_is_kept(self):
        with MockServer(intercept=scripted((200, {"text": "ok"}))) as server:
            with HttpBackend(base_url=f"{server.url}/api/", retry_base_delay=0.0) as backend:
                backend.generate(GenerationRequest(prompt="p", max_tokens=4))
        assert server.requests[0]["path"] == "/api/v1/generate"

    def test_http_proxy_gets_absolute_uri(self, monkeypatch):
        with MockServer(intercept=scripted((200, {"text": "via proxy"}))) as proxy:
            monkeypatch.setenv("http_proxy", proxy.url.replace("http://", "http://me:p%40ss@"))
            with HttpBackend(
                base_url="http://backend.invalid:8080/api", retry_base_delay=0.0
            ) as backend:
                resp = backend.generate(GenerationRequest(prompt="p", max_tokens=4))
        assert resp == "via proxy"
        (seen,) = proxy.requests
        assert seen["path"] == "http://backend.invalid:8080/api/v1/generate"
        assert seen["headers"]["Host"] == "backend.invalid:8080"
        assert seen["headers"]["Proxy-Authorization"] == (
            "Basic " + base64.b64encode(b"me:p@ss").decode()
        )

    def test_https_proxy_tunnels(self, monkeypatch):
        with MockServer() as proxy:
            monkeypatch.setenv("https_proxy", proxy.url[len("http://"):])
            with HttpBackend(base_url="https://backend.invalid", retry_base_delay=0.0) as backend:
                with pytest.raises(BackendError, match="transport failure"):
                    backend.generate(GenerationRequest(prompt="p", max_tokens=4))
        assert proxy.requests
        assert {r["path"] for r in proxy.requests} == {"backend.invalid:443"}

    @pytest.mark.parametrize(
        "status_line", [b"SSH-2.0-OpenSSH_9.6", b"HTTP/1.1 200 " + b"x" * 70000],
        ids=["not-http", "line-over-65536"],
    )
    def test_malformed_tunnel_reply_is_a_transport_failure(self, monkeypatch, status_line):
        # http.client reads the proxy's reply to CONNECT and raises its own
        # HTTPException types for a bad one; they must not escape as faults.
        class GarbageProxy(socketserver.StreamRequestHandler):
            def handle(self):
                while self.rfile.readline() not in (b"\r\n", b""):
                    pass
                self.wfile.write(status_line + b"\r\n\r\n")

        with serving(GarbageProxy) as proxy:
            monkeypatch.setenv("https_proxy", f"127.0.0.1:{proxy.server_address[1]}")
            with HttpBackend(base_url="https://backend.invalid", timeout=5,
                             retry_base_delay=0.0) as backend:
                with pytest.raises(BackendError, match="^transport failure: bad reply"):
                    backend.generate(GenerationRequest(prompt="p", max_tokens=4))

    def test_no_proxy_host_bypasses_proxy(self, monkeypatch):
        with MockServer(intercept=scripted((200, {"text": "direct"}))) as server, \
                MockServer() as proxy:
            monkeypatch.setenv("http_proxy", proxy.url)
            monkeypatch.setenv("no_proxy", "example.org,127.0.0.1")
            with HttpBackend(base_url=server.url, retry_base_delay=0.0) as backend:
                resp = backend.generate(GenerationRequest(prompt="p", max_tokens=4))
        assert resp == "direct"
        assert proxy.requests == []
        assert server.requests[0]["path"] == "/v1/generate"

    def test_https_url_builds_tls_connection_lazily(self):
        with HttpBackend(base_url="https://backend.invalid/api") as backend:
            conn = backend._new_connection()
            assert isinstance(conn, http.client.HTTPSConnection)
            assert (conn.host, conn.port, conn.sock) == ("backend.invalid", 443, None)


class ScriptedWire(socketserver.StreamRequestHandler):
    """Reads each request off the wire, records its head, and writes the next
    scripted (raw reply, close) pair; after a reply with close set it closes
    the connection. The last pair answers every request after it."""

    script = []
    heads = []
    connections = 0

    def handle(self):
        type(self).connections += 1
        while True:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = self.rfile.readline()
                if not line:
                    return
                head += line
            self.rfile.read(int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head)[1]))
            type(self).heads.append(head)
            script = type(self).script
            raw, close = script.pop(0) if len(script) > 1 else script[0]
            self.wfile.write(raw)
            if close:
                return


def reply(text: str, *headers: bytes) -> bytes:
    """A 200 reply carrying {"text": text}, framed by Content-Length unless
    the extra header lines frame it otherwise."""
    body = json.dumps({"text": text}).encode()
    if not any(h.lower().startswith(b"transfer-encoding") for h in headers):
        headers += (b"Content-Length: %d" % len(body),)
    else:
        body = b"%x;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n" % (
            5, body[:5], len(body) - 5, body[5:])
    return b"HTTP/1.1 200 OK\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body


@pytest.fixture
def wire():
    """A scripted server speaking raw bytes; yields its URL and handler class."""
    ScriptedWire.script = []
    ScriptedWire.heads = []
    ScriptedWire.connections = 0
    with serving(ScriptedWire) as server:
        yield f"http://127.0.0.1:{server.server_address[1]}", ScriptedWire


def translate_twice(url: str) -> list:
    with HttpBackend(base_url=url, timeout=5, retry_base_delay=0.0) as backend:
        return [
            backend.translate(TranslationRequest(text=t, source="en", target="fi"))
            for t in ("a", "b")
        ]


class TestWireExchange:
    def test_chunked_reply_keeps_the_connection(self, wire):
        url, handler = wire
        handler.script = [(reply("first", b"Transfer-Encoding: chunked"), False),
                          (reply("second"), False)]
        assert translate_twice(url) == ["first", "second"]
        assert handler.connections == 1

    def test_connection_close_is_closed_and_reopened(self, wire, recorded_connections):
        url, handler = wire
        handler.script = [(reply("first", b"Connection: close"), True),
                          (reply("second"), False)]
        with HttpBackend(base_url=url, timeout=5, retry_base_delay=0.0) as backend:
            request = TranslationRequest(text="a", source="en", target="fi")
            assert backend.translate(request) == "first"
            assert recorded_connections[0].closed
            assert backend.translate(request) == "second"
        assert handler.connections == 2

    def test_http_1_0_reply_is_read_to_eof(self, wire):
        url, handler = wire
        body = json.dumps({"text": "to eof"}).encode()
        handler.script = [(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + body, True),
                          (reply("second"), False)]
        assert translate_twice(url) == ["to eof", "second"]
        assert handler.connections == 2

    def test_100_continue_is_skipped(self, wire):
        url, handler = wire
        handler.script = [(b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" + reply("final"), False)]
        assert translate_twice(url) == ["final", "final"]
        assert handler.connections == 1

    def test_request_head_on_the_wire(self, wire):
        url, handler = wire
        handler.script = [(reply("ok"), False)]
        with HttpBackend(base_url=url, token="sekrit", timeout=5) as backend:
            backend.generate(GenerationRequest(prompt="pä", max_tokens=4))
        body = json.dumps(
            {"prompt": "pä", "max_tokens": 4, "temperature": 0, "stop": []}
        ).encode()
        assert handler.heads == [
            b"POST /v1/generate HTTP/1.1\r\n"
            b"Host: " + url[len("http://"):].encode() + b"\r\n"
            b"Accept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\n"
            b"Authorization: Bearer sekrit\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ]

    def test_request_head_through_an_http_proxy(self, wire, monkeypatch):
        url, handler = wire
        handler.script = [(reply("ok"), False)]
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", url.replace("http://", "http://me:pw@"))
        with HttpBackend(base_url="http://backend.invalid:8080/api", timeout=5) as backend:
            backend.translate(TranslationRequest(text="a", source="en", target="fi"))
        body = json.dumps({"text": "a", "source": "en", "target": "fi"}).encode()
        assert handler.heads == [
            b"POST http://backend.invalid:8080/api/v1/translate HTTP/1.1\r\n"
            b"Host: backend.invalid:8080\r\n"
            b"Accept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\n"
            b"Proxy-Authorization: Basic " + base64.b64encode(b"me:pw") + b"\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ]

    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: 12x\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x2\r\n{}\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"text\": \"short\"}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000000\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\n" + b"X-Filler: 1\r\n" * 101 + b"Content-Length: 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\nContent-Length: 2\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Len",
            b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
            b"HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\n{}",
            b"",
        ],
        ids=["content-length-not-a-number", "content-length-negative",
             "chunk-size-not-hex", "chunk-size-0x", "chunk-truncated", "body-truncated",
             "content-length-beyond-memory",
             "101-headers", "line-over-65536", "head-truncated", "not-http",
             "four-digit-status", "no-reply"],
    )
    def test_framing_fault_is_a_retryable_backend_error(self, wire, raw):
        url, handler = wire
        handler.script = [(raw, True)]
        with HttpBackend(base_url=url, timeout=5, retry_base_delay=0.0) as backend:
            with pytest.raises(BackendError, match="^transport failure"):
                backend.translate(TranslationRequest(text="a", source="en", target="fi"))
        assert len(handler.heads) >= 3  # every attempt was made

    def test_100_headers_are_accepted(self, wire):
        url, handler = wire
        body = json.dumps({"text": "ok"}).encode()
        handler.script = [(b"HTTP/1.1 200 OK\r\n" + b"X-Filler: 1\r\n" * 99
                           + b"Content-Length: %d\r\n\r\n" % len(body) + body, False)]
        assert translate_twice(url) == ["ok", "ok"]

    def test_bytes_past_a_keep_alive_reply_are_dropped(self, wire):
        # One write carries the reply and a whole second one; the next call
        # on the connection must get its own reply, not the stray one.
        url, handler = wire
        handler.script = [(reply("first") + reply("stray"), False), (reply("second"), False)]
        assert translate_twice(url) == ["first", "second"]
        assert handler.connections == 1


class ScriptedSocket:
    """Stands in for a socket: recv(n) returns the next scripted piece (at
    most n bytes of it), then b"" for the end of the stream."""

    def __init__(self, pieces):
        self.pieces = [piece for piece in pieces if piece]

    def recv(self, n: int) -> bytes:
        assert 0 < n <= _MAX_READ
        if not self.pieces:
            return b""
        piece = self.pieces.pop(0)
        if len(piece) > n:
            self.pieces.insert(0, piece[n:])
            piece = piece[:n]
        return piece


class EndlessSocket:
    """recv returns prefix, then repeats filler. A reader that never stops
    asking gets the end of the stream after 16 MiB, so it fails instead of
    filling memory."""

    def __init__(self, prefix: bytes, filler: bytes):
        self.pending = prefix
        self.filler = filler
        self.received = 0

    def recv(self, n: int) -> bytes:
        if self.received >= 1 << 24:
            return b""
        while len(self.pending) < n:
            self.pending += self.filler * (n // len(self.filler) + 1)
        piece, self.pending = self.pending[:n], self.pending[n:]
        self.received += n
        return piece


# Each reply shape, and what _read_reply makes of it:
# (status, Retry-After, body, keep_alive).
REPLY_SHAPES = {
    "content-length": (
        reply("cl", b"Retry-After: 5") + b"HTTP/1.1 200 OK\r\n\r\njunk",
        (200, b"5", b'{"text": "cl"}', True),
    ),
    "chunked-extension-trailer": (
        reply("chunked", b"Transfer-Encoding: chunked") + b"junk",
        (200, None, b'{"text": "chunked"}', True),
    ),
    "100-continue": (
        b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n" + reply("final", b"Connection: close"),
        (200, None, b'{"text": "final"}', False),
    ),
    "lf-only": (
        b"HTTP/1.1 503 Busy\nRetry-After:  7 \nContent-Length: 2\n\n{}junk",
        (503, b"7", b"{}", True),
    ),
    "http-1.0-to-eof": (
        b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{\"text\": \"eof\"}",
        (200, None, b'{"text": "eof"}', False),
    ),
    "http-1.0-with-length": (
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}junk",
        (200, None, b"{}", False),
    ),
    "100-headers": (
        b"HTTP/1.1 200 OK\r\n" + b"X-Filler: 1\r\n" * 99 + b"Content-Length: 2\r\n\r\n{}",
        (200, None, b"{}", True),
    ),
    "204": (
        b"HTTP/1.1 204 No Content\r\nContent-Length: 9\r\n\r\njunk",
        (204, None, b"", True),
    ),
}


class TestReadReply:
    @pytest.mark.parametrize("shape", sorted(REPLY_SHAPES))
    def test_every_split_point_reads_the_same_reply(self, shape):
        raw, expected = REPLY_SHAPES[shape]
        assert _read_reply(ScriptedSocket([raw])) == expected
        for cut in range(1, len(raw)):
            assert _read_reply(ScriptedSocket([raw[:cut], raw[cut:]])) == expected, cut
        assert _read_reply(ScriptedSocket([raw[i : i + 1] for i in range(len(raw))])) == expected

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_partition_reads_the_same_reply(self, data):
        shape = data.draw(st.sampled_from(sorted(REPLY_SHAPES)))
        raw, expected = REPLY_SHAPES[shape]
        cuts = sorted(data.draw(st.sets(st.integers(1, len(raw) - 1), max_size=12)))
        bounds = [0, *cuts, len(raw)]
        pieces = [raw[start:end] for start, end in zip(bounds, bounds[1:])]
        assert _read_reply(ScriptedSocket(pieces)) == expected

    @pytest.mark.parametrize(
        "prefix",
        [b"", b"HTTP/1.1 200 OK\r\nX-Long: ",
         b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n"],
        ids=["status-line", "header-line", "chunk-size-line"],
    )
    def test_a_line_that_never_ends_is_refused(self, prefix):
        sock = EndlessSocket(prefix, b"a")
        with pytest.raises(OSError, match="longer than 65536 bytes"):
            _read_reply(sock)
        assert sock.received <= len(prefix) + _MAX_LINE + _MAX_READ

    def test_chunk_data_longer_than_its_size_is_refused(self):
        raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabcd\r\n0\r\n\r\n"
        with pytest.raises(OSError, match="chunk data longer than its size"):
            _read_reply(ScriptedSocket([raw]))

    def test_a_head_that_never_ends_is_refused(self):
        sock = EndlessSocket(b"HTTP/1.1 200 OK\r\n", b"X-Filler: 1\r\n")
        with pytest.raises(OSError, match="more than 100 headers"):
            _read_reply(sock)
        assert sock.received <= _MAX_READ

    @pytest.mark.parametrize("raw", [b"", b"HTTP/1.1 100 Continue\r\n\r\n"],
                             ids=["nothing", "after-100-continue"])
    def test_no_reply_is_a_reset(self, raw):
        with pytest.raises(ConnectionResetError):
            _read_reply(ScriptedSocket([raw]))

    def test_a_reply_cut_inside_its_head_is_not_a_reset(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
        for cut in range(1, len(raw) + 1):
            with pytest.raises(OSError) as caught:
                _read_reply(ScriptedSocket([raw[:cut]]))
            assert not isinstance(caught.value, ConnectionResetError), cut


class TestReplyChecks:
    @pytest.mark.parametrize(
        "payload, kind",
        [(b'{"text": "\\ud800"}', "generate"), (b'{"text": "a\\udfff"}', "translate"),
         (b'{"text": ""}', "translate"), (b'{"text": " \\n\\t"}', "translate")],
        ids=["generate-lone-surrogate", "translate-lone-surrogate",
             "translate-empty", "translate-whitespace"],
    )
    def test_unusable_reply_is_a_final_backend_error(self, payload, kind):
        req = (GenerationRequest(prompt="p", max_tokens=4) if kind == "generate"
               else TranslationRequest(text="a", source="en", target="fi"))
        with MockServer(intercept=scripted((200, payload))) as server:
            with HttpBackend(base_url=server.url, retry_base_delay=0.0) as backend:
                (result,) = run_requests(backend, [req])
        assert isinstance(result, BackendError)
        assert len(server.requests) == 1

    def test_empty_generation_is_a_reply(self):
        with MockServer(intercept=scripted((200, {"text": ""}))) as server:
            with HttpBackend(base_url=server.url, retry_base_delay=0.0) as backend:
                results = run_requests(backend, [GenerationRequest(prompt="p", max_tokens=4)])
        assert results == [""]


class TestConcurrentClient:
    def test_every_reply_reaches_its_request(self):
        # More workers than cores and a short switch interval, so a
        # connection shared unsafely between threads would mix up or lose
        # replies.
        reqs = [
            TranslationRequest(text=f"text {i % 60}", source="en", target="fi")
            for i in range(120)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MockServer(translator=ReversingTranslator()) as server:
                with HttpBackend(base_url=server.url, timeout=10, parallelism=8) as backend:
                    results = run_requests(backend, reqs)
        finally:
            sys.setswitchinterval(old)
        assert results == [req.text[::-1] for req in reqs]


class TestRequestTypes:
    def test_max_tokens_must_be_positive(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", max_tokens=0)

    def test_translation_rejects_same_language(self):
        with pytest.raises(ValueError):
            TranslationRequest(text="x", source="fr", target="fr")

    def test_translation_rejects_empty_text(self):
        # Nothing listens on this port: the request is refused before a send.
        with HttpBackend(base_url="http://127.0.0.1:9", retry_base_delay=0.0) as backend:
            with pytest.raises(ValueError):
                backend.translate(TranslationRequest(text="", source="en", target="fr"))


class TestStopSequences:
    def test_earliest_stop_wins(self):
        assert apply_stop_sequences("abcXdefYghi", ("Y", "X")) == "abc"

    def test_no_stop_returns_input(self):
        assert apply_stop_sequences("abc", ("Z",)) == "abc"

    def test_empty_sequences_ignored(self):
        assert apply_stop_sequences("abc", ()) == "abc"


class TestTaggingTranslator:
    def test_tags_target(self):
        t = TaggingTranslator()
        out = t.translate(TranslationRequest(text="bonjour", source="fr", target="en"))
        assert out == "[en] bonjour"

    def test_round_trip_is_stable_prefixing(self):
        t = TaggingTranslator()
        once = t.translate(TranslationRequest(text="x", source="en", target="fi"))
        assert once == "[fi] x"


class TestStaticBackend:
    def test_replays_in_order(self):
        backend = StaticBackend(["first", "second"])
        req = GenerationRequest(prompt="p", max_tokens=4)
        assert backend.generate(req) == "first"
        assert backend.generate(req) == "second"

    def test_exhaustion_raises(self):
        backend = StaticBackend([])
        with pytest.raises(BackendError):
            backend.generate(GenerationRequest(prompt="p", max_tokens=4))
