"""A stdlib HTTP server that serves in-process backends over the wire
protocol, so tests can run HttpBackend against the mocks.

    with MockServer(noise_rate=0.5, seed=3) as server:
        with HttpBackend(base_url=server.url, parallelism=4) as backend:
            ...

POST /v1/generate answers with generator.generate, by default
promptkit.MockQABackend(noise_rate, seed), whose raw reply runs on past the
stop sequence for the client to cut; POST /v1/translate with
translator.translate, by default TaggingTranslator. A BackendError the
served backend raises becomes a 422 reply, which the client does not retry.

The server counts the requests it receives: `served` in all, `seen` per
prompt or text, and the peak number in flight at once. A request stops
being in flight just before its reply body is written, since the client
may send its next request as soon as it has read that body. `requests`
logs each request in arrival order as {"path", "body" (parsed), "headers"}.
reset() clears these. `accepted` and `open` count the connections the
server has accepted and those still open; reset() leaves them, since
connections outlive it.

`intercept(server, handler, payload)`, if given, sees each request first.
It returns True once it has dealt with the request itself, by replying with
`send_reply` or `server.answer`, or by sending nothing; otherwise the
request is answered as usual. `scripted(*replies)` makes one that answers
each request with the next reply, (status, payload[, headers]) as
send_reply takes them, and leaves the requests after the last to the usual
handling. `release` is set when the server stops, so an interceptor that
holds a request open can wait on it.

A CONNECT request is logged and answered 200, and then the connection is
closed: the server stands in for a forward proxy but opens no tunnel.

`faults=seed` serves a seeded fault schedule: `server.fault(body, arrival)`
names what the arrival-th request with that body gets, one of FAULTS, or
None for the usual handling. The draw is a hash of the seed, the body and
the arrival number, so whether a retry succeeds is fixed. About half the
arrivals get one of FAULTS, and those never reach the interceptor. One of
FAULTS, "chunked", is a good reply in chunked framing, its chunk sizes seeded
by the same hash. With `bounded=True` an arrival numbered
backends.MAX_ATTEMPTS or later never gets a fault, so every request gets its
reply by its last attempt.

`tls=True` serves over HTTPS with the self-signed certificate for
IP:127.0.0.1 in tests/tls, which `SSL_CERT_FILE=TLS_CERT` makes a client
trust. It was made, and is remade, with
    openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes -days 36500 -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1 -keyout tests/tls/key.pem -out tests/tls/cert.pem
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import ssl
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from qasynth import backends
from qasynth.backends import (
    BackendError,
    GenerationRequest,
    HttpBackend,
    TaggingTranslator,
    TranslationRequest,
)
from qasynth.promptkit import MockQABackend


TLS_CERT = str(Path(__file__).with_name("tls") / "cert.pem")
TLS_KEY = str(Path(__file__).with_name("tls") / "key.pem")

# What a scheduled fault does to a request: reply 503; reply 429 with
# Retry-After: 0; close before the status line; close inside a reply whose
# Content-Length promises more; reply as usual, with Connection: close;
# reply as usual, in chunked framing.
FAULTS = ("503", "429", "close", "cut", "close-after-reply", "chunked")


def send_reply(handler, status: int, payload, headers=(), cut: bool = False,
               chunks: random.Random = None) -> None:
    """Write one reply, framed by Content-Length, on the connection of a
    MockServer handler: payload as JSON, or as it is if it is bytes. With
    cut, write only half its body, and then close the connection. With
    chunks, frame it as chunked instead, in chunks of 1 to 32 bytes drawn
    from chunks, one write each. The request is done, no longer in flight,
    before the body is written."""
    raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    handler.send_response(status)
    for name, value in headers:
        handler.send_header(name, value)
    handler.send_header("Content-Type", "application/json")
    if chunks is None:
        handler.send_header("Content-Length", str(len(raw)))
    else:
        handler.send_header("Transfer-Encoding", "chunked")
    handler.end_headers()
    if cut:
        raw = raw[: len(raw) // 2]
        handler.close_connection = True
    handler.done()
    if chunks is None:
        handler.wfile.write(raw)
        return
    while raw:
        size = chunks.randint(1, 32)
        handler.wfile.write(b"%x\r\n%s\r\n" % (len(raw[:size]), raw[:size]))
        raw = raw[size:]
    handler.wfile.write(b"0\r\n\r\n")


def scripted(*replies):
    """An intercept that answers each request with the next of replies, each
    (status, payload[, headers]) as send_reply takes them; once they run
    out, requests get the usual handling."""
    queue = list(replies)

    def intercept(server, handler, payload) -> bool:
        with server.lock:
            if not queue:
                return False
            reply = queue.pop(0)
        send_reply(handler, *reply)
        return True

    return intercept


class _ThreadingServer(ThreadingHTTPServer):
    # A fault schedule makes a fan-out reconnect many times at once; with
    # socketserver's backlog of 5, a dropped connect waits a second to retry.
    request_queue_size = 64


class MockServer:
    def __init__(self, generator=None, translator=None, noise_rate=0.0, seed=0, intercept=None,
                 faults=None, bounded=False, tls=False):
        self.generator = generator or MockQABackend(noise_rate=noise_rate, seed=seed)
        self.translator = translator or TaggingTranslator()
        self.intercept = intercept
        self.faults = faults
        self.bounded = bounded
        self.lock = threading.Lock()
        self.release = threading.Event()
        self.accepted = self.open = 0
        self.reset()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Without this, small replies wait on delayed ACKs.
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with server.lock:
                    server.accepted += 1
                    server.open += 1

            def finish(self):
                with server.lock:
                    server.open -= 1
                super().finish()

            def do_POST(self):
                server._handle(self)

            def do_CONNECT(self):
                with server.lock:
                    server.requests.append(
                        {"path": self.path, "body": None, "headers": dict(self.headers)})
                self.send_response(200)
                self.end_headers()
                self.close_connection = True

            def log_message(self, *args):
                pass

        self._httpd = _ThreadingServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        # A client that hangs up before its reply is written is no failure here.
        self._httpd.handle_error = lambda request, address: None
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            # The handshake runs on the first read, in the request's own thread.
            self._httpd.socket = context.wrap_socket(
                self._httpd.socket, server_side=True, do_handshake_on_connect=False)
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://127.0.0.1:{self._httpd.server_port}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    def reset(self) -> None:
        with self.lock:
            self.served = 0
            self.seen = Counter()
            self.arrivals = Counter()  # per request body
            self.inflight = 0
            self.peak_inflight = 0
            self.requests = []

    def __enter__(self) -> "MockServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    def fault(self, body: bytes, arrival: int):
        """The scheduled fault for the arrival-th request (1-based) with this
        body: one of FAULTS, or None."""
        if self.faults is None or (self.bounded and arrival >= backends.MAX_ATTEMPTS):
            return None
        pick = self._draw(body, arrival)[0] % (2 * len(FAULTS))
        return FAULTS[pick] if pick < len(FAULTS) else None

    def _draw(self, body: bytes, arrival: int) -> bytes:
        return hashlib.sha256(b"%d|%d|%s" % (self.faults, arrival, body)).digest()

    def _handle(self, handler) -> None:
        body = handler.rfile.read(int(handler.headers["Content-Length"]))
        payload = json.loads(body)
        with self.lock:
            self.served += 1
            self.requests.append(
                {"path": handler.path, "body": payload, "headers": dict(handler.headers)})
            self.seen[payload.get("prompt", payload.get("text"))] += 1
            self.arrivals[body] += 1
            arrival = self.arrivals[body]
            fault = self.fault(body, arrival)
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)
        finished = []

        def done() -> None:
            # Once per request: send_reply calls it, and so does the finally
            # below for a request that got no reply.
            if not finished:
                finished.append(True)
                with self.lock:
                    self.inflight -= 1

        handler.done = done
        try:
            if fault == "503":
                send_reply(handler, 503, {})
            elif fault == "429":
                send_reply(handler, 429, {}, [("Retry-After", "0")])
            elif fault == "close":
                handler.close_connection = True
            elif fault == "cut":
                self.answer(handler, payload, cut=True)
            elif fault == "close-after-reply":
                self.answer(handler, payload, [("Connection", "close")])
            elif fault == "chunked":
                self.answer(handler, payload, chunks=random.Random(self._draw(body, arrival)))
            elif self.intercept is None or not self.intercept(self, handler, payload):
                self.answer(handler, payload)
        finally:
            done()

    def answer(self, handler, payload: dict, headers=(), cut: bool = False,
               chunks: random.Random = None) -> None:
        """Reply as the served backend does, with these extra headers; cut
        and chunks are as send_reply takes them."""
        try:
            if handler.path == "/v1/generate":
                text = self.generator.generate(GenerationRequest(
                    payload["prompt"], payload["max_tokens"], tuple(payload["stop"])))
            elif handler.path == "/v1/translate":
                text = self.translator.translate(TranslationRequest(
                    payload["text"], payload["source"], payload["target"]))
            else:
                send_reply(handler, 404, {"error": "not found"})
                return
        except BackendError as e:
            send_reply(handler, 422, {"error": str(e)})
        else:
            send_reply(handler, 200, {"text": text}, headers, cut, chunks)


@contextlib.contextmanager
def http_backend(parallelism: int, **server_args):
    """(backend, server): an HttpBackend at parallelism, with no backoff,
    against a MockServer(**server_args)."""
    with MockServer(**server_args) as server:
        with HttpBackend(base_url=server.url, parallelism=parallelism,
                         retry_base_delay=0.0) as backend:
            yield backend, server


def raise_on_reply(monkeypatch, needle: bytes) -> None:
    """Make HttpBackend raise RuntimeError("boom") once it has read a reply
    whose body contains needle: a fault in the program, mid-fan-out."""
    read = backends._read_reply

    def reading(sock):
        reply = read(sock)
        if needle in reply[2]:
            raise RuntimeError("boom")
        return reply

    monkeypatch.setattr(backends, "_read_reply", reading)
