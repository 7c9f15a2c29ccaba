"""Local latency stub for qasynth's HTTP backend protocol.

Run as its own process:

    python3 perfbench/stub.py --seed 3

It binds 127.0.0.1 on a free port, prints the port on the first line of
standard output, and serves until it is terminated.

    POST /v1/generate   {"prompt", "max_tokens", "temperature", "stop"} -> {"text"}
    POST /v1/translate  {"text", "source", "target"}                    -> {"text"}

Both answer from the rule in synthlang after sleeping LATENCY_MS, which is
part of the benchmark's definition and so not settable. Two
more routes serve the benchmark and are not part of the protocol:

    GET  /stats  counters since the last reset, plus one (path, start, end)
                 entry per request on the system-wide monotonic clock
    POST /reset  zero the counters
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import synthlang as sl

LATENCY_MS = 10.0


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.calls = {"/v1/generate": 0, "/v1/translate": 0}
        self.seen = set()
        self.errors = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.chars_sent = 0
        self.service_s = 0.0
        self.log = []

    def snapshot(self) -> dict:
        return {
            "generate_calls": self.calls["/v1/generate"],
            "translate_calls": self.calls["/v1/translate"],
            "distinct": len(self.seen),
            "errors": self.errors,
            "peak_inflight": self.peak_inflight,
            "chars_sent": self.chars_sent,
            "service_s": self.service_s,
            "log": self.log,
        }


def make_handler(seed: int, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Without this, small responses wait on delayed ACKs: about 40 ms a call.
        disable_nagle_algorithm = True

        def _send(self, status: int, payload) -> None:
            raw = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with counters.lock:
                snap = counters.snapshot()
            self._send(200, snap)

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with counters.lock:
                    counters.reset()
                self._send(200, {})
                return
            if self.path not in counters.calls:
                self._send(404, {"error": "not found"})
                return
            start = time.monotonic()
            key = hashlib.sha256(self.path.encode() + b"\0" + body).hexdigest()
            with counters.lock:
                counters.calls[self.path] += 1
                counters.seen.add(key)
                counters.inflight += 1
                counters.peak_inflight = max(counters.peak_inflight, counters.inflight)
            try:
                req = json.loads(body)
                if self.path == "/v1/generate":
                    sent = req["prompt"]
                    text = sl.complete(seed, sent)
                else:
                    sent = req["text"]
                    text = sl.translate(sent, req["source"], req["target"])
                status, payload = 200, {"text": text}
            except (ValueError, KeyError, TypeError) as e:
                sent, status, payload = "", 400, {"error": str(e)}
            time.sleep(LATENCY_MS / 1000.0)
            self._send(status, payload)
            end = time.monotonic()
            with counters.lock:
                counters.inflight -= 1
                counters.chars_sent += len(sent)
                counters.service_s += end - start
                counters.log.append((self.path, start, end))
                if status != 200:
                    counters.errors += 1

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    counters = Counters()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(args.seed, counters))
    server.daemon_threads = True
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
