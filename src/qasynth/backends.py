"""The backend contract, an HTTP client, and test mocks.

A backend answers generate(GenerationRequest) and translate(TranslationRequest)
with the reply text, or raises BackendError. Decoding is always greedy
(temperature zero); a generation reply is only the continuation, cut at the
first stop sequence when one occurs.

Wire format of the HTTP backend:
    POST {base_url}/v1/generate   {"prompt", "max_tokens", "temperature": 0, "stop": [...]}  -> {"text"}
    POST {base_url}/v1/translate  {"text", "source", "target"}                               -> {"text"}
The base URL, http(s)://host[:port][/path], comes from the constructor or the
QAM_BACKEND_URL environment variable; an optional bearer token from the
constructor or QAM_BACKEND_TOKEN. Connections are kept alive until close();
one the server dropped is reopened and the request resent once, without
using an attempt. Transport failures, 5xx and 429 responses are retried up to
3 attempts with jittered exponential backoff; a 429 with a delta-seconds
Retry-After waits that long instead (capped at the timeout). Other 4xx and
malformed payloads fail immediately.

http.client only opens and closes the connections: it connects, wraps TLS
and opens a proxy's CONNECT tunnel. The exchange itself is written here, on
the connection's socket. The request head is rendered once per backend, so
a call sends it, its Content-Length and the body in one write. The reply is
read by recv, with no file object, and parsed within http.client's limits
(_read_reply); a malformed reply raises OSError, retried like any socket
error.

run_requests is the one way stages fan requests out: it sends each distinct
request once, through backend.replies, and returns results in input order.
The mocks answer one request at a time, inline. HttpBackend.replies sends
from the calling thread too, over up to parallelism lanes. A lane holds one
keep-alive connection and takes the next request as soon as its last one is
done. Each request's exchange (send, wait, read, retry) is one generator
that yields whenever it must wait, and one selectors loop resumes each lane
when its reply starts or its wait is due. No thread is started.

BackendError means one thing: a backend call failed. run_requests alone
decides what a failure means: a BackendError, or a reply it finds unusable
(text that cannot be encoded as UTF-8, an empty or whitespace-only
translation), becomes that request's result in place of the reply text;
any other exception is a program fault that stops the fan-out and reaches
the caller unchanged. A request no backend could be asked for (max_tokens
< 1, an empty text, the same source and target language), or a client
given a bad URL, token, proxy or parallelism, raises ValueError before any
call.

Importing this module loads no HTTP code: HttpBackend loads http.client,
selectors, ssl, urllib.request and base64 when it is built.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

DEFAULT_TIMEOUT = 60.0
MAX_ATTEMPTS = 3

_DIGIT_RUN = re.compile(r"\d+")
# One encoder for every request body: json.dumps builds a new JSONEncoder
# on each call that passes an option, such as allow_nan.
_encode_json = json.JSONEncoder(allow_nan=False).encode


def __getattr__(name: str):
    """`qasynth.backends.requests` loads `requests` on first access.

    Nothing here sends through `requests`; the name stays only as a seam for
    perfbench's tracer, which patches `requests.Session`. Every command that
    never asks for it starts without importing it.
    """
    if name == "requests":
        import importlib

        return importlib.import_module("requests")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BackendError(Exception):
    """A backend call failed."""


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_tokens: int
    stop_sequences: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))


@dataclass(frozen=True)
class TranslationRequest:
    text: str
    source: str
    target: str

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"source and target language are both {self.source!r}")
        if not self.text:
            raise ValueError("empty text to translate")


Request = Union[GenerationRequest, TranslationRequest]


def apply_stop_sequences(text: str, stop_sequences: Sequence[str]) -> str:
    """Truncate text at the earliest occurrence of any stop sequence."""
    cut = len(text)
    for stop in stop_sequences:
        idx = text.find(stop)
        if idx != -1:
            cut = min(cut, idx)
    return text[:cut]


class Backend:
    """The backend contract: generate and translate return the reply text
    or raise BackendError; a backend implements the ones it serves.

    replies() answers a list of requests; this base class calls generate or
    translate for each one in turn, on the calling thread. A backend that
    holds connections releases them in close(); using it as a context
    manager closes it on exit."""

    def replies(self, requests: Sequence[Request]) -> List[Union[str, BackendError]]:
        """The reply text, or the BackendError its call raised, for each
        request in order. Any other exception stops at once and propagates."""
        results: List[Union[str, BackendError]] = []
        for req in requests:
            try:
                if isinstance(req, GenerationRequest):
                    results.append(self.generate(req))
                else:
                    results.append(self.translate(req))
            except BackendError as e:
                results.append(e)
        return results

    def generate(self, request: GenerationRequest) -> str:
        raise NotImplementedError

    def translate(self, request: TranslationRequest) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds; the mocks hold nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def split_backend_url(url: str) -> urllib.parse.SplitResult:
    """Split a base URL of the form http(s)://host[:port][/path].

    Raises ValueError for anything else: no scheme or another scheme, no
    host, a bad port, user info, a query, a fragment, or a character that is
    not printable ASCII.
    """
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port  # raises ValueError for a port that is not a number
    except ValueError:
        pass
    else:
        if (
            parts.scheme in ("http", "https")
            and parts.hostname
            and "@" not in parts.netloc
            and not parts.query
            and not parts.fragment
            and not re.search(r"[^!-~]", url)
        ):
            return parts
    raise ValueError(f"must have the form http(s)://host[:port][/path], got {url!r}")


def _proxy_for(parts: urllib.parse.SplitResult) -> Optional[urllib.parse.SplitResult]:
    """The proxy the environment (or the system settings urllib reads) sets
    for this URL; None if there is none or the host bypasses it."""
    import urllib.request

    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return None
    proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        proxy_parts.port
    except ValueError as e:
        raise ValueError(f"bad {parts.scheme} proxy {proxy!r}: {e}") from None
    if not proxy_parts.hostname:
        raise ValueError(f"bad {parts.scheme} proxy {proxy!r}: no host")
    return proxy_parts


def _proxy_auth(proxy: urllib.parse.SplitResult) -> Dict[str, str]:
    """Basic proxy authorization from the proxy URL's user info, if any."""
    if proxy.username is None:
        return {}
    import base64

    credentials = (
        f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password or '')}"
    )
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


# http.client's limits on a reply's head: header lines, and bytes in a line.
_MAX_HEADERS = 100
_MAX_LINE = 65536
# A reply is received in pieces of at most this many bytes, so a lying
# length cannot make one huge allocation; recv allocates all it asks for.
_MAX_READ = 1 << 16
_KEPT_HEADERS = frozenset({b"content-length", b"transfer-encoding", b"connection", b"retry-after"})
_HEAD_END = re.compile(rb"\n\r?\n")  # a line's end, then an empty line
_STATUS_LINE = re.compile(rb"\s*(HTTP/1\.\S*)\s+(\d{3})(?:\s|$)")  # as bytes.split reads it
_EVENT_READ = 1  # selectors.EVENT_READ, without importing selectors here


# Plain functions, not per-call closures: these run on a freshly woken, cache-cold thread.
def _recv_more(sock, buf: bytes, what: str) -> bytes:
    """buf, then the next bytes the socket brings; the stream's end raises."""
    data = sock.recv(_MAX_READ)
    if not data:
        if what == "reply head" and not buf:
            raise ConnectionResetError("connection closed without a reply")
        raise OSError(f"connection closed inside the {what}")
    return buf + data


def _read_head(sock, buf: bytes, what: str) -> Tuple[List[bytes], bytes]:
    """Split buf, received further as needed, at its first empty line; an
    unfinished head is held to the limits too, its last line counted."""
    lines: List[bytes] = []
    while True:
        end = _HEAD_END.search(buf)
        new = buf[: end.start() if end else len(buf)].split(b"\n")
        if lines:
            del new[0]  # buf starts with the line end of lines[-1]
        lines += new
        if len(lines) > _MAX_HEADERS + (1 if end else 2):
            raise OSError(f"got more than {_MAX_HEADERS} headers")
        if max(map(len, new), default=0) >= _MAX_LINE:
            raise OSError(f"{what} line longer than {_MAX_LINE} bytes")
        if end:
            return lines, buf[end.end() :]
        last = lines.pop()  # only the unfinished line is searched again
        buf = _recv_more(sock, b"\n" + last if lines else last, what)


def _read_line(sock, buf: bytes, what: str) -> Tuple[bytes, bytes]:
    """Split buf, received further as needed, after its first line end."""
    while True:
        i = buf.find(b"\n", 0, _MAX_LINE)
        if i >= 0:
            return buf[: i + 1], buf[i + 1 :]
        if len(buf) >= _MAX_LINE:
            raise OSError(f"{what} longer than {_MAX_LINE} bytes")
        buf = _recv_more(sock, buf, what)


def _read_rest(sock, part: bytes, n: int) -> bytes:
    """part, then what the socket brings until there are n bytes."""
    parts = [part]
    while (n := n - len(parts[-1])) > 0:
        parts.append(sock.recv(min(n, _MAX_READ)))
        if not parts[-1]:
            raise OSError(f"connection closed with {n} body bytes still to come")
    return b"".join(parts)


def _read_chunked(sock, buf: bytes) -> bytes:
    """The body in chunked framing that buf starts; its trailer is dropped."""
    parts = []
    while True:
        line, rest = _read_line(sock, buf, "chunk size")
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise OSError(f"bad chunk size {line!r}")
        n = int(size, 16)
        if n == 0:
            _read_head(sock, line + rest, "trailer")  # the last size line, then the trailer
            return b"".join(parts)
        parts.append(rest[:n] if len(rest) >= n else _read_rest(sock, rest, n))
        line, buf = _read_line(sock, rest[n:], "chunk end")
        if line not in (b"\r\n", b"\n"):
            raise OSError("chunk data longer than its size")


def _read_reply(sock) -> Tuple[int, Optional[bytes], bytes, bool]:
    """Read one HTTP/1.x reply off a socket: (status, Retry-After, body, keep_alive).

    The body is framed by chunked encoding, else Content-Length, else the
    end of the stream; keep_alive is false after a body read to the end, a
    Connection: close or an HTTP/1.0 reply. Bytes received past the reply's
    end are dropped. Every framing fault raises OSError; no reply at all
    raises ConnectionResetError, so the caller can tell a dropped keep-alive
    connection from a bad reply.
    """
    buf, status = _recv_more(sock, b"", "reply head"), 100
    while status < 200:  # interim 1xx replies are skipped
        lines, buf = _read_head(sock, buf, "reply head")
        status_line = _STATUS_LINE.match(lines[0])
        if status_line is None:
            raise OSError(f"not an HTTP/1.x status line: {lines[0]!r}")
        status = int(status_line[2])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.lower() in _KEPT_HEADERS:
            headers[name.lower()] = value.strip()
    connection = headers.get(b"connection", b"").lower()
    keep_alive = status_line[1] != b"HTTP/1.0" and b"close" not in connection
    length = headers.get(b"content-length")
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _read_chunked(sock, buf)
    elif length is not None:
        if not length.isdigit():
            raise OSError(f"bad Content-Length {length!r}")
        n = int(length)
        body = buf[:n] if len(buf) >= n else _read_rest(sock, buf, n)
    else:
        parts = [buf, sock.recv(_MAX_READ)]
        while parts[-1]:
            parts.append(sock.recv(_MAX_READ))
        body, keep_alive = b"".join(parts), False
    return status, headers.get(b"retry-after"), body, keep_alive


class HttpBackend(Backend):
    """Client for the documented JSON-over-HTTP backend protocol.

    replies() sends from the calling thread over at most parallelism lanes,
    each with its own keep-alive connection; a lane runs its requests one
    after another, each as an _exchange generator, and the loop in replies
    resumes them. generate and translate send one request the same way.
    Safe to call from several threads at once: idle connections wait in one
    list until close(), and each call checks out its own, opening more only
    when it needs them.

    retry_base_delay exists so tests can shrink the backoff; production
    callers keep the default (about 0.5s, then 1s, between the three
    attempts). parallelism is an integer >= 1.
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        token: Optional[str] = None,
        retry_base_delay: float = 0.5,
        parallelism: int = 1,
    ):
        # The transport loads here, not at import. http.client also loads ssl.
        import http.client
        import selectors
        import ssl

        if not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1:
            raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
        self.parallelism = parallelism
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 < timeout < math.inf
        ):
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        url = base_url or os.environ.get("QAM_BACKEND_URL")
        if not url:
            raise ValueError("no backend URL: pass base_url or set QAM_BACKEND_URL")
        self.base_url = url.rstrip("/")
        try:
            parts = split_backend_url(self.base_url)
        except ValueError as e:
            raise ValueError(f"backend URL {e}") from None
        self.timeout = timeout
        self.token = token or os.environ.get("QAM_BACKEND_TOKEN")
        self.retry_base_delay = retry_base_delay
        if self.token and re.search(r"[^!-~]", self.token):
            raise ValueError("backend token must be printable ASCII without spaces")
        headers = {
            "Host": parts.netloc,
            "Accept-Encoding": "identity",
            "Content-Type": "application/json",
        }
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        self._https = parts.scheme == "https"
        # Without a proxy, connect to the host and send the path. Through a
        # proxy, an http request names the absolute URI, and https tunnels
        # to the host with CONNECT. The proxy settings are read once, here.
        self._address = (parts.hostname, parts.port)
        target = parts.path
        self._tunnel = None
        proxy = _proxy_for(parts)
        if proxy is not None:
            self._address = (proxy.hostname, proxy.port or 80)
            if self._https:
                self._tunnel = (parts.hostname, parts.port, _proxy_auth(proxy))
            else:
                target = self.base_url
                headers.update(_proxy_auth(proxy))
        # Each path's request head, up to its Content-Length value.
        head_end = "".join(
            [" HTTP/1.1\r\n"]
            + [f"{name}: {value}\r\n" for name, value in headers.items()]
            + ["Content-Length: "]
        )
        self._heads = {
            path: f"POST {target}{path}{head_end}".encode("ascii")
            for path in ("/v1/generate", "/v1/translate")
        }
        # One TLS context for every connection: building one reads the
        # system trust store.
        self._tls = ssl.create_default_context() if self._https else None
        # poll takes no system call to watch or unwatch a socket, and a call
        # watches only a few.
        self._selector = getattr(selectors, "PollSelector", selectors.DefaultSelector)
        self._idle: List[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        # Private, so backoff jitter never draws from (or moves) the global RNG.
        self._jitter = random.Random()

    def _new_connection(self) -> http.client.HTTPConnection:
        """An unopened connection to the server, or to the proxy before it."""
        import http.client

        if not self._https:
            return http.client.HTTPConnection(*self._address, timeout=self.timeout)
        conn = http.client.HTTPSConnection(*self._address, timeout=self.timeout, context=self._tls)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def close(self) -> None:
        """Close every idle connection; a later call opens fresh ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _backoff(self, attempt: int) -> float:
        """Exponential delay before retry number attempt (1-based), +-50% jitter."""
        return self.retry_base_delay * (2 ** (attempt - 1)) * self._jitter.uniform(0.5, 1.5)

    def _retry_after(self, value: Optional[bytes]) -> Optional[float]:
        """A delta-seconds Retry-After (ASCII digits), capped at the timeout; else None."""
        if not (value and value.isdigit()):
            return None
        return min(float(value), self.timeout)

    def _exchange(self, conn, req: Request):
        """One request's whole exchange on conn: a generator that returns
        the reply text, or the BackendError its last attempt ended in.

        It yields (sock, due) to wait for the reply to start on sock;
        replies throws TimeoutError into it at due. It yields (None, due) to
        wait out a backoff until due. Retries follow the module docstring.
        A stale keep-alive connection shows as a broken pipe, or as a reset
        before any byte of the reply: the request is resent at once on conn,
        reopened, without using an attempt. Decoding is greedy, so a resent
        request gets the same reply. conn is left either closed or open with
        no request on it.
        """
        if isinstance(req, GenerationRequest):
            path = "/v1/generate"
            payload = {
                "prompt": req.prompt,
                "max_tokens": req.max_tokens,
                "temperature": 0,
                "stop": list(req.stop_sequences),
            }
        else:
            path = "/v1/translate"
            payload = {"text": req.text, "source": req.source, "target": req.target}
        body = _encode_json(payload).encode("utf-8")
        # The request head and body, sent in one write.
        message = b"%s%d\r\n\r\n%s" % (self._heads[path], len(body), body)
        attempt = 0
        resent = False  # this attempt was already resent on a fresh connection
        while True:
            try:
                if conn.sock is None:
                    self._connect(conn)
                conn.sock.sendall(message)
                yield conn.sock, time.monotonic() + self.timeout
                status, retry_after, raw, keep_alive = _read_reply(conn.sock)
            except OSError as e:
                # A failed exchange leaves the connection mid-request; the
                # next one must start on a fresh socket.
                conn.close()
                if not resent and isinstance(e, (BrokenPipeError, ConnectionResetError)):
                    resent = True
                    continue
                error, delay = BackendError(f"transport failure: {e}"), None
            else:
                if not keep_alive:
                    conn.close()
                if status == 200:
                    try:
                        reply = json.loads(raw)
                    except ValueError as e:
                        return BackendError(f"malformed JSON from {path}: {e}")
                    if isinstance(reply, dict) and isinstance(reply.get("text"), str):
                        return reply["text"]
                    return BackendError(f"malformed payload from {path}: expected {{'text': str}}")
                if status == 429:
                    error = BackendError(f"rate limited (status 429) by {path}")
                    delay = self._retry_after(retry_after)
                elif 500 <= status < 600:
                    error, delay = BackendError(f"server error {status} from {path}"), None
                else:
                    return BackendError(f"unexpected status {status} from {path}")
            attempt += 1
            if attempt == MAX_ATTEMPTS:
                return error
            resent = False
            yield None, time.monotonic() + (self._backoff(attempt) if delay is None else delay)

    def replies(self, requests: Sequence[Request]) -> List[Union[str, BackendError]]:
        """Send every request; the reply text or BackendError for each, in order.

        The calling thread runs min(parallelism, len(requests)) lanes. A
        lane holds one keep-alive connection and takes the next request as
        soon as its last one is done, running each as an _exchange
        generator. One loop selects on the sockets the lanes wait on,
        resumes each lane whose reply has started (_read_reply reads it to
        its end within the socket's timeout), and resumes the others when
        what they wait for is due: a reply that has not started timeout
        seconds after its send is a transport failure. A lane waiting out a
        backoff keeps its slot.

        Any exception but a BackendError (a fault in the program, or Ctrl-C)
        sends no further request: every connection this call holds is
        closed, and the exception propagates unchanged.
        """
        results: List = [None] * len(requests)
        jobs = enumerate(requests)

        def lane(conn):
            for index, req in jobs:
                results[index] = yield from self._exchange(conn, req)

        conns = [self._checkout() for _ in range(min(self.parallelism, len(requests)))]
        # Each lane -> the socket it waits to read (None in a backoff) and
        # when that wait is due. A lane's socket stays registered from one
        # request to the next.
        waits = {lane(conn): (None, 0.0) for conn in conns}
        selector = self._selector()
        try:
            while waits:
                started = set()
                if self._https:  # bytes TLS has already decrypted are not seen by select
                    started = {gen for gen, (sock, _) in waits.items()
                               if sock is not None and sock.pending()}
                if not started:
                    timeout = max(min(due for _, due in waits.values()) - time.monotonic(), 0)
                    if selector.get_map():
                        started = {key.data for key, _ in selector.select(timeout)}
                    else:
                        time.sleep(timeout)
                now = time.monotonic()
                for gen, (watched, due) in list(waits.items()):
                    if gen not in started and due > now:
                        continue
                    del waits[gen]
                    try:
                        if gen in started or watched is None:
                            sock, due = next(gen)
                        else:
                            sock, due = gen.throw(TimeoutError("timed out"))
                    except StopIteration:
                        sock = None
                    else:
                        waits[gen] = sock, due
                    if sock is not watched:
                        if watched is not None:
                            selector.unregister(watched)
                        if sock is not None:
                            selector.register(sock, _EVENT_READ, gen)
            return results
        except BaseException:
            for conn in conns:
                conn.close()
            raise
        finally:
            selector.close()
            with self._idle_lock:
                self._idle += conns

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle connection, else a new one."""
        with self._idle_lock:
            if self._idle:
                return self._idle.pop()
        return self._new_connection()

    @staticmethod
    def _connect(conn) -> None:
        """Open conn; if that fails, conn is left closed."""
        import http.client

        try:
            conn.connect()
        except http.client.HTTPException as e:
            # http.client parses a proxy's reply to CONNECT itself.
            conn.close()
            raise OSError(f"bad reply from the proxy to CONNECT: {e!r}") from e
        except OSError:
            conn.close()  # a failed tunnel or TLS handshake leaves the socket open
            raise

    def _reply(self, request: Request) -> str:
        (reply,) = self.replies([request])
        if isinstance(reply, BackendError):
            raise reply
        return reply

    def generate(self, request: GenerationRequest) -> str:
        return apply_stop_sequences(self._reply(request), request.stop_sequences)

    def translate(self, request: TranslationRequest) -> str:
        return self._reply(request)


def run_requests(
    backend: Backend, reqs: Sequence[Request]
) -> List[Union[str, BackendError]]:
    """Send each distinct request once; one reply text or BackendError per
    input, in order.

    Decoding is greedy, so identical requests are interchangeable and share
    one call and one result; backend.replies sends the distinct ones. A
    request whose call failed gets its BackendError: the caller decides
    whether that aborts its stage or drops one item. A generation is cut at
    its first stop sequence. A reply no stage can use is a BackendError too:
    a text that is not encodable as UTF-8 (a lone surrogate, say), or a
    translation that is empty or only whitespace. An empty generation is a
    valid reply. Any other exception is a fault in the program, not in the
    backend: no further request is sent and it propagates to the caller.
    """
    distinct = list(dict.fromkeys(reqs))
    by_request = dict(zip(distinct, map(_checked, distinct, backend.replies(distinct))))
    return [by_request[req] for req in reqs]


def _checked(req: Request, reply: Union[str, BackendError]) -> Union[str, BackendError]:
    """The reply as a stage may use it, or the BackendError it is."""
    if isinstance(reply, BackendError):
        return reply
    if isinstance(req, GenerationRequest):
        reply = apply_stop_sequences(reply, req.stop_sequences)
    elif not reply.strip():
        return BackendError(f"empty translation {reply!r}")
    try:
        reply.encode("utf-8")
    except UnicodeEncodeError as e:
        return BackendError(f"reply text cannot be written as UTF-8: {e}")
    return reply


class TaggingTranslator(Backend):
    """Deterministic mock translator: prefixes the target-language tag.

    translate("hello", en->fi) == "[fi] hello". Tags stack on round trips
    ("[en] [fi] hello"), which makes every translation visibly identifiable
    in rendered prompts and exemplar tests.
    """

    def translate(self, request: TranslationRequest) -> str:
        return f"[{request.target}] {request.text}"


def _span_of(passage_text: str) -> str:
    """The deterministic answer span: first maximal digit run, else first
    token starting with an uppercase letter, else the first token."""
    m = _DIGIT_RUN.search(passage_text)
    if m:
        return m.group(0)
    tokens = passage_text.split()
    for tok in tokens:
        if tok and tok[0].isupper():
            return tok
    return tokens[0] if tokens else ""


_CORRUPT_ALPHABET = "bcdfghjkmpqvwxz"


def _corrupt(span: str, passage_text: str, rng: random.Random) -> str:
    """A replacement span absent from the passage and free of the original.

    Both conditions matter: a corrupted answer must fail the in-context
    check, and a corrupted question must not smuggle the true answer back
    in, or the trivial-question filter could never be exercised.
    """
    while True:
        candidate = "".join(rng.choice(_CORRUPT_ALPHABET) for _ in range(10))
        if candidate not in passage_text and span not in candidate:
            return candidate


def mock_qa_generate(
    passage_text: str,
    stage: str,
    noise_rate: float = 0.0,
    seed: int = 0,
) -> str:
    """Deterministic stand-in for the generating model, for tests and dry runs.

    Answer stage: the span (first maximal digit run, else first capitalized
    token, else first token). Question stage: "What is mentioned about
    <span>?". With probability noise_rate the span is replaced by a corrupted
    string guaranteed not to occur in the passage; the draw is a pure
    function of (passage_text, stage, seed), so different stages corrupt
    independently.
    """
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must be within [0, 1]")
    if stage not in ("answer", "question"):
        raise ValueError(f"unknown stage {stage!r}")
    if not passage_text.strip():
        return ""
    span = _span_of(passage_text)
    digest = hashlib.sha256(
        f"{seed}|{stage}|{passage_text}".encode("utf-8")
    ).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    if noise_rate > 0.0 and rng.random() < noise_rate:
        span = _corrupt(span, passage_text, rng)
    if stage == "answer":
        return span
    return f"What is mentioned about {span}?"


class MockQABackend(Backend):
    """Generation mock that understands the rendered prompt layouts.

    For two-stage prompts it finds the target passage (last "  Passage: "
    line), detects the stage from the trailing cue, and completes with
    mock_qa_generate plus a continuation tail that exercises stop-sequence
    truncation. For language-prefixed tuned-model prompts ("[fi] <passage>")
    it returns "answer\\nquestion".
    """

    def __init__(self, noise_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError("noise_rate must be within [0, 1]")
        self.noise_rate = noise_rate
        self.seed = seed

    # Cue literals mirror the prompt templates; a test pins them together.
    _ANSWER_CUE = "Answer in the original language:"
    _QUESTION_CUE = "Question in the original language:"
    _PASSAGE_LABEL = "  Passage: "

    def _target_passage(self, prompt: str) -> str:
        idx = prompt.rfind(self._PASSAGE_LABEL)
        if idx == -1:
            raise BackendError("prompt has no passage line; cannot mock a completion")
        line_end = prompt.find("\n", idx)
        if line_end == -1:
            line_end = len(prompt)
        return prompt[idx + len(self._PASSAGE_LABEL) : line_end]

    def generate(self, request: GenerationRequest) -> str:
        prompt = request.prompt
        stripped = prompt.rstrip()
        if stripped.endswith(self._QUESTION_CUE):
            stage = "question"
        elif stripped.endswith(self._ANSWER_CUE):
            stage = "answer"
        elif prompt.startswith("[") and "]" in prompt.split("\n", 1)[0]:
            return self._generate_tuned(request)
        else:
            raise BackendError("prompt does not end at a known cue")
        passage = self._target_passage(prompt)
        completion = mock_qa_generate(passage, stage, self.noise_rate, self.seed)
        raw = f" {completion}\nPassage: unrelated follow-on text"
        return apply_stop_sequences(raw, request.stop_sequences)

    def _generate_tuned(self, request: GenerationRequest) -> str:
        # "[l] passage" prompts come from the tuned-model synthesis path; the
        # reply convention there is answer, newline, question.
        close = request.prompt.index("]")
        passage = request.prompt[close + 1 :].lstrip()
        answer = mock_qa_generate(passage, "answer", self.noise_rate, self.seed)
        question = mock_qa_generate(passage, "question", self.noise_rate, self.seed)
        raw = f"{answer}\n{question}"
        return apply_stop_sequences(raw, request.stop_sequences)
