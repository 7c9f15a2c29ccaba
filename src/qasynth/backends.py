"""Generation/translation backend contracts, an HTTP client, and test mocks.

Every generation backend implements generate(GenerationRequest) ->
GenerationResponse and every translation backend implements
translate(TranslationRequest) -> TranslationResponse. Decoding is always
greedy (temperature zero); the response carries only the continuation, cut at
the first stop sequence when one occurs.

Wire format of the HTTP backend:
    POST {base_url}/v1/generate   {"prompt", "max_tokens", "temperature": 0, "stop": [...]}  -> {"text"}
    POST {base_url}/v1/translate  {"text", "source", "target"}                               -> {"text"}
The base URL, http(s)://host[:port][/path], comes from the constructor or the
QAM_BACKEND_URL environment variable; an optional bearer token from the
constructor or QAM_BACKEND_TOKEN. Each thread sends over one keep-alive
connection; a keep-alive connection the server dropped is reopened and the
request resent once, without using an attempt. Transport failures, 5xx and
429 responses are retried up to 3 attempts with jittered exponential backoff;
a 429 with a delta-seconds Retry-After waits that long instead (capped at the
timeout). Other 4xx and malformed payloads fail immediately.

run_requests is the one way stages fan requests out: it sends each distinct
request once, over a bounded thread pool, and returns results in input order.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import random
import re
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

DEFAULT_TIMEOUT = 60.0
MAX_ATTEMPTS = 3

_DIGIT_RUN = re.compile(r"\d+")


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
    """A backend failure. retryable marks transient faults (transport, 5xx, 429)."""

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_tokens: int
    decoding: str = "greedy"
    stop_sequences: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.max_tokens < 1:
            raise BackendError("max_tokens must be >= 1")
        if self.decoding != "greedy":
            raise BackendError(f"unsupported decoding {self.decoding!r}; only greedy")
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    backend_id: str


@dataclass(frozen=True)
class TranslationRequest:
    text: str
    source: str
    target: str

    def __post_init__(self):
        if self.source == self.target:
            raise BackendError(
                f"source and target language are both {self.source!r}"
            )


@dataclass(frozen=True)
class TranslationResponse:
    text: str
    backend_id: str


def apply_stop_sequences(text: str, stop_sequences: Sequence[str]) -> str:
    """Truncate text at the earliest occurrence of any stop sequence."""
    cut = len(text)
    for stop in stop_sequences:
        idx = text.find(stop)
        if idx != -1:
            cut = min(cut, idx)
    return text[:cut]


class Backend:
    """Shared base. A backend that holds connections releases them in
    close(); using it as a context manager closes it on exit."""

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class GenerationBackend(Backend):
    """Contract for text continuation backends."""

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        raise NotImplementedError


class TranslationBackend(Backend):
    """Contract for translation backends."""

    def translate(self, request: TranslationRequest) -> TranslationResponse:
        raise NotImplementedError


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
    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return None
    proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        proxy_parts.port
    except ValueError as e:
        raise BackendError(f"bad {parts.scheme} proxy {proxy!r}: {e}") from None
    if not proxy_parts.hostname:
        raise BackendError(f"bad {parts.scheme} proxy {proxy!r}: no host")
    return proxy_parts


def _proxy_auth(proxy: urllib.parse.SplitResult) -> Dict[str, str]:
    """Basic proxy authorization from the proxy URL's user info, if any."""
    if proxy.username is None:
        return {}
    credentials = (
        f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password or '')}"
    )
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


class HttpBackend(GenerationBackend, TranslationBackend):
    """Client for the documented JSON-over-HTTP backend protocol.

    retry_base_delay exists so tests can shrink the backoff; production
    callers keep the default (about 0.5s, then 1s, between the three
    attempts). Safe to call from several threads at once: each thread keeps
    its own keep-alive connection. close(), or a with block, closes the
    connections the backend opened.
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        token: Optional[str] = None,
        retry_base_delay: float = 0.5,
    ):
        url = base_url or os.environ.get("QAM_BACKEND_URL")
        if not url:
            raise BackendError(
                "no backend URL: pass base_url or set QAM_BACKEND_URL"
            )
        self.base_url = url.rstrip("/")
        try:
            parts = split_backend_url(self.base_url)
        except ValueError as e:
            raise BackendError(f"backend URL {e}") from None
        self.timeout = timeout
        self.token = token or os.environ.get("QAM_BACKEND_TOKEN")
        self.retry_base_delay = retry_base_delay
        self._headers = {"Content-Type": "application/json"}
        if self.token:
            self._headers["Authorization"] = f"Bearer {self.token}"
        self._https = parts.scheme == "https"
        # Without a proxy, connect to the host and send the path. Through a
        # proxy, an http request names the absolute URI, and https tunnels
        # to the host with CONNECT. The proxy settings are read once, here.
        self._address = (parts.hostname, parts.port)
        self._target = parts.path
        self._tunnel = None
        proxy = _proxy_for(parts)
        if proxy is not None:
            self._address = (proxy.hostname, proxy.port or 80)
            if self._https:
                self._tunnel = (parts.hostname, parts.port, _proxy_auth(proxy))
            else:
                self._target = self.base_url
                self._headers.update(_proxy_auth(proxy))
        # One TLS context for every connection: building one reads the
        # system trust store.
        self._tls = ssl.create_default_context() if self._https else None
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        # Private, so backoff jitter never draws from (or moves) the global RNG.
        self._jitter = random.Random()

    @property
    def backend_id(self) -> str:
        return f"http:{self.base_url}"

    @property
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection: an HTTPConnection carries one request
        at a time."""
        conn = getattr(self._local, "connection", None)
        if conn is None:
            if self._https:
                conn = http.client.HTTPSConnection(
                    *self._address, timeout=self.timeout, context=self._tls
                )
                if self._tunnel is not None:
                    conn.set_tunnel(*self._tunnel)
            else:
                conn = http.client.HTTPConnection(*self._address, timeout=self.timeout)
            self._local.connection = conn
            with self._connections_lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close every connection this backend opened."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
            # A later call opens (and tracks) a fresh connection.
            self._local = threading.local()
        for conn in connections:
            conn.close()

    def _backoff(self, attempt: int) -> float:
        """Exponential delay before retry number attempt (1-based), +-50% jitter."""
        return self.retry_base_delay * (2 ** (attempt - 1)) * self._jitter.uniform(0.5, 1.5)

    def _retry_after(self, value: Optional[str]) -> Optional[float]:
        """A delta-seconds Retry-After, capped at the timeout; None if absent."""
        value = (value or "").strip()
        if not value.isdigit():
            return None
        return min(float(value), self.timeout)

    def _send(self, path: str, body: bytes) -> Tuple[int, Optional[str], bytes]:
        """One POST; returns (status, Retry-After header, body).

        A server may close an idle keep-alive connection just as a request
        goes out. That shows as a reset, a broken pipe or RemoteDisconnected
        (a ConnectionResetError); the request is then sent again at once on a
        fresh connection, and only a second failure counts. Resending is safe
        because decoding is greedy: a repeated request gets the same reply.
        """
        conn = self._connection
        target = self._target + path

        def exchange() -> Tuple[int, Optional[str], bytes]:
            conn.request("POST", target, body, self._headers)
            resp = conn.getresponse()
            return resp.status, resp.getheader("Retry-After"), resp.read()

        try:
            try:
                return exchange()
            except (BrokenPipeError, ConnectionResetError):
                conn.close()
                return exchange()
        except BaseException:
            # A failed exchange leaves the connection mid-request; the next
            # one must start on a fresh socket.
            conn.close()
            raise

    def _post(self, path: str, payload: dict) -> dict:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_error: Optional[BackendError] = None
        delay: Optional[float] = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt > 0:
                time.sleep(self._backoff(attempt) if delay is None else delay)
            delay = None
            try:
                status, retry_after, raw = self._send(path, data)
            except (OSError, http.client.HTTPException) as e:
                last_error = BackendError(f"transport failure: {e}", retryable=True)
                continue
            if 500 <= status < 600:
                last_error = BackendError(
                    f"server error {status} from {path}", retryable=True
                )
                continue
            if status == 429:
                last_error = BackendError(
                    f"rate limited (status 429) by {path}", retryable=True
                )
                delay = self._retry_after(retry_after)
                continue
            if status != 200:
                raise BackendError(
                    f"unexpected status {status} from {path}",
                    retryable=False,
                )
            try:
                body = json.loads(raw)
            except ValueError as e:
                raise BackendError(
                    f"malformed JSON from {path}: {e}", retryable=False
                )
            if not isinstance(body, dict) or "text" not in body or not isinstance(body["text"], str):
                raise BackendError(
                    f"malformed payload from {path}: expected {{'text': str}}",
                    retryable=False,
                )
            return body
        assert last_error is not None
        raise last_error

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        body = self._post(
            "/v1/generate",
            {
                "prompt": request.prompt,
                "max_tokens": request.max_tokens,
                "temperature": 0,
                "stop": list(request.stop_sequences),
            },
        )
        text = apply_stop_sequences(body["text"], request.stop_sequences)
        return GenerationResponse(text=text, backend_id=self.backend_id)

    def translate(self, request: TranslationRequest) -> TranslationResponse:
        if not request.text:
            raise BackendError("empty input", retryable=False)
        body = self._post(
            "/v1/translate",
            {
                "text": request.text,
                "source": request.source,
                "target": request.target,
            },
        )
        return TranslationResponse(text=body["text"], backend_id=self.backend_id)


Request = Union[GenerationRequest, TranslationRequest]
Response = Union[GenerationResponse, TranslationResponse]


def run_requests(
    backend: Union[GenerationBackend, TranslationBackend],
    reqs: Sequence[Request],
    parallelism: int,
) -> List[Tuple[Optional[Response], Optional[Exception]]]:
    """Send each distinct request once; one (response, error) per input, in order.

    Decoding is greedy, so identical requests are interchangeable and share
    one call and one result. Distinct requests fan out over at most
    parallelism threads. A request that raises gets (None, exception): the
    caller decides whether that aborts its stage or drops one item.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    distinct = list(dict.fromkeys(reqs))

    def call(req: Request) -> Tuple[Optional[Response], Optional[Exception]]:
        try:
            if isinstance(req, GenerationRequest):
                return backend.generate(req), None
            return backend.translate(req), None
        except Exception as e:
            return None, e

    workers = min(parallelism, len(distinct))
    if workers <= 1:
        results = [call(req) for req in distinct]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(call, distinct))
    by_request = dict(zip(distinct, results))
    return [by_request[req] for req in reqs]


class TaggingTranslator(TranslationBackend):
    """Deterministic mock translator: prefixes the target-language tag.

    translate("hello", en->fi) == "[fi] hello". Tags stack on round trips
    ("[en] [fi] hello"), which makes every translation visibly identifiable
    in rendered prompts and exemplar tests.
    """

    backend_id = "mock:tagging-translator"

    def translate(self, request: TranslationRequest) -> TranslationResponse:
        if not request.text:
            raise BackendError("empty input", retryable=False)
        return TranslationResponse(
            text=f"[{request.target}] {request.text}",
            backend_id=self.backend_id,
        )


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


class MockQABackend(GenerationBackend):
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

    @property
    def backend_id(self) -> str:
        return f"mock:qa-generate(noise={self.noise_rate},seed={self.seed})"

    # Cue literals mirror the prompt templates; a test pins them together.
    _ANSWER_CUE = "Answer in the original language:"
    _QUESTION_CUE = "Question in the original language:"
    _PASSAGE_LABEL = "  Passage: "

    def _target_passage(self, prompt: str) -> str:
        idx = prompt.rfind(self._PASSAGE_LABEL)
        if idx == -1:
            raise BackendError(
                "prompt has no passage line; cannot mock a completion",
                retryable=False,
            )
        line_end = prompt.find("\n", idx)
        if line_end == -1:
            line_end = len(prompt)
        return prompt[idx + len(self._PASSAGE_LABEL) : line_end]

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        prompt = request.prompt
        stripped = prompt.rstrip()
        if stripped.endswith(self._QUESTION_CUE):
            stage = "question"
        elif stripped.endswith(self._ANSWER_CUE):
            stage = "answer"
        elif prompt.startswith("[") and "]" in prompt.split("\n", 1)[0]:
            return self._generate_tuned(request)
        else:
            raise BackendError(
                "prompt does not end at a known cue", retryable=False
            )
        passage = self._target_passage(prompt)
        completion = mock_qa_generate(passage, stage, self.noise_rate, self.seed)
        raw = f" {completion}\nPassage: unrelated follow-on text"
        text = apply_stop_sequences(raw, request.stop_sequences)
        return GenerationResponse(text=text, backend_id=self.backend_id)

    def _generate_tuned(self, request: GenerationRequest) -> GenerationResponse:
        # "[l] passage" prompts come from the tuned-model synthesis path; the
        # reply convention there is answer, newline, question.
        close = request.prompt.index("]")
        passage = request.prompt[close + 1 :].lstrip()
        answer = mock_qa_generate(passage, "answer", self.noise_rate, self.seed)
        question = mock_qa_generate(passage, "question", self.noise_rate, self.seed)
        raw = f"{answer}\n{question}"
        text = apply_stop_sequences(raw, request.stop_sequences)
        return GenerationResponse(text=text, backend_id=self.backend_id)
