"""The request runner: dedup, order, fan-out bounded by the backend's
parallelism, and the failure semantics of every stage built on it. The
fan-out runs over HTTP against tests/mock_server.py; the mocks answer
serially, inline."""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import sys
import threading
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.backends import BackendError, HttpBackend, TranslationRequest, run_requests
from qasynth.corpus import Dataset, Passage, QAExample
from qasynth.promptkit import MockQABackend, build_exemplars_en_only
from qasynth.synthesis import (
    filter_extractive,
    filter_roundtrip,
    synth_mt,
    synth_pe,
    synth_pt,
)
from qasynth.taxonomy import distribution

from helpers import (BrokenTranslator, ReversingTranslator, StubRoundtrip, fi_exemplars,
                     fi_passages, make_example)
from mock_server import MockServer, http_backend, raise_on_reply

REFUSED = "unexpected status 422 from /v1/translate"  # a served BackendError, over HTTP


def doubled(gold_en: Dataset) -> Dataset:
    """gold_en twice over, under fresh ids: every string repeats."""
    copies = tuple(
        QAExample(
            id=f"b-{i}", context=ex.context, question=ex.question,
            answer=ex.answer, answer_start=ex.answer_start,
            language="en", provenance="gold", source_dataset="fixture",
        )
        for i, ex in enumerate(gold_en.examples)
    )
    return Dataset(name="en10", examples=gold_en.examples + copies)


class TestRunRequests:
    def test_empty(self):
        assert run_requests(ReversingTranslator(), []) == []
        with http_backend(4) as (backend, server):
            assert run_requests(backend, []) == []
        assert server.served == 0

    def test_fans_out_to_parallelism(self):
        # Every request waits at the server until the backend's
        # `parallelism` requests are in flight at once; a client with less
        # fan-out breaks the barrier and gets no replies.
        barrier = threading.Barrier(3, timeout=5)

        def wait(server, handler, payload):
            barrier.wait()

        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(6)]
        with http_backend(3, translator=ReversingTranslator(), intercept=wait) as (backend, server):
            results = run_requests(backend, reqs)
        assert results == [f"{i}t" for i in range(6)]
        assert server.peak_inflight == 3

    def test_equals_serial_map(self):
        texts = [f"text {i}" for i in range(6)]
        translator = ReversingTranslator()

        @settings(max_examples=60, deadline=None)
        @given(
            picks=st.lists(st.integers(0, 5), max_size=20),
            failing=st.sets(st.integers(0, 5)),
            parallelism=st.integers(1, 4),
        )
        def check(picks, failing, parallelism):
            reqs = [TranslationRequest(text=texts[i], source="en", target="fi") for i in picks]
            translator.fail_on = {texts[i] for i in failing}

            def serial(req):
                try:
                    return translator.translate(req)
                except BackendError:
                    return BackendError(REFUSED)

            expected = [serial(req) for req in reqs]
            server.reset()
            with HttpBackend(base_url=server.url, parallelism=parallelism) as backend:
                got = run_requests(backend, reqs)
            assert [(type(r), str(r)) for r in got] == [(type(r), str(r)) for r in expected]
            assert server.seen == Counter(req.text for req in set(reqs))
            assert server.peak_inflight <= parallelism

        with MockServer(translator=translator) as server:
            check()


class TestDedup:
    def test_synth_mt_one_call_per_distinct_request(self, gold_en):
        translator = ReversingTranslator()
        run = synth_mt(doubled(gold_en), translator, ["fi", "ar"])
        distinct = {
            (getattr(ex, name), "en", lang)
            for ex in gold_en.examples
            for name in ("context", "question", "answer")
            for lang in ("fi", "ar")
        }
        assert set(translator.calls) == distinct
        assert set(translator.calls.values()) == {1}
        assert sum(len(ds) for ds in run.raw.values()) == 20

    def test_failing_duplicate_is_sent_once(self, gold_en):
        bad = gold_en.examples[1].question
        translator = ReversingTranslator(fail_on={bad})
        with pytest.raises(BackendError):
            synth_mt(doubled(gold_en), translator, ["fi"])
        assert translator.calls[(bad, "en", "fi")] == 1


class TestFailureSemantics:
    def test_synth_mt_raises_first_failure_in_order(self, gold_en):
        bad = gold_en.examples[1].question
        failure = "translation of 'question' failed for example 'en-1' (ar): "
        with pytest.raises(BackendError) as err:
            synth_mt(gold_en, ReversingTranslator(fail_on={bad}), ["fi", "ar"])
        assert str(err.value) == f"{failure}cannot translate {bad!r}"
        with http_backend(4, translator=ReversingTranslator(fail_on={bad})) as (backend, _):
            with pytest.raises(BackendError) as err:
                synth_mt(gold_en, backend, ["fi", "ar"])
        assert str(err.value) == failure + REFUSED

    def test_build_exemplars_raises_first_failure_in_order(self, gold_en):
        bad = {gold_en.examples[3].answer, gold_en.examples[2].context}
        failure = "translation of 'context' failed for example 'en-2' (fi): "
        with pytest.raises(BackendError) as err:
            build_exemplars_en_only(gold_en, ReversingTranslator(fail_on=bad), "fi")
        assert str(err.value) == (
            f"{failure}cannot translate {gold_en.examples[2].context!r}"
        )
        with http_backend(4, translator=ReversingTranslator(fail_on=bad)) as (backend, _):
            with pytest.raises(BackendError) as err:
                build_exemplars_en_only(gold_en, backend, "fi")
        assert str(err.value) == failure + REFUSED

    def test_program_fault_in_exemplars_is_raised_unwrapped(self, gold_en):
        # Only a BackendError is a failed call; anything else is a fault in
        # the program and reaches the caller as it was raised.
        with BrokenTranslator() as translator, pytest.raises(RuntimeError) as err:
            build_exemplars_en_only(gold_en, translator, "fi")
        assert type(err.value) is RuntimeError and str(err.value) == "boom"

    def test_synth_mt_program_fault_is_raised_unwrapped(self, gold_en):
        class BrokenOnQuestion(ReversingTranslator):
            def translate(self, request):
                if request.text == gold_en.examples[1].question:
                    raise RuntimeError("boom")
                return super().translate(request)

        translator = BrokenOnQuestion()
        with translator, pytest.raises(RuntimeError) as err:
            synth_mt(gold_en, translator, ["fi", "ar"])
        assert type(err.value) is RuntimeError and str(err.value) == "boom"

    def test_synth_pe_program_fault_stops_the_fan_out(self, monkeypatch, recorded_connections):
        passages = [
            Passage(id=f"fi-p{i}", text=f"Silta valmistui vuonna {1000 + i}.", language="fi")
            for i in range(200)
        ]

        def slow(server, handler, payload):
            time.sleep(0.002)

        # The client faults on reading the reply for the first passage.
        raise_on_reply(monkeypatch, b'" 1000')
        for parallelism in (1, 4):
            with http_backend(parallelism, intercept=slow) as (backend, server):
                with pytest.raises(RuntimeError, match="^boom$"):
                    synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
                # Requests already in flight were sent, but no more.
                assert 1 <= server.served < 20
                if parallelism == 1:
                    assert server.served == 1
                assert all(c.closed for c in recorded_connections)

    def test_filter_roundtrip_one_note_per_failed_item(self):
        examples = Dataset(
            name="r",
            examples=tuple(
                make_example(i, "Silta valmistui 1956.", q, "1956", provenance="pe")
                for i, q in enumerate(["Milloin?", "Kuka?", "Milloin?", "Miksi?"])
            ),
        )
        with http_backend(4, generator=StubRoundtrip({"Milloin?": "1956"})) as (backend, _):
            kept, report = filter_roundtrip(examples, backend, fi_exemplars())
        assert [ex.id for ex in kept.examples] == ["pe-fi-0", "pe-fi-2"]
        assert report.dropped == {"roundtrip_mismatch": 2}
        assert [note.split(":")[0] for note in report.notes] == ["pe-fi-1", "pe-fi-3"]

    def test_synth_pe_one_note_per_failed_item(self):
        class FailOnPassage(MockQABackend):
            def generate(self, request):
                if "Kaupungissa" in request.prompt.rsplit("  Passage: ", 1)[1]:
                    raise BackendError("refused")
                return super().generate(request)

        passages = fi_passages(10)
        with http_backend(4, generator=FailOnPassage()) as (backend, _):
            run = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
        report = run.reports["fi"]
        failed = [p.id for p in passages if "Kaupungissa" in p.text]
        assert report.dropped == {"empty_generation": len(failed)}
        assert list(report.notes) == [
            f"{pid}: unexpected status 422 from /v1/generate" for pid in failed
        ]
        assert len(run.raw["fi"]) == 10 - len(failed)


class TestParallelismInvariance:
    """Over HTTP, a backend's parallelism changes how many requests are in
    flight, never the output: every stage matches the serial mocks."""

    def test_every_stage(self, gold_en):
        passages = {"fi": fi_passages(12)}

        def outputs(generator, translator):
            mt = synth_mt(gold_en, translator, ["fi", "ar"])
            pe = synth_pe({"fi": fi_exemplars()}, passages, generator)
            extracted, _ = filter_extractive(pe.raw["fi"])
            rt = filter_roundtrip(extracted, generator, fi_exemplars())
            pt = synth_pt(passages, backend=generator)
            mixed = Dataset(
                name="tax",
                examples=gold_en.examples + mt.raw["fi"].examples + mt.raw["ar"].examples,
            )
            tax = distribution(mixed, translator)
            return (mt.raw, mt.reports, pe.raw, pe.reports, rt, pt.raw, pt.reports, tax)

        serial = outputs(MockQABackend(noise_rate=0.5, seed=3), ReversingTranslator())
        assert serial[4][0].examples  # non-vacuous: the round trip keeps something
        with MockServer(noise_rate=0.5, seed=3, translator=ReversingTranslator()) as server:
            for parallelism in (1, 4):
                server.reset()
                with HttpBackend(base_url=server.url, parallelism=parallelism) as backend:
                    assert outputs(backend, backend) == serial
                assert server.peak_inflight <= parallelism


@contextlib.contextmanager
def no_unclosed_sockets():
    """Fail if a socket is garbage-collected unclosed inside the block."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestFanOut:
    """HttpBackend.replies: one loop on the calling thread keeps at most
    parallelism requests in flight, and stops sending once the program
    faults or the caller is interrupted."""

    def test_stress_every_item_once_in_order_within_parallelism(self):
        # More connections than this host's CPUs, and a short switch
        # interval for the server's threads: a lost or doubled request, or a
        # reply handed to the wrong request, shows in the counts or results.
        n, parallelism = 2000, 8
        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(n)]
        first, second = threading.Lock(), threading.Event()

        def hold_first(server, handler, payload):
            # The first request to get here stays in flight until a second
            # one has (at most 5 s), so two are in flight at once however the
            # threads are scheduled; then it is answered as usual.
            if first.acquire(blocking=False):
                second.wait(5)
            else:
                second.set()
            return False

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with http_backend(
                parallelism, translator=ReversingTranslator(), intercept=hold_first
            ) as (backend, server):
                results = run_requests(backend, reqs)
        finally:
            sys.setswitchinterval(interval)
        assert server.seen == Counter(req.text for req in reqs)
        assert results == [req.text[::-1] for req in reqs]
        assert 1 < server.peak_inflight <= parallelism

    def test_a_raising_call_stops_the_hand_out_and_reaches_the_caller(
        self, monkeypatch, recorded_connections
    ):
        def delay(server, handler, payload):
            # Request t0 is answered while the others are still in flight.
            time.sleep(0.005 if payload["text"] == "t0" else 0.02)

        raise_on_reply(monkeypatch, b'"0t"')
        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(1000)]
        with no_unclosed_sockets():
            with http_backend(4, translator=ReversingTranslator(), intercept=delay) as (
                backend, server
            ):
                with pytest.raises(RuntimeError, match="^boom$"):
                    run_requests(backend, reqs)
                # Every connection with a reply outstanding is closed at once.
                assert len(recorded_connections) == 4
                assert all(c.closed for c in recorded_connections)
            assert server.seen["t0"] == 1 and server.served < 20

    def test_sigint_stops_after_the_calls_in_flight(self, recorded_connections):
        # A real signal, which only the main thread takes: the server sends
        # it on request t5, while the fan-out waits in select. 300 calls of
        # 10 ms at parallelism 2 end within 1.5 s even if nothing stops them.
        def interrupt(server, handler, payload):
            if payload["text"] == "t5":
                os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.01)

        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(300)]
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with no_unclosed_sockets():
                with http_backend(2, translator=ReversingTranslator(), intercept=interrupt) as (
                    backend, server
                ):
                    with pytest.raises(KeyboardInterrupt):
                        run_requests(backend, reqs)
                    assert all(c.closed for c in recorded_connections)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert server.seen["t5"] == 1 and server.served < 20
