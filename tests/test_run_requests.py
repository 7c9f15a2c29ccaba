"""The request runner: dedup, order, fan-out bounded by the backend's
parallelism, and the failure semantics of every stage built on it."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.backends import (
    Backend,
    BackendError,
    MockQABackend,
    TranslationRequest,
    run_requests,
)
from qasynth.corpus import Dataset, Passage, QAExample
from qasynth.promptkit import build_exemplars_en_only
from qasynth.synthesis import (
    filter_extractive,
    filter_roundtrip,
    synth_mt,
    synth_pe,
    synth_pt,
)
from qasynth.taxonomy import distribution
from tests.conftest import make_example
from tests.test_synthesis import StubRoundtrip, fi_exemplars, fi_passages


class CountingTranslator(Backend):
    """Reverses the text; counts calls per (text, source, target); raises
    BackendError on the texts in fail_on. run_requests sends it at most
    parallelism requests at once."""

    backend_id = "mock:counting"

    def __init__(self, fail_on=(), parallelism=1):
        self.fail_on = set(fail_on)
        self.parallelism = parallelism
        self.calls = Counter()
        self._lock = threading.Lock()

    def translate(self, request):
        with self._lock:
            self.calls[(request.text, request.source, request.target)] += 1
        if request.text in self.fail_on:
            raise BackendError(f"cannot translate {request.text!r}")
        return request.text[::-1]


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
        assert run_requests(CountingTranslator(parallelism=4), []) == []

    def test_fans_out_to_parallelism(self):
        # Every call waits until the backend's `parallelism` calls are in
        # flight at once; a runner with less fan-out breaks the barrier and
        # records errors.
        barrier = threading.Barrier(3, timeout=5)

        class Waiting(CountingTranslator):
            def translate(self, request):
                barrier.wait()
                return super().translate(request)

        reqs = [TranslationRequest(text=f"t{i}", source="en", target="fi") for i in range(6)]
        results = run_requests(Waiting(parallelism=3), reqs)
        assert results == [f"{i}t" for i in range(6)]

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 5), max_size=20),
        failing=st.sets(st.integers(0, 5)),
        parallelism=st.integers(1, 4),
    )
    def test_equals_serial_map(self, picks, failing, parallelism):
        texts = [f"text {i}" for i in range(6)]
        reqs = [TranslationRequest(text=texts[i], source="en", target="fi") for i in picks]
        translator = CountingTranslator(
            fail_on={texts[i] for i in failing}, parallelism=parallelism
        )

        def serial(req):
            try:
                return translator.translate(req)
            except BackendError as e:
                return e

        expected = [serial(req) for req in reqs]
        translator.calls.clear()
        got = run_requests(translator, reqs)
        assert [(type(r), str(r)) for r in got] == [(type(r), str(r)) for r in expected]
        assert sum(translator.calls.values()) == len(set(reqs))


class TestDedup:
    def test_synth_mt_one_call_per_distinct_request(self, gold_en):
        translator = CountingTranslator(parallelism=4)
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
        translator = CountingTranslator(fail_on={bad}, parallelism=4)
        with pytest.raises(BackendError):
            synth_mt(doubled(gold_en), translator, ["fi"])
        assert translator.calls[(bad, "en", "fi")] == 1


class TestFailureSemantics:
    def test_synth_mt_raises_first_failure_in_order(self, gold_en):
        bad = gold_en.examples[1].question
        messages = set()
        for parallelism in (1, 4):
            with pytest.raises(BackendError) as err:
                synth_mt(gold_en, CountingTranslator(fail_on={bad}, parallelism=parallelism),
                         ["fi", "ar"])
            messages.add(str(err.value))
        assert messages == {
            f"translation of 'question' failed for example 'en-1' (ar): "
            f"cannot translate {bad!r}"
        }

    def test_build_exemplars_raises_first_failure_in_order(self, gold_en):
        bad = {gold_en.examples[3].answer, gold_en.examples[2].context}
        messages = set()
        for parallelism in (1, 4):
            with pytest.raises(BackendError) as err:
                build_exemplars_en_only(
                    gold_en, CountingTranslator(fail_on=bad, parallelism=parallelism), "fi"
                )
            messages.add(str(err.value))
        assert messages == {
            f"translation of 'context' failed for example 'en-2' (fi): "
            f"cannot translate {gold_en.examples[2].context!r}"
        }

    def test_program_fault_in_exemplars_is_raised_unwrapped(self, gold_en):
        # Only a BackendError is a failed call; anything else is a fault in
        # the program and reaches the caller as it was raised.
        class Broken(Backend):
            def __init__(self, parallelism):
                self.parallelism = parallelism

            def translate(self, request):
                raise RuntimeError("boom")

        for parallelism in (1, 4):
            with Broken(parallelism) as translator, pytest.raises(RuntimeError) as err:
                build_exemplars_en_only(gold_en, translator, "fi")
            assert type(err.value) is RuntimeError and str(err.value) == "boom"

    def test_synth_mt_program_fault_is_raised_unwrapped(self, gold_en):
        class BrokenOnQuestion(CountingTranslator):
            def translate(self, request):
                if request.text == gold_en.examples[1].question:
                    raise RuntimeError("boom")
                return super().translate(request)

        for parallelism in (1, 4):
            translator = BrokenOnQuestion(parallelism=parallelism)
            with translator, pytest.raises(RuntimeError) as err:
                synth_mt(gold_en, translator, ["fi", "ar"])
            assert type(err.value) is RuntimeError and str(err.value) == "boom"

    def test_synth_pe_program_fault_stops_the_fan_out(self):
        passages = [
            Passage(id=f"fi-p{i}", text=f"Silta valmistui vuonna {1000 + i}.", language="fi")
            for i in range(200)
        ]

        class FaultOnFirst(MockQABackend):
            def __init__(self, parallelism):
                super().__init__()
                self.parallelism = parallelism
                self.calls = []

            def generate(self, request):
                self.calls.append(request.prompt)
                if request.prompt.rsplit("  Passage: ", 1)[1].startswith(passages[0].text):
                    raise RuntimeError("boom")
                time.sleep(0.002)
                return super().generate(request)

        for parallelism in (1, 4):
            backend = FaultOnFirst(parallelism)
            with backend, pytest.raises(RuntimeError, match="^boom$"):
                synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
            # The fault is on the first request: a worker that had already
            # taken one may finish it, but no worker takes another.
            assert 1 <= len(backend.calls) < 20
            if parallelism == 1:
                assert len(backend.calls) == 1

    def test_filter_roundtrip_one_note_per_failed_item(self):
        examples = Dataset(
            name="r",
            examples=tuple(
                make_example(i, "Silta valmistui 1956.", q, "1956", provenance="pe")
                for i, q in enumerate(["Milloin?", "Kuka?", "Milloin?", "Miksi?"])
            ),
        )
        backend = StubRoundtrip({"Milloin?": "1956"})
        backend.parallelism = 4
        kept, report = filter_roundtrip(examples, backend, fi_exemplars())
        assert [ex.id for ex in kept.examples] == ["pe-fi-0", "pe-fi-2"]
        assert report.dropped == {"roundtrip_mismatch": 2}
        assert [note.split(":")[0] for note in report.notes] == ["pe-fi-1", "pe-fi-3"]

    def test_synth_pe_one_note_per_failed_item(self):
        class FailOnPassage(MockQABackend):
            parallelism = 4

            def generate(self, request):
                if "Kaupungissa" in request.prompt.rsplit("  Passage: ", 1)[1]:
                    raise BackendError("refused")
                return super().generate(request)

        passages = fi_passages(10)
        run = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, FailOnPassage())
        report = run.reports["fi"]
        failed = [p.id for p in passages if "Kaupungissa" in p.text]
        assert report.dropped == {"empty_generation": len(failed)}
        assert list(report.notes) == [f"{pid}: refused" for pid in failed]
        assert len(run.raw["fi"]) == 10 - len(failed)


class TestParallelismInvariance:
    """A backend's parallelism changes how many requests are in flight,
    never the output."""

    def test_every_stage(self, gold_en):
        passages = {"fi": fi_passages(12)}

        def outputs(p):
            backend = MockQABackend(noise_rate=0.5, seed=3)
            backend.parallelism = p
            mt = synth_mt(gold_en, CountingTranslator(parallelism=p), ["fi", "ar"])
            pe = synth_pe({"fi": fi_exemplars()}, passages, backend)
            extracted, _ = filter_extractive(pe.raw["fi"])
            rt = filter_roundtrip(extracted, backend, fi_exemplars())
            pt = synth_pt(passages, backend=backend)
            mixed = Dataset(
                name="tax",
                examples=gold_en.examples + mt.raw["fi"].examples + mt.raw["ar"].examples,
            )
            tax = distribution(mixed, CountingTranslator(parallelism=p))
            return (mt.raw, mt.reports, pe.raw, pe.reports, rt, pt.raw, pt.reports,
                    tax.to_dict())

        serial = outputs(1)
        assert serial[4][0].examples  # non-vacuous: the round trip keeps something
        assert outputs(4) == serial


def run_bounded(fn, timeout=60):
    """fn() on a helper thread joined with a timeout: its result, or the
    exception it raised."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as e:  # handed to the test thread below
            outcome["error"] = e

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestFanOut:
    """Backend._fan_out: pool workers pull the next item from a shared
    iterator, and stop pulling once a call raises or the caller is
    interrupted."""

    def test_stress_every_item_once_in_order_within_parallelism(self):
        # More workers than this host's CPUs and a short switch interval:
        # a lost update on the shared iterator shows as an item run twice
        # or never, or as more than parallelism calls in flight.
        n, parallelism = 5000, 8
        ran = Counter()
        lock = threading.Lock()
        inflight = peak = 0

        def fn(item):
            nonlocal inflight, peak
            with lock:
                ran[item] += 1
                inflight += 1
                peak = max(peak, inflight)
            time.sleep(0)
            with lock:
                inflight -= 1
            return -item

        backend = CountingTranslator(parallelism=parallelism)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_bounded(lambda: backend._fan_out(fn, list(range(n))))
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert ran == Counter(range(n))
        assert results == [-i for i in range(n)]
        assert 1 < peak <= parallelism

    def test_a_raising_call_stops_the_hand_out_and_reaches_the_caller(self):
        ran = []
        lock = threading.Lock()
        inflight = 0

        def fn(item):
            nonlocal inflight
            with lock:
                ran.append(item)
                inflight += 1
            try:
                if item == 0:
                    # Raised while the other workers are mid-call.
                    time.sleep(0.005)
                    raise RuntimeError("boom")
                time.sleep(0.02)
                return item
            finally:
                with lock:
                    inflight -= 1

        backend = CountingTranslator(parallelism=4)
        try:
            with pytest.raises(RuntimeError, match="^boom$"):
                run_bounded(lambda: backend._fan_out(fn, list(range(1000))))
            assert inflight == 0  # every worker finished before the raise
            assert 0 in ran and len(ran) < 20
        finally:
            backend.close()

    def test_sigint_stops_after_the_calls_in_flight(self):
        # A real signal: _thread.interrupt_main() only sets a flag, which
        # does not wake a main thread blocked in one long wait. Only the main
        # thread takes the signal, so the fan-out runs on it; 300 calls of
        # 10 ms at parallelism 2 end within 1.5 s even if nothing stops them.
        ran = []

        def fn(item):
            ran.append(item)
            if item == 5:
                os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.01)
            return item

        backend = CountingTranslator(parallelism=2)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                backend._fan_out(fn, list(range(300)))
        finally:
            signal.signal(signal.SIGINT, handler)
            backend.close()
        assert 5 in ran and len(ran) < 20
