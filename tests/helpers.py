"""Helpers and test doubles that more than one test file uses. Fixtures are
in conftest.py, the wire server in mock_server.py; test files import this
module by its bare name, `from helpers import ...`."""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import Counter
from pathlib import Path
from typing import Sequence

from qasynth.backends import Backend, BackendError, GenerationRequest
from qasynth.cli import EXIT_OK, main
from qasynth.corpus import Dataset, Passage, QAExample, write_jsonl
from qasynth.promptkit import Exemplar, ExemplarSet


def make_example(
    i: int,
    context: str,
    question: str,
    answer: str,
    language: str = "fi",
    provenance: str = "gold",
    answer_start=None,
    source_dataset: str = "fixture",
) -> QAExample:
    return QAExample(
        id=f"{provenance}-{language}-{i}",
        context=context,
        question=question,
        answer=answer,
        answer_start=answer_start,
        language=language,
        provenance=provenance,
        source_dataset=source_dataset,
    )


def record_fields(record):
    """A dataclass record's fields as its JSON artifact must read back:
    dataclasses.asdict through plain json, so tuples come back as lists."""
    return json.loads(json.dumps(dataclasses.asdict(record)))


def fi_exemplars() -> ExemplarSet:
    return ExemplarSet(
        language="fi",
        scenario="english_only",
        exemplars=(
            Exemplar(
                context_l="Torni on korkea.",
                question_en="What is tall?",
                answer_en="tower",
                question_l="Mika on korkea?",
                answer_l="torni",
                language="fi",
            ),
        ),
    )


def fi_passages(n: int) -> list:
    texts = [
        "Silta valmistui vuonna 1956 ja se ylittaa joen.",
        "Kaupungissa asuu 45000 ihmista talvella.",
        "Vuori kohoaa 1324 metrin korkeuteen merenpinnasta.",
        "Nayttely avattiin 12 paivana ja kesti kolme viikkoa.",
        "Juna kulkee reitin 90 minuutissa pysahtyen kahdesti.",
        "Tehdas tyollisti 800 henkiloa parhaimmillaan.",
        "Saari sijaitsee 7 kilometrin paassa rannikosta.",
        "Kirjasto sai 230 uutta nidetta lahjoituksena.",
    ]
    return [
        Passage(id=f"fi-p{i}", text=texts[i % len(texts)], language="fi")
        for i in range(n)
    ]


class StaticBackend(Backend):
    """Replays canned completions in order, raw; for plumbing tests."""

    def __init__(self, completions: Sequence[str]):
        self._completions = list(completions)
        self._calls = 0

    def generate(self, request: GenerationRequest) -> str:
        if self._calls >= len(self._completions):
            raise BackendError("static backend exhausted")
        text = self._completions[self._calls]
        self._calls += 1
        return text


class StubRoundtrip(Backend):
    """Returns scripted re-answers keyed by the question inside the prompt."""

    def __init__(self, answers_by_question):
        self.answers_by_question = answers_by_question

    def generate(self, request):
        for question, answer in self.answers_by_question.items():
            if f"  Question: {question}\n" in request.prompt + "\n":
                return f" {answer}"
        raise BackendError("no scripted answer")


class ReversingTranslator(Backend):
    """Translates by reversing the text, so every reply names its request;
    counts calls per (text, source, target); raises BackendError on the
    texts in fail_on."""

    def __init__(self, fail_on=()):
        self.fail_on = set(fail_on)
        self.calls = Counter()
        self._lock = threading.Lock()  # a MockServer calls it from several threads

    def translate(self, request):
        with self._lock:
            self.calls[(request.text, request.source, request.target)] += 1
        if request.text in self.fail_on:
            raise BackendError(f"cannot translate {request.text!r}")
        return request.text[::-1]


class DictTranslator(Backend):
    """Scripted translator: exact source text to exact English text."""

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def translate(self, request):
        if request.text not in self.mapping:
            raise BackendError(f"no translation for {request.text!r}")
        return self.mapping[request.text]


class BrokenTranslator(Backend):
    """Raises RuntimeError("boom") on every call: a fault in the program,
    not a failed translation."""

    def translate(self, request):
        raise RuntimeError("boom")


TINY_TUNER = {
    "m": 2,
    "d": 8,
    "h": 16,
    "learning_rate": 0.1,
    "warmup_steps": 5,
    "batch_size": 4,
    "max_steps": 10,
    "eval_every": 5,
    "early_stop_metric": "dev_loss",
}


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_pool(tmp_path: Path, n: int = 10) -> str:
    """NDJSON passage pool with lengths 150, 200, ..., straddling the window."""
    path = tmp_path / "pool.ndjson"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            length = 150 + 50 * i
            text = (f"p{i}" * (length // 2 + 1))[:length]
            fh.write(json.dumps({"id": f"pass-{i}", "text": text}) + "\n")
    return str(path)


def write_tune_corpus(tmp_path: Path, train_language: str = "fi", dev_language: str = "fi"):
    train = Dataset(
        name="t",
        examples=tuple(
            make_example(i, f"x{10 + i}a", "aaa", "aa", language=train_language)
            for i in range(8)
        ),
    )
    dev = Dataset(
        name="d",
        examples=tuple(
            make_example(100 + i, f"x{50 + i}a", "aaa", "aa", language=dev_language)
            for i in range(4)
        ),
    )
    train_path = tmp_path / "train.jsonl"
    dev_path = tmp_path / "dev.jsonl"
    write_jsonl(train, train_path)
    write_jsonl(dev, dev_path)
    return str(train_path), str(dev_path)


def write_passage_file(directory: Path, lang: str, texts) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / f"{lang}.passages.jsonl").open("w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            fh.write(json.dumps({"id": f"p{i}", "text": text}) + "\n")


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def synth_prerequisites(tmp_path: Path, gold_en: Dataset) -> dict:
    """ingest-equivalent gold file, sampled passages, and exemplars for fi.

    The mock backend gets a noise rate: a noiseless mock question always
    embeds its answer span, so nothing would survive the trivial-question
    filter and the downstream steps would be exercised on empty data.
    """
    gold_path = tmp_path / "en.gold.jsonl"
    write_jsonl(gold_en, gold_path)
    pool = write_pool(tmp_path)
    shared = tmp_path / "shared"
    config = write_config(
        tmp_path,
        {"languages": ["en", "fi"],
         "backend": {"kind": "mock", "noise_rate": 0.5}},
    )
    assert (
        main(["sample", "--passages", pool, "--language", "fi", "--n", "7",
              "--out", str(shared)])
        == EXIT_OK
    )
    assert (
        main(["exemplars", "--gold", str(gold_path), "--language", "fi",
              "--out", str(shared)])
        == EXIT_OK
    )
    return {"gold": str(gold_path), "shared": str(shared), "config": config}
