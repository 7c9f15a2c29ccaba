"""Shared fixtures: tiny gold datasets, passage pools, the tuning corpus, and a
canned-completion generation backend."""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np
import pytest

from qasynth.backends import (
    Backend,
    BackendError,
    GenerationRequest,
    MockQABackend,
    TaggingTranslator,
    apply_stop_sequences,
)
from qasynth.corpus import Dataset, Passage, QAExample


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


class StaticBackend(Backend):
    """Replays canned completions in order; for plumbing tests."""

    def __init__(self, completions: Sequence[str]):
        self._completions = list(completions)
        self._calls = 0

    def generate(self, request: GenerationRequest) -> str:
        if self._calls >= len(self._completions):
            raise BackendError("static backend exhausted")
        text = self._completions[self._calls]
        self._calls += 1
        return apply_stop_sequences(text, request.stop_sequences)


@pytest.fixture
def gold_en() -> Dataset:
    """Five English gold examples with aligned answer offsets."""
    rows = [
        ("The tower was built in 1889 by Eiffel.", "When was the tower built?", "1889"),
        ("Marie Curie won two Nobel prizes.", "Who won two Nobel prizes?", "Marie Curie"),
        ("The river Seine flows through Paris.", "Which river flows through Paris?", "Seine"),
        ("Oxygen has the atomic number 8.", "What is the atomic number of oxygen?", "8"),
        ("The treaty was signed in Vienna.", "Where was the treaty signed?", "Vienna"),
    ]
    examples = []
    for i, (c, q, a) in enumerate(rows):
        examples.append(
            QAExample(
                id=f"en-{i}",
                context=c,
                question=q,
                answer=a,
                answer_start=c.index(a),
                language="en",
                provenance="gold",
                source_dataset="fixture",
            )
        )
    return Dataset(name="gold-en", examples=tuple(examples))


@pytest.fixture
def gold_multi() -> Dataset:
    """Three languages, uneven counts, for evaluation and taxonomy tests."""
    rows = [
        ("en", "The play opened in London.", "Where did the play open?", "London"),
        ("en", "It rained for four days.", "How long did it rain?", "four days"),
        ("fi", "Torni valmistui vuonna 1975.", "Milloin torni valmistui?", "1975"),
        ("fi", "Joki virtaa kaupungin halki.", "Mika virtaa kaupungin halki?", "Joki"),
        ("fi", "Kirja julkaistiin keskiviikkona.", "Milloin kirja julkaistiin?", "keskiviikkona"),
        ("ar", "ولد الشاعر عام 1920.", "متى ولد الشاعر؟", "1920"),
    ]
    examples = []
    for i, (lang, c, q, a) in enumerate(rows):
        examples.append(
            QAExample(
                id=f"{lang}-{i}",
                context=c,
                question=q,
                answer=a,
                answer_start=c.index(a),
                language=lang,
                provenance="gold",
                source_dataset="fixture",
            )
        )
    return Dataset(name="gold-multi", examples=tuple(examples))


@pytest.fixture
def passage_pool() -> list:
    """Ten Finnish passages, lengths straddling the 200..510 sampling window."""
    pool = []
    for i in range(10):
        length = 150 + 50 * i  # 150, 200, ..., 600
        text = ("p" + str(i)) * (length // 2 + 1)
        pool.append(Passage(id=f"pass-{i}", text=text[:length], language="fi", source="wiki"))
    return pool


@pytest.fixture
def tagging_translator() -> TaggingTranslator:
    return TaggingTranslator()


@pytest.fixture
def mock_backend() -> MockQABackend:
    return MockQABackend(noise_rate=0.0, seed=0)


@pytest.fixture
def tune_corpus():
    """The 32-example byte corpus used by the training-loss criterion.

    Targets are dominated by byte 'a' on purpose: a 16-dim frozen state can
    push one shared readout direction, which is what makes the loss
    reduction and the first-byte decoding property reachable at all.
    """
    train = Dataset(
        name="tune-train",
        examples=tuple(
            make_example(i, f"x{10 + i}a", "aaa", "aa") for i in range(32)
        ),
    )
    dev = Dataset(
        name="tune-dev",
        examples=tuple(
            make_example(100 + i, f"x{50 + i}a", "aaa", "aa") for i in range(8)
        ),
    )
    return train, dev


@pytest.fixture
def squad_raw() -> bytes:
    """Minimal SQuAD v1.1 document: 2 articles, 3 paragraphs, 4 qas."""
    doc = {
        "version": "1.1",
        "data": [
            {
                "title": "A",
                "paragraphs": [
                    {
                        "context": "The tower was built in 1889.",
                        "qas": [
                            {
                                "id": "q1",
                                "question": "When was the tower built?",
                                "answers": [{"text": "1889", "answer_start": 23}],
                            },
                            {
                                "id": "q2",
                                "question": "What was built?",
                                "answers": [
                                    {"text": "The tower", "answer_start": 0},
                                    {"text": "tower", "answer_start": 4},
                                ],
                            },
                        ],
                    },
                    {
                        "context": "Snow fell on the hills.",
                        "qas": [
                            {
                                "id": "q3",
                                "question": "What fell on the hills?",
                                "answers": [{"text": "Snow", "answer_start": 0}],
                            }
                        ],
                    },
                ],
            },
            {
                "title": "B",
                "paragraphs": [
                    {
                        "context": "Rain washed the valley road.",
                        "qas": [
                            {
                                "id": "q4",
                                "question": "What washed the road?",
                                "answers": [{"text": "Rain", "answer_start": 0}],
                            }
                        ],
                    }
                ],
            },
        ],
    }
    return json.dumps(doc).encode("utf-8")


@pytest.fixture
def recorded_connections(monkeypatch) -> list:
    """Every http.client.HTTPConnection created during the test, in creation
    order; each one's closed property is true while it holds no socket."""
    import http.client

    made = []

    class RecordingConnection(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        @property
        def closed(self) -> bool:
            return self.sock is None

    monkeypatch.setattr(http.client, "HTTPConnection", RecordingConnection)
    return made
