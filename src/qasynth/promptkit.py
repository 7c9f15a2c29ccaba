"""Exemplar construction, the prompt formats and their completions, and the
generation mock that answers them.

Stage one asks for a plausible answer given a passage; stage two asks for the
question that the answer answers. Each exemplar block carries an English line
immediately before the corresponding target-language line, which anchors the
generation through English even when the passage language is something else
entirely (the bridge). Template byte layout is frozen in module constants,
which the stop sequence and MockQABackend read too.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .backends import Backend, BackendError, GenerationRequest, TranslationRequest, run_requests
from .corpus import SCENARIOS, Dataset, Passage, QAExample

ANSWER_INSTRUCTION = "I will write potential answers\nfor the following passages."
QUESTION_INSTRUCTION = "I will write questions and answers\nfor the following passages."

PASSAGE_LABEL = "  Passage: "
ANSWER_EN_LABEL = "  Answer in English: "
ANSWER_L_CUE = "  Answer in the original language:"
ANSWER_LABEL = "  Answer: "
QUESTION_EN_LABEL = "  Question in English: "
QUESTION_L_CUE = "  Question in the original language:"
QUESTION_LABEL = "  Question: "

# A model that continues the few-shot pattern starts the next block here.
STOP_SEQUENCES = ("\n" + PASSAGE_LABEL.rstrip(),)


class PromptError(ValueError):
    """Raised for invalid exemplar construction or unusable completions."""


@dataclass(frozen=True)
class Exemplar:
    """One in-context example: passage, QA pair in English, QA pair in language l."""

    context_l: str
    question_en: str
    answer_en: str
    question_l: str
    answer_l: str
    language: str

    def __post_init__(self):
        for name in ("context_l", "question_en", "answer_en", "question_l", "answer_l", "language"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise PromptError(
                    f"exemplar field {name!r} must be a non-empty string, got {value!r}"
                )


@dataclass(frozen=True)
class ExemplarSet:
    language: str
    exemplars: Tuple[Exemplar, ...]
    scenario: str

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise PromptError(f"unknown scenario {self.scenario!r}")
        for ex in self.exemplars:
            if ex.language != self.language:
                raise PromptError(
                    f"exemplar language {ex.language!r} does not match set "
                    f"language {self.language!r}"
                )

    def __len__(self) -> int:
        return len(self.exemplars)


def translate_fields(
    translator: Backend,
    examples: Sequence[QAExample],
    names: Sequence[str],
    source: str,
    targets: Sequence[str],
) -> List[List[Dict[str, str]]]:
    """Translate the named fields of every example from source into each target.

    Returns, for each target, one {field: translation} per example, in order.
    Every translation goes through one run_requests call. The first backend
    failure in (target, example, field) order is raised as a BackendError
    that names the field, the example and the target.
    """
    rows = [(target, ex, name) for target in targets for ex in examples for name in names]
    reqs = [
        TranslationRequest(text=getattr(ex, name), source=source, target=target)
        for target, ex, name in rows
    ]
    texts = run_requests(translator, reqs)
    for (target, ex, name), text in zip(rows, texts):
        if isinstance(text, BackendError):
            raise BackendError(
                f"translation of {name!r} failed for example {ex.id!r} ({target}): {text}"
            ) from text
    it = iter(texts)
    return [[{name: next(it) for name in names} for _ in examples] for _ in targets]


def build_exemplars_en_only(
    d_en_n: Dataset,
    translator: Backend,
    target_language: str,
) -> ExemplarSet:
    """Build exemplars for a language with no labeled data of its own.

    Each English (c, q, a) is mapped to (T(c), q, a, T(q), T(a)) where T
    translates en -> target_language. Order is preserved. The translations
    go through one run_requests call.
    """
    for ex in d_en_n.examples:
        if ex.language != "en":
            raise PromptError(
                f"example {ex.id!r} is {ex.language!r}; expected an English dataset"
            )
    (translated,) = translate_fields(
        translator, d_en_n.examples, ("context", "question", "answer"), "en",
        [target_language],
    )
    exemplars = tuple(
        Exemplar(
            context_l=fields["context"],
            question_en=ex.question,
            answer_en=ex.answer,
            question_l=fields["question"],
            answer_l=fields["answer"],
            language=target_language,
        )
        for ex, fields in zip(d_en_n.examples, translated)
    )
    return ExemplarSet(
        language=target_language,
        exemplars=exemplars,
        scenario="english_only",
    )


def build_exemplars_fewshot(
    d_l_n: Dataset,
    translator: Backend,
) -> ExemplarSet:
    """Build exemplars from a handful of labeled target-language examples.

    Each (c, q, a) in language l != en is mapped to (c, T(q), T(a), q, a)
    where T translates l -> en. The dataset must be monolingual. The
    translations go through one run_requests call.
    """
    languages = {ex.language for ex in d_l_n.examples}
    if len(languages) != 1:
        raise PromptError(
            f"dataset must be monolingual; found languages {sorted(languages)}"
        )
    (language,) = languages
    if language == "en":
        raise PromptError("few-shot exemplars are for non-English languages")
    (translated,) = translate_fields(
        translator, d_l_n.examples, ("question", "answer"), language, ["en"]
    )
    exemplars = tuple(
        Exemplar(
            context_l=ex.context,
            question_en=fields["question"],
            answer_en=fields["answer"],
            question_l=ex.question,
            answer_l=ex.answer,
            language=language,
        )
        for ex, fields in zip(d_l_n.examples, translated)
    )
    return ExemplarSet(
        language=language,
        exemplars=exemplars,
        scenario="few_shot",
    )


def _check_language(exemplars: ExemplarSet, target_passage: Passage) -> None:
    if exemplars.language != target_passage.language:
        raise PromptError(
            f"exemplar language {exemplars.language!r} does not match passage "
            f"language {target_passage.language!r}"
        )


def render_answer_prompt(
    exemplars: ExemplarSet,
    target_passage: Passage,
) -> str:
    """Render the stage-one prompt asking for an answer span in the passage.

    Layout: the instruction, one block per exemplar (Passage / Answer in
    English / Answer in the original language), then the target block that
    ends exactly after the original-language answer cue.
    """
    _check_language(exemplars, target_passage)
    lines = [ANSWER_INSTRUCTION]
    for ex in exemplars.exemplars:
        lines.append(f"{PASSAGE_LABEL}{ex.context_l}")
        lines.append(f"{ANSWER_EN_LABEL}{ex.answer_en}")
        lines.append(f"{ANSWER_L_CUE} {ex.answer_l}")
    lines.append(f"{PASSAGE_LABEL}{target_passage.text}")
    lines.append(ANSWER_L_CUE)
    return "\n".join(lines)


def render_question_prompt(
    exemplars: ExemplarSet,
    target_passage: Passage,
    predicted_answer: str,
) -> str:
    """Render the stage-two prompt asking for the question behind an answer.

    Blocks are Passage / Answer / Question in English / Question in the
    original language; the target block carries the stage-one answer and
    ends exactly after the original-language question cue.
    """
    if not predicted_answer:
        raise PromptError("predicted_answer must be non-empty")
    _check_language(exemplars, target_passage)
    lines = [QUESTION_INSTRUCTION]
    for ex in exemplars.exemplars:
        lines.append(f"{PASSAGE_LABEL}{ex.context_l}")
        lines.append(f"{ANSWER_LABEL}{ex.answer_l}")
        lines.append(f"{QUESTION_EN_LABEL}{ex.question_en}")
        lines.append(f"{QUESTION_L_CUE} {ex.question_l}")
    lines.append(f"{PASSAGE_LABEL}{target_passage.text}")
    lines.append(f"{ANSWER_LABEL}{predicted_answer}")
    lines.append(QUESTION_L_CUE)
    return "\n".join(lines)


def render_roundtrip_prompt(
    exemplars: ExemplarSet,
    target_passage: Passage,
    question: str,
) -> str:
    """Render the consistency-check prompt: re-answer a known question.

    Same shape as the answer prompt but with a Question line inserted into
    every block (exemplars and target) so the completion is conditioned on
    the question being verified.
    """
    if not question:
        raise PromptError("question must be non-empty")
    _check_language(exemplars, target_passage)
    lines = [ANSWER_INSTRUCTION]
    for ex in exemplars.exemplars:
        lines.append(f"{PASSAGE_LABEL}{ex.context_l}")
        lines.append(f"{QUESTION_LABEL}{ex.question_l}")
        lines.append(f"{ANSWER_EN_LABEL}{ex.answer_en}")
        lines.append(f"{ANSWER_L_CUE} {ex.answer_l}")
    lines.append(f"{PASSAGE_LABEL}{target_passage.text}")
    lines.append(f"{QUESTION_LABEL}{question}")
    lines.append(ANSWER_L_CUE)
    return "\n".join(lines)


def render_pt_prompt(passage: Passage) -> str:
    """Render a tuned-model request: the language tag, then the passage."""
    return f"[{passage.language}] {passage.text}"


def parse_completion(raw: str) -> str:
    """Extract the generated field from a raw continuation.

    Takes the first line only, also cutting at a literal "Passage:" if the
    backend ran straight into the next block, then trims whitespace. An
    empty result is an error rather than an empty-string success.
    """
    cut = len(raw)
    newline = raw.find("\n")
    if newline != -1:
        cut = min(cut, newline)
    passage = raw.find(PASSAGE_LABEL.strip())
    if passage != -1:
        cut = min(cut, passage)
    value = raw[:cut].strip()
    if not value:
        raise PromptError("empty completion")
    return value


def parse_pt_completion(raw: str) -> Optional[Tuple[str, str]]:
    """A tuned-model completion as (answer, question), both trimmed: the first
    line, then the next non-blank one. None if there is no newline."""
    if "\n" not in raw:
        return None
    answer, question = raw.split("\n", 1)
    return answer.strip(), question.strip().split("\n")[0]


_DIGIT_RUN = re.compile(r"\d+")


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
    """Generation mock that reads the prompt layouts rendered above.

    For two-stage prompts it finds the target passage (the last
    PASSAGE_LABEL line), detects the stage from the trailing cue, and
    replies with mock_qa_generate, then the start of a next block, which
    run_requests cuts at the stop sequence. For tuned-model prompts
    ("[fi] <passage>") it replies "answer\\nquestion".
    """

    def __init__(self, noise_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= noise_rate <= 1.0:
            raise ValueError("noise_rate must be within [0, 1]")
        self.noise_rate = noise_rate
        self.seed = seed

    def _target_passage(self, prompt: str) -> str:
        idx = prompt.rfind(PASSAGE_LABEL)
        if idx == -1:
            raise BackendError("prompt has no passage line; cannot mock a completion")
        line_end = prompt.find("\n", idx)
        if line_end == -1:
            line_end = len(prompt)
        return prompt[idx + len(PASSAGE_LABEL) : line_end]

    def generate(self, request: GenerationRequest) -> str:
        prompt = request.prompt
        stripped = prompt.rstrip()
        if stripped.endswith(QUESTION_L_CUE):
            stage = "question"
        elif stripped.endswith(ANSWER_L_CUE):
            stage = "answer"
        elif prompt.startswith("[") and "]" in prompt.split("\n", 1)[0]:
            passage = prompt[prompt.index("]") + 1 :].lstrip()
            answer = mock_qa_generate(passage, "answer", self.noise_rate, self.seed)
            question = mock_qa_generate(passage, "question", self.noise_rate, self.seed)
            return f"{answer}\n{question}"
        else:
            raise BackendError("prompt does not end at a known cue")
        passage = self._target_passage(prompt)
        completion = mock_qa_generate(passage, stage, self.noise_rate, self.seed)
        return f" {completion}\n{PASSAGE_LABEL}unrelated follow-on text"
