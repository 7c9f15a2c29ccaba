"""Exemplar construction and rendering/parsing of the two-stage QA prompts.

Stage one asks for a plausible answer given a passage; stage two asks for the
question that the answer answers. Each exemplar block carries an English line
immediately before the corresponding target-language line, which anchors the
generation through English even when the passage language is something else
entirely (the bridge). Template byte layout is frozen in module constants so
mock backends and golden tests can match it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .backends import Backend, BackendError, TranslationRequest, run_requests
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


def render_answer_prompt(
    exemplars: ExemplarSet,
    target_passage: Passage,
) -> str:
    """Render the stage-one prompt asking for an answer span in the passage.

    Layout: the instruction, one block per exemplar (Passage / Answer in
    English / Answer in the original language), then the target block that
    ends exactly after the original-language answer cue.
    """
    if exemplars.language != target_passage.language:
        raise PromptError(
            f"exemplar language {exemplars.language!r} does not match passage "
            f"language {target_passage.language!r}"
        )
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
    if exemplars.language != target_passage.language:
        raise PromptError(
            f"exemplar language {exemplars.language!r} does not match passage "
            f"language {target_passage.language!r}"
        )
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
    if exemplars.language != target_passage.language:
        raise PromptError(
            f"exemplar language {exemplars.language!r} does not match passage "
            f"language {target_passage.language!r}"
        )
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
    passage = raw.find("Passage:")
    if passage != -1:
        cut = min(cut, passage)
    value = raw[:cut].strip()
    if not value:
        raise PromptError("empty completion")
    return value
