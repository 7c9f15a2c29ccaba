"""Synthetic languages, the stub's reversible translation and its answering rule.

The stub server, the fixture generator and the output checks all import this
module, so the checks predict what the pipeline must produce from the rule
below and never from qasynth itself.

Languages. Every language has its own lexicon of made-up words; no word is
shared between two lexicons, so the first word of a passage names its
language. Translation between languages is a letter rotation whose key
depends on the language (English has key 0). It is a bijection on ASCII
letters, so a question the stub writes in language L translates back to the
exact English template it came from, and the taxonomy's question buckets
("What", "When was", ...) stay meaningful.

Answering rule. Each passage falls into one of four classes, decided by a
seeded hash of its text:

- KEEP: the pair survives both filters.
- NOT_IN_CONTEXT: the answer is not in the passage (extractive filter).
- TRIVIAL: the question contains the answer (extractive filter).
- MISMATCH: the round-trip re-answer names another entity (round-trip filter).

The fixture generator keeps sampling passages until each class holds exactly
its quota, so the number of backend calls and kept pairs is the same for
every seed.
"""

from __future__ import annotations

import hashlib
import random
import string
from typing import Dict, List, Tuple

TARGET_LANGUAGES = ("fi", "sw", "te")
SHIFTS = {"en": 0, "fi": 3, "sw": 7, "te": 11}

_SYLLABLES = {
    "en": ("bar", "den", "fol", "gran", "hel", "mor", "ston", "wick", "ley", "ton", "ash", "brook"),
    "fi": ("ka", "la", "mi", "nu", "te", "vo", "sa", "ri", "ki", "lo", "ja", "pe"),
    "sw": ("mba", "ngo", "wa", "zi", "ku", "ta", "shi", "ru", "me", "jo", "ha", "ye"),
    "te": ("dra", "vi", "pra", "sha", "lu", "ko", "ga", "ne", "thi", "ma", "du", "ya"),
}
LEXICON_SIZE = 240

KEEP = "keep"
NOT_IN_CONTEXT = "not_in_context"
TRIVIAL = "trivial"
MISMATCH = "mismatch"
CLASSES = (KEEP, NOT_IN_CONTEXT, TRIVIAL, MISMATCH)
# Per 100 passages: 60 kept, 12 + 10 dropped by the extractive filter,
# 18 dropped by the round-trip filter.
QUOTA_PER_100 = {KEEP: 60, NOT_IN_CONTEXT: 12, TRIVIAL: 10, MISMATCH: 18}
_CLASS_CUTS = ((KEEP, 0.60), (NOT_IN_CONTEXT, 0.72), (TRIVIAL, 0.82), (MISMATCH, 1.0))

QUESTION_TEMPLATES = (
    "What did the council decide?",
    "What is the river called?",
    "Who built the old harbor?",
    "Who led the first expedition?",
    "When was the bridge completed?",
    "When did the festival begin?",
    "How many ships reached the port?",
    "How long did the siege last?",
    "Which town hosted the fair?",
    "Where did the traders meet?",
    "Why was the road closed?",
    "In which year was the school founded?",
)
TRIVIAL_PREFIX = "What is known about"

# Prompt layout the stub parses; these mirror the documented prompt templates.
PASSAGE_LABEL = "  Passage: "
ANSWER_LABEL = "  Answer: "
QUESTION_LABEL = "  Question: "
ANSWER_CUE = "Answer in the original language:"
QUESTION_CUE = "Question in the original language:"
# Text after the completion, so the client's stop sequence has work to do.
CONTINUATION = "\nPassage: unrelated follow-on text"


def _build_lexicons() -> Dict[str, Tuple[str, ...]]:
    taken = set()
    out = {}
    for lang in ("en",) + TARGET_LANGUAGES:
        rng = random.Random(f"lexicon-{lang}")
        words: List[str] = []
        while len(words) < LEXICON_SIZE:
            word = "".join(rng.choice(_SYLLABLES[lang]) for _ in range(rng.randint(2, 3)))
            if word not in taken:
                taken.add(word)
                words.append(word)
        out[lang] = tuple(words)
    return out


LEXICONS = _build_lexicons()
_WORD_LANGUAGE = {w: lang for lang, words in LEXICONS.items() for w in words}

_TABLES: Dict[int, dict] = {}


def _rotation(k: int) -> dict:
    k %= 26
    if k not in _TABLES:
        lower, upper = string.ascii_lowercase, string.ascii_uppercase
        _TABLES[k] = str.maketrans(
            lower + upper, lower[k:] + lower[:k] + upper[k:] + upper[:k]
        )
    return _TABLES[k]


def translate(text: str, source: str, target: str) -> str:
    """The stub's translation: rotate letters by the difference of the keys."""
    return text.translate(_rotation(SHIFTS[target] - SHIFTS[source]))


def language_of(passage: str) -> str:
    """Language of a passage, named by its first word."""
    first = passage.split(None, 1)[0].strip(string.punctuation).lower()
    return _WORD_LANGUAGE[first]


def entities(passage: str) -> List[str]:
    """Answerable spans: years, and capitalised words inside a sentence."""
    out = []
    tokens = passage.split()
    for i, tok in enumerate(tokens):
        word = tok.rstrip(".,")
        if word.isdigit():
            out.append(word)
        elif word[:1].isupper() and i > 0 and not tokens[i - 1].endswith("."):
            out.append(word)
    return out


def _draw(seed: int, text: str, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}|{purpose}|{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def passage_class(seed: int, passage: str) -> str:
    u = (_draw(seed, passage, "class") % 10_000) / 10_000
    for cls, cut in _CLASS_CUTS:
        if u < cut:
            return cls
    return MISMATCH


def answer_for(seed: int, passage: str) -> str:
    ents = entities(passage)
    if not ents:
        return "none"
    if passage_class(seed, passage) == NOT_IN_CONTEXT:
        return f"Xq{_draw(seed, passage, 'fabricate') % 16**6:06x}"
    return ents[_draw(seed, passage, "answer") % len(ents)]


def question_for(seed: int, passage: str, answer: str) -> str:
    lang = language_of(passage)
    if passage_class(seed, passage) == TRIVIAL:
        return f"{translate(TRIVIAL_PREFIX, 'en', lang)} {answer}?"
    template = QUESTION_TEMPLATES[_draw(seed, passage, "question") % len(QUESTION_TEMPLATES)]
    return translate(template, "en", lang)


def reanswer_for(seed: int, passage: str) -> str:
    """The answer the stub gives when asked to re-answer a generated question."""
    answer = answer_for(seed, passage)
    if passage_class(seed, passage) == MISMATCH:
        others = [e for e in entities(passage) if normalize(e) != normalize(answer)]
        return others[0] if others else answer
    # Half of the kept pairs come back with a trailing period, which only an
    # answer-normalising comparison forgives.
    return answer + "." if _draw(seed, passage, "period") % 2 else answer


def normalize(text: str) -> str:
    """Lower case, no ASCII punctuation, single spaces."""
    return " ".join(
        text.lower().translate(str.maketrans("", "", string.punctuation)).split()
    )


def realized_class(seed: int, passage: str) -> str:
    """The class the filters will assign, judged from the stub's outputs alone."""
    answer = answer_for(seed, passage)
    if answer not in passage:
        return NOT_IN_CONTEXT
    if answer in question_for(seed, passage, answer):
        return TRIVIAL
    if normalize(reanswer_for(seed, passage)) != normalize(answer):
        return MISMATCH
    return KEEP


def _last_line_value(prompt: str, label: str) -> str:
    at = prompt.rfind(label)
    if at == -1:
        raise ValueError(f"prompt has no {label.strip()!r} line")
    end = prompt.find("\n", at)
    return prompt[at + len(label): end if end != -1 else len(prompt)]


def complete(seed: int, prompt: str) -> str:
    """The stub's completion of a two-stage or round-trip prompt."""
    stripped = prompt.rstrip()
    passage = _last_line_value(prompt, PASSAGE_LABEL)
    target_block = prompt[prompt.rfind(PASSAGE_LABEL):]
    if stripped.endswith(QUESTION_CUE):
        value = question_for(seed, passage, _last_line_value(target_block, ANSWER_LABEL))
    elif stripped.endswith(ANSWER_CUE):
        if QUESTION_LABEL in target_block:
            value = reanswer_for(seed, passage)
        else:
            value = answer_for(seed, passage)
    else:
        raise ValueError("prompt does not end at a known cue")
    return f" {value}{CONTINUATION}"
