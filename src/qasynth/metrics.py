"""Answer normalization, EM/F1, corpus BLEU, and per-language evaluation reports.

EM and F1 follow the usual extractive-QA convention: both strings are
normalized (lowercase, punctuation stripped, whitespace collapsed; English
additionally drops the articles a/an/the), EM is normalized string equality
against any gold answer, and F1 is the max token-multiset overlap over golds.

Corpus BLEU is the classic modified-n-gram-precision formulation with a
brevity penalty and no smoothing: any zero precision up to order 4 zeroes the
score. It is tokenization-agnostic, so it works equally on whitespace tokens
and on raw byte values (the form the prompt tuner uses for early stopping).
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Sequence

from .corpus import Dataset

_EN_ARTICLES = frozenset({"a", "an", "the"})

MAX_BLEU_ORDER = 4


def normalize_answer(text: str, language: str) -> str:
    """Normalize an answer string for comparison.

    Lowercases, deletes all Unicode punctuation, collapses whitespace runs
    and trims. For English only, standalone article tokens (a, an, the) are
    removed as well.
    """
    lowered = text.lower()
    no_punct = "".join(
        ch for ch in lowered if not unicodedata.category(ch).startswith("P")
    )
    tokens = no_punct.split()
    if language == "en":
        tokens = [t for t in tokens if t not in _EN_ARTICLES]
    return " ".join(tokens)


def em(prediction: str, golds: Sequence[str], language: str) -> int:
    """Exact match: 1 iff the normalized prediction equals any normalized gold."""
    if not golds:
        raise ValueError("em requires at least one gold answer")
    norm_pred = normalize_answer(prediction, language)
    return int(any(norm_pred == normalize_answer(g, language) for g in golds))


def f1(prediction: str, golds: Sequence[str], language: str) -> float:
    """Token-level F1, max over gold answers.

    Tokens are whitespace splits of the normalized strings. When both
    normalized strings are empty the pair scores 1; zero token overlap
    scores 0.
    """
    if not golds:
        raise ValueError("f1 requires at least one gold answer")
    pred_tokens = normalize_answer(prediction, language).split()
    best = 0.0
    for gold in golds:
        gold_tokens = normalize_answer(gold, language).split()
        if not pred_tokens and not gold_tokens:
            best = max(best, 1.0)
            continue
        common = Counter(pred_tokens) & Counter(gold_tokens)
        num_same = sum(common.values())
        if num_same == 0:
            continue
        precision = num_same / len(pred_tokens)
        recall = num_same / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


@dataclass(frozen=True)
class LanguageScore:
    em: float
    f1: float
    n: int


@dataclass(frozen=True)
class EvalReport:
    """Per-language EM/F1 percentages plus unweighted macro averages.

    Macro averages are means over the non-English languages, each language
    counted once regardless of its example count. When no non-English
    language is present they are 0.0.
    """

    per_language: Dict[str, LanguageScore]
    macro_em_excl_en: float
    macro_f1_excl_en: float


def evaluate(predictions: Mapping[str, str], gold: Dataset) -> EvalReport:
    """Score predictions (example id -> answer string) against a gold dataset.

    Every gold example must have a prediction; missing ids raise, naming
    their count and the first five of them. Extra prediction ids are
    ignored. Gold examples may carry alternative answers, in which case
    EM/F1 take the max over all of them.
    """
    missing = [ex.id for ex in gold.examples if ex.id not in predictions]
    if missing:
        shown = ", ".join(missing[:5]) + (", ..." if len(missing) > 5 else "")
        raise ValueError(
            f"missing predictions for {len(missing)} of {len(gold)} gold ids: {shown}"
        )

    sums: Dict[str, list] = {}
    for ex in gold.examples:
        golds = ex.gold_answers()
        pred = predictions[ex.id]
        if not isinstance(pred, str):
            raise ValueError(f"prediction for {ex.id!r} must be a string, got {pred!r}")
        acc = sums.setdefault(ex.language, [0.0, 0.0, 0])
        acc[0] += em(pred, golds, ex.language)
        acc[1] += f1(pred, golds, ex.language)
        acc[2] += 1

    per_language = {
        lang: LanguageScore(em=100.0 * s[0] / s[2], f1=100.0 * s[1] / s[2], n=s[2])
        for lang, s in sums.items()
    }
    non_en = [s for lang, s in per_language.items() if lang != "en"]
    if non_en:
        macro_em = sum(s.em for s in non_en) / len(non_en)
        macro_f1 = sum(s.f1 for s in non_en) / len(non_en)
    else:
        macro_em = 0.0
        macro_f1 = 0.0
    return EvalReport(per_language, macro_em, macro_f1)


def render_eval_table(report: EvalReport) -> str:
    """Plain-text table: one row per language plus Avg EM / Avg F1 lines.

    The averages are unweighted means over non-English languages.
    """
    lines = [f"{'Language':<10}{'n':>8}{'EM':>10}{'F1':>10}"]
    for lang in sorted(report.per_language):
        s = report.per_language[lang]
        lines.append(f"{lang:<10}{s.n:>8}{s.em:>10.2f}{s.f1:>10.2f}")
    lines.append(f"{'Avg EM':<18}{report.macro_em_excl_en:>10.2f}")
    lines.append(f"{'Avg F1':<18}{report.macro_f1_excl_en:>10.2f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class BleuScore:
    """Corpus BLEU on a 0-100 scale with its components.

    score = brevity_penalty * exp(mean log precision) * 100 when all four
    modified precisions are positive, and 0 otherwise (no smoothing).
    """

    score: float
    precisions: tuple
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngram_counts(tokens: Sequence[Hashable], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    hypotheses: Sequence[Sequence[Hashable]],
    references: Sequence[Sequence[Hashable]],
) -> BleuScore:
    """Corpus-level BLEU over paired token sequences (one reference each).

    Tokens may be any hashable values (strings, ints/bytes). Precisions are
    clipped n-gram counts pooled over the corpus for n = 1..4; the brevity
    penalty is 1 when the hypothesis corpus is longer than the reference
    corpus and exp(1 - ref_len/hyp_len) otherwise.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"length mismatch: {len(hypotheses)} hypotheses vs "
            f"{len(references)} references"
        )
    if not hypotheses:
        raise ValueError("corpus_bleu requires at least one sentence pair")

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        return BleuScore(0.0, (0.0,) * MAX_BLEU_ORDER, 1.0, 0, ref_len)

    precisions = []
    for n in range(1, MAX_BLEU_ORDER + 1):
        clipped = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            clipped += sum((hyp_counts & ref_counts).values())
            total += sum(hyp_counts.values())
        precisions.append(clipped / total if total > 0 else 0.0)

    if hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)

    if all(p > 0 for p in precisions):
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_BLEU_ORDER) * 100.0
    else:
        score = 0.0
    return BleuScore(score, tuple(precisions), bp, hyp_len, ref_len)
