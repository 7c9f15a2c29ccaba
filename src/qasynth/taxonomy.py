"""Question-type analysis: bucket questions by their first one and two words.

Questions are translated to English first (the buckets are English surface
forms), lowercased, whitespace-tokenized with punctuation stripped at token
edges only (so "what's" stays one token), and labeled by the first token
(category) and first two tokens (subcategory). Categories below a configurable
share of the total are merged into "Other"; the merge set is decided once,
from the pooled counts over every example, so per-language views and the
pooled view always share one legend and pooled counts stay the exact sum of
the per-language counts.
"""

from __future__ import annotations

import csv
import io
import unicodedata
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .backends import Backend, BackendError, TranslationRequest, run_requests
from .corpus import Dataset

OTHER = "Other"
DEFAULT_OTHER_THRESHOLD = 0.02


class TaxonomyError(ValueError):
    """Raised for invalid taxonomy configuration."""


def _strip_edge_punctuation(token: str) -> str:
    start = 0
    end = len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def categorize(question_en: str) -> Tuple[str, str]:
    """(category, subcategory) labels from the first one and two word tokens.

    The question is lowercased and whitespace-split; punctuation is stripped
    from token edges. Labels get a leading capital ("When was", not "When
    Was"). One usable token makes the subcategory equal the category; none
    at all maps to ("Other", "Other").
    """
    tokens = [
        t
        for t in (_strip_edge_punctuation(tok) for tok in question_en.lower().split())
        if t
    ]
    if not tokens:
        return OTHER, OTHER
    category = tokens[0].capitalize()
    if len(tokens) == 1:
        return category, category
    return category, " ".join(tokens[:2]).capitalize()


@dataclass(frozen=True)
class SubcategoryStat:
    """One subcategory's count and its share of its category."""

    count: int
    fraction: float


@dataclass(frozen=True)
class CategoryStat:
    """One category's count, share of its view, and subcategory breakdown.

    Subcategory fractions are relative to the category count, so each level
    of the report sums to 1.
    """

    count: int
    fraction: float
    subcategories: Dict[str, SubcategoryStat]


@dataclass(frozen=True)
class TaxonomyReport:
    per_language: Dict[str, Dict[str, CategoryStat]]
    pooled: Dict[str, CategoryStat]
    other_threshold: float
    translation_failures: int
    notes: Tuple[str, ...] = ()


def _build_view(
    labeled: List[Tuple[str, str]],
) -> Dict[str, CategoryStat]:
    """Aggregate (category, subcategory) labels into a view."""
    total = len(labeled)
    by_cat: Dict[str, Dict[str, int]] = {}
    for cat, sub in labeled:
        by_cat.setdefault(cat, {})
        by_cat[cat][sub] = by_cat[cat].get(sub, 0) + 1
    out: Dict[str, CategoryStat] = {}
    for cat, subs in by_cat.items():
        count = sum(subs.values())
        out[cat] = CategoryStat(
            count=count,
            fraction=count / total if total else 0.0,
            subcategories={sub: SubcategoryStat(c, c / count) for sub, c in subs.items()},
        )
    return out


def distribution(
    dataset: Dataset,
    translator: Backend,
    pool_all_languages: bool = True,
    other_threshold: float = DEFAULT_OTHER_THRESHOLD,
) -> TaxonomyReport:
    """Bucket every question in the dataset by its English surface form.

    Non-English questions are translated to English first, each distinct
    one once, through one run_requests call; a translation the backend
    fails (a BackendError) buckets its question under "Other" and is counted
    in translation_failures. Any other exception propagates.
    pool_all_languages controls whether English examples enter the pooled
    view (per-language views always keep them). Categories whose share of
    the whole dataset is below other_threshold are relabeled "Other" in
    every view.
    """
    if not 0.0 <= other_threshold <= 1.0:
        raise TaxonomyError("other_threshold must be within [0, 1]")

    results = iter(
        run_requests(
            translator,
            [
                TranslationRequest(text=ex.question, source=ex.language, target="en")
                for ex in dataset.examples
                if ex.language != "en"
            ],
        )
    )

    failures = 0
    notes: List[str] = []
    records: List[Tuple[str, str, str]] = []
    for ex in dataset.examples:
        if ex.language == "en":
            cat, sub = categorize(ex.question)
        else:
            text = next(results)
            if isinstance(text, BackendError):
                failures += 1
                notes.append(f"translation failed: {ex.id}: {text}")
                cat, sub = OTHER, OTHER
            else:
                cat, sub = categorize(text)
        records.append((ex.language, cat, sub))

    # One merge decision for every view, from the counts over all examples.
    total = len(records)
    cat_counts: Dict[str, int] = {}
    for _, cat, _ in records:
        cat_counts[cat] = cat_counts.get(cat, 0) + 1
    merged = {
        cat
        for cat, count in cat_counts.items()
        if cat != OTHER and total and count / total < other_threshold
    }

    def relabel(cat: str, sub: str) -> Tuple[str, str]:
        return (OTHER, OTHER) if cat in merged else (cat, sub)

    per_language: Dict[str, Dict[str, CategoryStat]] = {}
    for lang in sorted({lang for lang, _, _ in records}):
        labeled = [
            relabel(cat, sub) for l, cat, sub in records if l == lang
        ]
        per_language[lang] = _build_view(labeled)

    pooled_records = [
        relabel(cat, sub)
        for lang, cat, sub in records
        if pool_all_languages or lang != "en"
    ]
    pooled = _build_view(pooled_records)

    return TaxonomyReport(
        per_language=per_language,
        pooled=pooled,
        other_threshold=other_threshold,
        translation_failures=failures,
        notes=tuple(notes),
    )


def ring_csv(view: Dict[str, CategoryStat], ring: str) -> str:
    """Two-column CSV (label, count) for the category or subcategory ring."""
    if ring not in ("category", "subcategory"):
        raise TaxonomyError(f"ring must be 'category' or 'subcategory', got {ring!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "count"])
    if ring == "category":
        for cat in sorted(view):
            writer.writerow([cat, view[cat].count])
    else:
        for cat in sorted(view):
            for sub, stat in sorted(view[cat].subcategories.items()):
                writer.writerow([sub, stat.count])
    return buf.getvalue()
