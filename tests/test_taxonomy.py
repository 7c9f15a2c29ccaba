"""Question-type analysis: labeling, merging, conservation, CSV output."""

import json
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasynth.corpus import Dataset, write_json
from qasynth.taxonomy import (
    OTHER,
    TaxonomyError,
    categorize,
    distribution,
    ring_csv,
)

from helpers import BrokenTranslator, DictTranslator, make_example
from mock_server import http_backend, raise_on_reply


def questions_dataset(specs):
    """specs: iterable of (language, question). Context/answer are filler."""
    examples = tuple(
        make_example(i, "ctx", question, "a", language=lang)
        for i, (lang, question) in enumerate(specs)
    )
    return Dataset(name="tax", examples=examples)


class TestCategorize:
    def test_two_word_label(self):
        assert categorize("When was Tullintori completed?") == ("When", "When was")

    def test_one_token_question(self):
        assert categorize("Why?") == ("Why", "Why")

    def test_empty_question(self):
        assert categorize("") == (OTHER, OTHER)

    def test_whitespace_only(self):
        assert categorize(" \t  ") == (OTHER, OTHER)

    def test_punctuation_only(self):
        assert categorize("??") == (OTHER, OTHER)

    def test_lowercases_before_labeling(self):
        assert categorize("WHAT IS THIS?") == ("What", "What is")

    def test_internal_apostrophe_is_one_token(self):
        assert categorize("What's the time?") == ("What's", "What's the")

    def test_leading_punctuation_stripped(self):
        assert categorize("¿dónde está la torre?") == ("Dónde", "Dónde está")

    def test_second_token_edges_stripped(self):
        assert categorize("who, me?") == ("Who", "Who me")

    def test_only_first_word_capitalized(self):
        _, sub = categorize("how many people live there?")
        assert sub == "How many"

    @given(
        st.text(
            alphabet=string.ascii_letters + string.digits + " .,?!'\"-",
            max_size=40,
        )
    )
    def test_category_label_is_a_fixed_point(self, question):
        category, _ = categorize(question)
        assert categorize(category) == (category, category)


class TestDistribution:
    def test_single_category_reaches_full_fraction(self):
        ds = questions_dataset(
            ("en", f"When was thing {i} built?") for i in range(4)
        )
        report = distribution(ds, DictTranslator({}))
        assert set(report.pooled) == {"When"}
        stat = report.pooled["When"]
        assert stat.count == 4
        assert stat.fraction == pytest.approx(1.0)
        assert stat.subcategories == {"When was": (4, 1.0)}

    def test_translates_non_english_first(self):
        ds = questions_dataset([("fi", "milloin silta valmistui?")])
        translator = DictTranslator(
            {"milloin silta valmistui?": "When was the bridge completed?"}
        )
        report = distribution(ds, translator)
        assert set(report.per_language["fi"]) == {"When"}
        assert report.translation_failures == 0

    def test_fractions_sum_to_one_at_each_level(self):
        ds = questions_dataset(
            [
                ("en", "What is this?"),
                ("en", "What was that?"),
                ("en", "Where is it?"),
                ("fi", "kuka?"),
                ("fi", "missä se on?"),
            ]
        )
        translator = DictTranslator({"kuka?": "Who?", "missä se on?": "Where is it?"})
        report = distribution(ds, translator, other_threshold=0.0)
        views = list(report.per_language.values()) + [report.pooled]
        for view in views:
            assert sum(s.fraction for s in view.values()) == pytest.approx(1.0)
            for stat in view.values():
                subs = stat.subcategories
                assert sum(c for c, _ in subs.values()) == stat.count
                assert sum(f for _, f in subs.values()) == pytest.approx(1.0)

    def test_failures_bucket_as_other_and_conserve_counts(self):
        ds = questions_dataset(
            [
                ("en", "What is this?"),
                ("fi", "tuntematon kysymys?"),
                ("fi", "toinen tuntematon?"),
            ]
        )
        report = distribution(ds, DictTranslator({}), other_threshold=0.0)
        assert report.translation_failures == 2
        assert len(report.notes) == 2
        assert report.pooled[OTHER].count == 2
        assert sum(s.count for s in report.pooled.values()) == 3

    def test_program_fault_is_raised_not_counted(self, monkeypatch):
        # Only a BackendError is a failed translation; any other exception
        # is a fault in the program and must not turn into data.
        ds = questions_dataset([("en", "What is this?"), ("fi", "kuka?"), ("fi", "missä?")])
        with BrokenTranslator() as translator, pytest.raises(RuntimeError, match="^boom$"):
            distribution(ds, translator)
        # Over HTTP, the same fault while a reply is read.
        raise_on_reply(monkeypatch, b"")
        with http_backend(4) as (translator, _), pytest.raises(RuntimeError, match="^boom$"):
            distribution(ds, translator)

    def test_pooled_is_sum_of_per_language_views(self):
        ds = questions_dataset(
            [
                ("en", "What is this?"),
                ("en", "Who did that?"),
                ("fi", "q1"),
                ("fi", "q2"),
                ("ar", "q3"),
            ]
        )
        translator = DictTranslator(
            {"q1": "What now?", "q2": "Where to?", "q3": "Who goes there?"}
        )
        report = distribution(ds, translator, other_threshold=0.0)
        summed = {}
        for view in report.per_language.values():
            for cat, stat in view.items():
                summed[cat] = summed.get(cat, 0) + stat.count
        assert summed == {cat: s.count for cat, s in report.pooled.items()}

    def test_pool_flag_excludes_english(self):
        ds = questions_dataset(
            [("en", "What is this?"), ("fi", "q1"), ("fi", "q2")]
        )
        translator = DictTranslator({"q1": "Who now?", "q2": "Who then?"})
        report = distribution(
            ds, translator, pool_all_languages=False, other_threshold=0.0
        )
        assert "en" in report.per_language
        assert set(report.pooled) == {"Who"}
        assert report.pooled["Who"].count == 2

    def test_threshold_zero_never_merges(self):
        ds = questions_dataset(
            [("en", "What is this?")] * 99 + [("en", "Why though?")]
        )
        report = distribution(ds, DictTranslator({}), other_threshold=0.0)
        assert "Why" in report.pooled
        assert OTHER not in report.pooled

    def test_merge_decision_is_pooled_and_shared(self):
        # "Why" is half of Finnish but 1/40 pooled; the pooled decision
        # must relabel it in the per-language view too.
        ds = questions_dataset(
            [("en", "What is this?")] * 38
            + [("fi", "q-why"), ("fi", "q-what")]
        )
        translator = DictTranslator(
            {"q-why": "Why is that?", "q-what": "What gives?"}
        )
        report = distribution(ds, translator, other_threshold=0.05)
        fi_view = report.per_language["fi"]
        assert "Why" not in fi_view
        assert fi_view[OTHER].count == 1
        assert "Why" not in report.pooled
        assert report.pooled[OTHER].count == 1

    def test_rejects_bad_threshold(self):
        ds = questions_dataset([("en", "What?")])
        with pytest.raises(TaxonomyError):
            distribution(ds, DictTranslator({}), other_threshold=-0.1)
        with pytest.raises(TaxonomyError):
            distribution(ds, DictTranslator({}), other_threshold=1.5)

    def test_deterministic(self):
        ds = questions_dataset(
            [("en", "What is this?"), ("fi", "q1"), ("ar", "q2")]
        )
        translator = DictTranslator({"q1": "Who now?", "q2": "Where to?"})
        first = distribution(ds, translator).to_dict()
        second = distribution(ds, translator).to_dict()
        assert first == second

    def test_json_matches_dict(self, tmp_path):
        ds = questions_dataset([("en", "What is this?"), ("en", "Why not?")])
        report = distribution(ds, DictTranslator({}), other_threshold=0.0)
        write_json(tmp_path / "taxonomy.json", report.to_dict())
        assert json.loads((tmp_path / "taxonomy.json").read_text(encoding="utf-8")) == (
            report.to_dict()
        )


class TestRingCsv:
    def _view(self):
        ds = questions_dataset(
            [
                ("en", "What is this?"),
                ("en", "What was that?"),
                ("en", "Who did it?"),
            ]
        )
        return distribution(ds, DictTranslator({}), other_threshold=0.0).pooled

    def test_category_ring(self):
        assert ring_csv(self._view(), "category") == (
            "label,count\nWhat,2\nWho,1\n"
        )

    def test_subcategory_ring(self):
        assert ring_csv(self._view(), "subcategory") == (
            "label,count\nWhat is,1\nWhat was,1\nWho did,1\n"
        )

    def test_rejects_unknown_ring(self):
        with pytest.raises(TaxonomyError):
            ring_csv(self._view(), "galaxy")
