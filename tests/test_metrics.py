"""Hand-computed oracles for normalization, EM, F1, BLEU, and reports."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.corpus import Dataset, QAExample, write_json
from qasynth.metrics import (
    BleuScore,
    EvalReport,
    LanguageScore,
    corpus_bleu,
    em,
    evaluate,
    f1,
    normalize_answer,
    render_eval_table,
)

# Each row: (raw, language, expected). Worked by hand through the four rules
# (lowercase, strip punctuation, collapse whitespace, en-only article drop).
NORMALIZE_CASES = [
    ("The 1457.", "en", "1457"),
    ("", "en", ""),
    ("", "ar", ""),
    ("la maison", "fr", "la maison"),
    ("The An A", "en", ""),
    ("  A  an THE  b ", "en", "b"),
    ("don't stop", "en", "dont stop"),
    ("Hello,   World!", "en", "hello world"),
    ("¿Qué es?", "es", "qué es"),
    ("a—b", "fr", "ab"),
    ("THE THEATER", "en", "theater"),
    ("the cat the", "fi", "the cat the"),
    ("1457", "ar", "1457"),
    ("\tTabs\tand\nnewlines\n", "en", "tabs and newlines"),
    ("'quoted'", "en", "quoted"),
    ("an apple a day", "en", "apple day"),
]


@pytest.mark.parametrize("raw,language,expected", NORMALIZE_CASES)
def test_normalize_answer(raw, language, expected):
    assert normalize_answer(raw, language) == expected


EM_CASES = [
    ("1457", ["1457"], "ar", 1),
    ("1458", ["1457"], "ar", 0),
    ("the 1457", ["1457"], "en", 1),
    ("the 1457", ["1457"], "fi", 0),
    ("y", ["x", "y"], "fi", 1),
    ("z", ["x", "y"], "fi", 0),
    ("Marie  Curie!", ["marie curie"], "en", 1),
    ("", [""], "en", 1),
]


@pytest.mark.parametrize("pred,golds,language,expected", EM_CASES)
def test_em(pred, golds, language, expected):
    assert em(pred, golds, language) == expected


def test_em_requires_golds():
    with pytest.raises(ValueError):
        em("x", [], "en")


F1_CASES = [
    ("a b", ["b c"], "fi", 0.5),
    ("same text", ["same text"], "fi", 1.0),
    ("x y", ["p q"], "fi", 0.0),
    ("", [""], "en", 1.0),
    ("the", [""], "en", 1.0),  # article rule empties the prediction too
    ("a b b", ["b b c"], "fi", 2 / 3),
    ("x", ["x", "y"], "fi", 1.0),
    ("y z", ["x", "y q"], "fi", 0.5),
    ("one two three", ["two"], "fi", 0.5),  # p=1/3, r=1, f1=2*(1/3)/(4/3)
    ("", ["x"], "fi", 0.0),
]


@pytest.mark.parametrize("pred,golds,language,expected", F1_CASES)
def test_f1(pred, golds, language, expected):
    assert f1(pred, golds, language) == pytest.approx(expected, abs=1e-12)


def test_f1_requires_golds():
    with pytest.raises(ValueError):
        f1("x", [], "en")


@given(st.text(max_size=30), st.text(max_size=30))
@settings(max_examples=200, deadline=None)
def test_em_one_implies_f1_one(pred, gold):
    if em(pred, [gold], "fi") == 1:
        assert f1(pred, [gold], "fi") == 1.0


def _eval_fixture():
    """ar 3/5 exact, fi 7/10 exact, en 9/10 exact; misses are disjoint."""
    examples = []
    predictions = {}
    plan = [("ar", 5, 3), ("fi", 10, 7), ("en", 10, 9)]
    k = 0
    for lang, n, hits in plan:
        for j in range(n):
            ex = QAExample(
                id=f"{lang}-{j}",
                context=f"ctx answer{k} tail",
                question=f"what is {k}?",
                answer=f"answer{k}",
                answer_start=4,
                language=lang,
                provenance="gold",
                source_dataset="fixture",
            )
            examples.append(ex)
            predictions[ex.id] = ex.answer if j < hits else "zqx"
            k += 1
    return Dataset(name="eval-fix", examples=tuple(examples)), predictions


def test_evaluate_macro_excludes_english():
    gold, predictions = _eval_fixture()
    report = evaluate(predictions, gold)
    assert report.per_language["ar"].em == pytest.approx(60.0)
    assert report.per_language["fi"].em == pytest.approx(70.0)
    assert report.per_language["en"].em == pytest.approx(90.0)
    # misses share no tokens with golds, so F1 mirrors EM exactly
    assert report.macro_em_excl_en == pytest.approx(65.0)
    assert report.macro_f1_excl_en == pytest.approx(65.0)


def test_evaluate_all_correct(gold_multi):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    report = evaluate(predictions, gold_multi)
    for score in report.per_language.values():
        assert score.em == pytest.approx(100.0)
        assert score.f1 == pytest.approx(100.0)
    assert report.macro_em_excl_en == pytest.approx(100.0)


def test_evaluate_single_language_macro():
    ex = QAExample(
        id="fi-0", context="abc def", question="mi?", answer="abc",
        answer_start=0, language="fi", provenance="gold", source_dataset="x",
    )
    gold = Dataset(name="one", examples=(ex,))
    report = evaluate({"fi-0": "abc"}, gold)
    assert report.macro_em_excl_en == pytest.approx(report.per_language["fi"].em)


def test_evaluate_english_only_macro_is_zero(gold_en):
    predictions = {ex.id: ex.answer for ex in gold_en.examples}
    report = evaluate(predictions, gold_en)
    assert report.macro_em_excl_en == 0.0
    assert report.macro_f1_excl_en == 0.0


def test_evaluate_missing_prediction_lists_ids(gold_multi):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    del predictions["fi-3"]
    with pytest.raises(ValueError, match="fi-3"):
        evaluate(predictions, gold_multi)


def test_evaluate_extra_predictions_ignored(gold_multi):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    predictions["ghost"] = "nothing"
    report = evaluate(predictions, gold_multi)
    assert report.macro_em_excl_en == pytest.approx(100.0)


def test_evaluate_permutation_invariant(gold_multi):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    shuffled = Dataset(
        name=gold_multi.name, examples=tuple(reversed(gold_multi.examples))
    )
    a = evaluate(predictions, gold_multi)
    b = evaluate(predictions, shuffled)
    assert a.per_language == b.per_language
    assert a.macro_em_excl_en == b.macro_em_excl_en


def test_evaluate_macro_ignores_sample_sizes(gold_multi):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    doubled = list(gold_multi.examples)
    for ex in gold_multi.examples:
        if ex.language == "ar":
            twin = QAExample(
                id=ex.id + "-dup", context=ex.context, question=ex.question,
                answer=ex.answer, answer_start=ex.answer_start,
                language=ex.language, provenance=ex.provenance,
                source_dataset=ex.source_dataset,
            )
            doubled.append(twin)
            predictions[twin.id] = ex.answer
    grown = Dataset(name="grown", examples=tuple(doubled))
    assert evaluate(predictions, grown).macro_em_excl_en == pytest.approx(
        evaluate(
            {ex.id: predictions[ex.id] for ex in gold_multi.examples}, gold_multi
        ).macro_em_excl_en
    )


def test_eval_report_json_round_trip(gold_multi, tmp_path):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    report = evaluate(predictions, gold_multi)
    write_json(tmp_path / "eval.json", report.to_dict())
    payload = json.loads((tmp_path / "eval.json").read_text(encoding="utf-8"))
    assert payload == report.to_dict()
    assert payload["per_language"]["fi"]["n"] == 3
    assert payload["macro_em_excl_en"] == pytest.approx(100.0)


def test_render_eval_table_columns(gold_multi):
    predictions = {ex.id: ex.answer for ex in gold_multi.examples}
    text = render_eval_table(evaluate(predictions, gold_multi))
    assert "Avg EM" in text and "Avg F1" in text
    for lang in ("ar", "en", "fi"):
        assert lang in text


def test_corpus_bleu_identity():
    hyps = [list("abcdef"), list("wxyz")]
    score = corpus_bleu(hyps, [list(h) for h in hyps])
    assert abs(score.score - 100.0) < 1e-9
    assert score.precisions == (1.0, 1.0, 1.0, 1.0)
    assert score.brevity_penalty == 1.0


def test_corpus_bleu_hand_counted_zero():
    # hyp a b c d vs ref a b c e: p = 3/4, 2/3, 1/2, 0 -> unsmoothed 0
    score = corpus_bleu([list("abcd")], [list("abce")])
    assert score.precisions == (0.75, 2 / 3, 0.5, 0.0)
    assert score.score == 0.0


def test_corpus_bleu_brevity_penalty():
    score = corpus_bleu([list("ab")], [list("abcd")])
    assert abs(score.brevity_penalty - math.exp(-1.0)) < 1e-12
    assert score.precisions[0] == 1.0 and score.precisions[1] == 1.0
    assert score.hyp_len == 2 and score.ref_len == 4


def test_corpus_bleu_long_hypothesis_no_penalty():
    score = corpus_bleu([list("abcde")], [list("abcd")])
    assert score.brevity_penalty == 1.0


def test_corpus_bleu_partial_overlap_score():
    # abcde vs abcdf: p1=4/5, p2=3/4, p3=2/3, p4=1/2, BP=1
    score = corpus_bleu([list("abcde")], [list("abcdf")])
    expected = 100.0 * (0.8 * 0.75 * (2 / 3) * 0.5) ** 0.25
    assert score.score == pytest.approx(expected, abs=1e-9)


def test_corpus_bleu_clipping():
    # hyp repeats one token: clipped unigram count is capped by the reference
    score = corpus_bleu([["a", "a", "a", "a"]], [["a", "b", "c", "d"]])
    assert score.precisions[0] == 0.25


def test_corpus_bleu_pools_over_corpus():
    # two short sentences pool their n-gram counts before dividing
    score = corpus_bleu(
        [list("abcd"), list("efgh")],
        [list("abcd"), list("efgx")],
    )
    assert score.precisions[0] == pytest.approx(7 / 8)
    assert score.precisions[3] == pytest.approx(1 / 2)


def test_corpus_bleu_empty_hypothesis_corpus():
    score = corpus_bleu([[]], [list("abcd")])
    assert score.score == 0.0
    assert score.brevity_penalty == 1.0
    assert score.hyp_len == 0


def test_corpus_bleu_length_mismatch():
    with pytest.raises(ValueError):
        corpus_bleu([list("ab")], [list("ab"), list("cd")])
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def test_corpus_bleu_byte_tokens():
    seq = list(b"hello world")
    assert abs(corpus_bleu([seq], [seq]).score - 100.0) < 1e-9


@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=4, max_size=12),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=100, deadline=None)
def test_corpus_bleu_identity_property(sequences):
    assert abs(corpus_bleu(sequences, sequences).score - 100.0) < 1e-9
