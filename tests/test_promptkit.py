"""Exemplar construction and exact prompt renderings."""

from __future__ import annotations

import pytest

from qasynth.backends import TaggingTranslator
from qasynth.corpus import Dataset, Passage, QAExample
from qasynth.promptkit import (
    ANSWER_INSTRUCTION,
    QUESTION_INSTRUCTION,
    Exemplar,
    ExemplarSet,
    PromptError,
    build_exemplars_en_only,
    build_exemplars_fewshot,
    parse_completion,
    render_answer_prompt,
    render_question_prompt,
    render_roundtrip_prompt,
)


def one_exemplar(language="fr") -> ExemplarSet:
    return ExemplarSet(
        language=language,
        scenario="english_only",
        exemplars=(
            Exemplar(
                context_l="Jean habite Lyon.",
                question_en="Where does Jean live?",
                answer_en="Lyon",
                question_l="Ou habite Jean?",
                answer_l="Lyon",
                language=language,
            ),
        ),
    )


class TestBuilders:
    def test_en_only_field_mapping(self, gold_en, tagging_translator):
        small = Dataset(name="en1", examples=gold_en.examples[:1])
        es = build_exemplars_en_only(small, tagging_translator, "fr")
        ex = es.exemplars[0]
        src = gold_en.examples[0]
        assert ex.context_l == f"[fr] {src.context}"
        assert ex.question_en == src.question
        assert ex.answer_en == src.answer
        assert ex.question_l == f"[fr] {src.question}"
        assert ex.answer_l == f"[fr] {src.answer}"
        assert es.language == "fr"
        assert es.scenario == "english_only"

    def test_en_only_order_and_size(self, gold_en, tagging_translator):
        es = build_exemplars_en_only(gold_en, tagging_translator, "fi")
        assert len(es.exemplars) == 5
        assert [e.question_en for e in es.exemplars] == [
            ex.question for ex in gold_en.examples
        ]

    def test_en_only_empty_dataset(self, tagging_translator):
        empty = Dataset(name="none", examples=())
        es = build_exemplars_en_only(empty, tagging_translator, "fr")
        assert es.exemplars == ()

    def test_en_only_rejects_non_english(self, gold_multi, tagging_translator):
        with pytest.raises(PromptError):
            build_exemplars_en_only(gold_multi, tagging_translator, "fr")

    def test_fewshot_field_mapping(self, gold_multi, tagging_translator):
        fi = Dataset(
            name="fi",
            examples=tuple(ex for ex in gold_multi.examples if ex.language == "fi"),
        )
        es = build_exemplars_fewshot(fi, tagging_translator)
        ex = es.exemplars[0]
        src = fi.examples[0]
        assert ex.context_l == src.context
        assert ex.question_l == src.question
        assert ex.answer_l == src.answer
        assert ex.question_en == f"[en] {src.question}"
        assert ex.answer_en == f"[en] {src.answer}"
        assert es.scenario == "few_shot"
        assert es.language == "fi"

    def test_fewshot_rejects_mixed_languages(self, gold_multi, tagging_translator):
        with pytest.raises(PromptError):
            build_exemplars_fewshot(gold_multi, tagging_translator)


class TestRenderings:
    def test_answer_prompt_exact(self):
        prompt = render_answer_prompt(
            one_exemplar(), Passage(id="p", text="Marie habite Paris.", language="fr")
        )
        assert prompt == (
            "I will write potential answers\n"
            "for the following passages.\n"
            "  Passage: Jean habite Lyon.\n"
            "  Answer in English: Lyon\n"
            "  Answer in the original language: Lyon\n"
            "  Passage: Marie habite Paris.\n"
            "  Answer in the original language:"
        )

    def test_question_prompt_exact(self):
        prompt = render_question_prompt(
            one_exemplar(),
            Passage(id="p", text="Marie habite Paris.", language="fr"),
            "Paris",
        )
        assert prompt == (
            "I will write questions and answers\n"
            "for the following passages.\n"
            "  Passage: Jean habite Lyon.\n"
            "  Answer: Lyon\n"
            "  Question in English: Where does Jean live?\n"
            "  Question in the original language: Ou habite Jean?\n"
            "  Passage: Marie habite Paris.\n"
            "  Answer: Paris\n"
            "  Question in the original language:"
        )

    def test_roundtrip_prompt_exact(self):
        prompt = render_roundtrip_prompt(
            one_exemplar(),
            Passage(id="p", text="Marie habite Paris.", language="fr"),
            "Ou habite Marie?",
        )
        assert prompt == (
            "I will write potential answers\n"
            "for the following passages.\n"
            "  Passage: Jean habite Lyon.\n"
            "  Question: Ou habite Jean?\n"
            "  Answer in English: Lyon\n"
            "  Answer in the original language: Lyon\n"
            "  Passage: Marie habite Paris.\n"
            "  Question: Ou habite Marie?\n"
            "  Answer in the original language:"
        )

    def test_prompts_end_on_cue(self):
        es = one_exemplar()
        passage = Passage(id="p", text="Texte.", language="fr")
        for prompt in (
            render_answer_prompt(es, passage),
            render_question_prompt(es, passage, "Texte"),
            render_roundtrip_prompt(es, passage, "Quoi?"),
        ):
            assert prompt.endswith("language:")
            assert not prompt.endswith(" ")

    def test_language_mismatch_rejected(self):
        with pytest.raises(PromptError):
            render_answer_prompt(
                one_exemplar("fr"), Passage(id="p", text="x", language="fi")
            )

    def test_instructions_are_two_lines(self):
        assert ANSWER_INSTRUCTION.count("\n") == 1
        assert QUESTION_INSTRUCTION.count("\n") == 1

    def test_empty_answer_rejected(self):
        with pytest.raises(PromptError):
            render_question_prompt(
                one_exemplar(), Passage(id="p", text="x", language="fr"), ""
            )


class TestExemplarValidation:
    def test_empty_field_rejected(self):
        with pytest.raises(PromptError):
            Exemplar(
                context_l="", question_en="q", answer_en="a",
                question_l="q", answer_l="a", language="fr",
            )

    def test_set_rejects_foreign_exemplar(self):
        ex = Exemplar(
            context_l="c", question_en="q", answer_en="a",
            question_l="q", answer_l="a", language="de",
        )
        with pytest.raises(PromptError):
            ExemplarSet(language="fr", exemplars=(ex,), scenario="english_only")


class TestParseCompletion:
    def test_first_line(self):
        assert parse_completion(" Lyon\nPassage: other") == "Lyon"

    def test_cuts_at_passage_without_newline(self):
        assert parse_completion(" Lyon  Passage: other") == "Lyon"

    def test_plain_value(self):
        assert parse_completion("  42  ") == "42"

    def test_empty_raises(self):
        with pytest.raises(PromptError):
            parse_completion("   \nPassage: x")

    def test_whitespace_only_raises(self):
        with pytest.raises(PromptError):
            parse_completion("")
