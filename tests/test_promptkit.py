"""Exemplar construction, exact prompt renderings, the stop sequence, and
the generation mock that reads them."""

from __future__ import annotations

import pytest

from qasynth import promptkit
from qasynth.backends import GenerationRequest, run_requests
from qasynth.corpus import Dataset, Passage
from qasynth.promptkit import (
    ANSWER_INSTRUCTION,
    PASSAGE_LABEL,
    QUESTION_INSTRUCTION,
    STOP_SEQUENCES,
    Exemplar,
    ExemplarSet,
    MockQABackend,
    PromptError,
    build_exemplars_en_only,
    build_exemplars_fewshot,
    mock_qa_generate,
    parse_completion,
    render_answer_prompt,
    render_question_prompt,
    render_roundtrip_prompt,
)
from qasynth.synthesis import synth_pe

from helpers import StaticBackend, fi_exemplars, fi_passages


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


def completion(backend, prompt: str) -> str:
    """The reply to prompt as a stage gets it: through run_requests, cut at the stop."""
    (reply,) = run_requests(backend, [GenerationRequest(prompt, 32, STOP_SEQUENCES)])
    return reply


class TestStopSequence:
    def test_reply_running_into_a_rendered_block_is_cut(self):
        prompt = render_answer_prompt(
            one_exemplar(), Passage(id="p", text="Marie habite Paris.", language="fr")
        )
        # A model that keeps to the few-shot pattern writes the next block as rendered.
        next_blocks = prompt[prompt.index(PASSAGE_LABEL) :]
        assert completion(StaticBackend([" Paris\n" + next_blocks]), prompt) == " Paris"


class TestMockQA:
    def test_answer_stage_extracts_span(self):
        passage = Passage(id="p", text="La tour date de 1889 exactement.", language="fr")
        prompt = render_answer_prompt(one_exemplar(), passage)
        backend = MockQABackend(noise_rate=0.0, seed=0)
        raw = backend.generate(GenerationRequest(prompt, 32, STOP_SEQUENCES))
        assert raw.startswith(f" 1889\n{PASSAGE_LABEL}")  # runs on into a next block
        assert completion(backend, prompt) == " 1889"
        assert "1889" in passage.text

    def test_question_stage_mentions_answer(self):
        passage = Passage(id="p", text="La tour date de 1889 exactement.", language="fr")
        prompt = render_question_prompt(one_exemplar(), passage, "1889")
        backend = MockQABackend(noise_rate=0.0, seed=0)
        assert completion(backend, prompt) == " What is mentioned about 1889?"

    def test_deterministic_given_seed(self):
        passage = Passage(id="p", text="Il neige depuis 3 jours.", language="fr")
        prompt = render_answer_prompt(one_exemplar(), passage)
        req = GenerationRequest(prompt=prompt, max_tokens=32)
        a = MockQABackend(noise_rate=0.5, seed=4).generate(req)
        b = MockQABackend(noise_rate=0.5, seed=4).generate(req)
        c = MockQABackend(noise_rate=0.5, seed=5).generate(req)
        assert a == b
        assert a != c  # both draws corrupt the span, each differently

    def test_mock_qa_generate_pure(self):
        one = mock_qa_generate("Le pont a 300 metres.", "answer", 0.0, 1)
        two = mock_qa_generate("Le pont a 300 metres.", "answer", 0.0, 1)
        assert one == two == "300"

    def test_reads_the_cues_promptkit_renders(self, monkeypatch):
        def run():
            backend = MockQABackend(noise_rate=0.5, seed=3)
            return synth_pe({"fi": fi_exemplars()}, {"fi": fi_passages(12)}, backend)

        plain = run()
        assert plain.raw["fi"].examples  # non-vacuous: the mock answered
        monkeypatch.setattr(promptkit, "ANSWER_L_CUE", "  Vastaus alkukielellä:")
        monkeypatch.setattr(promptkit, "QUESTION_L_CUE", "  Kysymys alkukielellä:")
        assert render_answer_prompt(fi_exemplars(), fi_passages(1)[0]).endswith(
            "Vastaus alkukielellä:"
        )
        assert run() == plain
