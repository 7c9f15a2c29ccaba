"""Synthesis pipelines, the filtering stack, assembly, and size sweeps."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.corpus import Dataset, Passage, QAExample, config_hash
from qasynth.promptkit import MockQABackend
from qasynth.synthesis import (
    PT_MAX_TOKENS,
    FilterReport,
    SynthesisError,
    SynthesisRun,
    assemble,
    filter_extractive,
    filter_roundtrip,
    filter_run,
    load_run,
    merge_reports,
    save_run,
    size_sweep,
    synth_mt,
    synth_pe,
    synth_pt,
)

from helpers import StaticBackend, StubRoundtrip, fi_exemplars, fi_passages, make_example
from mock_server import http_backend


def sw_passages(n: int) -> list:
    """fi_passages(n), listed as Swahili: the toy path reads only the bytes."""
    return [dataclasses.replace(p, language="sw") for p in fi_passages(n)]


class TestFilterReport:
    def test_conservation_enforced(self):
        with pytest.raises(SynthesisError):
            FilterReport(input_count=5, kept_count=3, dropped={"empty_generation": 1})

    def test_unknown_reason_rejected(self):
        with pytest.raises(SynthesisError):
            FilterReport(input_count=1, kept_count=0, dropped={"gremlins": 1})

    def test_merge_chains_counts(self):
        first = FilterReport(
            input_count=10, kept_count=7, dropped={"not_substring_of_context": 3}
        )
        second = FilterReport(
            input_count=7, kept_count=5, dropped={"roundtrip_mismatch": 2}
        )
        merged = merge_reports(first, second)
        assert merged.input_count == 10
        assert merged.kept_count == 5
        assert merged.dropped == {
            "not_substring_of_context": 3,
            "roundtrip_mismatch": 2,
        }

    def test_merge_rejects_gap(self):
        first = FilterReport(input_count=10, kept_count=7,
                             dropped={"empty_generation": 3})
        second = FilterReport(input_count=6, kept_count=6, dropped={})
        with pytest.raises(SynthesisError):
            merge_reports(first, second)


class TestSynthMT:
    def test_ten_examples_three_languages(self, gold_en, tagging_translator):
        doubled = Dataset(
            name="en10",
            examples=tuple(gold_en.examples)
            + tuple(
                QAExample(
                    id=f"b-{i}", context=ex.context, question=ex.question,
                    answer=ex.answer, answer_start=ex.answer_start,
                    language="en", provenance="gold", source_dataset="fixture",
                )
                for i, ex in enumerate(gold_en.examples)
            ),
        )
        run = synth_mt(doubled, tagging_translator, ["fi", "ar", "bn"])
        total = sum(len(ds) for ds in run.raw.values())
        assert total == 30
        assert sorted(run.raw) == ["ar", "bn", "fi"]
        assert run.filtered == run.raw

    def test_fields_translated_separately(self, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi"])
        ex = run.raw["fi"].examples[0]
        src = gold_en.examples[0]
        assert ex.context == f"[fi] {src.context}"
        assert ex.question == f"[fi] {src.question}"
        assert ex.answer == f"[fi] {src.answer}"
        assert ex.answer_start is None
        assert ex.provenance == "mt"
        assert ex.id == f"mt-fi-{src.id}"

    def test_no_filtering_reports(self, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi"])
        report = run.reports["fi"]
        assert report.input_count == report.kept_count == 5
        assert report.dropped == {}

    def test_rejects_non_english_source(self, gold_multi, tagging_translator):
        with pytest.raises(SynthesisError):
            synth_mt(gold_multi, tagging_translator, ["fi"])

    def test_english_never_a_target(self, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["en", "fi"])
        assert sorted(run.raw) == ["fi"]

    def test_repeated_language_is_one_target(self, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi", "ar", "fi"])
        assert run == synth_mt(gold_en, tagging_translator, ["ar", "fi"])
        assert run.languages == ("ar", "fi")


class TestSynthPE:
    def test_clean_mock_round(self, mock_backend):
        passages = fi_passages(4)
        run = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, mock_backend)
        raw = run.raw["fi"]
        assert len(raw) == 4
        assert [ex.id for ex in raw.examples] == [f"pe-fi-{p.id}" for p in passages]
        for ex, passage in zip(raw.examples, passages):
            assert ex.context == passage.text
            assert ex.provenance == "pe"
            assert ex.answer in passage.text
            assert ex.answer in ex.question  # mock embeds the span
        assert run.reports["fi"].input_count == 4

    def test_parallelism_preserves_order(self, mock_backend):
        passages = fi_passages(8)
        slow = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, mock_backend)
        with http_backend(4, generator=mock_backend) as (backend, _):
            wide = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
        assert [e.id for e in slow.raw["fi"].examples] == [
            e.id for e in wide.raw["fi"].examples
        ]
        assert slow.raw["fi"].examples == wide.raw["fi"].examples

    def test_backend_failure_becomes_empty_generation(self):
        backend = StaticBackend([" torni\nPassage: x"])  # second call fails
        run = synth_pe({"fi": fi_exemplars()}, {"fi": fi_passages(1)}, backend)
        report = run.reports["fi"]
        assert report.input_count == 1
        assert report.kept_count == 0
        assert report.dropped == {"empty_generation": 1}
        assert report.notes

    def test_missing_exemplars_rejected(self, mock_backend):
        with pytest.raises(SynthesisError):
            synth_pe({}, {"fi": fi_passages(1)}, mock_backend)


class TestSynthPT:
    def test_remote_path_convention(self):
        backend = StaticBackend(
            ["vastaus\nkysymys?", "no separator here", "\nkysymys?"]
        )
        run = synth_pt({"fi": fi_passages(3)}, backend=backend)
        raw = run.raw["fi"]
        assert len(raw) == 1
        ex = raw.examples[0]
        assert ex.answer == "vastaus"
        assert ex.question == "kysymys?"
        assert ex.provenance == "pt"
        assert ex.answer_start is None
        assert ex.id == "pt-fi-fi-p0"
        report = run.reports["fi"]
        assert report.input_count == 3
        assert report.dropped == {"empty_generation": 2}

    def test_remote_backend_failure_leaves_a_note(self):
        backend = StaticBackend(["vastaus\nkysymys?", "no separator"])
        run = synth_pt({"fi": fi_passages(3)}, backend=backend)
        report = run.reports["fi"]
        assert report.dropped == {"empty_generation": 2}
        assert report.notes == ("fi-p2: static backend exhausted",)

    def test_toy_path_drops_or_keeps(self, tune_corpus):
        # an untuned prompt decodes common bytes; whatever happens must obey
        # the SEP split rule and the report must balance
        from qasynth.tuner import create_toy_lm, init_prompt

        model = create_toy_lm(seed=0)
        prompts = {"fi": init_prompt(4, model.d, seed=0)}
        run = synth_pt({"fi": fi_passages(3)}, model=model, prompts_by_language=prompts)
        report = run.reports["fi"]
        assert report.input_count == 3
        assert report.kept_count == len(run.raw["fi"])
        for ex in run.raw["fi"].examples:
            assert ex.answer and ex.question

    def test_requires_exactly_one_path(self):
        with pytest.raises(SynthesisError):
            synth_pt({"fi": fi_passages(1)})

    def test_toy_path_equals_serial_decode(self):
        from qasynth.tuner import (
            create_toy_lm, encode_context, greedy_decode, init_prompt, split_decoded,
        )

        model = create_toy_lm(seed=0)
        prompts = {"fi": init_prompt(4, model.d, seed=0), "sw": init_prompt(4, model.d, seed=1)}
        passages = {"fi": fi_passages(5), "sw": sw_passages(3)}
        run = synth_pt(passages, model=model, prompts_by_language=prompts)
        for lang, batch in passages.items():
            want = []
            for p in batch:
                pair = split_decoded(
                    greedy_decode(
                        model, prompts[lang], encode_context(p.text, lang), PT_MAX_TOKENS
                    )
                )
                if pair and pair[0] and pair[1]:
                    want.append((f"pt-{lang}-{p.id}", pair[0], pair[1]))
            got = [(ex.id, ex.answer, ex.question) for ex in run.raw[lang].examples]
            assert got == want

    def test_missing_prompt_fails_before_decoding(self, monkeypatch):
        import qasynth.tuner as tuner
        from qasynth.tuner import create_toy_lm, init_prompt

        calls = []
        monkeypatch.setattr(
            tuner, "greedy_decode_batch", lambda *a: calls.append(a) or []
        )
        model = create_toy_lm(seed=0)
        with pytest.raises(SynthesisError, match="'sw'"):
            synth_pt(
                {"fi": fi_passages(2), "sw": sw_passages(2)},
                model=model,
                prompts_by_language={"fi": init_prompt(2, model.d, seed=0)},
            )
        assert calls == []

    @pytest.mark.parametrize("path", ["toy", "backend"])
    def test_passage_listed_under_another_language_fails_before_any_call(
        self, monkeypatch, path
    ):
        import qasynth.tuner as tuner
        from qasynth.tuner import create_toy_lm, init_prompt

        calls = []
        monkeypatch.setattr(
            tuner, "greedy_decode_batch", lambda *a: calls.append(a) or []
        )
        german = Passage(id="p1", text="Die Brücke wurde 1956 gebaut.", language="de")
        backend = StaticBackend(["vastaus\nkysymys?"] * 2)
        if path == "toy":
            model = create_toy_lm(seed=0)
            args = {"model": model, "prompts_by_language": {"fi": init_prompt(2, model.d, seed=0)}}
        else:
            args = {"backend": backend}
        with pytest.raises(SynthesisError, match="passage 'p1' is 'de', listed under 'fi'"):
            synth_pt({"fi": fi_passages(1) + [german]}, **args)
        assert calls == []
        assert backend._calls == 0

    def test_language_without_passages_is_empty(self):
        from qasynth.tuner import create_toy_lm, init_prompt

        model = create_toy_lm(seed=0)
        prompts = {"fi": init_prompt(2, model.d, seed=0), "sw": init_prompt(2, model.d, seed=1)}
        run = synth_pt(
            {"fi": fi_passages(2), "sw": []}, model=model, prompts_by_language=prompts
        )
        assert len(run.raw["sw"]) == 0
        assert run.reports["sw"].input_count == 0
        assert run.reports["fi"].input_count == 2


class TestFilterExtractive:
    def test_keep_and_align(self):
        raw = Dataset(
            name="r",
            examples=(
                make_example(0, "ari aria aria", "mika?", "aria",
                             provenance="pe"),
            ),
        )
        kept, report = filter_extractive(raw)
        assert report.kept_count == 1
        assert kept.examples[0].answer_start == 4  # first occurrence
        assert report.dropped == {}  # zero counts are not reported

    def test_drop_non_substring(self):
        raw = Dataset(
            name="r",
            examples=(make_example(0, "abc", "q?", "zz", provenance="pe"),),
        )
        kept, report = filter_extractive(raw)
        assert len(kept) == 0
        assert report.dropped["not_substring_of_context"] == 1

    def test_drop_trivial_question(self):
        raw = Dataset(
            name="r",
            examples=(
                make_example(0, "vuosi 1956", "mita tapahtui 1956?", "1956",
                             provenance="pe"),
            ),
        )
        kept, report = filter_extractive(raw)
        assert len(kept) == 0
        assert report.dropped["substring_of_question"] == 1

    def test_exact_unicode_match(self):
        raw = Dataset(
            name="r",
            examples=(make_example(0, "türmi on", "mis?", "TÜRMI",
                                   provenance="pe"),),
        )
        kept, report = filter_extractive(raw)
        assert len(kept) == 0  # case differs; no normalization here


class TestFilterRoundtrip:
    def _dataset(self):
        return Dataset(
            name="r",
            examples=(
                make_example(0, "Silta valmistui 1956.", "Milloin silta valmistui?",
                             "1956", provenance="pe", answer_start=16),
                make_example(1, "Joki on pitka.", "Mika on pitka?", "Joki",
                             provenance="pe", answer_start=0),
            ),
        )

    def test_normalized_match_survives(self):
        backend = StubRoundtrip(
            {"Milloin silta valmistui?": "1956.", "Mika on pitka?": "virta"}
        )
        kept, report = filter_roundtrip(self._dataset(), backend, fi_exemplars())
        assert [ex.id for ex in kept.examples] == ["pe-fi-0"]
        assert report.dropped == {"roundtrip_mismatch": 1}

    def test_raw_mode_is_stricter(self):
        backend = StubRoundtrip(
            {"Milloin silta valmistui?": "1956.", "Mika on pitka?": "Joki"}
        )
        kept, report = filter_roundtrip(self._dataset(), backend, fi_exemplars(),
                                        mode="raw")
        assert [ex.id for ex in kept.examples] == ["pe-fi-1"]

    def test_backend_failure_drops_with_note(self):
        backend = StubRoundtrip({})
        kept, report = filter_roundtrip(self._dataset(), backend, fi_exemplars())
        assert len(kept) == 0
        assert report.dropped == {"roundtrip_mismatch": 2}
        assert report.notes

    def test_idempotent_with_deterministic_backend(self):
        # Noise makes some questions miss their answer span, which is the
        # only way a mock pe example survives the trivial-question filter.
        backend = MockQABackend(noise_rate=0.5, seed=3)
        passages = fi_passages(12)
        run = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
        extracted, _ = filter_extractive(run.raw["fi"])
        assert extracted.examples  # non-vacuous: something survives
        once, r1 = filter_roundtrip(extracted, backend, fi_exemplars())
        assert once.examples
        twice, r2 = filter_roundtrip(once, backend, fi_exemplars())
        assert twice.examples == once.examples
        assert r2.dropped == {}
        assert r2.kept_count == r2.input_count


class TestFilterInvariants:
    def test_noise_corpus_obeys_filter_laws(self):
        backend = MockQABackend(noise_rate=0.3, seed=11)
        passages = fi_passages(60)
        run = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
        raw = run.raw["fi"]
        kept, report = filter_extractive(raw)
        for ex in kept.examples:
            assert ex.answer in ex.context
            assert ex.answer not in ex.question
            assert ex.context[ex.answer_start : ex.answer_start + len(ex.answer)] == ex.answer
        assert report.input_count == len(raw)
        assert report.kept_count + sum(report.dropped.values()) == report.input_count
        # the mix must exercise keeps and both drop reasons, or the law
        # checks above are vacuous
        assert report.kept_count > 0
        assert report.dropped.get("not_substring_of_context", 0) > 0
        assert report.dropped.get("substring_of_question", 0) > 0


class TestAssembleAndSweep:
    def _assembled(self, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi", "ar"])
        return assemble(gold_en, run.filtered, name="joined")

    def test_order_english_then_sorted_languages(self, gold_en, tagging_translator):
        ds = self._assembled(gold_en, tagging_translator)
        langs = [ex.language for ex in ds.examples]
        assert langs == ["en"] * 5 + ["ar"] * 5 + ["fi"] * 5

    def test_ids_namespaced(self, gold_en, tagging_translator):
        ds = self._assembled(gold_en, tagging_translator)
        assert ds.examples[0].id == "gold-en/en-0"
        assert any(ex.id.startswith("mt-fi/") for ex in ds.examples)

    def test_collision_rejected(self, gold_en):
        dup = Dataset(name=gold_en.name, examples=gold_en.examples[:1])
        clash = Dataset(
            name=gold_en.name,
            examples=(
                QAExample(
                    id=gold_en.examples[0].id, context="c", question="q?",
                    answer="c", answer_start=0, language="fi",
                    provenance="mt", source_dataset="x",
                ),
            ),
        )
        with pytest.raises(SynthesisError):
            assemble(dup, {"fi": clash})

    def test_sweep_nesting(self, gold_en, tagging_translator):
        ds = self._assembled(gold_en, tagging_translator)
        subsets = size_sweep(ds, [2, 5, 10], seed=3)
        assert [s.name for s in subsets] == ["joined-n2", "joined-n5", "joined-n10"]
        chosen = []
        for subset in subsets:
            synth_ids = {ex.id for ex in subset.examples if ex.language != "en"}
            en_count = sum(1 for ex in subset.examples if ex.language == "en")
            assert en_count == 5
            chosen.append(synth_ids)
        assert chosen[0] <= chosen[1] <= chosen[2]
        assert [len(c) for c in chosen] == [2, 5, 10]

    def test_sweep_keeps_original_order(self, gold_en, tagging_translator):
        ds = self._assembled(gold_en, tagging_translator)
        subset = size_sweep(ds, [4], seed=0)[0]
        positions = {ex.id: i for i, ex in enumerate(ds.examples)}
        got = [positions[ex.id] for ex in subset.examples]
        assert got == sorted(got)

    def test_sweep_rejects_decreasing_sizes(self, gold_en, tagging_translator):
        ds = self._assembled(gold_en, tagging_translator)
        with pytest.raises(SynthesisError):
            size_sweep(ds, [5, 2], seed=0)

    def test_sweep_rejects_negative_sizes(self, gold_en, tagging_translator):
        ds = self._assembled(gold_en, tagging_translator)
        with pytest.raises(SynthesisError, match="sizes must be >= 0"):
            size_sweep(ds, [-1], seed=0)


class TestSaveRun:
    def test_layout_and_counts(self, tmp_path, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi", "ar"])
        save_run(run, tmp_path / "run", {"method": "mt", "seed": 0})
        for lang in ("fi", "ar"):
            assert (tmp_path / "run" / lang / "raw.jsonl").exists()
            assert (tmp_path / "run" / lang / "filtered.jsonl").exists()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["method"] == "mt"
        assert report["counts"]["fi"]["raw"] == 5
        assert report["counts"]["fi"]["filtered"] == 5
        config = json.loads((tmp_path / "run" / "config.json").read_text())
        assert config == {"method": "mt", "seed": 0}


    def test_returns_the_paths_it_wrote(self, tmp_path, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi", "ar"])
        written = save_run(run, tmp_path / "run", {})
        on_disk = {
            p.relative_to(tmp_path / "run").as_posix()
            for p in (tmp_path / "run").rglob("*")
            if p.is_file()
        }
        assert sorted(written) == sorted(on_disk)
        assert len(written) == len(on_disk) == 6


run_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)


@st.composite
def synthesis_runs(draw):
    """Runs with several languages, unicode text, drops, notes, and filtered
    subsets of raw, as synthesis followed by filtering produces them."""
    method = draw(st.sampled_from(["mt", "pe", "pt"]))
    languages = draw(
        st.lists(st.sampled_from(["ar", "fi", "ja", "sw"]), min_size=1, max_size=3,
                 unique=True)
    )
    raw, filtered, reports = {}, {}, {}
    for lang in languages:
        rows = draw(st.lists(
            st.tuples(run_text, run_text, run_text, run_text, st.booleans(), st.booleans()),
            max_size=4,
        ))
        examples = [
            QAExample(
                id=f"{method}-{lang}-{i}",
                context=prefix + answer,
                question=question,
                answer=answer,
                answer_start=len(prefix) if aligned else None,
                language=lang,
                provenance=method,
                source_dataset=source,
            )
            for i, (prefix, question, answer, source, aligned, _) in enumerate(rows)
        ]
        kept = [ex for ex, row in zip(examples, rows) if row[-1]]
        empty = draw(st.integers(0, 3))
        dropped = {
            "empty_generation": empty,
            "not_substring_of_context": len(examples) - len(kept),
        }
        raw[lang] = Dataset(name=f"{method}-{lang}", examples=tuple(examples))
        filtered[lang] = Dataset(name=f"{method}-{lang}", examples=tuple(kept))
        reports[lang] = FilterReport(
            input_count=len(examples) + empty,
            kept_count=len(kept),
            dropped={k: v for k, v in dropped.items() if v},
            notes=tuple(draw(st.lists(run_text, max_size=empty))),
        )
    return SynthesisRun(
        method=method,
        scenario=draw(st.sampled_from(["english_only", "few_shot"])),
        languages=tuple(languages),
        raw=raw,
        filtered=filtered,
        reports=reports,
    )


@given(synthesis_runs(), st.dictionaries(run_text, run_text, max_size=3))
@settings(max_examples=60, deadline=None)
def test_load_run_inverts_save_run(tmp_path_factory, run, config):
    run_dir = tmp_path_factory.mktemp("run")
    save_run(run, run_dir, config)
    assert load_run(run_dir) == run
    assert json.loads((run_dir / "config.json").read_text(encoding="utf-8")) == config
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert report["config_hash"] == config_hash(config)


class TestLoadRun:
    def _saved(self, tmp_path, gold_en, tagging_translator):
        run_dir = tmp_path / "run"
        save_run(synth_mt(gold_en, tagging_translator, ["fi"]), run_dir, {})
        return run_dir

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("method"), "missing key 'method'"),
            (lambda doc: doc["reports"].pop("fi"), "missing key 'fi'"),
            (lambda doc: doc["reports"]["fi"].update(kept_count=4), "do not conserve"),
            (lambda doc: doc["reports"]["fi"]["dropped"].update(odd=0), "unknown drop reason"),
            (lambda doc: doc.update(method="xx"), "unknown method"),
            (lambda doc: doc.update(scenario="bogus"), "unknown scenario 'bogus'"),
            (lambda doc: doc.update(scenario=["few_shot"]), "unknown scenario"),
        ],
    )
    def test_bad_report_names_the_file(self, tmp_path, gold_en, tagging_translator,
                                       edit, message):
        run_dir = self._saved(tmp_path, gold_en, tagging_translator)
        path = run_dir / "report.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SynthesisError, match=message) as exc:
            load_run(run_dir)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("text", ["[]", "5", "{nope"])
    def test_report_that_is_not_an_object(self, tmp_path, gold_en, tagging_translator,
                                          text):
        run_dir = self._saved(tmp_path, gold_en, tagging_translator)
        (run_dir / "report.json").write_text(text, encoding="utf-8")
        with pytest.raises(SynthesisError, match="report.json: "):
            load_run(run_dir)

    def test_notes_may_be_absent(self, tmp_path, gold_en, tagging_translator):
        run_dir = self._saved(tmp_path, gold_en, tagging_translator)
        path = run_dir / "report.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["reports"]["fi"]["notes"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_run(run_dir).reports["fi"].notes == ()


class TestFilterRun:
    def _pe_run(self, n=30):
        backend = MockQABackend(noise_rate=0.3, seed=11)
        return synth_pe({"fi": fi_exemplars()}, {"fi": fi_passages(n)}, backend), backend

    def test_extractive_only_without_backend(self):
        run, _ = self._pe_run()
        out = filter_run(run)
        kept, report = filter_extractive(run.raw["fi"])
        assert out.raw == run.raw
        assert out.filtered["fi"] == kept
        assert out.reports["fi"] == merge_reports(run.reports["fi"], report)

    def test_roundtrip_chained_after_extractive(self):
        run, backend = self._pe_run()
        out = filter_run(run, backend, {"fi": fi_exemplars()}, mode="raw")
        kept, e_report = filter_extractive(run.raw["fi"])
        final, r_report = filter_roundtrip(kept, backend, fi_exemplars(), mode="raw")
        assert out.filtered["fi"] == final
        assert out.reports["fi"] == merge_reports(
            merge_reports(run.reports["fi"], e_report), r_report
        )
        assert (out.method, out.scenario) == (run.method, run.scenario)

    def test_missing_exemplars_fail_before_any_call(self):
        run, _ = self._pe_run(3)
        backend = StaticBackend([])
        with pytest.raises(SynthesisError, match="no exemplars"):
            filter_run(run, backend, {})
        assert backend._calls == 0

    def test_exemplars_in_another_language_fail_before_any_call(self):
        run, _ = self._pe_run(3)
        backend = StaticBackend([])
        ar = fi_exemplars()
        ar = dataclasses.replace(ar, language="ar", exemplars=tuple(
            dataclasses.replace(e, language="ar") for e in ar.exemplars))
        with pytest.raises(SynthesisError, match="has language 'ar'"):
            filter_run(run, backend, {"fi": ar})
        assert backend._calls == 0

    def test_mt_runs_are_never_filtered(self, gold_en, tagging_translator):
        run = synth_mt(gold_en, tagging_translator, ["fi"])
        with pytest.raises(SynthesisError, match="never filtered"):
            filter_run(run)

    def test_filtering_twice_equals_filtering_once(self):
        run, _ = self._pe_run()
        once = filter_run(run)
        twice = filter_run(once)
        assert len(once.filtered["fi"]) > 0
        assert twice.raw == run.raw
        assert twice.filtered == once.filtered
        assert twice.reports == once.reports
        report = twice.reports["fi"]
        assert report.input_count == len(run.raw["fi"]) + sum(
            run.reports["fi"].dropped.values()
        )
        assert report.kept_count + sum(report.dropped.values()) == report.input_count


class TestConfigHash:
    def test_stable_under_key_order(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 12
        assert a != config_hash({"x": 2, "y": [1, 2]})
