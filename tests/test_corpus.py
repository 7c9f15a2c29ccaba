"""Parsing, validation, sampling, and serialization of QA datasets."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.corpus import (
    CorpusError,
    Dataset,
    Passage,
    QAExample,
    atomic_open,
    dataset_stats,
    load_passage_pool,
    parse_squad_json,
    read_jsonl,
    sample_unlabeled,
    subsample_fewshot,
    write_jsonl,
)


def qa(i, context="abc def", answer="abc", start=0, language="fi", **kw):
    return QAExample(
        id=f"x-{i}",
        context=context,
        question=kw.pop("question", "what?"),
        answer=answer,
        answer_start=start,
        language=language,
        provenance=kw.pop("provenance", "gold"),
        source_dataset="t",
        **kw,
    )


class TestQAExample:
    def test_valid_offset(self):
        ex = qa(0)
        assert ex.context[ex.answer_start : ex.answer_start + len(ex.answer)] == ex.answer

    def test_offset_mismatch_rejected(self):
        with pytest.raises(CorpusError):
            qa(0, answer="def", start=0)

    def test_offset_may_be_absent(self):
        assert qa(0, start=None).answer_start is None

    def test_empty_question_rejected(self):
        with pytest.raises(CorpusError):
            qa(0, question="")

    def test_empty_answer_rejected(self):
        with pytest.raises(CorpusError):
            qa(0, answer="", start=None)

    def test_unknown_provenance_rejected(self):
        with pytest.raises(CorpusError):
            qa(0, provenance="guess")

    def test_extra_answers_do_not_affect_equality(self):
        a = qa(0)
        b = qa(0, extra_answers=("other",))
        assert a == b

    def test_gold_answers_includes_alternatives(self):
        ex = qa(0, extra_answers=("abc def",))
        assert ex.gold_answers() == ("abc", "abc def")


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(CorpusError):
            Dataset(name="d", examples=(qa(1), qa(1)))

    def test_by_language_groups(self, gold_multi):
        groups = gold_multi.by_language()
        assert {k: len(v) for k, v in groups.items()} == {"en": 2, "fi": 3, "ar": 1}

    def test_bad_scenario_rejected(self):
        with pytest.raises(CorpusError):
            Dataset(name="d", examples=(), scenario="mystery")


class TestParseSquad:
    def test_minimal_document(self, squad_raw):
        ds, report = parse_squad_json(squad_raw, "fix", "en")
        assert len(ds) == 4
        assert report.total_qas == 4
        assert report.parsed == 4
        assert report.skipped == 0
        assert report.errors == ()

    def test_first_answer_wins(self, squad_raw):
        ds, _ = parse_squad_json(squad_raw, "fix", "en")
        q2 = {ex.id: ex for ex in ds.examples}["q2"]
        assert q2.answer == "The tower"
        assert q2.answer_start == 0
        assert q2.extra_answers == ("tower",)

    def test_provenance_and_language(self, squad_raw):
        ds, _ = parse_squad_json(squad_raw, "fix", "ar")
        assert all(ex.provenance == "gold" for ex in ds.examples)
        assert all(ex.language == "ar" for ex in ds.examples)
        assert all(ex.source_dataset == "fix" for ex in ds.examples)

    def test_empty_data_array(self):
        ds, report = parse_squad_json(b'{"data": []}', "fix", "en")
        assert len(ds) == 0
        assert report.total_qas == 0

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(CorpusError, match="byte"):
            parse_squad_json(b'{"data": [}', "fix", "en")

    def test_qa_without_answers_skipped(self):
        doc = {
            "data": [
                {
                    "paragraphs": [
                        {
                            "context": "Some context here.",
                            "qas": [
                                {"id": "empty", "question": "eh?", "answers": []},
                                {
                                    "id": "ok",
                                    "question": "what?",
                                    "answers": [{"text": "Some", "answer_start": 0}],
                                },
                            ],
                        }
                    ]
                }
            ]
        }
        ds, report = parse_squad_json(json.dumps(doc), "fix", "en")
        assert [ex.id for ex in ds.examples] == ["ok"]
        assert report.skipped == 1
        assert any("empty" in e for e in report.errors)

    def test_wrong_offset_skipped(self):
        doc = {
            "data": [
                {
                    "paragraphs": [
                        {
                            "context": "alpha beta",
                            "qas": [
                                {
                                    "id": "bad",
                                    "question": "what?",
                                    "answers": [{"text": "beta", "answer_start": 0}],
                                }
                            ],
                        }
                    ]
                }
            ]
        }
        ds, report = parse_squad_json(json.dumps(doc), "fix", "en")
        assert len(ds) == 0
        assert report.skipped == 1


class TestPassagePool:
    def test_loads_in_order(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text(
            '\n'.join(
                json.dumps({"id": f"p{i}", "text": f"text {i}"}) for i in range(3)
            ),
            encoding="utf-8",
        )
        pool = load_passage_pool(p, "fi", source="wiki")
        assert [x.id for x in pool] == ["p0", "p1", "p2"]
        assert all(x.language == "fi" and x.source == "wiki" for x in pool)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text("", encoding="utf-8")
        assert load_passage_pool(p, "fi") == ()

    def test_missing_text_names_line(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text('{"id": "a", "text": "ok"}\n{"id": "b"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=":2:"):
            load_passage_pool(p, "fi")

    def test_malformed_line_names_line(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=":2:"):
            load_passage_pool(p, "fi")

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text(
            '{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusError):
            load_passage_pool(p, "fi")


class TestSampleUnlabeled:
    def test_length_window(self):
        pool = [
            Passage(id="short", text="s" * 150, language="fi"),
            Passage(id="mid", text="m" * 250, language="fi"),
            Passage(id="long", text="l" * 600, language="fi"),
        ]
        picked = sample_unlabeled(pool, 1, seed=0)
        assert [p.id for p in picked] == ["mid"]

    def test_bounds_inclusive(self):
        pool = [
            Passage(id="lo", text="a" * 200, language="fi"),
            Passage(id="hi", text="b" * 510, language="fi"),
            Passage(id="over", text="c" * 511, language="fi"),
            Passage(id="under", text="d" * 199, language="fi"),
        ]
        picked = sample_unlabeled(pool, 2, seed=1)
        assert {p.id for p in picked} == {"lo", "hi"}

    def test_zero(self, passage_pool):
        assert sample_unlabeled(passage_pool, 0, seed=0) == ()

    def test_deterministic(self, passage_pool):
        a = sample_unlabeled(passage_pool, 3, seed=11)
        b = sample_unlabeled(passage_pool, 3, seed=11)
        assert [p.id for p in a] == [p.id for p in b]

    def test_no_duplicates_and_subset(self, passage_pool):
        eligible = {p.id for p in passage_pool if 200 <= len(p.text) <= 510}
        for seed in range(5):
            picked = sample_unlabeled(passage_pool, 4, seed=seed)
            ids = [p.id for p in picked]
            assert len(set(ids)) == len(ids)
            assert set(ids) <= eligible

    def test_over_request_reports_eligible(self, passage_pool):
        eligible = sum(1 for p in passage_pool if 200 <= len(p.text) <= 510)
        with pytest.raises(CorpusError, match=str(eligible)):
            sample_unlabeled(passage_pool, eligible + 1, seed=0)


class TestSubsampleFewshot:
    def test_exact_language_and_size(self, gold_multi):
        out = subsample_fewshot(gold_multi, "fi", 2, seed=0)
        assert len(out) == 2
        assert all(ex.language == "fi" for ex in out.examples)
        assert out.scenario == "few_shot"

    def test_full_split_is_permutation(self, gold_multi):
        out = subsample_fewshot(gold_multi, "fi", 3, seed=5)
        fi_ids = {ex.id for ex in gold_multi.examples if ex.language == "fi"}
        assert {ex.id for ex in out.examples} == fi_ids

    def test_deterministic(self, gold_multi):
        a = subsample_fewshot(gold_multi, "fi", 2, seed=9)
        b = subsample_fewshot(gold_multi, "fi", 2, seed=9)
        assert [x.id for x in a.examples] == [x.id for x in b.examples]

    def test_too_few_reports_available(self, gold_multi):
        with pytest.raises(CorpusError, match="3"):
            subsample_fewshot(gold_multi, "fi", 4, seed=0)


class TestStatsAndSerialization:
    def test_stats_counts(self, gold_multi):
        stats = dataset_stats(gold_multi)
        assert stats.total == 6
        assert stats.by_language == {"en": 2, "fi": 3, "ar": 1}
        assert stats.by_provenance == {"gold": 6}

    def test_stats_empty(self):
        stats = dataset_stats(Dataset(name="e", examples=()))
        assert stats.total == 0
        assert stats.by_language == {}

    def test_round_trip(self, tmp_path, squad_raw):
        ds, _ = parse_squad_json(squad_raw, "fix", "en")
        path = tmp_path / "out.jsonl"
        write_jsonl(ds, path)
        back = read_jsonl(path, name=ds.name, scenario=ds.scenario)
        assert back.examples == ds.examples
        assert back.name == ds.name
        # equality ignores the alternatives, so compare them on their own
        assert [ex.extra_answers for ex in back.examples] == [
            ex.extra_answers for ex in ds.examples
        ]
        assert ("tower",) in [ex.extra_answers for ex in back.examples]

    def test_read_rejects_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        row = qa(0).to_json_dict()
        del row["language"]
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":1:"):
            read_jsonl(path)

    def test_read_rejects_extra_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        row = qa(0).to_json_dict()
        row["bonus"] = 1
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":1:"):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "field, value",
        [("answer_start", "0"), ("answer_start", True), ("answer_start", 0.0),
         ("context", 5), ("question", ["q"]), ("id", 7), ("language", None),
         ("extra_answers", "abc"), ("extra_answers", [1]), ("extra_answers", [""]),
         ("extra_answers", None)],
    )
    def test_read_rejects_wrong_field_type(self, tmp_path, field, value):
        path = tmp_path / "bad.jsonl"
        row = qa(0).to_json_dict()
        row[field] = value
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}:1: .*{field}"):
            read_jsonl(path)

    @pytest.mark.parametrize("line", ["5", "[1]", '"text"', "null"])
    def test_read_rejects_non_object_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(qa(0).to_json_dict()) + "\n" + line + "\n",
                        encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}:2: expected an object"):
            read_jsonl(path)

    def test_pool_rejects_non_string_text(self, tmp_path):
        path = tmp_path / "pool.ndjson"
        path.write_text(json.dumps({"id": "a", "text": 5}) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{re.escape(str(path))}:1: .*text"):
            load_passage_pool(path, "fi")

    def test_null_offset_round_trips(self, tmp_path):
        ds = Dataset(name="d", examples=(qa(0, start=None),))
        path = tmp_path / "out.jsonl"
        write_jsonl(ds, path)
        assert read_jsonl(path, name="d").examples[0].answer_start is None

    def test_record_without_alternatives_keeps_its_bytes(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(Dataset(name="d", examples=(qa(0),)), path)
        assert path.read_text(encoding="utf-8") == (
            '{"id": "x-0", "context": "abc def", "question": "what?", '
            '"answer": "abc", "answer_start": 0, "language": "fi", '
            '"provenance": "gold", "source_dataset": "t"}\n'
        )



class TestAtomicWrites:
    def test_failed_write_keeps_earlier_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(Dataset(name="d", examples=(qa(0),)), path)
        before = path.read_bytes()
        broken = qa(2)
        object.__setattr__(broken, "source_dataset", object())  # not JSON-serialisable
        with pytest.raises(TypeError):
            write_jsonl(Dataset(name="d", examples=(qa(1), broken)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_failed_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "prompt.bin", binary=True) as fh:
                fh.write(b"half")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old contents that are longer\n", encoding="utf-8")
        with atomic_open(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

simple_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
)


@given(
    st.lists(
        st.tuples(simple_text, simple_text, simple_text),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=50, deadline=None)
def test_jsonl_round_trip_property(tmp_path_factory, rows):
    examples = tuple(
        QAExample(
            id=f"h-{i}",
            context=c,
            question=q,
            answer=a,
            answer_start=None,
            language="fi",
            provenance="pe",
            source_dataset="hyp",
        )
        for i, (c, q, a) in enumerate(rows)
    )
    ds = Dataset(name="hyp", examples=examples)
    path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
    write_jsonl(ds, path)
    assert read_jsonl(path, name="hyp").examples == examples
