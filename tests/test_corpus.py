"""Parsing, validation, sampling, and serialization of QA datasets."""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth.cli import RunConfig, TuneConfig
from qasynth.corpus import (
    CorpusError,
    Dataset,
    Passage,
    QAExample,
    atomic_open,
    config_hash,
    dataset_stats,
    load_passage_pool,
    parse_squad_json,
    read_jsonl,
    sample_passage_pool,
    sample_unlabeled,
    subsample_fewshot,
    write_json,
    write_jsonl,
)
from qasynth.metrics import evaluate
from qasynth.synthesis import FilterReport
from qasynth.taxonomy import distribution

from helpers import DictTranslator, fi_exemplars, record_fields


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

    @pytest.mark.parametrize(
        "context, answer, field",
        [
            ("alpha beta", {"text": "alpha", "answer_start": "0"}, "answer_start"),
            ("alpha beta", {"text": "alpha", "answer_start": False}, "answer_start"),
            (123, {"text": "alpha", "answer_start": 0}, "context"),
            ("alpha beta", {"text": 5, "answer_start": 0}, "answer"),
        ],
        ids=["answer-start-string", "answer-start-bool", "context-number", "text-number"],
    )
    def test_wrongly_typed_field_skipped(self, context, answer, field):
        good = {"id": "ok", "question": "what?",
                "answers": [{"text": "Some", "answer_start": 0}]}
        doc = {"data": [{"paragraphs": [
            {"context": context,
             "qas": [{"id": "bad", "question": "what?", "answers": [answer]}]},
            {"context": "Some context.", "qas": [good]},
        ]}]}
        ds, report = parse_squad_json(json.dumps(doc), "fix", "en")
        assert [ex.id for ex in ds.examples] == ["ok"]
        assert report.skipped == 1
        assert report.errors[0].startswith(f"bad: example 'bad': {field} must be ")

    @pytest.mark.parametrize("answers", [["abc"], {"a": 1}, "abc", [{"text": "a"}, 1]],
                             ids=["list-of-strings", "object", "string", "list-with-number"])
    def test_answers_not_a_list_of_objects_raises(self, answers):
        doc = {"data": [{"paragraphs": [
            {"context": "abc", "qas": [{"id": "bad", "question": "q?", "answers": answers}]}
        ]}]}
        with pytest.raises(CorpusError, match="'answers' must be a list of objects"):
            parse_squad_json(json.dumps(doc), "fix", "en")

    def test_bytes_not_utf8_name_the_offset(self):
        with pytest.raises(CorpusError, match="not UTF-8 at byte offset 11"):
            parse_squad_json(b'{"data": ["\xff"]}', "fix", "en")


class TestPassagePool:
    def test_loads_in_order(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text(
            '\n'.join(
                json.dumps({"id": f"p{i}", "text": f"text {i}"}) for i in range(3)
            ),
            encoding="utf-8",
        )
        pool = load_passage_pool(p, "fi")
        assert [x.id for x in pool] == ["p0", "p1", "p2"]
        assert all(x.language == "fi" and x.source == "pool.ndjson" for x in pool)

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


def write_pool(path, count: int, seed: int) -> None:
    """An NDJSON pool of count passages, 100 to 600 characters, some of them
    non-ASCII, with blank lines between some records."""
    rng = random.Random(seed)
    words = "lorem ipsum dolor sité amet ü consectetur adipiscing elit " * 12
    with path.open("w", encoding="utf-8") as fh:
        for i in range(count):
            start = rng.randrange(60)
            text = words[start : start + rng.randint(100, 600)]
            fh.write(json.dumps({"id": f"p{i}", "text": text}, ensure_ascii=i % 3 == 0))
            fh.write("\n\n" if i % 7 == 0 else "\n")


class TestSamplePassagePool:
    """The streamed sampler picks what sample_unlabeled picks on the loaded pool."""

    @pytest.mark.parametrize("count", [1, 40, 500])
    def test_matches_sampling_the_loaded_pool(self, tmp_path, count):
        path = tmp_path / "pool.ndjson"
        write_pool(path, count, seed=count)
        pool = load_passage_pool(path, "fi")
        for lo, hi in [(200, 510), (100, 150)]:
            eligible = sum(1 for p in pool if lo <= len(p.text) <= hi)
            for seed in range(5):
                for n in {0, min(1, eligible), eligible // 2, eligible}:
                    assert sample_passage_pool(
                        path, "fi", n, seed, min_len=lo, max_len=hi
                    ) == sample_unlabeled(pool, n, seed, min_len=lo, max_len=hi)

    def test_index_sample_picks_what_a_list_sample_picks(self):
        rng = random.Random(0)
        for seed in range(50):
            N = rng.choice([1, 21, 1000, rng.randint(1, 200_000), 200_000])
            # random.sample copies a population that is small next to n,
            # and draws into a set otherwise: both ways are covered.
            n = rng.randint(0, N if N <= 1000 else 5000)
            population = list(range(N, 0, -1))
            picks = random.Random(seed).sample(range(N), n)
            assert [population[i] for i in picks] == random.Random(seed).sample(population, n)

    def test_over_request_keeps_its_numbers(self, tmp_path):
        path = tmp_path / "pool.ndjson"
        write_pool(path, 60, seed=1)
        pool = load_passage_pool(path, "fi")
        eligible = sum(1 for p in pool if 200 <= len(p.text) <= 510)
        with pytest.raises(CorpusError) as want:
            sample_unlabeled(pool, eligible + 1, seed=0)
        with pytest.raises(CorpusError) as got:
            sample_passage_pool(path, "fi", eligible + 1, seed=0)
        assert str(got.value) == str(want.value)
        assert f"only {eligible} of 60 " in str(got.value)
        with pytest.raises(CorpusError, match="sample size must be >= 0"):
            sample_passage_pool(path, "fi", -1, seed=0)

    @pytest.mark.parametrize(
        "tail",
        ['{"id": "b"}', "not json", '{"id": "p3", "text": "again"}',
         '{"id": "c", "text": ""}', '{"id": "c", "text": 5}'],
        ids=["missing-text", "malformed", "duplicate", "empty-text", "non-string"],
    )
    def test_every_line_is_validated_with_its_number(self, tmp_path, tail):
        path = tmp_path / "pool.ndjson"
        write_pool(path, 8, seed=2)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(tail + "\n")
        with pytest.raises(CorpusError) as want:
            load_passage_pool(path, "fi")
        with pytest.raises(CorpusError) as got:
            sample_passage_pool(path, "fi", 0, seed=0)
        assert str(got.value) == str(want.value)
        assert f"{path}:11:" in str(got.value)

    def test_peak_memory_is_far_below_the_pool(self, tmp_path):
        path = tmp_path / "pool.ndjson"
        write_pool(path, 20_000, seed=3)
        tracemalloc.start()
        try:
            picked = sample_passage_pool(path, "fi", 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(picked) == 100
        # Every id stays for the duplicate check (about 1.5 MB here), but no
        # text does; loading the whole pool peaks above the file's size.
        assert peak < path.stat().st_size / 4


class TestSubsampleFewshot:
    def test_exact_language_and_size(self, gold_multi):
        out = subsample_fewshot(gold_multi, "fi", 2, seed=0)
        assert len(out) == 2
        assert all(ex.language == "fi" for ex in out.examples)

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
        back = read_jsonl(path, name=ds.name)
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

    @pytest.mark.parametrize(
        "read, first",
        [(read_jsonl, json.dumps(qa(0).to_json_dict())),
         (lambda path: load_passage_pool(path, "fi"), '{"id": "a", "text": "ok"}')],
        ids=["read_jsonl", "load_passage_pool"],
    )
    def test_line_not_utf8_names_file_and_line(self, tmp_path, read, first):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(first.encode("utf-8") + b'\n{"id": "\xff"}\n')
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: not UTF-8"):
            read(path)

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


class TestJsonRecords:
    """write_json and config_hash write a dataclass record as exactly its
    fields, nested records included, so no serializer can drift from its
    dataclass."""

    @staticmethod
    def _records(gold):
        return {
            "DatasetStats": dataset_stats(gold),
            "EvalReport": evaluate({ex.id: ex.answer for ex in gold.examples}, gold),
            "FilterReport": FilterReport(
                input_count=3, kept_count=1, dropped={"roundtrip_mismatch": 2}, notes=("n",)
            ),
            "TaxonomyReport": distribution(gold, DictTranslator({}), other_threshold=0.0),
            "ExemplarSet": fi_exemplars(),
            "RunConfig": RunConfig(languages=("en", "fi"), tuner=TuneConfig(m=4)),
        }

    @pytest.mark.parametrize("kind", ["DatasetStats", "EvalReport", "FilterReport",
                                      "TaxonomyReport", "ExemplarSet", "RunConfig"])
    def test_a_record_is_written_as_its_fields(self, tmp_path, gold_multi, kind):
        record = self._records(gold_multi)[kind]
        write_json(tmp_path / "record.json", record)
        written = json.loads((tmp_path / "record.json").read_text(encoding="utf-8"))
        assert written == record_fields(record)
        write_json(tmp_path / "nested.json", {"records": [record]})
        nested = json.loads((tmp_path / "nested.json").read_text(encoding="utf-8"))
        assert nested == {"records": [record_fields(record)]}
        assert config_hash(record) == config_hash(record_fields(record))

    @pytest.mark.parametrize("payload", [object(), Dataset, {1, 2}], ids=["object", "class", "set"])
    def test_what_is_neither_json_nor_a_record_is_refused(self, tmp_path, payload):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_json(tmp_path / "x.json", payload)
        assert not (tmp_path / "x.json").exists()


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
