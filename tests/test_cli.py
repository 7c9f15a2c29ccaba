"""Command-line flows: each subcommand end to end in a temp tree, exit codes,
configuration loading, and byte-stable reruns."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasynth import __version__
from qasynth.cli import (
    EXIT_BACKEND,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ConfigError,
    RunConfig,
    load_config,
    main,
    save_exemplars,
)
from qasynth.corpus import Dataset, write_jsonl

from conftest import make_example
from test_synthesis import fi_exemplars


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_pool(tmp_path: Path, n: int = 10) -> str:
    """NDJSON passage pool with lengths 150, 200, ..., straddling the window."""
    path = tmp_path / "pool.ndjson"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            length = 150 + 50 * i
            text = (f"p{i}" * (length // 2 + 1))[:length]
            fh.write(json.dumps({"id": f"pass-{i}", "text": text}) + "\n")
    return str(path)


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture
def gold_en_path(tmp_path, gold_en) -> str:
    path = tmp_path / "en.gold.jsonl"
    write_jsonl(gold_en, path)
    return str(path)


class TestParser:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_argument(self):
        assert main(["ingest", "--name", "x", "--language", "en"]) == EXIT_USAGE

    def test_bad_choice(self):
        assert main(["synth", "--method", "zz", "--out", "o"]) == EXIT_USAGE


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.scenario == "english_only"
        assert config.backend.kind == "mock"
        assert config.seed("synth") == 0

    def test_overrides_and_seed_merge(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "languages": ["en", "fi"],
                "scenario": "few_shot",
                "n_shot": 2,
                "seeds": {"synth": 9},
            },
        )
        config = load_config(path)
        assert config.languages == ("en", "fi")
        assert config.n_shot == 2
        assert config.seed("synth") == 9
        assert config.seed("sample") == 0  # untouched defaults survive

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"languges": ["en"]})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_http_requires_url(self, tmp_path, monkeypatch):
        monkeypatch.delenv("QAM_BACKEND_URL", raising=False)
        path = write_config(tmp_path, {"backend": {"kind": "http"}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_http_url_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QAM_BACKEND_URL", "http://example.test")
        path = write_config(tmp_path, {"backend": {"kind": "http"}})
        assert load_config(path).backend.kind == "http"

    def test_config_hash_ignores_key_order(self, tmp_path):
        a = load_config(write_config(tmp_path, {"n_shot": 3, "scenario": "few_shot"}))
        b = RunConfig(scenario="few_shot", n_shot=3)
        assert a.config_hash == b.config_hash

    def test_bad_scenario_exits_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "weird"})
        code = main(["stats", "--config", path, "--input", "x.jsonl", "--out", "o"])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestConfigValidation:
    """Each bad value ends in exit 1 and one `error:` line naming the key."""

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"tuner": {"learning_rate": "0.3"}}, "tuner.learning_rate"),
            ({"tuner": {"learning_rate": 0}}, "tuner.learning_rate"),
            ({"tuner": {"eval_every": "5"}}, "tuner.eval_every"),
            ({"tuner": {"d": 0}}, "tuner.d"),
            ({"tuner": {"max_steps": 0}}, "tuner.max_steps"),
            ({"tuner": {"m": True}}, "tuner.m"),
            ({"tuner": {"batch_size": 2.5}}, "tuner.batch_size"),
            ({"tuner": {"early_stop_metric": "f1"}}, "tuner.early_stop_metric"),
            ({"backend": {"parallelism": "4"}}, "backend.parallelism"),
            ({"backend": {"parallelism": 0}}, "backend.parallelism"),
            ({"backend": {"timeout": "60"}}, "backend.timeout"),
        ],
    )
    def test_bad_value_exits_validation(self, tmp_path, capsys, doc, key):
        path = write_config(tmp_path, doc)
        code = main(["stats", "--config", path, "--input", "x.jsonl", "--out", "o"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err

    def test_integer_valued_settings_accepted(self, tmp_path):
        path = write_config(
            tmp_path,
            {"tuner": {"learning_rate": 1, "model_seed": 0},
             "backend": {"timeout": 5, "parallelism": 2}},
        )
        config = load_config(path)
        assert config.tuner.learning_rate == 1
        assert config.backend.timeout == 5


class TestIngest:
    def test_squad_to_jsonl(self, tmp_path, squad_raw, capsys):
        src = tmp_path / "squad.json"
        src.write_bytes(squad_raw)
        out = tmp_path / "out"
        code = main(
            ["ingest", "--input", str(src), "--name", "toy", "--language", "en",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "en.gold.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert (out / "ingest_report.json").exists()
        manifest = read_manifest(out)
        assert manifest["command"] == "ingest"
        assert manifest["tool_version"] == __version__
        assert "ingested 4/4" in capsys.readouterr().out

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["ingest", "--input", str(tmp_path / "nope.json"), "--name", "x",
             "--language", "en", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_samples_within_window(self, tmp_path):
        pool = write_pool(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["sample", "--passages", pool, "--language", "fi", "--n", "5",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [
            json.loads(line)
            for line in (out / "fi.passages.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 5
        assert all(200 <= len(r["text"]) <= 510 for r in rows)

    def test_too_many_requested(self, tmp_path, capsys):
        pool = write_pool(tmp_path)
        code = main(
            ["sample", "--passages", pool, "--language", "fi", "--n", "50",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_no_output_directory_configured(self, tmp_path):
        pool = write_pool(tmp_path)
        assert (
            main(["sample", "--passages", pool, "--language", "fi", "--n", "2"])
            == EXIT_VALIDATION
        )


class TestExemplars:
    def test_english_only_translates(self, tmp_path, gold_en_path):
        out = tmp_path / "out"
        code = main(
            ["exemplars", "--gold", gold_en_path, "--language", "fi",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "fi.exemplars.json").read_text(encoding="utf-8"))
        assert doc["language"] == "fi"
        assert doc["scenario"] == "english_only"
        assert len(doc["exemplars"]) == 5
        # the mock translator tags its output, proving translation happened
        assert all(e["context_l"].startswith("[fi]") for e in doc["exemplars"])

    def test_few_shot_uses_target_language_gold(self, tmp_path, gold_multi):
        gold_path = tmp_path / "multi.jsonl"
        write_jsonl(gold_multi, gold_path)
        config = write_config(
            tmp_path, {"scenario": "few_shot", "n_shot": 2, "languages": ["en", "fi"]}
        )
        out = tmp_path / "out"
        code = main(
            ["exemplars", "--config", config, "--gold", str(gold_path),
             "--language", "fi", "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads((out / "fi.exemplars.json").read_text(encoding="utf-8"))
        assert doc["scenario"] == "few_shot"
        assert len(doc["exemplars"]) == 2
        assert all(not e["context_l"].startswith("[") for e in doc["exemplars"])

    def test_english_only_needs_english_gold(self, tmp_path, gold_multi, capsys):
        fi_only = Dataset(
            name="fi",
            examples=tuple(e for e in gold_multi.examples if e.language == "fi"),
        )
        gold_path = tmp_path / "fi.jsonl"
        write_jsonl(fi_only, gold_path)
        code = main(
            ["exemplars", "--gold", str(gold_path), "--language", "fi",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "English gold" in capsys.readouterr().err


TINY_TUNER = {
    "m": 2,
    "d": 8,
    "h": 16,
    "learning_rate": 0.1,
    "warmup_steps": 5,
    "batch_size": 4,
    "max_steps": 10,
    "eval_every": 5,
    "early_stop_metric": "dev_loss",
}


def write_tune_corpus(tmp_path: Path):
    train = Dataset(
        name="t",
        examples=tuple(make_example(i, f"x{10 + i}a", "aaa", "aa") for i in range(8)),
    )
    dev = Dataset(
        name="d",
        examples=tuple(
            make_example(100 + i, f"x{50 + i}a", "aaa", "aa") for i in range(4)
        ),
    )
    train_path = tmp_path / "train.jsonl"
    dev_path = tmp_path / "dev.jsonl"
    write_jsonl(train, train_path)
    write_jsonl(dev, dev_path)
    return str(train_path), str(dev_path)


class TestTune:
    def test_writes_prompt_and_trace(self, tmp_path, capsys):
        train, dev = write_tune_corpus(tmp_path)
        config = write_config(tmp_path, {"tuner": TINY_TUNER})
        out = tmp_path / "out"
        code = main(
            ["tune", "--config", config, "--train", train, "--dev", dev,
             "--language", "fi", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "fi.prompt.bin").exists()
        trace = json.loads((out / "fi.trace.json").read_text(encoding="utf-8"))
        assert trace["language"] == "fi"
        assert trace["metric"] == "dev_loss"
        assert trace["records"]
        assert "tuned fi" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        train, dev = write_tune_corpus(tmp_path)
        config = write_config(tmp_path, {"tuner": TINY_TUNER})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(["tune", "--config", config, "--train", train, "--dev", dev,
                      "--language", "fi", "--out", str(out)])
                == EXIT_OK
            )
            outs.append(out)
        for artifact in ("fi.prompt.bin", "fi.trace.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def synth_prerequisites(tmp_path: Path, gold_en: Dataset) -> dict:
    """ingest-equivalent gold file, sampled passages, and exemplars for fi.

    The mock backend gets a noise rate: a noiseless mock question always
    embeds its answer span, so nothing would survive the trivial-question
    filter and the downstream steps would be exercised on empty data.
    """
    gold_path = tmp_path / "en.gold.jsonl"
    write_jsonl(gold_en, gold_path)
    pool = write_pool(tmp_path)
    shared = tmp_path / "shared"
    config = write_config(
        tmp_path,
        {"languages": ["en", "fi"],
         "backend": {"kind": "mock", "noise_rate": 0.5}},
    )
    assert (
        main(["sample", "--passages", pool, "--language", "fi", "--n", "7",
              "--out", str(shared)])
        == EXIT_OK
    )
    assert (
        main(["exemplars", "--gold", str(gold_path), "--language", "fi",
              "--out", str(shared)])
        == EXIT_OK
    )
    return {"gold": str(gold_path), "shared": str(shared), "config": config}


class TestSynth:
    def test_mt_flow(self, tmp_path, gold_en):
        pre = synth_prerequisites(tmp_path, gold_en)
        out = tmp_path / "mt"
        code = main(
            ["synth", "--config", pre["config"], "--method", "mt",
             "--gold", pre["gold"], "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["method"] == "mt"
        assert report["languages"] == ["fi"]
        raw_lines = (out / "fi" / "raw.jsonl").read_text().splitlines()
        assert len(raw_lines) == 5  # one per gold example, mt is unfiltered
        first = json.loads(raw_lines[0])
        assert first["provenance"] == "mt"
        assert first["answer_start"] is None

    def test_pe_flow_with_filter_and_assemble(self, tmp_path, gold_en):
        pre = synth_prerequisites(tmp_path, gold_en)
        synth_dir = tmp_path / "pe"
        code = main(
            ["synth", "--config", pre["config"], "--method", "pe",
             "--passages-dir", pre["shared"], "--exemplars-dir", pre["shared"],
             "--out", str(synth_dir)]
        )
        assert code == EXIT_OK
        report = json.loads((synth_dir / "report.json").read_text(encoding="utf-8"))
        raw_count = report["counts"]["fi"]["raw"]
        assert raw_count == 7

        filter_dir = tmp_path / "pe-filtered"
        code = main(
            ["filter", "--config", pre["config"], "--run", str(synth_dir),
             "--exemplars-dir", pre["shared"], "--out", str(filter_dir)]
        )
        assert code == EXIT_OK
        freport = json.loads((filter_dir / "report.json").read_text(encoding="utf-8"))
        stats = freport["reports"]["fi"]
        assert stats["kept_count"] + sum(stats["dropped"].values()) == stats["input_count"]
        kept_lines = (filter_dir / "fi" / "filtered.jsonl").read_text().splitlines()
        assert len(kept_lines) == stats["kept_count"]
        assert kept_lines  # the deterministic mock round-trips consistently

        assemble_dir = tmp_path / "assembled"
        code = main(
            ["assemble", "--config", pre["config"], "--gold", pre["gold"],
             "--runs", str(filter_dir), "--sizes", "1,2", "--out", str(assemble_dir)]
        )
        assert code == EXIT_OK
        counts = json.loads((assemble_dir / "counts.json").read_text(encoding="utf-8"))
        assert counts["english"] == 5
        assert counts["total"] == 5 + counts["synthetic"]["fi"]
        assert (assemble_dir / "assembled-n1.jsonl").exists()
        assert (assemble_dir / "assembled-n2.jsonl").exists()

    def test_mt_requires_gold(self, tmp_path, gold_en, capsys):
        pre = synth_prerequisites(tmp_path, gold_en)
        code = main(
            ["synth", "--config", pre["config"], "--method", "mt",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "requires --gold" in capsys.readouterr().err

    def test_needs_non_english_language(self, tmp_path, gold_en_path):
        code = main(
            ["synth", "--method", "mt", "--gold", gold_en_path,
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION

    def test_pt_remote_flow(self, tmp_path, gold_en):
        pre = synth_prerequisites(tmp_path, gold_en)
        out = tmp_path / "pt"
        code = main(
            ["synth", "--config", pre["config"], "--method", "pt",
             "--passages-dir", pre["shared"], "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["method"] == "pt"
        raw_lines = (out / "fi" / "raw.jsonl").read_text().splitlines()
        assert json.loads(raw_lines[0])["provenance"] == "pt"


class TestSynthDeterminism:
    def test_rerun_is_byte_identical_except_timestamp(self, tmp_path, gold_en):
        pre = synth_prerequisites(tmp_path, gold_en)
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert (
                main(["synth", "--config", pre["config"], "--method", "pe",
                      "--passages-dir", pre["shared"],
                      "--exemplars-dir", pre["shared"], "--out", str(out)])
                == EXIT_OK
            )
            outs.append(out)
        for rel in ("report.json", "config.json", "fi/raw.jsonl", "fi/filtered.jsonl"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        first, second = (read_manifest(o) for o in outs)
        first.pop("created_at")
        second.pop("created_at")
        assert first == second


class TestEval:
    def test_scores_and_prints_table(self, tmp_path, gold_multi, capsys):
        gold_path = tmp_path / "gold.jsonl"
        write_jsonl(gold_multi, gold_path)
        predictions = {ex.id: ex.answer for ex in gold_multi.examples}
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(predictions), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["eval", "--gold", str(gold_path), "--predictions", str(pred_path),
             "--out", str(out)]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "Avg EM" in printed
        assert "Avg F1" in printed
        doc = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        assert doc["per_language"]["fi"]["em"] == 100.0

    def test_rejects_non_object_predictions(self, tmp_path, gold_multi, capsys):
        gold_path = tmp_path / "gold.jsonl"
        write_jsonl(gold_multi, gold_path)
        pred_path = tmp_path / "pred.json"
        pred_path.write_text("[1, 2]", encoding="utf-8")
        code = main(
            ["eval", "--gold", str(gold_path), "--predictions", str(pred_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "JSON object" in capsys.readouterr().err


class TestTaxonomyCommand:
    def test_writes_report_and_rings(self, tmp_path, gold_multi):
        data_path = tmp_path / "data.jsonl"
        write_jsonl(gold_multi, data_path)
        out = tmp_path / "out"
        code = main(["taxonomy", "--input", str(data_path), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "taxonomy.json").read_text(encoding="utf-8"))
        assert set(doc["per_language"]) == {"ar", "en", "fi"}
        total = sum(s["count"] for s in doc["pooled"].values())
        assert total == len(gold_multi)
        csv_text = (out / "categories.csv").read_text(encoding="utf-8")
        assert csv_text.startswith("label,count\n")
        assert (out / "subcategories.csv").exists()


class TestStats:
    def test_squad_counts_by_id_prefix(self, tmp_path, capsys):
        doc = {
            "data": [
                {
                    "title": "T",
                    "paragraphs": [
                        {
                            "context": "c",
                            "qas": [
                                {"id": "finnish-1-1", "question": "q", "answers": []},
                                {"id": "finnish-2-1", "question": "q", "answers": []},
                                {"id": "arabic-9-1", "question": "q", "answers": []},
                            ],
                        }
                    ],
                }
            ]
        }
        src = tmp_path / "dev.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["stats", "--input", str(src), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert payload["format"] == "squad"
        assert payload["per_language"] == {"arabic": 1, "finnish": 2}
        assert payload["total"] == 3

    def test_jsonl_stats(self, tmp_path, gold_multi):
        data_path = tmp_path / "data.jsonl"
        write_jsonl(gold_multi, data_path)
        out = tmp_path / "out"
        code = main(["stats", "--input", str(data_path), "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert payload["format"] == "jsonl"
        assert payload["total"] == 6


class TestBackendFailures:
    def test_http_error_exits_backend_code(self, tmp_path, gold_en_path, capsys):
        import threading
        from http.server import HTTPServer

        from test_backends import RecordingHandler

        httpd = HTTPServer(("127.0.0.1", 0), RecordingHandler)
        RecordingHandler.script = [(400, {"error": "bad request"})] * 8
        RecordingHandler.requests_seen = []
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            config = write_config(
                tmp_path,
                {"backend": {"kind": "http",
                             "url": f"http://127.0.0.1:{httpd.server_port}"}},
            )
            code = main(
                ["exemplars", "--config", config, "--gold", gold_en_path,
                 "--language", "fi", "--out", str(tmp_path / "o")]
            )
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert code == EXIT_BACKEND
        assert "backend error" in capsys.readouterr().err


class TestHttpSessionsClosed:
    def test_http_command_leaves_no_unclosed_socket(
        self, tmp_path, gold_en_path, recorded_sessions
    ):
        import gc
        import threading
        import warnings
        from http.server import ThreadingHTTPServer

        from test_backends import RecordingHandler

        class KeepAliveHandler(RecordingHandler):
            # HTTP/1.1 keeps each client connection open in its session's
            # pool, so a session that is never closed leaves a socket open.
            protocol_version = "HTTP/1.1"
            script = []
            requests_seen = []

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        config = write_config(
            tmp_path,
            {"backend": {"kind": "http", "parallelism": 3,
                         "url": f"http://127.0.0.1:{httpd.server_port}"}},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                code = main(
                    ["exemplars", "--config", config, "--gold", gold_en_path,
                     "--language", "fi", "--out", str(tmp_path / "o")]
                )
            finally:
                httpd.shutdown()
                httpd.server_close()
            gc.collect()
        assert code == EXIT_OK
        assert KeepAliveHandler.requests_seen
        assert recorded_sessions and all(s.closed for s in recorded_sessions)
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "unclosed" in str(w.message)]
        assert unclosed == []


def write_passage_file(directory: Path, lang: str, texts) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / f"{lang}.passages.jsonl").open("w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            fh.write(json.dumps({"id": f"p{i}", "text": text}) + "\n")


def line_count(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


class TestRunDirectory:
    def test_filter_counts_match_jsonl_after_empty_generation(self, tmp_path):
        # A blank passage gets a blank answer completion: synth drops it as
        # empty_generation, so raw.jsonl has one line, and the filter's
        # report.json must say so too.
        write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956.", "   "])
        save_exemplars(fi_exemplars(), tmp_path / "fi.exemplars.json")
        config = write_config(
            tmp_path, {"languages": ["en", "fi"], "filters": {"roundtrip": "off"}}
        )
        assert main(["synth", "--config", config, "--method", "pe",
                     "--passages-dir", str(tmp_path / "passages"),
                     "--exemplars-dir", str(tmp_path),
                     "--out", str(tmp_path / "pe")]) == EXIT_OK
        synth = json.loads((tmp_path / "pe" / "report.json").read_text(encoding="utf-8"))
        assert synth["counts"]["fi"]["raw"] == 1
        assert synth["reports"]["fi"]["dropped"] == {"empty_generation": 1}
        assert main(["filter", "--config", config, "--run", str(tmp_path / "pe"),
                     "--out", str(tmp_path / "f")]) == EXIT_OK
        report = json.loads((tmp_path / "f" / "report.json").read_text(encoding="utf-8"))
        assert report["counts"]["fi"]["raw"] == line_count(tmp_path / "f" / "fi" / "raw.jsonl") == 1
        assert report["counts"]["fi"]["filtered"] == line_count(
            tmp_path / "f" / "fi" / "filtered.jsonl"
        )
        assert sorted(read_manifest(tmp_path / "f")["outputs"]) == [
            "config.json", "fi/filtered.jsonl", "fi/raw.jsonl", "report.json",
        ]


GOOD_RECORD = {
    "id": "x-1", "context": "Paris is big.", "question": "What is big?",
    "answer": "Paris", "answer_start": 0, "language": "en",
    "provenance": "gold", "source_dataset": "t",
}


def _run_without_method(tmp_path: Path) -> Path:
    run_dir = tmp_path / "run"
    write_jsonl(Dataset(name="d", examples=()), tmp_path / "empty.jsonl")
    assert main(["synth", "--config", write_config(tmp_path, {"languages": ["en", "fi"]}),
                 "--method", "mt", "--gold", str(tmp_path / "empty.jsonl"),
                 "--out", str(run_dir)]) == EXIT_OK
    path = run_dir / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["method"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _filter_without_method(tmp_path):
    path = _run_without_method(tmp_path)
    return ["filter", "--run", str(path.parent), "--out", str(tmp_path / "o")], str(path)


def _assemble_without_method(tmp_path):
    path = _run_without_method(tmp_path)
    return (["assemble", "--gold", str(tmp_path / "empty.jsonl"),
             "--runs", str(path.parent), "--out", str(tmp_path / "o")], str(path))


def _exemplars_without_scenario(tmp_path):
    write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956."])
    path = tmp_path / "fi.exemplars.json"
    save_exemplars(fi_exemplars(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["scenario"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = write_config(tmp_path, {"languages": ["en", "fi"]})
    return (["synth", "--config", config, "--method", "pe",
             "--passages-dir", str(tmp_path / "passages"),
             "--exemplars-dir", str(tmp_path), "--out", str(tmp_path / "o")], str(path))


def _jsonl_with_line(line: str):
    def setup(tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n", encoding="utf-8")
        return (["stats", "--input", str(path), "--out", str(tmp_path / "o")],
                f"{path}:2:")
    return setup


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "setup",
        [
            _filter_without_method,
            _assemble_without_method,
            _exemplars_without_scenario,
            _jsonl_with_line("5"),
            _jsonl_with_line("[1, 2]"),
            _jsonl_with_line(json.dumps({**GOOD_RECORD, "id": "x-2", "answer_start": "2"})),
            _jsonl_with_line(json.dumps({**GOOD_RECORD, "id": "x-2", "answer_start": True})),
            _jsonl_with_line(json.dumps({**GOOD_RECORD, "id": "x-2", "question": 7})),
        ],
        ids=["report-no-method-filter", "report-no-method-assemble",
             "exemplars-no-scenario", "jsonl-number", "jsonl-list",
             "answer-start-string", "answer-start-bool", "question-number"],
    )
    def test_one_error_line_and_exit_1(self, tmp_path, capsys, setup):
        argv, where = setup(tmp_path)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {where}")
        assert "Traceback" not in err


@given(
    texts=st.lists(
        st.sampled_from([
            "Silta valmistui vuonna 1956 ja se ylittaa joen.",
            "Kaupungissa asuu 45000 ihmista talvella.",
            "Vuori kohoaa 1324 metrin korkeuteen.",
            "Juna kulkee reitin Helsinki kautta.",
            "   ",
        ]),
        min_size=1,
        max_size=6,
    ),
    noise=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 3),
    roundtrip=st.sampled_from(["on", "off"]),
)
@settings(max_examples=15, deadline=None)
def test_synth_filter_counts_conserve(tmp_path_factory, texts, noise, seed, roundtrip):
    tmp = tmp_path_factory.mktemp("chain")
    write_passage_file(tmp / "passages", "fi", texts)
    save_exemplars(fi_exemplars(), tmp / "fi.exemplars.json")
    config = write_config(tmp, {
        "languages": ["en", "fi"],
        "seeds": {"synth": seed},
        "backend": {"kind": "mock", "noise_rate": noise},
        "filters": {"roundtrip": roundtrip},
    })
    assert main(["synth", "--config", config, "--method", "pe",
                 "--passages-dir", str(tmp / "passages"), "--exemplars-dir", str(tmp),
                 "--out", str(tmp / "pe")]) == EXIT_OK
    assert main(["filter", "--config", config, "--run", str(tmp / "pe"),
                 "--exemplars-dir", str(tmp), "--out", str(tmp / "f")]) == EXIT_OK
    reports = []
    for stage in ("pe", "f"):
        doc = json.loads((tmp / stage / "report.json").read_text(encoding="utf-8"))
        report, counts = doc["reports"]["fi"], doc["counts"]["fi"]
        assert report["input_count"] == len(texts)
        assert report["kept_count"] + sum(report["dropped"].values()) == len(texts)
        assert counts["raw"] == line_count(tmp / stage / "fi" / "raw.jsonl")
        assert counts["filtered"] == line_count(tmp / stage / "fi" / "filtered.jsonl")
        assert counts["filtered"] == report["kept_count"]
        reports.append(report)
    synth, filtered = reports
    assert synth["dropped"].get("empty_generation", 0) == texts.count("   ")
    assert filtered["dropped"].get("empty_generation", 0) == texts.count("   ")
    assert filtered["notes"][: len(synth["notes"])] == synth["notes"]
    if roundtrip == "off":
        assert "roundtrip_mismatch" not in filtered["dropped"]
