"""Command-line flows: each subcommand end to end in a temp tree, exit codes,
configuration loading, and byte-stable reruns."""

import json
import shutil
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
from qasynth.tuner import init_prompt, save_prompt

from conftest import make_example
from mock_server import MockServer, scripted
from test_synthesis import fi_exemplars, fi_passages


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


HELP = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text(encoding="utf-8"))


class TestParser:
    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_is_byte_identical_to_the_golden_text(self, command, capsys, monkeypatch):
        # The golden text is what the parser printed at 80 columns when
        # main still built a new parser on every call.
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(([] if command == "qasynth" else [command]) + ["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == HELP[command]

    def test_main_reuses_one_parser_across_commands(self, tmp_path, monkeypatch, squad_raw):
        import qasynth.cli as cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
        cli._shared_parser.cache_clear()
        pool = write_pool(tmp_path)
        (tmp_path / "squad.json").write_bytes(squad_raw)
        sample = ["sample", "--passages", pool, "--language", "fi", "--n", "2"]
        assert main(sample + ["--min-len", "5", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["stats", "--input", str(tmp_path / "squad.json"),
                     "--format", "squad", "--out", str(tmp_path / "s")]) == EXIT_OK
        assert main(sample + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert len(built) == 1
        # Each call parsed its own flags: the second sample has the default window.
        windows = [tuple(read_manifest(tmp_path / d)["inputs"][k] for k in ("min_len", "max_len"))
                   for d in ("a", "b")]
        assert windows == [("5", "510"), ("200", "510")]
        assert read_manifest(tmp_path / "s")["inputs"]["format"] == "squad"

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

    @pytest.mark.parametrize(
        "argv",
        [["ingest", "--input", "x.json", "--name", "x"],
         ["sample", "--passages", "pool.ndjson", "--n", "1"],
         ["exemplars", "--gold", "x.jsonl"],
         ["tune", "--train", "x.jsonl", "--dev", "x.jsonl"]],
        ids=["ingest", "sample", "exemplars", "tune"],
    )
    @pytest.mark.parametrize("language", ["../esc", "a/b", "a\\b", ".", "..", ""])
    def test_language_must_be_one_path_component(self, tmp_path, capsys, argv, language):
        out = tmp_path / "o"
        assert main(argv + ["--language", language, "--out", str(out)]) == EXIT_USAGE
        assert "is not a language code" in capsys.readouterr().err
        assert not out.exists()


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
            ({"backend": {"noise_rate": 5}}, "backend.noise_rate"),
            ({"tuner": {"m": "5"}}, "tuner.m"),
            ({"tuner": {"h": 0}}, "tuner.h"),
            ({"tuner": {"model_seed": -1}}, "tuner.model_seed"),
            ({"tuner": {"learning_rate": float("nan")}}, "tuner.learning_rate"),
            ({"tuner": {"learning_rate": float("inf")}}, "tuner.learning_rate"),
            ({"tuner": {"learning_rate": True}}, "tuner.learning_rate"),
        ],
    )
    def test_bad_value_exits_validation(self, tmp_path, capsys, doc, key):
        path = write_config(tmp_path, doc)
        code = main(["stats", "--config", path, "--input", "x.jsonl", "--out", "o"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"n_shot": "5"}, "n_shot"),
            ({"n_shot": True}, "n_shot"),
            ({"filters": 5}, "filters"),
            ({"seeds": [1]}, "seeds"),
            ({"filters": {"roundtripp": "off"}}, "filters"),
            ({"seeds": {"synthh": 1}}, "seeds"),
            ({"languages": "fi"}, "languages"),
            ({"backend": {"url": "localhost:8080"}}, "backend.url"),
            ({"backend": {"kind": "http", "url": "ftp://x/y"}}, "backend.url"),
            ({"backend": {"kind": "http", "url": "http://"}}, "backend.url"),
            ({"languages": ["en", "fi", "fi"]}, "languages"),
            ({"languages": ["en", "../esc"]}, "languages"),
            ({"languages": ["en", ".."]}, "languages"),
            ({"languages": ["en", "a\\b"]}, "languages"),
            ({"n_shot": 0}, "n_shot"),
        ],
    )
    def test_bad_structure_names_path_and_key(self, tmp_path, capsys, doc, key):
        path = write_config(tmp_path, doc)
        code = main(["exemplars", "--config", path, "--gold", "x.jsonl",
                     "--language", "fi", "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key} ") and err.count("\n") == 1

    def test_valid_config_hash_is_unchanged(self, tmp_path):
        full = {
            "languages": ["en", "fi", "ar"], "scenario": "few_shot", "n_shot": 3,
            "backend": {"kind": "mock", "parallelism": 2, "timeout": 5, "noise_rate": 0.25},
            "paths": {"output": "out"}, "seeds": {"synth": 7, "sample": 2},
            "tuner": {"m": 4, "learning_rate": 1}, "filters": {"roundtrip": "off"},
        }
        assert load_config(write_config(tmp_path, full)).config_hash == "48d21ef6662d"
        assert load_config(write_config(tmp_path, {})).config_hash == "6c2865a4add5"

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

    def test_wrongly_typed_records_are_reported_and_skipped(self, tmp_path):
        qas = [{"id": f"q{i}", "question": "q?", "answers": [answer]}
               for i, answer in enumerate([{"text": "abc", "answer_start": "0"},
                                           {"text": 5, "answer_start": 0},
                                           {"text": "abc", "answer_start": 0}])]
        doc = {"data": [{"paragraphs": [
            {"context": 123, "qas": [{"id": "c", "question": "q?",
                                      "answers": [{"text": "1", "answer_start": 0}]}]},
            {"context": "abc def", "qas": qas},
        ]}]}
        (tmp_path / "squad.json").write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(tmp_path / "squad.json"), "--name", "t",
                     "--language", "en", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        assert (report["parsed"], report["skipped"]) == (1, 3)
        assert [e.split(":")[0] for e in report["errors"]] == ["c", "q0", "q1"]

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

    @pytest.mark.parametrize("pool_passages", [1, None], ids=["one-passage-pool", "no-pool"])
    def test_empty_length_window_is_refused_before_the_pool_is_read(
        self, tmp_path, capsys, pool_passages
    ):
        # A window with no length in it is a bad option, not a shortage of
        # passages; a pool path that does not exist shows the pool is never
        # opened.
        pool = (write_pool(tmp_path, pool_passages) if pool_passages
                else str(tmp_path / "missing.ndjson"))
        out = tmp_path / "o"
        assert main(["sample", "--passages", pool, "--language", "fi", "--n", "1",
                     "--min-len", "600", "--max-len", "100", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --min-len 600 is greater than --max-len 100")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_manifest_records_length_window(self, tmp_path):
        pool = write_pool(tmp_path)
        out = tmp_path / "out"
        assert main(["sample", "--passages", pool, "--language", "fi", "--n", "2",
                     "--min-len", "5", "--out", str(out)]) == EXIT_OK
        inputs = read_manifest(out)["inputs"]
        assert (inputs["min_len"], inputs["max_len"]) == ("5", "510")


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


def write_tune_corpus(tmp_path: Path, train_language: str = "fi", dev_language: str = "fi"):
    train = Dataset(
        name="t",
        examples=tuple(
            make_example(i, f"x{10 + i}a", "aaa", "aa", language=train_language)
            for i in range(8)
        ),
    )
    dev = Dataset(
        name="d",
        examples=tuple(
            make_example(100 + i, f"x{50 + i}a", "aaa", "aa", language=dev_language)
            for i in range(4)
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

    @pytest.mark.parametrize("languages,role", [(("sw", "sw"), "train"), (("fi", "sw"), "dev")],
                             ids=["both-sw", "dev-sw"])
    def test_data_in_another_language_exits_1_without_artifacts(
        self, tmp_path, capsys, languages, role
    ):
        paths = dict(zip(("train", "dev"), write_tune_corpus(tmp_path, *languages)))
        config = write_config(tmp_path, {"tuner": TINY_TUNER})
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["tune", "--config", config, "--train", paths["train"],
                     "--dev", paths["dev"], "--language", "fi", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {paths[role]}: {role} dataset is in 'sw', not --language 'fi'\n"
        )
        assert not (out / "fi.prompt.bin").exists()
        assert not (out / "fi.trace.json").exists()

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

    def test_needs_non_english_language(self, tmp_path, gold_en_path, capsys):
        code = main(
            ["synth", "--method", "mt", "--gold", gold_en_path,
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: the default config (no --config): "
            "languages needs at least one non-English language\n"
        )

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


    @pytest.mark.parametrize(
        "case, detail",
        [("number", "must be a string"), ("malformed", "Expecting property name"),
         ("list", "JSON object")],
    )
    def test_bad_predictions_name_the_file(self, tmp_path, gold_multi, capsys, case, detail):
        gold_path = tmp_path / "gold.jsonl"
        write_jsonl(gold_multi, gold_path)
        predictions = {ex.id: ex.answer for ex in gold_multi.examples}
        predictions[gold_multi.examples[0].id] = 5
        text = {"number": json.dumps(predictions), "malformed": "{nope", "list": "[1, 2]"}
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(text[case], encoding="utf-8")
        code = main(
            ["eval", "--gold", str(gold_path), "--predictions", str(pred_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pred_path}: ") and err.count("\n") == 1
        assert detail in err


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


    @pytest.mark.parametrize(
        "text, detail",
        [
            ("[1]", "'data' list"),
            ('{"data": [1]}', "'data' must be a list of objects"),
            ('{"data": [{"paragraphs": [{"qas": 5}]}]}', "'qas' must be a list of objects"),
            ("{", "Expecting property name"),
        ],
        ids=["top-level-list", "article-number", "qas-number", "malformed-json"],
    )
    def test_malformed_squad_names_the_file(self, tmp_path, capsys, text, detail):
        src = tmp_path / "dev.json"
        src.write_text(text, encoding="utf-8")
        code = main(["stats", "--input", str(src), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and err.count("\n") == 1
        assert detail in err


class TestAssemble:
    @pytest.mark.parametrize(
        "sizes, detail",
        [("1,x", "--sizes"), ("-1", "sizes must be >= 0"), ("1,1", "--sizes must be increasing")],
        ids=["not-an-integer", "negative", "not-increasing"],
    )
    def test_bad_sizes_exit_validation(self, tmp_path, gold_en, capsys, sizes, detail):
        write_jsonl(gold_en, tmp_path / "en.gold.jsonl")
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        assert main(["synth", "--config", config, "--method", "mt",
                     "--gold", str(tmp_path / "en.gold.jsonl"),
                     "--out", str(tmp_path / "mt")]) == EXIT_OK
        capsys.readouterr()
        code = main(["assemble", "--gold", str(tmp_path / "en.gold.jsonl"),
                     "--runs", str(tmp_path / "mt"), "--sizes", sizes,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert detail in err

    def test_bad_sizes_write_nothing(self, tmp_path, gold_en):
        write_jsonl(gold_en, tmp_path / "en.gold.jsonl")
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        assert main(["synth", "--config", config, "--method", "mt",
                     "--gold", str(tmp_path / "en.gold.jsonl"),
                     "--out", str(tmp_path / "mt")]) == EXIT_OK
        assert main(["assemble", "--gold", str(tmp_path / "en.gold.jsonl"),
                     "--runs", str(tmp_path / "mt"), "--sizes", "1,99",
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert not (tmp_path / "o").exists()


class TestBackendFailures:
    def test_http_error_exits_backend_code(self, tmp_path, gold_en_path, capsys):
        with MockServer(intercept=scripted(*[(400, {"error": "bad request"})] * 8)) as server:
            config = write_config(tmp_path, {"backend": {"kind": "http", "url": server.url}})
            code = main(
                ["exemplars", "--config", config, "--gold", gold_en_path,
                 "--language", "fi", "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_BACKEND
        assert "backend error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload",
        [("exemplars", b'{"text": "\\ud800"}'), ("synth", b'{"text": "\\ud800"}'),
         ("exemplars", b'{"text": ""}'), ("synth", b'{"text": " "}')],
        ids=["exemplars-lone-surrogate", "synth-mt-lone-surrogate",
             "exemplars-empty-translation", "synth-mt-whitespace-translation"],
    )
    def test_unusable_translation_exits_backend_code(
        self, tmp_path, gold_en_path, capsys, command, payload
    ):
        with MockServer(intercept=scripted(*[(200, payload)] * 20)) as server:
            config = write_config(
                tmp_path,
                {"languages": ["en", "fi"],
                 "backend": {"kind": "http", "url": server.url}},
            )
            argv = (["exemplars", "--gold", gold_en_path, "--language", "fi"]
                    if command == "exemplars"
                    else ["synth", "--method", "mt", "--gold", gold_en_path])
            code = main(argv + ["--config", config, "--out", str(tmp_path / "o")])
        assert code == EXIT_BACKEND
        err = capsys.readouterr().err
        assert err.startswith("backend error: translation of 'context' failed")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_malformed_env_url_fails_without_a_call(
        self, tmp_path, gold_en_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("QAM_BACKEND_URL", "localhost:8080")
        config = write_config(tmp_path, {"backend": {"kind": "http"}})
        code = main(["exemplars", "--config", config, "--gold", gold_en_path,
                     "--language", "fi", "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: backend URL must have the form")
        assert err.count("\n") == 1

    def test_malformed_env_token_fails_without_a_call(
        self, tmp_path, gold_en_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("QAM_BACKEND_TOKEN", "a b")
        config = write_config(tmp_path, {"backend": {"kind": "http", "url": "http://127.0.0.1:9"}})
        code = main(["exemplars", "--config", config, "--gold", gold_en_path,
                     "--language", "fi", "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: backend token must be printable ASCII")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestHttpSessionsClosed:
    def test_http_command_leaves_no_unclosed_socket(
        self, tmp_path, gold_en_path, recorded_connections
    ):
        import gc
        import warnings

        # The server keeps each client connection open, so a connection
        # that is never closed leaves a socket open.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with MockServer() as server:
                config = write_config(
                    tmp_path,
                    {"backend": {"kind": "http", "parallelism": 3, "url": server.url}},
                )
                code = main(
                    ["exemplars", "--config", config, "--gold", gold_en_path,
                     "--language", "fi", "--out", str(tmp_path / "o")]
                )
            gc.collect()
        assert code == EXIT_OK
        assert server.requests
        assert recorded_connections and all(c.closed for c in recorded_connections)
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "unclosed" in str(w.message)]
        assert unclosed == []


class TestHttpParallelism:
    def test_config_bound_reaches_the_wire(self, tmp_path, gold_en_path):
        # Every request waits until three are in flight at once, so the
        # command succeeds only if backend.parallelism reaches the client.
        import threading

        barrier = threading.Barrier(3, timeout=5)

        def wait(server, handler, payload):
            barrier.wait()

        with MockServer(intercept=wait) as server:
            config = write_config(
                tmp_path,
                {"backend": {"kind": "http", "parallelism": 3, "url": server.url}},
            )
            code = main(["exemplars", "--config", config, "--gold", gold_en_path,
                         "--language", "fi", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert len(server.requests) == 15  # 5 shots x 3 fields


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


class TestFilterCommand:
    def _pe_run(self, tmp_path) -> str:
        write_passage_file(tmp_path / "passages", "fi",
                           [p.text for p in fi_passages(12)])
        save_exemplars(fi_exemplars(), tmp_path / "fi.exemplars.json")
        config = write_config(tmp_path, {
            "languages": ["en", "fi"],
            "backend": {"kind": "mock", "noise_rate": 0.5},
            "filters": {"roundtrip": "off"},
        })
        assert main(["synth", "--config", config, "--method", "pe",
                     "--passages-dir", str(tmp_path / "passages"),
                     "--exemplars-dir", str(tmp_path),
                     "--out", str(tmp_path / "pe")]) == EXIT_OK
        return config

    def test_filter_output_can_be_filtered_again(self, tmp_path):
        config = self._pe_run(tmp_path)
        assert main(["filter", "--config", config, "--run", str(tmp_path / "pe"),
                     "--out", str(tmp_path / "f1")]) == EXIT_OK
        assert main(["filter", "--config", config, "--run", str(tmp_path / "f1"),
                     "--out", str(tmp_path / "f2")]) == EXIT_OK
        once = json.loads((tmp_path / "f1" / "report.json").read_text(encoding="utf-8"))
        assert once["counts"]["fi"]["filtered"] > 0
        for name in ("report.json", "fi/raw.jsonl", "fi/filtered.jsonl"):
            assert (tmp_path / "f2" / name).read_bytes() == (tmp_path / "f1" / name).read_bytes()
        report = once["reports"]["fi"]
        assert report["input_count"] == 12
        assert report["kept_count"] + sum(report["dropped"].values()) == 12
        assert once["counts"]["fi"]["filtered"] == report["kept_count"]

    def test_unknown_scenario_in_report_is_rejected(self, tmp_path, capsys):
        config = self._pe_run(tmp_path)
        report = tmp_path / "pe" / "report.json"
        doc = json.loads(report.read_text(encoding="utf-8"))
        doc["scenario"] = "bogus"
        report.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["filter", "--config", config, "--run", str(tmp_path / "pe"),
                     "--out", str(tmp_path / "f")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: unknown scenario 'bogus'")
        assert err.count("\n") == 1
        assert not (tmp_path / "f").exists()

    def test_language_that_leaves_the_run_directory_is_rejected(self, tmp_path, capsys):
        # A report.json naming "../esc" must not make filter read runs/esc
        # or write outs/esc, next to --out instead of inside it.
        config = self._pe_run(tmp_path)
        run = tmp_path / "runs" / "run"
        shutil.copytree(tmp_path / "pe", run)
        shutil.copytree(run / "fi", tmp_path / "runs" / "esc")
        doc = json.loads((run / "report.json").read_text(encoding="utf-8"))
        doc["languages"] = ["../esc"]
        for key in ("reports", "counts"):
            doc[key] = {"../esc": doc[key]["fi"]}
        (run / "report.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["filter", "--config", config, "--run", str(run),
                     "--out", str(tmp_path / "outs" / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / 'report.json'}: languages ")
        assert err.count("\n") == 1
        assert not (tmp_path / "outs").exists()

    def test_mt_run_is_rejected(self, tmp_path, gold_en_path, capsys):
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        assert main(["synth", "--config", config, "--method", "mt",
                     "--gold", gold_en_path, "--out", str(tmp_path / "mt")]) == EXIT_OK
        capsys.readouterr()
        assert main(["filter", "--config", config, "--run", str(tmp_path / "mt"),
                     "--out", str(tmp_path / "f")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'mt' / 'report.json'}: ")
        assert "never filtered" in err
        assert not (tmp_path / "f").exists()


class TestOutputDirectory:
    def test_checked_before_any_input_is_read(self, tmp_path, capsys):
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        code = main(["synth", "--config", config, "--method", "pe",
                     "--passages-dir", str(tmp_path / "missing"),
                     "--exemplars-dir", str(tmp_path / "missing")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: no output directory: pass --out or set paths.output\n"
        )


class TestExemplarsDirectory:
    @pytest.mark.parametrize("command", ["synth", "filter"])
    def test_missing_exemplar_file_is_named(self, tmp_path, capsys, command):
        write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956."])
        save_exemplars(fi_exemplars(), tmp_path / "fi.exemplars.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        argv = ["synth", "--config", config, "--method", "pe",
                "--passages-dir", str(tmp_path / "passages"),
                "--exemplars-dir", str(empty), "--out", str(tmp_path / "o")]
        if command == "filter":
            assert main(argv[:-3] + [str(tmp_path), "--out", str(tmp_path / "pe")]) == EXIT_OK
            argv = ["filter", "--config", config, "--run", str(tmp_path / "pe"),
                    "--exemplars-dir", str(empty), "--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: no exemplar file for 'fi': {empty / 'fi.exemplars.json'}\n"
        )
        assert not (tmp_path / "o").exists()


class TestPromptsDirectory:
    def test_missing_prompt_file_is_named(self, tmp_path, capsys):
        write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956."])
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        assert main(["synth", "--config", config, "--method", "pt",
                     "--passages-dir", str(tmp_path / "passages"),
                     "--prompts-dir", str(prompts), "--out", str(tmp_path / "o")]
                    ) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: no tuned prompt file for 'fi': {prompts / 'fi.prompt.bin'}\n"
        )
        assert not (tmp_path / "o").exists()


class TestAlternativeAnswers:
    def test_ingest_then_eval_scores_every_gold(self, tmp_path):
        context = "The fort has stood since 1812."
        doc = {"data": [{"paragraphs": [{"context": context, "qas": [{
            "id": "q1", "question": "How long has the fort stood?",
            "answers": [
                {"text": "1812", "answer_start": context.index("1812")},
                {"text": "since 1812", "answer_start": context.index("since 1812")},
            ],
        }]}]}]}
        (tmp_path / "squad.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ingest", "--input", str(tmp_path / "squad.json"), "--name", "toy",
                     "--language", "en", "--out", str(tmp_path / "gold")]) == EXIT_OK
        (tmp_path / "pred.json").write_text(json.dumps({"q1": "since 1812"}),
                                            encoding="utf-8")
        assert main(["eval", "--gold", str(tmp_path / "gold" / "en.gold.jsonl"),
                     "--predictions", str(tmp_path / "pred.json"),
                     "--out", str(tmp_path / "eval")]) == EXIT_OK
        doc = json.loads((tmp_path / "eval" / "eval.json").read_text(encoding="utf-8"))
        assert doc["per_language"]["en"]["em"] == 100.0


GOOD_RECORD = {
    "id": "x-1", "context": "Paris is big.", "question": "What is big?",
    "answer": "Paris", "answer_start": 0, "language": "en",
    "provenance": "gold", "source_dataset": "t",
}


def _run_without_method(tmp_path: Path, edit=lambda doc: doc.pop("method")) -> Path:
    run_dir = tmp_path / "run"
    write_jsonl(Dataset(name="d", examples=()), tmp_path / "empty.jsonl")
    assert main(["synth", "--config", write_config(tmp_path, {"languages": ["en", "fi"]}),
                 "--method", "mt", "--gold", str(tmp_path / "empty.jsonl"),
                 "--out", str(run_dir)]) == EXIT_OK
    path = run_dir / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _filter_without_method(tmp_path):
    path = _run_without_method(tmp_path)
    return ["filter", "--run", str(path.parent), "--out", str(tmp_path / "o")], str(path)


def _assemble_languages_string(tmp_path):
    path = _run_without_method(tmp_path, lambda doc: doc.update(languages="fi"))
    return (["assemble", "--gold", str(tmp_path / "empty.jsonl"),
             "--runs", str(path.parent), "--out", str(tmp_path / "o")],
            f"{path}: languages must be a list")


def _assemble_without_method(tmp_path):
    path = _run_without_method(tmp_path)
    return (["assemble", "--gold", str(tmp_path / "empty.jsonl"),
             "--runs", str(path.parent), "--out", str(tmp_path / "o")], str(path))


def _exemplars_edited(edit, command="synth"):
    """synth --method pe on one fi passage, or filter of that run, with
    fi.exemplars.json changed by edit."""
    def setup(tmp_path):
        write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956."])
        path = tmp_path / "fi.exemplars.json"
        save_exemplars(fi_exemplars(), path)
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        synth = ["synth", "--config", config, "--method", "pe",
                 "--passages-dir", str(tmp_path / "passages"),
                 "--exemplars-dir", str(tmp_path), "--out", str(tmp_path / "pe")]
        argv = synth
        if command == "filter":
            assert main(synth) == EXIT_OK
            argv = ["filter", "--config", config, "--run", str(tmp_path / "pe"),
                    "--exemplars-dir", str(tmp_path), "--out", str(tmp_path / "f")]
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return argv, f"{path}: "
    return setup


def _in_arabic(doc):
    doc["language"] = "ar"
    for e in doc["exemplars"]:
        e["language"] = "ar"


def _prompt_file(write):
    """synth --method pt on one fi passage, with fi.prompt.bin made by write."""
    def setup(tmp_path):
        write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956."])
        path = tmp_path / "prompts" / "fi.prompt.bin"
        path.parent.mkdir()
        write(path)
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        return (["synth", "--config", config, "--method", "pt",
                 "--passages-dir", str(tmp_path / "passages"),
                 "--prompts-dir", str(path.parent), "--out", str(tmp_path / "o")],
                f"{path}: ")
    return setup


def _jsonl_with_line(line: str):
    def setup(tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n", encoding="utf-8")
        return (["stats", "--input", str(path), "--out", str(tmp_path / "o")],
                f"{path}:2:")
    return setup


def _not_utf8(command):
    """command reading an input file that has a byte that is not UTF-8."""
    def setup(tmp_path):
        out = ["--out", str(tmp_path / "o")]
        if command in ("sample", "stats-jsonl"):
            first = {"id": "p", "text": "ok"} if command == "sample" else GOOD_RECORD
            path = tmp_path / "in.jsonl"
            path.write_bytes(json.dumps(first).encode("utf-8") + b'\n{"id": "\xff"}\n')
            argv = (["sample", "--passages", str(path), "--language", "fi", "--n", "1"]
                    if command == "sample" else ["stats", "--input", str(path)])
            return argv + out, f"{path}:2: not UTF-8"
        path = tmp_path / ("report.json" if command == "filter" else "in.json")
        path.write_bytes(b'{"data": ["\xff"]}')
        argv = {
            "config": ["stats", "--config", str(path), "--input", "x.jsonl"],
            "ingest": ["ingest", "--input", str(path), "--name", "t", "--language", "en"],
            "stats-squad": ["stats", "--input", str(path)],
            "filter": ["filter", "--run", str(tmp_path)],
        }[command]
        return argv + out, f"{path}: "
    return setup


def _no_target_language(tmp_path):
    config = write_config(tmp_path, {"languages": ["en"]})
    return (["synth", "--config", config, "--method", "mt", "--gold", "x.jsonl",
             "--out", str(tmp_path / "o")],
            f"{config}: languages needs at least one non-English language")


def _tune_mixed_languages(role):
    """tune whose --train or --dev file holds two languages."""
    def setup(tmp_path):
        paths = dict(zip(("train", "dev"), write_tune_corpus(tmp_path)))
        mixed = Dataset(name="m", examples=(
            make_example(0, "x1a", "aaa", "aa"),
            make_example(1, "x2a", "aaa", "aa", language="sw"),
        ))
        write_jsonl(mixed, paths[role])
        config = write_config(tmp_path, {"tuner": TINY_TUNER})
        return (["tune", "--config", config, "--train", paths["train"],
                 "--dev", paths["dev"], "--language", "fi", "--out", str(tmp_path / "o")],
                f"{paths[role]}: {role} dataset must be monolingual")
    return setup


def _mt_gold_not_english(tmp_path):
    path = tmp_path / "gold.jsonl"
    write_jsonl(Dataset(name="g", examples=(make_example(0, "ctx a", "q?", "a"),)), path)
    config = write_config(tmp_path, {"languages": ["en", "fi"]})
    return (["synth", "--config", config, "--method", "mt", "--gold", str(path),
             "--out", str(tmp_path / "o")],
            f"{path}: example 'gold-fi-0' is 'fi'; synth_mt needs English input")


def _ingest_answers(answers):
    """ingest of a SQuAD file whose one qa has the given answers value."""
    def setup(tmp_path):
        path = tmp_path / "squad.json"
        doc = {"data": [{"paragraphs": [
            {"context": "abc", "qas": [{"id": "q", "question": "q?", "answers": answers}]}
        ]}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return (["ingest", "--input", str(path), "--name", "t", "--language", "en",
                 "--out", str(tmp_path / "o")],
                f"{path}: 'answers' must be a list of objects")
    return setup


def _exemplars_in_english(scenario):
    """exemplars --language en on English gold: no scenario builds English
    exemplars."""
    def setup(tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            "".join(json.dumps({**GOOD_RECORD, "id": f"x-{i}"}) + "\n" for i in range(5)),
            encoding="utf-8",
        )
        config = write_config(tmp_path, {"scenario": scenario})
        return (["exemplars", "--config", config, "--gold", str(path), "--language", "en",
                 "--out", str(tmp_path / "o")],
                "--language must name a language other than English")
    return setup


def _assemble_mt_run(flags):
    """assemble of an mt run of one fi example; flags(run) gives the flags
    that name the run, and what the error names."""
    def setup(tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(GOOD_RECORD) + "\n", encoding="utf-8")
        config = write_config(tmp_path, {"languages": ["en", "fi"]})
        run = str(tmp_path / "mt")
        assert main(["synth", "--config", config, "--method", "mt", "--gold", str(gold),
                     "--out", run]) == EXIT_OK
        argv, where = flags(run)
        return ["assemble", "--gold", str(gold), "--out", str(tmp_path / "o")] + argv, where
    return setup


def _taxonomy_threshold_above_1(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n", encoding="utf-8")
    return (["taxonomy", "--input", str(path), "--other-threshold", "2",
             "--out", str(tmp_path / "o")],
            "--other-threshold must be within [0, 1]")


def _sample_negative_n(tmp_path):
    return (["sample", "--passages", write_pool(tmp_path), "--language", "fi", "--n", "-1",
             "--out", str(tmp_path / "o")],
            "--n must be >= 0")


def _run_with_sw_example(command):
    """filter (round trip off) or assemble of a pe run whose
    fi/filtered.jsonl holds a "sw" example."""
    def setup(tmp_path):
        write_passage_file(tmp_path / "passages", "fi", ["Silta valmistui 1956."])
        save_exemplars(fi_exemplars(), tmp_path / "fi.exemplars.json")
        config = write_config(
            tmp_path, {"languages": ["en", "fi"], "filters": {"roundtrip": "off"}}
        )
        run = tmp_path / "pe"
        assert main(["synth", "--config", config, "--method", "pe",
                     "--passages-dir", str(tmp_path / "passages"),
                     "--exemplars-dir", str(tmp_path), "--out", str(run)]) == EXIT_OK
        path = run / "fi" / "filtered.jsonl"
        record = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**record, "language": "sw"}) + "\n", encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(GOOD_RECORD) + "\n", encoding="utf-8")
        argv = {
            "filter": ["filter", "--config", config, "--run", str(run)],
            "assemble": ["assemble", "--gold", str(gold), "--runs", str(run)],
        }[command]
        return argv + ["--out", str(tmp_path / "o")], f"{path}: example 'pe-fi-p0' is 'sw'"
    return setup


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "setup",
        [
            _filter_without_method,
            _assemble_without_method,
            _exemplars_edited(lambda doc: doc.pop("scenario")),
            _exemplars_edited(_in_arabic),
            _exemplars_edited(_in_arabic, "filter"),
            _exemplars_edited(lambda doc: doc["exemplars"][0].update(language="ar")),
            _exemplars_edited(lambda doc: doc["exemplars"][0].update(context_l=7)),
            _jsonl_with_line("5"),
            _jsonl_with_line("[1, 2]"),
            _jsonl_with_line(json.dumps({**GOOD_RECORD, "id": "x-2", "answer_start": "2"})),
            _jsonl_with_line(json.dumps({**GOOD_RECORD, "id": "x-2", "answer_start": True})),
            _jsonl_with_line(json.dumps({**GOOD_RECORD, "id": "x-2", "question": 7})),
            _prompt_file(lambda p: p.write_bytes(b"{}\n")),
            _prompt_file(lambda p: p.write_bytes(b"not json\n" + bytes(128))),
            _prompt_file(lambda p: p.write_bytes(b'{"m": 2, "d": 8}')),
            _prompt_file(lambda p: save_prompt(init_prompt(2, 3, seed=0), p, 0, "x")),
            _not_utf8("config"),
            _not_utf8("ingest"),
            _not_utf8("stats-squad"),
            _not_utf8("stats-jsonl"),
            _not_utf8("sample"),
            _not_utf8("filter"),
            _assemble_languages_string,
            _ingest_answers(["abc"]),
            _ingest_answers({"a": 1}),
            _no_target_language,
            _tune_mixed_languages("train"),
            _tune_mixed_languages("dev"),
            _mt_gold_not_english,
            _exemplars_in_english("english_only"),
            _exemplars_in_english("few_shot"),
            _assemble_mt_run(lambda run: (["--runs", run, "--sizes", "1,1"],
                                          "--sizes must be increasing")),
            _assemble_mt_run(lambda run: (["--runs", run, run], f"--runs {run}: ")),
            _taxonomy_threshold_above_1,
            _sample_negative_n,
            _run_with_sw_example("filter"),
            _run_with_sw_example("assemble"),
        ],
        ids=["report-no-method-filter", "report-no-method-assemble",
             "exemplars-no-scenario", "exemplars-set-language-differs-synth",
             "exemplars-set-language-differs-filter", "exemplar-language-differs-from-set",
             "exemplar-field-number", "jsonl-number", "jsonl-list",
             "answer-start-string", "answer-start-bool", "question-number",
             "prompt-empty-header", "prompt-header-not-json", "prompt-no-newline",
             "prompt-d-differs-from-tuner-d", "config-not-utf8", "ingest-not-utf8",
             "stats-squad-not-utf8", "stats-jsonl-not-utf8", "pool-not-utf8",
             "report-not-utf8", "report-languages-string",
             "ingest-answers-strings", "ingest-answers-object",
             "synth-no-target-language", "tune-train-not-monolingual",
             "tune-dev-not-monolingual", "mt-gold-not-english",
             "exemplars-en-english-only", "exemplars-en-few-shot",
             "assemble-sizes-not-increasing", "assemble-runs-repeated",
             "taxonomy-threshold-above-1", "sample-n-negative",
             "filter-run-example-in-another-language",
             "assemble-run-example-in-another-language"],
    )
    def test_one_error_line_and_exit_1(self, tmp_path, capsys, setup):
        argv, where = setup(tmp_path)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {where}")
        assert "Traceback" not in err

    def test_every_domain_error_is_a_value_error(self):
        # main maps ValueError to exit 1 without naming the layers' error
        # types, so that it need not import the layers to catch them.
        from qasynth.corpus import CorpusError
        from qasynth.promptkit import PromptError
        from qasynth.synthesis import SynthesisError
        from qasynth.taxonomy import TaxonomyError
        from qasynth.tuner import TunerError

        for error in (ConfigError, CorpusError, PromptError, SynthesisError,
                      TaxonomyError, TunerError):
            assert issubclass(error, ValueError), error


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
