"""What a command loads: qasynth.tuner and numpy only where the toy model
runs (tune, and synth --method pt with --prompts-dir), the HTTP stack only
where an HttpBackend is built, promptkit, synthesis and taxonomy only in the
commands that run them, and never requests or concurrent.futures.

Each check starts a fresh interpreter, because this test session itself has
long since imported all of them.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qasynth.backends
from qasynth.cli import EXIT_OK, main, save_exemplars
from qasynth.corpus import parse_squad_json
from qasynth.tuner import init_prompt, save_prompt

from mock_server import MockServer
from test_cli import TINY_TUNER, write_config, write_passage_file, write_pool, write_tune_corpus
from test_cli import gold_en_path  # noqa: F401  (a fixture)
from test_synthesis import fi_exemplars, fi_passages

SRC = Path(__file__).resolve().parents[1] / "src"

HTTP_STACK = ("email.parser", "http.client", "selectors", "ssl", "urllib.request")
# Loaded by no qasynth code path: the fan-out has no thread pool.
NEVER = ("concurrent.futures", "requests")
LAYERS = ("qasynth.promptkit", "qasynth.synthesis", "qasynth.taxonomy", "qasynth.tuner")

# Runs each argv given as JSON on the command line through cli.main, then
# prints the exit codes and, after the import and after every command, which
# of the watched modules are loaded.
PROBE = f"""
import json, sys
import qasynth.cli

WATCHED = ("numpy",) + {NEVER!r} + {HTTP_STACK!r} + {LAYERS!r}

def loaded():
    return sorted(m for m in WATCHED if m in sys.modules)

report = {{"after_import": loaded(), "codes": [], "after_command": []}}
for argv in json.loads(sys.argv[1]):
    report["codes"].append(qasynth.cli.main(argv))
    report["after_command"].append(loaded())
print(json.dumps(report))
"""


def run_code(code: str, *args: str, cwd=None) -> dict:
    """Run code in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_fresh(argvs, cwd: Path) -> dict:
    return run_code(PROBE, json.dumps(argvs), cwd=cwd)


def test_offline_commands_load_only_their_own_layers(tmp_path, squad_raw):
    squad = tmp_path / "squad.json"
    squad.write_bytes(squad_raw)
    gold, _ = parse_squad_json(squad_raw, "toy", "en")
    predictions = tmp_path / "predictions.json"
    predictions.write_text(json.dumps({ex.id: ex.answer for ex in gold.examples}))
    config = write_config(tmp_path, {"languages": ["en", "fi"],
                                     "backend": {"kind": "mock"}})
    gold_path = str(tmp_path / "ingest" / "en.gold.jsonl")
    argvs = [
        ["ingest", "--config", config, "--input", str(squad), "--name", "toy",
         "--language", "en", "--out", str(tmp_path / "ingest")],
        ["sample", "--config", config, "--passages", write_pool(tmp_path),
         "--language", "fi", "--n", "3", "--out", str(tmp_path / "sample")],
        ["eval", "--config", config, "--gold", gold_path,
         "--predictions", str(predictions), "--out", str(tmp_path / "eval")],
        ["stats", "--config", config, "--input", gold_path, "--out", str(tmp_path / "stats")],
    ]
    report = run_fresh(argvs, tmp_path)
    assert report["codes"] == [EXIT_OK] * 4
    assert report["after_import"] == []
    assert report["after_command"] == [[]] * 4


def test_mock_synth_pe_loads_synthesis_but_no_http_stack(tmp_path):
    write_passage_file(tmp_path / "passages", "fi", [p.text for p in fi_passages(4)])
    save_exemplars(fi_exemplars(), tmp_path / "fi.exemplars.json")
    config = write_config(tmp_path, {"languages": ["en", "fi"],
                                     "backend": {"kind": "mock"}})
    argv = ["synth", "--config", config, "--method", "pe",
            "--passages-dir", str(tmp_path / "passages"),
            "--exemplars-dir", str(tmp_path), "--out", str(tmp_path / "pe")]
    report = run_fresh([argv], tmp_path)
    assert report["codes"] == [EXIT_OK]
    # synthesis imports promptkit, whose renderers build the prompts.
    assert report["after_command"] == [["qasynth.promptkit", "qasynth.synthesis"]]


def test_building_an_http_backend_loads_the_transport():
    report = run_code(f"""
import json, sys
from qasynth.backends import HttpBackend

def loaded():
    return sorted(m for m in {HTTP_STACK!r} + {NEVER!r} if m in sys.modules)

before = loaded()
HttpBackend(base_url="http://127.0.0.1:9", parallelism=2).close()
print(json.dumps({{"before": before, "after": loaded()}}))
""")
    assert report["before"] == []
    assert report["after"] == list(HTTP_STACK)


def test_http_commands_load_no_thread_pool(tmp_path, gold_en_path):
    # exemplars and synth fan out over HTTP at parallelism 2.
    write_passage_file(tmp_path / "passages", "fi", [p.text for p in fi_passages(4)])
    save_exemplars(fi_exemplars(), tmp_path / "fi.exemplars.json")
    with MockServer() as server:
        config = write_config(tmp_path, {"languages": ["en", "fi"], "backend": {
            "kind": "http", "url": server.url, "parallelism": 2}})
        argvs = [
            ["exemplars", "--config", config, "--gold", gold_en_path, "--language", "fi",
             "--out", str(tmp_path / "exemplars")],
            ["synth", "--config", config, "--method", "pe",
             "--passages-dir", str(tmp_path / "passages"),
             "--exemplars-dir", str(tmp_path), "--out", str(tmp_path / "pe")],
        ]
        report = run_fresh(argvs, tmp_path)
    assert report["codes"] == [EXIT_OK] * 2
    assert server.served == 15 + 8  # 5 shots x 3 fields, then 4 passages x 2 stages
    assert report["after_import"] == []
    assert report["after_command"] == [
        sorted(HTTP_STACK + ("qasynth.promptkit",)),
        sorted(HTTP_STACK + ("qasynth.promptkit", "qasynth.synthesis")),
    ]


def test_no_source_file_imports_concurrent_futures():
    # The commands above cover some code paths; this covers the rest.
    for path in (SRC / "qasynth").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+concurrent\b", text, re.M), path.name


def test_every_module_is_an_attribute_of_the_package():
    # perfbench's tracer reads getattr(qasynth, layer) for each of these.
    layers = ("corpus", "backends", "promptkit", "synthesis", "tuner", "metrics",
              "taxonomy", "cli")
    report = run_code(f"""
import json
import qasynth
print(json.dumps({{"names": [getattr(qasynth, layer).__name__ for layer in {layers!r}],
                  "unknown": hasattr(qasynth, "no_such_module")}}))
""")
    assert report == {"names": [f"qasynth.{layer}" for layer in layers], "unknown": False}


def test_tune_loads_numpy_and_writes_the_in_process_bytes(tmp_path):
    train, dev = write_tune_corpus(tmp_path)
    config = write_config(tmp_path, {"tuner": TINY_TUNER})

    def argv(out: str):
        return ["tune", "--config", config, "--train", train, "--dev", dev,
                "--language", "fi", "--out", str(tmp_path / out)]

    report = run_fresh([argv("fresh")], tmp_path)
    assert report["codes"] == [EXIT_OK]
    assert report["after_import"] == []
    assert report["after_command"] == [["numpy", "qasynth.tuner"]]
    assert main(argv("here")) == EXIT_OK
    fresh = (tmp_path / "fresh" / "fi.prompt.bin").read_bytes()
    assert fresh == (tmp_path / "here" / "fi.prompt.bin").read_bytes()


def test_synth_pt_from_tuned_prompts_loads_the_tuner(tmp_path):
    write_passage_file(tmp_path / "passages", "fi", [p.text for p in fi_passages(2)])
    (tmp_path / "prompts").mkdir()
    save_prompt(init_prompt(2, 8, seed=0), tmp_path / "prompts" / "fi.prompt.bin", 0, "x")
    config = write_config(tmp_path, {"languages": ["en", "fi"]})
    argv = ["synth", "--config", config, "--method", "pt",
            "--passages-dir", str(tmp_path / "passages"),
            "--prompts-dir", str(tmp_path / "prompts"), "--out", str(tmp_path / "pt")]
    report = run_fresh([argv], tmp_path)
    assert report["codes"] == [EXIT_OK]
    assert report["after_import"] == []
    assert report["after_command"] == [
        ["numpy", "qasynth.promptkit", "qasynth.synthesis", "qasynth.tuner"]
    ]


def test_requests_seam_resolves_on_demand():
    requests = pytest.importorskip("requests")
    assert qasynth.backends.requests is requests


def test_unknown_backends_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qasynth.backends.no_such_name
