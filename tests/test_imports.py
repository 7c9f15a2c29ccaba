"""What a command loads: numpy only where the toy model runs, never requests.

Each check starts a fresh interpreter, because this test session itself has
long since imported numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qasynth.backends
from qasynth.cli import EXIT_OK, main

from test_cli import TINY_TUNER, write_config, write_pool, write_tune_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv given as JSON on the command line through cli.main, then
# prints the exit codes and, after the import and after every command, which
# of numpy and requests are loaded.
PROBE = """
import json, sys
import qasynth.cli

def loaded():
    return sorted(m for m in ("numpy", "requests") if m in sys.modules)

report = {"after_import": loaded(), "codes": [], "after_command": []}
for argv in json.loads(sys.argv[1]):
    report["codes"].append(qasynth.cli.main(argv))
    report["after_command"].append(loaded())
print(json.dumps(report))
"""


def run_fresh(argvs, cwd: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_non_tuning_commands_load_neither_numpy_nor_requests(tmp_path, squad_raw):
    squad = tmp_path / "squad.json"
    squad.write_bytes(squad_raw)
    config = write_config(tmp_path, {"languages": ["en", "fi"],
                                     "backend": {"kind": "mock"}})
    argvs = [
        ["ingest", "--config", config, "--input", str(squad), "--name", "toy",
         "--language", "en", "--out", str(tmp_path / "ingest")],
        ["sample", "--config", config, "--passages", write_pool(tmp_path),
         "--language", "fi", "--n", "3", "--out", str(tmp_path / "sample")],
    ]
    report = run_fresh(argvs, tmp_path)
    assert report["codes"] == [EXIT_OK, EXIT_OK]
    assert report["after_import"] == []
    assert report["after_command"] == [[], []]


def test_tune_loads_numpy_and_writes_the_in_process_bytes(tmp_path):
    train, dev = write_tune_corpus(tmp_path)
    config = write_config(tmp_path, {"tuner": TINY_TUNER})

    def argv(out: str):
        return ["tune", "--config", config, "--train", train, "--dev", dev,
                "--language", "fi", "--out", str(tmp_path / out)]

    report = run_fresh([argv("fresh")], tmp_path)
    assert report["codes"] == [EXIT_OK]
    assert report["after_import"] == []
    assert report["after_command"] == [["numpy"]]
    assert main(argv("here")) == EXIT_OK
    fresh = (tmp_path / "fresh" / "fi.prompt.bin").read_bytes()
    assert fresh == (tmp_path / "here" / "fi.prompt.bin").read_bytes()


def test_requests_seam_resolves_on_demand():
    requests = pytest.importorskip("requests")
    assert qasynth.backends.requests is requests


def test_unknown_backends_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qasynth.backends.no_such_name
