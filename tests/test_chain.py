"""One fixed-seed mock-backend run of the CLI chain, checked two ways.

Every artifact's sha256 must match tests/golden/digests.json, so a change
that alters any byte of the chain's output names the file it altered. Every
command's manifest must list exactly the files under its --out and exactly
its own flags.

The tune command and the toy-model pt path are left out: their bytes come
from BLAS, which differs between machines.

Regenerate the digests (only when an artifact is meant to change) with
`PYTHONPATH=src python tests/test_chain.py > tests/golden/digests.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qasynth.cli import EXIT_OK, main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

CONFIG = {
    "languages": ["en", "fi"],
    "seeds": {"sample": 3, "fewshot": 1, "synth": 2, "sweep": 4},
    "backend": {"kind": "mock", "noise_rate": 0.5, "parallelism": 2},
}

SQUAD = {
    "version": "1.1",
    "data": [
        {
            "title": "Towers",
            "paragraphs": [
                {
                    "context": "The tower was built in 1889 by Gustave Eiffel.",
                    "qas": [
                        {"id": "t1", "question": "When was the tower built?",
                         "answers": [{"text": "1889", "answer_start": 23}]},
                        {"id": "t2", "question": "Who built the tower?",
                         "answers": [{"text": "Gustave Eiffel", "answer_start": 31}]},
                    ],
                },
                {
                    "context": "Marie Curie won two Nobel prizes in Paris.",
                    "qas": [
                        {"id": "c1", "question": "Who won two Nobel prizes?",
                         "answers": [{"text": "Marie Curie", "answer_start": 0}]},
                        {"id": "c2", "question": "Where did she win them?",
                         "answers": [{"text": "Paris", "answer_start": 36}]},
                    ],
                },
            ],
        },
        {
            "title": "Rivers",
            "paragraphs": [
                {
                    "context": "The river Seine is 777 kilometres long.",
                    "qas": [
                        {"id": "r1", "question": "Which river is this?",
                         "answers": [{"text": "Seine", "answer_start": 10}]},
                        {"id": "r2", "question": "How long is the river?",
                         "answers": [{"text": "777 kilometres", "answer_start": 19}]},
                    ],
                }
            ],
        },
    ],
}

PREDICTIONS = {"t1": "1889", "t2": "Eiffel", "c1": "Marie Curie", "c2": "London",
               "r1": "the Seine", "r2": "777 km"}

FINNISH = [
    "Silta valmistui vuonna {n} ja se ylittaa joen kaupungin keskustassa.",
    "Kaupungissa asuu {n} ihmista talvella, kesalla enemman.",
    "Vuori kohoaa {n} metrin korkeuteen Lapin erämaassa.",
    "Juna kulkee reitin Helsinki kautta {n} kertaa viikossa.",
    "Kirjasto avattiin Tampere keskustaan ilman suurta juhlaa.",
]


def write_inputs(root: Path) -> None:
    (root / "squad.json").write_text(json.dumps(SQUAD), encoding="utf-8")
    (root / "predictions.json").write_text(json.dumps(PREDICTIONS), encoding="utf-8")
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    with (root / "pool.ndjson").open("w", encoding="utf-8") as fh:
        for i in range(14):
            sentence = FINNISH[i % len(FINNISH)].format(n=1900 + 7 * i)
            text = " ".join([sentence] * (3 + i % 6))
            fh.write(json.dumps({"id": f"pool-{i}", "text": text}) + "\n")


def chain(root: Path):
    """(step, --out, argv) for each command of the chain, in run order."""
    config = ["--config", str(root / "config.json")]
    gold = str(root / "ingest" / "en.gold.jsonl")
    steps = [
        ("ingest", ["--input", str(root / "squad.json"), "--name", "toy",
                    "--language", "en"]),
        ("sample", ["--passages", str(root / "pool.ndjson"), "--language", "fi",
                    "--n", "8"]),
        ("exemplars", ["--gold", gold, "--language", "fi"]),
        ("synth-mt", ["--method", "mt", "--gold", gold]),
        ("synth-pe", ["--method", "pe", "--passages-dir", str(root / "sample"),
                      "--exemplars-dir", str(root / "exemplars")]),
        ("synth-pt", ["--method", "pt", "--passages-dir", str(root / "sample")]),
        ("filter", ["--run", str(root / "synth-pe"),
                    "--exemplars-dir", str(root / "exemplars")]),
        ("assemble", ["--gold", gold, "--runs", str(root / "filter"),
                      str(root / "synth-pt"), "--sizes", "2,4"]),
        ("eval", ["--gold", gold, "--predictions", str(root / "predictions.json")]),
        ("taxonomy", ["--input", str(root / "assemble" / "assembled.jsonl")]),
        ("stats", ["--input", str(root / "assemble" / "assembled.jsonl")]),
    ]
    for step, flags in steps:
        out = root / step
        yield step, out, [step.split("-")[0], *config, *flags, "--out", str(out)]


def run_chain(root: Path) -> None:
    write_inputs(root)
    for step, _, argv in chain(root):
        assert main(argv) == EXIT_OK, step


def artifacts(out: Path):
    """Every file under out but manifest.json, as sorted relative names."""
    return sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )


def digests(root: Path) -> dict:
    return {
        f"{step}/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
        for step, out, _ in chain(root)
        for name in artifacts(out)
    }


@pytest.fixture(scope="module")
def chain_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("chain")
    run_chain(root)
    return root


def test_artifacts_match_golden_digests(chain_root):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = digests(chain_root)
    missing = sorted(set(golden) - set(found))
    extra = sorted(set(found) - set(golden))
    differ = sorted(n for n in set(golden) & set(found) if golden[n] != found[n])
    assert not (missing or extra or differ), (
        f"missing: {missing}; not in the digests: {extra}; changed: {differ}"
    )


# The flags of each subcommand, other than --config and --out, by dest name.
FLAGS = {
    "ingest": {"input", "name", "language"},
    "sample": {"passages", "language", "n", "min_len", "max_len"},
    "exemplars": {"gold", "language"},
    "synth": {"method", "gold", "passages_dir", "exemplars_dir", "prompts_dir"},
    "filter": {"run", "exemplars_dir"},
    "assemble": {"gold", "runs", "name", "sizes"},
    "eval": {"gold", "predictions"},
    "taxonomy": {"input", "other_threshold", "exclude_english"},
    "stats": {"input", "format"},
}


@pytest.mark.parametrize("step", [step for step, _, _ in chain(Path("."))])
def test_manifest_lists_every_output_and_flag(chain_root, step):
    out = chain_root / step
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    command = step.split("-")[0]
    assert manifest["command"] == command
    assert manifest["outputs"] == artifacts(out)
    assert set(manifest["inputs"]) == FLAGS[command]
    assert all(isinstance(v, str) for v in manifest["inputs"].values())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            run_chain(Path(tmp))
        json.dump(digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
