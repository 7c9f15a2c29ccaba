"""One fixed-seed mock-backend run of the CLI chain, checked two ways.

Every artifact's sha256 must match tests/golden/digests.json, so a change
that alters any byte of the chain's output names the file it altered. Every
command's manifest must list exactly the files under its --out and exactly
its own flags. The same chain served over HTTP by tests/mock_server.py must
make the same bytes, but for the backend in the config files beside the
runs: with faults off, and with a bounded fault schedule that the client's
retries get through.

The tune command and the toy-model pt path run on numpy, so their bytes
depend on the numpy version, its BLAS library and the CPU architecture.
Their digests, in tests/golden/toy_digests.json, are keyed by those three;
they are checked where the key matches and skipped, naming the key,
elsewhere.

Regenerate the digests (only when an artifact is meant to change) with
`PYTHONPATH=src python tests/test_chain.py > tests/golden/digests.json`, and
add or refresh this machine's toy-model set with
`PYTHONPATH=src python tests/test_chain.py --toy > toy.json`, then move
toy.json onto tests/golden/toy_digests.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import pytest

from qasynth.backends import HttpBackend
from qasynth.cli import EXIT_OK, main
from mock_server import FAULTS, MockServer

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
TOY_DIGESTS = Path(__file__).parent / "golden" / "toy_digests.json"

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

# The toy chain's tuner section and its train/dev rows (context, question,
# answer); pinned here so the toy digests depend on this file alone.
TUNER = {"m": 2, "d": 8, "h": 16, "learning_rate": 0.1, "warmup_steps": 5,
         "batch_size": 4, "max_steps": 10, "eval_every": 5,
         "early_stop_metric": "dev_loss"}
TUNE_SPLITS = {
    "train": [(f"x{10 + i}a", "aaa", "aa") for i in range(8)],
    "dev": [(f"x{50 + i}a", "aaa", "aa") for i in range(4)],
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


def write_inputs(root: Path, config: dict) -> None:
    (root / "squad.json").write_text(json.dumps(SQUAD), encoding="utf-8")
    (root / "predictions.json").write_text(json.dumps(PREDICTIONS), encoding="utf-8")
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    with (root / "pool.ndjson").open("w", encoding="utf-8") as fh:
        for i in range(14):
            sentence = FINNISH[i % len(FINNISH)].format(n=1900 + 7 * i)
            text = " ".join([sentence] * (3 + i % 6))
            fh.write(json.dumps({"id": f"pool-{i}", "text": text}) + "\n")


def commands(root: Path, config: str, steps):
    """(step, --out, argv) for each (step, flags); a step's command is its
    name up to the first '-', and its --out is root / step."""
    for step, flags in steps:
        out = root / step
        argv = [step.split("-")[0], "--config", str(root / config), *flags, "--out", str(out)]
        yield step, out, argv


def chain(root: Path):
    """(step, --out, argv) for each command of the chain, in run order."""
    gold = str(root / "ingest" / "en.gold.jsonl")
    return commands(root, "config.json", [
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
    ])


def toy_chain(root: Path):
    """(step, --out, argv) for tune and a toy-model pt synth over chain's sample."""
    return commands(root, "toy-config.json", [
        ("tune", ["--train", str(root / "train.jsonl"), "--dev", str(root / "dev.jsonl"),
                  "--language", "fi"]),
        ("synth-pt-toy", ["--method", "pt", "--passages-dir", str(root / "sample"),
                          "--prompts-dir", str(root / "tune")]),
    ])


def run_chain(root: Path, config: dict = CONFIG) -> None:
    write_inputs(root, config)
    for step, _, argv in chain(root):
        assert main(argv) == EXIT_OK, step


def run_toy_chain(root: Path) -> None:
    """Run toy_chain in a root that run_chain has filled."""
    for split, rows in TUNE_SPLITS.items():
        with (root / f"{split}.jsonl").open("w", encoding="utf-8") as fh:
            for i, (context, question, answer) in enumerate(rows):
                record = {"id": f"{split}-{i}", "context": context, "question": question,
                          "answer": answer, "answer_start": None, "language": "fi",
                          "provenance": "gold", "source_dataset": "toy"}
                fh.write(json.dumps(record) + "\n")
    (root / "toy-config.json").write_text(
        json.dumps({**CONFIG, "tuner": TUNER}), encoding="utf-8"
    )
    for step, _, argv in toy_chain(root):
        assert main(argv) == EXIT_OK, step


def platform_key() -> str:
    """numpy version, BLAS library and CPU architecture: what the toy bytes hang on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown-blas"
    return f"numpy-{numpy.__version__} {blas} {platform.machine()}"


def artifacts(out: Path):
    """Every file under out but manifest.json, as sorted relative names."""
    return sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )


def digests(root: Path, steps=chain) -> dict:
    return {
        f"{step}/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
        for step, out, _ in steps(root)
        for name in artifacts(out)
    }


def assert_digests_match(golden: dict, found: dict) -> None:
    missing = sorted(set(golden) - set(found))
    extra = sorted(set(found) - set(golden))
    differ = sorted(n for n in set(golden) & set(found) if golden[n] != found[n])
    assert not (missing or extra or differ), (
        f"missing: {missing}; not in the digests: {extra}; changed: {differ}"
    )


@pytest.fixture(scope="module")
def chain_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("chain")
    run_chain(root)
    return root


def test_artifacts_match_golden_digests(chain_root):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert_digests_match(golden, digests(chain_root))


def test_toy_model_artifacts_match_golden_digests(chain_root):
    key = platform_key()
    golden = json.loads(TOY_DIGESTS.read_text(encoding="utf-8"))
    if key not in golden:
        pytest.skip(f"no tune/pt digests for {key!r}")
    run_toy_chain(chain_root)
    print(f"checked the tune/pt digests for {key!r}")
    assert_digests_match(golden[key], digests(chain_root, toy_chain))


# The chain's artifacts that embed the run config, so they name its backend.
CONFIG_ARTIFACTS = [f"{step}/{name}" for step in ("synth-mt", "synth-pe", "synth-pt", "filter")
                    for name in ("config.json", "report.json")]


# The fault seed of the faults-on chain; its schedule draws every one of FAULTS.
FAULT_SEED = 0


def run_http_chains(tmp_path_factory, name: str, **server_args) -> dict:
    """{parallelism: (root, server)} for the chain run with an http backend
    against a MockServer(**server_args) that serves what the mock config
    does: noise 0.5 and seed 2, which is seeds.synth for every command that
    generates. HttpBackend waits no backoff between attempts."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for var in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
            mp.delenv(var, raising=False)
            mp.delenv(var.upper(), raising=False)
        mp.setattr(HttpBackend, "_backoff", lambda self, attempt: 0.0)
        for parallelism in (1, 2, 8):
            root = tmp_path_factory.mktemp(f"{name}-{parallelism}")
            with MockServer(noise_rate=0.5, seed=2, **server_args) as server:
                backend = {"kind": "http", "url": server.url, "parallelism": parallelism}
                run_chain(root, {**CONFIG, "backend": backend})
            runs[parallelism] = (root, server)
    return runs


@pytest.fixture(scope="module")
def http_chains(tmp_path_factory) -> dict:
    return run_http_chains(tmp_path_factory, "http-chain")


@pytest.fixture(scope="module")
def faulty_http_chains(tmp_path_factory) -> dict:
    """The http chains with a bounded fault schedule: every request gets its
    reply by its last attempt."""
    return run_http_chains(tmp_path_factory, "faulty-http-chain", faults=FAULT_SEED, bounded=True)


def assert_http_chain_matches(chain_root: Path, root: Path) -> None:
    """root's chain made the mock chain's bytes, but for the backend in the
    config files beside the runs."""
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = digests(root)
    for name in CONFIG_ARTIFACTS:
        assert found.pop(name) != golden.pop(name), name
        over_http, mocked = (json.loads((r / name).read_text(encoding="utf-8"))
                             for r in (root, chain_root))
        key = "backend" if name.endswith("config.json") else "config_hash"
        assert over_http.pop(key) != mocked.pop(key), name
        assert over_http == mocked, name
    assert len(golden) == 22
    assert_digests_match(golden, found)


@pytest.mark.parametrize("parallelism", [1, 2, 8])
def test_http_chain_makes_the_mock_chains_bytes(chain_root, http_chains, parallelism):
    root, server = http_chains[parallelism]
    assert_http_chain_matches(chain_root, root)
    assert server.served == http_chains[1][1].served
    assert server.peak_inflight <= parallelism


@pytest.mark.parametrize("parallelism", [1, 2, 8])
def test_http_chain_with_faults_makes_the_mock_chains_bytes(
    chain_root, http_chains, faulty_http_chains, parallelism
):
    root, server = faulty_http_chains[parallelism]
    assert_http_chain_matches(chain_root, root)
    assert server.served == faulty_http_chains[1][1].served > http_chains[1][1].served
    assert server.peak_inflight <= parallelism
    drawn = {server.fault(body, k) for body, n in server.arrivals.items()
             for k in range(1, n + 1)}
    assert drawn == {None, *FAULTS}


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
    toy = sys.argv[1:] == ["--toy"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with contextlib.redirect_stdout(sys.stderr):
            run_chain(root)
            if toy:
                run_toy_chain(root)
        if toy:
            result = json.loads(TOY_DIGESTS.read_text(encoding="utf-8"))
            result[platform_key()] = digests(root, toy_chain)
        else:
            result = digests(root)
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
