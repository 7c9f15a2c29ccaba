"""Command-line pipeline: ingest, sample, exemplars, tune, synth, filter,
assemble, eval, taxonomy, stats.

Every command reads an optional JSON config (--config PATH) and writes its
artifacts into --out (default: paths.output), which is checked before any
work. After the command returns, main writes manifest.json: every flag but
--config and --out, every file the command wrote, the config hash, seed and
tool version. Artifacts are deterministic under fixed inputs, config, and
seeds; the manifest's created_at timestamp is the only field that varies
between identical reruns.

Exit codes: 0 success, 1 validation/input error, 2 backend failure,
64 usage error (unknown flag or subcommand).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .backends import (
    DEFAULT_TIMEOUT,
    Backend,
    BackendError,
    HttpBackend,
    TaggingTranslator,
    split_backend_url,
)
from .corpus import (
    SCENARIOS,
    CorpusError,
    Dataset,
    Passage,
    config_hash,
    dataset_stats,
    is_language_code,
    load_passage_pool,
    parse_squad_json,
    read_jsonl,
    sample_passage_pool,
    squad_language_counts,
    subsample_fewshot,
    write_json,
    write_passages,
    write_jsonl,
    write_text,
)
from .metrics import evaluate, render_eval_table

# promptkit, synthesis, taxonomy and tuner (with numpy) are imported inside
# the commands that run them, so a command that runs none of them never
# loads them.
if TYPE_CHECKING:
    from .promptkit import ExemplarSet
    from .tuner import SoftPrompt

DEFAULT_SEEDS = {"sample": 0, "fewshot": 0, "tune": 0, "synth": 0, "sweep": 0}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND = 2
EXIT_USAGE = 64


class ConfigError(ValueError):
    """Raised when the run configuration is structurally invalid."""


class CliUsageError(Exception):
    """Raised by the parser instead of exiting, so main can return 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _check_int(key: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")


def _check_number(key: str, value) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{key} must be a number, got {value!r}")


def _check_object(key: str, value, known: Optional[Iterable[str]] = None) -> None:
    """A JSON object; with known given, one that has no other keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    unknown = set(value) - set(known) if known is not None else set()
    if unknown:
        raise ConfigError(f"{key} has unknown keys {sorted(unknown)}")


def _field_names(cls) -> List[str]:
    return [f.name for f in dataclasses.fields(cls)]


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"
    url: Optional[str] = None
    parallelism: int = 4
    timeout: float = DEFAULT_TIMEOUT
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("http", "mock"):
            raise ConfigError(f"backend.kind must be 'http' or 'mock', got {self.kind!r}")
        if self.url is not None:
            if not isinstance(self.url, str):
                raise ConfigError(f"backend.url must be a string, got {self.url!r}")
            try:
                split_backend_url(self.url)
            except ValueError as e:
                raise ConfigError(f"backend.url {e}") from None
        _check_int("backend.parallelism", self.parallelism, 1)
        _check_number("backend.timeout", self.timeout)
        if self.timeout <= 0:
            raise ConfigError("backend.timeout must be > 0")
        _check_number("backend.noise_rate", self.noise_rate)
        if not 0 <= self.noise_rate <= 1:
            raise ConfigError("backend.noise_rate must be within [0, 1]")


@dataclass(frozen=True)
class TuneConfig:
    """The `tuner` section: tuner hyperparameters plus the frozen-model
    geometry to rebuild it. The tuning seed is `seeds.tune`, passed as
    `tuner.tune(..., seed=)`."""

    m: int = 8
    d: int = 8
    h: int = 16
    model_seed: int = 0
    learning_rate: float = 0.3
    warmup_steps: int = 200
    batch_size: int = 16
    max_steps: int = 1000
    eval_every: int = 50
    early_stop_metric: str = "bleu"

    def __post_init__(self):
        for name in ("m", "d", "h", "model_seed", "warmup_steps", "batch_size",
                     "max_steps", "eval_every"):
            _check_int(f"tuner.{name}", getattr(self, name), 0 if name == "model_seed" else 1)
        _check_number("tuner.learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ConfigError("tuner.learning_rate must be > 0")
        if self.early_stop_metric not in ("bleu", "dev_loss"):
            raise ConfigError(
                "tuner.early_stop_metric must be 'bleu' or 'dev_loss', "
                f"got {self.early_stop_metric!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    languages: Tuple[str, ...] = ("en",)
    scenario: str = "english_only"
    n_shot: int = 5
    backend: BackendConfig = field(default_factory=BackendConfig)
    paths: Dict[str, str] = field(default_factory=dict)
    seeds: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SEEDS))
    tuner: TuneConfig = field(default_factory=TuneConfig)
    filters: Dict[str, str] = field(
        default_factory=lambda: {"roundtrip": "on", "roundtrip_mode": "normalized"}
    )

    def __post_init__(self):
        if not isinstance(self.languages, (list, tuple)) or not all(
            is_language_code(lang) for lang in self.languages
        ):
            raise ConfigError(
                f"languages must be a list of language codes, got {self.languages!r}"
            )
        if len(set(self.languages)) != len(self.languages):
            raise ConfigError(f"languages must be distinct, got {list(self.languages)!r}")
        object.__setattr__(self, "languages", tuple(self.languages))
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario must be 'english_only' or 'few_shot', got {self.scenario!r}"
            )
        _check_int("n_shot", self.n_shot, 1)
        _check_object("paths", self.paths)
        for name, value in self.paths.items():
            if not isinstance(value, str):
                raise ConfigError(f"paths.{name} must be a string, got {value!r}")
        _check_object("seeds", self.seeds, DEFAULT_SEEDS)
        for stage, value in self.seeds.items():
            _check_int(f"seeds.{stage}", value, 0)
        _check_object("filters", self.filters, ("roundtrip", "roundtrip_mode"))
        if self.filters.get("roundtrip", "on") not in ("on", "off"):
            raise ConfigError("filters.roundtrip must be 'on' or 'off'")
        if self.filters.get("roundtrip_mode", "normalized") not in ("normalized", "raw"):
            raise ConfigError("filters.roundtrip_mode must be 'normalized' or 'raw'")
        if self.backend.kind == "http" and not (
            self.backend.url or os.environ.get("QAM_BACKEND_URL")
        ):
            raise ConfigError(
                "http backend requires backend.url or the QAM_BACKEND_URL "
                "environment variable"
            )

    def seed(self, stage: str) -> int:
        return self.seeds.get(stage, DEFAULT_SEEDS[stage])

    def to_dict(self) -> dict:
        return {
            "languages": list(self.languages),
            "scenario": self.scenario,
            "n_shot": self.n_shot,
            "backend": dataclasses.asdict(self.backend),
            "paths": dict(self.paths),
            "seeds": dict(self.seeds),
            "tuner": dataclasses.asdict(self.tuner),
            "filters": dict(self.filters),
        }

    @property
    def config_hash(self) -> str:
        return config_hash(self.to_dict())


def load_config(path: Optional[str]) -> RunConfig:
    """Build a RunConfig from a JSON file; missing path means all defaults."""
    if path is None:
        return RunConfig()
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON: {e.msg}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from e
    try:
        _check_object("config", doc, _field_names(RunConfig))
        kwargs = dict(doc)
        if "seeds" in doc:
            _check_object("seeds", doc["seeds"], DEFAULT_SEEDS)
            kwargs["seeds"] = {**DEFAULT_SEEDS, **doc["seeds"]}
        for key, section in (("backend", BackendConfig), ("tuner", TuneConfig)):
            if key in doc:
                _check_object(key, doc[key], _field_names(section))
                kwargs[key] = section(**doc[key])
        return RunConfig(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _http_backend(config: RunConfig) -> HttpBackend:
    return HttpBackend(
        base_url=config.backend.url,
        timeout=config.backend.timeout,
        parallelism=config.backend.parallelism,
    )


def make_translator(config: RunConfig) -> Backend:
    if config.backend.kind == "mock":
        return TaggingTranslator()
    return _http_backend(config)


def make_generator(config: RunConfig, seed: int) -> Backend:
    if config.backend.kind == "mock":
        from .promptkit import MockQABackend

        return MockQABackend(noise_rate=config.backend.noise_rate, seed=seed)
    return _http_backend(config)


@dataclass
class OutputDir:
    """A command's output directory and the names written into it.

    path() hands out root / name and records name for the manifest. The
    directory is made at the first path handed out, so a command that
    fails before writing leaves no directory behind.
    """

    root: Path
    written: List[str] = field(default_factory=list)

    def path(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        self.written.append(name)
        return self.root / name

    def save_run(self, run, config: RunConfig) -> None:
        from .synthesis import save_run

        self.written += save_run(run, self.root, config.to_dict())


def _manifest_value(value) -> str:
    if isinstance(value, list):
        return ",".join(value)
    return "" if value is None else str(value)


def write_manifest(out: OutputDir, args, config: RunConfig, seed: int) -> None:
    """manifest.json: every flag but --config/--out, and every file written."""
    inputs = {
        key: _manifest_value(value)
        for key, value in vars(args).items()
        if key not in ("command", "func", "config", "out")
    }
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "config_hash": config.config_hash,
        "seed": seed,
        "inputs": dict(sorted(inputs.items())),
        "outputs": sorted(out.written),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out.root / "manifest.json", manifest)


def save_exemplars(exemplars: ExemplarSet, path: Path) -> None:
    write_json(
        path,
        {
            "language": exemplars.language,
            "scenario": exemplars.scenario,
            "exemplars": [dataclasses.asdict(e) for e in exemplars.exemplars],
        },
    )


def load_exemplars(path: Path, language: str) -> ExemplarSet:
    """Read a file save_exemplars wrote for language; every error names it."""
    from .promptkit import Exemplar, ExemplarSet

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        exemplars = ExemplarSet(
            language=doc["language"],
            exemplars=tuple(Exemplar(**e) for e in doc["exemplars"]),
            scenario=doc["scenario"],
        )
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:  # bad JSON or UTF-8, or a PromptError
        raise ConfigError(f"{path}: {e}") from e
    if exemplars.language != language:
        raise ConfigError(
            f"{path}: exemplar set language {exemplars.language!r} "
            f"differs from {language!r}"
        )
    return exemplars


# ---------------------------------------------------------------- commands
#
# Each command writes through its OutputDir and returns the seed it used;
# main writes the manifest after it returns.


def cmd_ingest(args, config: RunConfig, out: OutputDir) -> int:
    raw = Path(args.input).read_bytes()
    try:
        dataset, report = parse_squad_json(raw, args.name, args.language)
    except CorpusError as e:
        raise CorpusError(f"{args.input}: {e}") from e
    gold_path = out.path(f"{args.language}.gold.jsonl")
    write_jsonl(dataset, gold_path)
    write_json(out.path("ingest_report.json"), dataclasses.asdict(report))
    print(f"ingested {report.parsed}/{report.total_qas} examples -> {gold_path}")
    return 0


def cmd_sample(args, config: RunConfig, out: OutputDir) -> int:
    if args.n < 0:
        raise ConfigError(f"--n must be >= 0, got {args.n}")
    if args.min_len > args.max_len:
        raise ConfigError(
            f"--min-len {args.min_len} is greater than --max-len {args.max_len}: "
            "no passage length is within the window"
        )
    seed = config.seed("sample")
    picked = sample_passage_pool(
        args.passages, args.language, args.n, seed,
        min_len=args.min_len, max_len=args.max_len,
    )
    out_path = out.path(f"{args.language}.passages.jsonl")
    write_passages(picked, out_path)
    print(f"sampled {len(picked)} passages -> {out_path}")
    return seed


def cmd_exemplars(args, config: RunConfig, out: OutputDir) -> int:
    from .promptkit import build_exemplars_en_only, build_exemplars_fewshot

    if args.language == "en":
        raise ConfigError("--language must name a language other than English, got 'en'")
    gold = read_jsonl(Path(args.gold))
    seed = config.seed("fewshot")
    if config.scenario == "english_only":
        if not any(ex.language == "en" for ex in gold.examples):
            raise ConfigError("english_only exemplars need English gold data")
        shots = subsample_fewshot(gold, "en", config.n_shot, seed)
        with make_translator(config) as translator:
            exemplars = build_exemplars_en_only(shots, translator, args.language)
    else:
        if not any(ex.language == args.language for ex in gold.examples):
            raise ConfigError(f"no gold examples in language {args.language!r}")
        shots = subsample_fewshot(gold, args.language, config.n_shot, seed)
        with make_translator(config) as translator:
            exemplars = build_exemplars_fewshot(shots, translator)
    out_path = out.path(f"{args.language}.exemplars.json")
    save_exemplars(exemplars, out_path)
    print(f"built {len(exemplars)} exemplars ({config.scenario}) -> {out_path}")
    return seed


def cmd_tune(args, config: RunConfig, out: OutputDir) -> int:
    from .tuner import create_toy_lm, dataset_language, save_prompt, tune

    # Named by their paths, so errors about a dataset name its file.
    train = read_jsonl(Path(args.train), name=args.train)
    dev = read_jsonl(Path(args.dev), name=args.dev)
    for role, dataset in (("train", train), ("dev", dev)):
        language = dataset_language(dataset, role)
        if language != args.language:
            raise ConfigError(
                f"{dataset.name}: {role} dataset is in {language!r}, "
                f"not --language {args.language!r}"
            )
    t = config.tuner
    model = create_toy_lm(d=t.d, h=t.h, seed=t.model_seed)
    seed = config.seed("tune")
    trace = tune(model, train, dev, t, seed=seed)
    save_prompt(
        trace.best_prompt, out.path(f"{args.language}.prompt.bin"), seed, config.config_hash
    )
    write_json(
        out.path(f"{args.language}.trace.json"),
        {
            "language": args.language,
            "metric": trace.metric,
            "best_step": trace.best_step,
            "initial_train_loss": trace.initial_train_loss,
            "final_train_loss": trace.final_train_loss,
            "records": [dataclasses.asdict(r) for r in trace.records],
        },
    )
    print(
        f"tuned {args.language}: best {trace.metric} at step {trace.best_step}, "
        f"train loss {trace.initial_train_loss:.4f} -> {trace.final_train_loss:.4f}"
    )
    return seed


def _load_language_files(directory: str, languages: Sequence[str], suffix: str,
                         what: str, load) -> Dict[str, object]:
    """{lang: load(path, lang)} for each <directory>/<lang>.<suffix>."""
    found = {}
    for lang in languages:
        path = Path(directory) / f"{lang}.{suffix}"
        if not path.exists():
            raise ConfigError(f"no {what} file for {lang!r}: {path}")
        found[lang] = load(path, lang)
    return found


def _load_passages_dir(
    passages_dir: str, languages: Sequence[str]
) -> Dict[str, Tuple[Passage, ...]]:
    return _load_language_files(
        passages_dir, languages, "passages.jsonl", "passage", load_passage_pool
    )


def _load_exemplars_dir(
    exemplars_dir: str, languages: Sequence[str]
) -> Dict[str, ExemplarSet]:
    return _load_language_files(
        exemplars_dir, languages, "exemplars.json", "exemplar", load_exemplars
    )


def _load_prompts_dir(
    prompts_dir: str, languages: Sequence[str], d: int
) -> Dict[str, SoftPrompt]:
    """Each language's tuned prompt; one whose width is not d is an error."""
    from .tuner import load_prompt

    def load(path: Path, lang: str) -> SoftPrompt:
        prompt, _ = load_prompt(path)
        if prompt.d != d:
            raise ConfigError(
                f"{path}: prompt width d={prompt.d} differs from tuner.d={d}"
            )
        return prompt

    return _load_language_files(prompts_dir, languages, "prompt.bin", "tuned prompt", load)


def cmd_synth(args, config: RunConfig, out: OutputDir) -> int:
    from .synthesis import SynthesisError, synth_mt, synth_pe, synth_pt

    targets = [l for l in config.languages if l != "en"]
    if not targets:
        source = args.config or "the default config (no --config)"
        raise ConfigError(f"{source}: languages needs at least one non-English language")
    seed = config.seed("synth")
    if args.method == "mt":
        if not args.gold:
            raise ConfigError("--method mt requires --gold")
        d_en = read_jsonl(Path(args.gold))
        with make_translator(config) as translator:
            try:
                run = synth_mt(d_en, translator, targets)
            except SynthesisError as e:
                raise SynthesisError(f"{args.gold}: {e}") from e
    elif args.method == "pe":
        if not args.passages_dir or not args.exemplars_dir:
            raise ConfigError("--method pe requires --passages-dir and --exemplars-dir")
        passages = _load_passages_dir(args.passages_dir, targets)
        exemplars = _load_exemplars_dir(args.exemplars_dir, targets)
        with make_generator(config, seed) as generator:
            run = synth_pe(exemplars, passages, generator)
    elif args.method == "pt":
        if not args.passages_dir:
            raise ConfigError("--method pt requires --passages-dir")
        passages = _load_passages_dir(args.passages_dir, targets)
        if args.prompts_dir:
            from .tuner import create_toy_lm

            t = config.tuner
            prompts = _load_prompts_dir(args.prompts_dir, targets, t.d)
            model = create_toy_lm(d=t.d, h=t.h, seed=t.model_seed)
            run = synth_pt(
                passages, model=model, prompts_by_language=prompts, scenario=config.scenario
            )
        else:
            with make_generator(config, seed) as generator:
                run = synth_pt(passages, backend=generator, scenario=config.scenario)
    else:
        raise ConfigError(f"unknown method {args.method!r}")
    out.save_run(run, config)
    total = sum(len(run.raw[lang]) for lang in run.languages)
    print(f"synthesized {total} raw examples ({args.method}) -> {out.root}")
    return seed


def cmd_filter(args, config: RunConfig, out: OutputDir) -> int:
    from .synthesis import SynthesisError, filter_run, load_run

    run = load_run(args.run)
    roundtrip = (
        run.method == "pe" and config.filters.get("roundtrip", "on") == "on"
    )
    if roundtrip and not args.exemplars_dir:
        raise ConfigError(
            "round-trip filtering requires --exemplars-dir (or set "
            "filters.roundtrip to 'off')"
        )
    seed = config.seed("synth")
    exemplars = _load_exemplars_dir(args.exemplars_dir, run.languages) if roundtrip else {}
    with make_generator(config, seed) if roundtrip else contextlib.nullcontext() as backend:
        try:
            run = filter_run(
                run,
                backend,
                exemplars,
                mode=config.filters.get("roundtrip_mode", "normalized"),
            )
        except SynthesisError as e:
            raise SynthesisError(f"{Path(args.run) / 'report.json'}: {e}") from e
    out.save_run(run, config)
    kept = sum(len(run.filtered[lang]) for lang in run.languages)
    print(f"filtered run {Path(args.run)} -> {out.root} ({kept} kept)")
    return seed


def cmd_assemble(args, config: RunConfig, out: OutputDir) -> int:
    from .synthesis import SynthesisError, assemble, load_run, size_sweep

    d_en = read_jsonl(Path(args.gold))
    synthetic: Dict[str, Dataset] = {}
    for run_dir in args.runs:
        run = load_run(run_dir)
        for lang in run.languages:
            ds = run.filtered[lang]
            if lang in synthetic:
                merged = synthetic[lang].examples + ds.examples
                try:
                    synthetic[lang] = Dataset(name=f"multi-{lang}", examples=merged)
                except CorpusError as e:  # an example id an earlier run also has
                    raise ConfigError(f"--runs {run_dir}: {e}") from e
            else:
                synthetic[lang] = ds
    assembled = assemble(d_en, synthetic, name=args.name)
    seed = config.seed("sweep")
    subsets = []
    if args.sizes:
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError as e:
            raise ConfigError(f"--sizes must be integers, got {args.sizes!r}") from e
        try:
            subsets = size_sweep(assembled, sizes, seed)
        except SynthesisError as e:  # its messages all start with "sizes"
            raise SynthesisError(f"--{e}") from e
    out_path = out.path("assembled.jsonl")
    write_jsonl(assembled, out_path)
    counts = {lang: len(ds) for lang, ds in sorted(synthetic.items())}
    write_json(
        out.path("counts.json"),
        {"english": len(d_en), "synthetic": counts, "total": len(assembled)},
    )
    for subset in subsets:
        write_jsonl(subset, out.path(f"{subset.name}.jsonl"))
    print(f"assembled {len(assembled)} examples -> {out_path}")
    return seed


def cmd_eval(args, config: RunConfig, out: OutputDir) -> int:
    gold = read_jsonl(Path(args.gold))
    path = Path(args.predictions)
    try:
        predictions = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(predictions, dict):
            raise ValueError("predictions must be a JSON object of id -> answer")
        report = evaluate(predictions, gold)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    write_json(out.path("eval.json"), report.to_dict())
    table = render_eval_table(report)
    write_text(out.path("eval.txt"), table + "\n")
    print(table)
    return 0


def cmd_taxonomy(args, config: RunConfig, out: OutputDir) -> int:
    from .taxonomy import distribution, ring_csv

    if not 0 <= args.other_threshold <= 1:
        raise ConfigError(f"--other-threshold must be within [0, 1], got {args.other_threshold}")
    dataset = read_jsonl(Path(args.input))
    with make_translator(config) as translator:
        report = distribution(
            dataset,
            translator,
            pool_all_languages=not args.exclude_english,
            other_threshold=args.other_threshold,
        )
    write_json(out.path("taxonomy.json"), report.to_dict())
    write_text(out.path("categories.csv"), ring_csv(report.pooled, "category"))
    write_text(out.path("subcategories.csv"), ring_csv(report.pooled, "subcategory"))
    print(f"taxonomy over {len(dataset)} questions -> {out.root}")
    return 0


def cmd_stats(args, config: RunConfig, out: OutputDir) -> int:
    path = Path(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "squad" if path.suffix == ".json" else "jsonl"
    if fmt == "squad":
        try:
            counts = squad_language_counts(json.loads(path.read_text(encoding="utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError, CorpusError) as e:
            raise CorpusError(f"{path}: {e}") from e
        payload = {
            "format": "squad",
            "per_language": dict(sorted(counts.items())),
            "total": sum(counts.values()),
        }
    else:
        dataset = read_jsonl(path)
        payload = {"format": "jsonl", **dataset_stats(dataset).to_dict()}
    write_json(out.path("stats.json"), payload)
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
    return 0


# ------------------------------------------------------------------ parser


def _language(value: str) -> str:
    if not is_language_code(value):
        raise argparse.ArgumentTypeError(f"{value!r} is not a language code")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="qasynth", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (default: paths.output)")

    p = sub.add_parser("ingest", help="parse a SQuAD-format JSON file to JSONL")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--name", required=True, help="dataset name for provenance")
    p.add_argument("--language", required=True, type=_language)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sample", help="sample unlabeled passages from a pool")
    common(p)
    p.add_argument("--passages", required=True, help="NDJSON pool (id, text)")
    p.add_argument("--language", required=True, type=_language)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-len", type=int, default=200)
    p.add_argument("--max-len", type=int, default=510)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("exemplars", help="build prompt exemplars for a language")
    common(p)
    p.add_argument("--gold", required=True, help="gold JSONL file")
    p.add_argument("--language", required=True, type=_language)
    p.set_defaults(func=cmd_exemplars)

    p = sub.add_parser("tune", help="tune a soft prompt on the toy frozen LM")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--language", required=True, type=_language)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("synth", help="run a synthesis method (mt, pe, pt)")
    common(p)
    p.add_argument("--method", required=True, choices=["mt", "pe", "pt"])
    p.add_argument("--gold", help="English gold JSONL (mt)")
    p.add_argument("--passages-dir", help="directory of <lang>.passages.jsonl (pe, pt)")
    p.add_argument("--exemplars-dir", help="directory of <lang>.exemplars.json (pe)")
    p.add_argument("--prompts-dir", help="directory of <lang>.prompt.bin (pt toy path)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("filter", help="apply the filter stack to a synthesis run")
    common(p)
    p.add_argument("--run", required=True, help="synthesis run directory")
    p.add_argument("--exemplars-dir", help="exemplars for round-trip answering")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("assemble", help="combine English gold with filtered runs")
    common(p)
    p.add_argument("--gold", required=True, help="English gold JSONL")
    p.add_argument("--runs", nargs="+", required=True, help="filtered run directories")
    p.add_argument("--name", default="assembled")
    p.add_argument("--sizes", help="comma-separated synthetic sizes to sweep")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("eval", help="score predictions against gold answers")
    common(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--predictions", required=True, help="JSON map id -> answer")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("taxonomy", help="question-type distribution analysis")
    common(p)
    p.add_argument("--input", required=True, help="JSONL dataset")
    p.add_argument("--other-threshold", type=float, default=0.02)
    p.add_argument(
        "--exclude-english",
        action="store_true",
        help="keep English questions out of the pooled view",
    )
    p.set_defaults(func=cmd_taxonomy)

    p = sub.add_parser("stats", help="dataset statistics (JSONL or SQuAD JSON)")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["auto", "jsonl", "squad"], default="auto")
    p.set_defaults(func=cmd_stats)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """build_parser(), built at the first main call of the process and
    reused: parsing leaves the parser as it was."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "command", None):
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config)
        root = args.out or config.paths.get("output")
        if not root:
            raise ConfigError("no output directory: pass --out or set paths.output")
        out = OutputDir(Path(root))
        seed = args.func(args, config, out)
        write_manifest(out, args, config, seed)
        return EXIT_OK
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return EXIT_BACKEND
    except (ValueError, OSError) as e:  # every domain error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
