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
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .backends import (
    BackendError,
    GenerationBackend,
    HttpBackend,
    MockQABackend,
    TaggingTranslator,
    TranslationBackend,
    split_backend_url,
)
from .corpus import (
    CorpusError,
    Dataset,
    Passage,
    dataset_stats,
    load_passage_pool,
    parse_squad_json,
    read_jsonl,
    sample_unlabeled,
    squad_language_counts,
    subsample_fewshot,
    write_json,
    write_passages,
    write_jsonl,
    write_text,
)
from .metrics import evaluate, render_eval_table
from .promptkit import Exemplar, ExemplarSet, build_exemplars_en_only, build_exemplars_fewshot
from .synthesis import (
    SynthesisError,
    assemble,
    config_hash,
    filter_run,
    load_run,
    save_run,
    size_sweep,
    synth_mt,
    synth_pe,
    synth_pt,
)
from .taxonomy import distribution, ring_csv
from .tuner import (
    TuneConfig,
    TunerError,
    create_toy_lm,
    load_prompt,
    save_prompt,
    tune,
)

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
    timeout: float = 60.0
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
            isinstance(lang, str) and lang for lang in self.languages
        ):
            raise ConfigError(
                f"languages must be a list of language codes, got {self.languages!r}"
            )
        if len(set(self.languages)) != len(self.languages):
            raise ConfigError(f"languages must be distinct, got {list(self.languages)!r}")
        object.__setattr__(self, "languages", tuple(self.languages))
        if self.scenario not in ("english_only", "few_shot"):
            raise ConfigError(
                f"scenario must be 'english_only' or 'few_shot', got {self.scenario!r}"
            )
        _check_int("n_shot", self.n_shot, 1 if self.scenario == "few_shot" else 0)
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
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON: {e.msg}")
    try:
        _check_object("config", doc, _field_names(RunConfig))
        kwargs = dict(doc)
        if "seeds" in doc:
            _check_object("seeds", doc["seeds"], DEFAULT_SEEDS)
            kwargs["seeds"] = {**DEFAULT_SEEDS, **doc["seeds"]}
        if "backend" in doc:
            _check_object("backend", doc["backend"], _field_names(BackendConfig))
            kwargs["backend"] = BackendConfig(**doc["backend"])
        if "tuner" in doc:
            _check_object("tuner", doc["tuner"], _field_names(TuneConfig))
            try:
                kwargs["tuner"] = TuneConfig(**doc["tuner"])
            except TunerError as e:
                raise ConfigError(f"tuner.{e}") from e
        return RunConfig(**kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def make_translator(config: RunConfig) -> TranslationBackend:
    if config.backend.kind == "mock":
        return TaggingTranslator()
    return HttpBackend(base_url=config.backend.url, timeout=config.backend.timeout)


def make_generator(config: RunConfig, seed: int) -> GenerationBackend:
    if config.backend.kind == "mock":
        return MockQABackend(noise_rate=config.backend.noise_rate, seed=seed)
    return HttpBackend(base_url=config.backend.url, timeout=config.backend.timeout)


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
    raw = Path(args.input).read_text(encoding="utf-8")
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
    pool = load_passage_pool(args.passages, args.language)
    seed = config.seed("sample")
    picked = sample_unlabeled(
        pool, args.n, seed, min_len=args.min_len, max_len=args.max_len
    )
    out_path = out.path(f"{args.language}.passages.jsonl")
    write_passages(picked, out_path)
    print(f"sampled {len(picked)} passages -> {out_path}")
    return seed


def cmd_exemplars(args, config: RunConfig, out: OutputDir) -> int:
    gold = read_jsonl(Path(args.gold))
    seed = config.seed("fewshot")
    if config.scenario == "english_only":
        if not any(ex.language == "en" for ex in gold.examples):
            raise ConfigError("english_only exemplars need English gold data")
        shots = subsample_fewshot(gold, "en", config.n_shot, seed)
        with make_translator(config) as translator:
            exemplars = build_exemplars_en_only(
                shots, translator, args.language, parallelism=config.backend.parallelism
            )
    else:
        if not any(ex.language == args.language for ex in gold.examples):
            raise ConfigError(f"no gold examples in language {args.language!r}")
        shots = subsample_fewshot(gold, args.language, config.n_shot, seed)
        with make_translator(config) as translator:
            exemplars = build_exemplars_fewshot(
                shots, translator, parallelism=config.backend.parallelism
            )
    out_path = out.path(f"{args.language}.exemplars.json")
    save_exemplars(exemplars, out_path)
    print(f"built {len(exemplars)} exemplars ({config.scenario}) -> {out_path}")
    return seed


def cmd_tune(args, config: RunConfig, out: OutputDir) -> int:
    train = read_jsonl(Path(args.train))
    dev = read_jsonl(Path(args.dev))
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


def cmd_synth(args, config: RunConfig, out: OutputDir) -> int:
    targets = [l for l in config.languages if l != "en"]
    if not targets:
        raise ConfigError("config.languages needs at least one non-English language")
    seed = config.seed("synth")
    if args.method == "mt":
        if not args.gold:
            raise ConfigError("--method mt requires --gold")
        d_en = read_jsonl(Path(args.gold))
        with make_translator(config) as translator:
            run = synth_mt(
                d_en,
                translator,
                targets,
                config.config_hash,
                parallelism=config.backend.parallelism,
            )
    elif args.method == "pe":
        if not args.passages_dir or not args.exemplars_dir:
            raise ConfigError("--method pe requires --passages-dir and --exemplars-dir")
        passages = _load_passages_dir(args.passages_dir, targets)
        exemplars = _load_exemplars_dir(args.exemplars_dir, targets)
        with make_generator(config, seed) as generator:
            run = synth_pe(
                exemplars,
                passages,
                generator,
                parallelism=config.backend.parallelism,
                config_hash=config.config_hash,
            )
    elif args.method == "pt":
        if not args.passages_dir:
            raise ConfigError("--method pt requires --passages-dir")
        passages = _load_passages_dir(args.passages_dir, targets)
        if args.prompts_dir:
            t = config.tuner
            model = create_toy_lm(d=t.d, h=t.h, seed=t.model_seed)
            prompts = {}
            for lang in targets:
                prompt_path = Path(args.prompts_dir) / f"{lang}.prompt.bin"
                if not prompt_path.exists():
                    raise ConfigError(f"no tuned prompt for {lang!r}: {prompt_path}")
                prompts[lang], _ = load_prompt(prompt_path)
                if prompts[lang].d != t.d:
                    raise ConfigError(
                        f"{prompt_path}: prompt width d={prompts[lang].d} "
                        f"differs from tuner.d={t.d}"
                    )
            run = synth_pt(
                passages,
                model=model,
                prompts_by_language=prompts,
                scenario=config.scenario,
                config_hash=config.config_hash,
            )
        else:
            with make_generator(config, seed) as generator:
                run = synth_pt(
                    passages,
                    backend=generator,
                    scenario=config.scenario,
                    config_hash=config.config_hash,
                    parallelism=config.backend.parallelism,
                )
    else:
        raise ConfigError(f"unknown method {args.method!r}")
    out.save_run(run, config)
    total = sum(len(run.raw[lang]) for lang in run.languages)
    print(f"synthesized {total} raw examples ({args.method}) -> {out.root}")
    return seed


def cmd_filter(args, config: RunConfig, out: OutputDir) -> int:
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
                parallelism=config.backend.parallelism,
            )
        except SynthesisError as e:
            raise SynthesisError(f"{Path(args.run) / 'report.json'}: {e}") from e
    out.save_run(dataclasses.replace(run, config_hash=config.config_hash), config)
    kept = sum(len(run.filtered[lang]) for lang in run.languages)
    print(f"filtered run {Path(args.run)} -> {out.root} ({kept} kept)")
    return seed


def cmd_assemble(args, config: RunConfig, out: OutputDir) -> int:
    d_en = read_jsonl(Path(args.gold))
    synthetic: Dict[str, Dataset] = {}
    for run_dir in args.runs:
        run = load_run(run_dir)
        for lang in run.languages:
            ds = run.filtered[lang]
            if lang in synthetic:
                merged = synthetic[lang].examples + ds.examples
                synthetic[lang] = Dataset(name=f"multi-{lang}", examples=merged)
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
        subsets = size_sweep(assembled, sizes, seed)
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
    dataset = read_jsonl(Path(args.input))
    with make_translator(config) as translator:
        report = distribution(
            dataset,
            translator,
            pool_all_languages=not args.exclude_english,
            other_threshold=args.other_threshold,
            parallelism=config.backend.parallelism,
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
        except (json.JSONDecodeError, CorpusError) as e:
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
    p.add_argument("--language", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sample", help="sample unlabeled passages from a pool")
    common(p)
    p.add_argument("--passages", required=True, help="NDJSON pool (id, text)")
    p.add_argument("--language", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-len", type=int, default=200)
    p.add_argument("--max-len", type=int, default=510)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("exemplars", help="build prompt exemplars for a language")
    common(p)
    p.add_argument("--gold", required=True, help="gold JSONL file")
    p.add_argument("--language", required=True)
    p.set_defaults(func=cmd_exemplars)

    p = sub.add_parser("tune", help="tune a soft prompt on the toy frozen LM")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--language", required=True)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
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
    except (
        ConfigError,
        CorpusError,
        SynthesisError,
        TunerError,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
