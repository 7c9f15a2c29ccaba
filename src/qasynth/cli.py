"""Command-line pipeline: ingest, sample, exemplars, tune, synth, filter,
assemble, eval, taxonomy, stats.

Every command reads an optional JSON config (--config PATH), writes its
artifacts into --out, and drops a manifest.json describing the invocation
(inputs, config hash, seed, tool version). Artifacts are deterministic under
fixed inputs, config, and seeds; the manifest's created_at timestamp is the
only field that varies between identical reruns.

Exit codes: 0 success, 1 validation/input error, 2 backend failure,
64 usage error (unknown flag or subcommand).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from . import __version__
from .backends import (
    BackendError,
    GenerationBackend,
    HttpBackend,
    MockQABackend,
    TaggingTranslator,
    TranslationBackend,
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
    subsample_fewshot,
    write_json,
    write_passages,
    write_jsonl,
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


def _check_int(obj, section: str, name: str, minimum: int) -> None:
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(
            f"{section}.{name} must be an integer >= {minimum}, got {value!r}"
        )


def _check_number(obj, section: str, name: str) -> None:
    value = getattr(obj, name)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{section}.{name} must be a number, got {value!r}")


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
        _check_int(self, "backend", "parallelism", 1)
        _check_number(self, "backend", "timeout")
        if self.timeout <= 0:
            raise ConfigError("backend.timeout must be > 0")
        _check_number(self, "backend", "noise_rate")


@dataclass(frozen=True)
class TunerSettings:
    """Tuner hyperparameters plus the frozen-model geometry to rebuild it."""

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
        for name in ("m", "d", "h", "warmup_steps", "batch_size", "max_steps", "eval_every"):
            _check_int(self, "tuner", name, 1)
        _check_int(self, "tuner", "model_seed", 0)
        _check_number(self, "tuner", "learning_rate")
        if self.learning_rate <= 0:
            raise ConfigError("tuner.learning_rate must be > 0")
        if self.early_stop_metric not in ("bleu", "dev_loss"):
            raise ConfigError(
                f"tuner.early_stop_metric must be 'bleu' or 'dev_loss', "
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
    tuner: TunerSettings = field(default_factory=TunerSettings)
    filters: Dict[str, str] = field(
        default_factory=lambda: {"roundtrip": "on", "roundtrip_mode": "normalized"}
    )

    def __post_init__(self):
        if self.scenario not in ("english_only", "few_shot"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "few_shot" and self.n_shot < 1:
            raise ConfigError("few_shot scenario requires n_shot >= 1")
        if self.filters.get("roundtrip", "on") not in ("on", "off"):
            raise ConfigError("filters.roundtrip must be 'on' or 'off'")
        if self.filters.get("roundtrip_mode", "normalized") not in ("normalized", "raw"):
            raise ConfigError("filters.roundtrip_mode must be 'normalized' or 'raw'")
        import os

        if self.backend.kind == "http" and not (
            self.backend.url or os.environ.get("QAM_BACKEND_URL")
        ):
            raise ConfigError(
                "http backend requires backend.url or the QAM_BACKEND_URL "
                "environment variable"
            )

    def seed(self, stage: str) -> int:
        return int(self.seeds.get(stage, DEFAULT_SEEDS.get(stage, 0)))

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
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {
        "languages", "scenario", "n_shot", "backend", "paths",
        "seeds", "tuner", "filters",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    kwargs: dict = {}
    if "languages" in doc:
        kwargs["languages"] = tuple(doc["languages"])
    for key in ("scenario", "n_shot", "paths", "filters"):
        if key in doc:
            kwargs[key] = doc[key]
    if "seeds" in doc:
        seeds = dict(DEFAULT_SEEDS)
        seeds.update({k: int(v) for k, v in doc["seeds"].items()})
        kwargs["seeds"] = seeds
    try:
        if "backend" in doc:
            kwargs["backend"] = BackendConfig(**doc["backend"])
        if "tuner" in doc:
            kwargs["tuner"] = TunerSettings(**doc["tuner"])
        return RunConfig(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{path}: {e}")


def make_translator(config: RunConfig) -> TranslationBackend:
    if config.backend.kind == "mock":
        return TaggingTranslator()
    return HttpBackend(base_url=config.backend.url, timeout=config.backend.timeout)


def make_generator(config: RunConfig, seed: int) -> GenerationBackend:
    if config.backend.kind == "mock":
        return MockQABackend(noise_rate=config.backend.noise_rate, seed=seed)
    return HttpBackend(base_url=config.backend.url, timeout=config.backend.timeout)


def write_manifest(
    outdir: Path,
    command: str,
    config: RunConfig,
    seed: int,
    inputs: Dict[str, str],
    outputs: Sequence[str],
) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config_hash": config.config_hash,
        "seed": seed,
        "inputs": dict(sorted(inputs.items())),
        "outputs": sorted(outputs),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    write_json(outdir / "manifest.json", manifest)


def _outdir(args, config: RunConfig) -> Path:
    out = args.out or config.paths.get("output")
    if not out:
        raise ConfigError("no output directory: pass --out or set paths.output")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_exemplars(exemplars: ExemplarSet, path: Path) -> None:
    write_json(
        path,
        {
            "language": exemplars.language,
            "scenario": exemplars.scenario,
            "exemplars": [dataclasses.asdict(e) for e in exemplars.exemplars],
        },
    )


def load_exemplars(path: Path) -> ExemplarSet:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        return ExemplarSet(
            language=doc["language"],
            exemplars=tuple(Exemplar(**e) for e in doc["exemplars"]),
            scenario=doc["scenario"],
        )
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (json.JSONDecodeError, TypeError) as e:
        raise ConfigError(f"{path}: {e}") from e


# ---------------------------------------------------------------- commands


def cmd_ingest(args, config: RunConfig) -> int:
    raw = Path(args.input).read_text(encoding="utf-8")
    dataset, report = parse_squad_json(raw, args.name, args.language)
    outdir = _outdir(args, config)
    gold_path = outdir / f"{args.language}.gold.jsonl"
    write_jsonl(dataset, gold_path)
    write_json(outdir / "ingest_report.json", dataclasses.asdict(report))
    write_manifest(
        outdir, "ingest", config, 0,
        {"input": args.input, "name": args.name, "language": args.language},
        [gold_path.name, "ingest_report.json"],
    )
    print(f"ingested {report.parsed}/{report.total_qas} examples -> {gold_path}")
    return EXIT_OK


def cmd_sample(args, config: RunConfig) -> int:
    pool = load_passage_pool(args.passages, args.language)
    seed = config.seed("sample")
    picked = sample_unlabeled(
        pool, args.n, seed, min_len=args.min_len, max_len=args.max_len
    )
    outdir = _outdir(args, config)
    out_path = outdir / f"{args.language}.passages.jsonl"
    write_passages(picked, out_path)
    write_manifest(
        outdir, "sample", config, seed,
        {"passages": args.passages, "language": args.language, "n": str(args.n)},
        [out_path.name],
    )
    print(f"sampled {len(picked)} passages -> {out_path}")
    return EXIT_OK


def cmd_exemplars(args, config: RunConfig) -> int:
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
    outdir = _outdir(args, config)
    out_path = outdir / f"{args.language}.exemplars.json"
    save_exemplars(exemplars, out_path)
    write_manifest(
        outdir, "exemplars", config, seed,
        {"gold": args.gold, "language": args.language, "scenario": config.scenario},
        [out_path.name],
    )
    print(f"built {len(exemplars)} exemplars ({config.scenario}) -> {out_path}")
    return EXIT_OK


def cmd_tune(args, config: RunConfig) -> int:
    train = read_jsonl(Path(args.train))
    dev = read_jsonl(Path(args.dev))
    t = config.tuner
    model = create_toy_lm(d=t.d, h=t.h, seed=t.model_seed)
    seed = config.seed("tune")
    tune_config = TuneConfig(
        m=t.m,
        learning_rate=t.learning_rate,
        warmup_steps=t.warmup_steps,
        batch_size=t.batch_size,
        max_steps=t.max_steps,
        eval_every=t.eval_every,
        early_stop_metric=t.early_stop_metric,
        seed=seed,
    )
    trace = tune(model, train, dev, tune_config)
    outdir = _outdir(args, config)
    prompt_path = outdir / f"{args.language}.prompt.bin"
    save_prompt(trace.best_prompt, prompt_path, seed, config.config_hash)
    trace_path = outdir / f"{args.language}.trace.json"
    write_json(
        trace_path,
        {
            "language": args.language,
            "metric": trace.metric,
            "best_step": trace.best_step,
            "initial_train_loss": trace.initial_train_loss,
            "final_train_loss": trace.final_train_loss,
            "records": [dataclasses.asdict(r) for r in trace.records],
        },
    )
    write_manifest(
        outdir, "tune", config, seed,
        {"train": args.train, "dev": args.dev, "language": args.language},
        [prompt_path.name, trace_path.name],
    )
    print(
        f"tuned {args.language}: best {trace.metric} at step {trace.best_step}, "
        f"train loss {trace.initial_train_loss:.4f} -> {trace.final_train_loss:.4f}"
    )
    return EXIT_OK


def _load_passages_dir(
    passages_dir: str, languages: Sequence[str]
) -> Dict[str, Tuple[Passage, ...]]:
    out = {}
    for lang in languages:
        path = Path(passages_dir) / f"{lang}.passages.jsonl"
        if not path.exists():
            raise ConfigError(f"no passage file for {lang!r}: {path}")
        out[lang] = load_passage_pool(path, lang)
    return out


def cmd_synth(args, config: RunConfig) -> int:
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
        exemplars = {
            lang: load_exemplars(Path(args.exemplars_dir) / f"{lang}.exemplars.json")
            for lang in targets
        }
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
    outdir = _outdir(args, config)
    outputs = save_run(run, outdir, config.to_dict())
    write_manifest(
        outdir, "synth", config, seed,
        {
            "method": args.method,
            "gold": args.gold or "",
            "passages_dir": args.passages_dir or "",
            "exemplars_dir": args.exemplars_dir or "",
            "prompts_dir": args.prompts_dir or "",
        },
        outputs,
    )
    total = sum(len(run.raw[lang]) for lang in run.languages)
    print(f"synthesized {total} raw examples ({args.method}) -> {outdir}")
    return EXIT_OK


def cmd_filter(args, config: RunConfig) -> int:
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
    exemplars = (
        {lang: load_exemplars(Path(args.exemplars_dir) / f"{lang}.exemplars.json")
         for lang in run.languages}
        if roundtrip
        else {}
    )
    outdir = _outdir(args, config)
    with make_generator(config, seed) if roundtrip else contextlib.nullcontext() as backend:
        run = filter_run(
            run,
            backend,
            exemplars,
            mode=config.filters.get("roundtrip_mode", "normalized"),
            parallelism=config.backend.parallelism,
        )
    run = dataclasses.replace(run, config_hash=config.config_hash)
    outputs = save_run(run, outdir, config.to_dict())
    write_manifest(
        outdir, "filter", config, seed,
        {"run": args.run, "exemplars_dir": args.exemplars_dir or ""},
        outputs,
    )
    kept = sum(len(run.filtered[lang]) for lang in run.languages)
    print(f"filtered run {Path(args.run)} -> {outdir} ({kept} kept)")
    return EXIT_OK


def cmd_assemble(args, config: RunConfig) -> int:
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
    outdir = _outdir(args, config)
    out_path = outdir / "assembled.jsonl"
    write_jsonl(assembled, out_path)
    counts = {lang: len(ds) for lang, ds in sorted(synthetic.items())}
    write_json(
        outdir / "counts.json",
        {"english": len(d_en), "synthetic": counts, "total": len(assembled)},
    )
    outputs = [out_path.name, "counts.json"]
    seed = config.seed("sweep")
    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",")]
        for subset in size_sweep(assembled, sizes, seed):
            subset_path = outdir / f"{subset.name}.jsonl"
            write_jsonl(subset, subset_path)
            outputs.append(subset_path.name)
    write_manifest(
        outdir, "assemble", config, seed,
        {"gold": args.gold, "runs": ",".join(args.runs), "sizes": args.sizes or ""},
        outputs,
    )
    print(f"assembled {len(assembled)} examples -> {out_path}")
    return EXIT_OK


def cmd_eval(args, config: RunConfig) -> int:
    gold = read_jsonl(Path(args.gold))
    predictions = json.loads(Path(args.predictions).read_text(encoding="utf-8"))
    if not isinstance(predictions, dict):
        raise ConfigError("predictions must be a JSON object of id -> answer")
    report = evaluate(predictions, gold)
    outdir = _outdir(args, config)
    write_json(outdir / "eval.json", report.to_dict())
    table = render_eval_table(report)
    (outdir / "eval.txt").write_text(table + "\n", encoding="utf-8")
    write_manifest(
        outdir, "eval", config, 0,
        {"gold": args.gold, "predictions": args.predictions},
        ["eval.json", "eval.txt"],
    )
    print(table)
    return EXIT_OK


def cmd_taxonomy(args, config: RunConfig) -> int:
    dataset = read_jsonl(Path(args.input))
    with make_translator(config) as translator:
        report = distribution(
            dataset,
            translator,
            pool_all_languages=not args.exclude_english,
            other_threshold=args.other_threshold,
            parallelism=config.backend.parallelism,
        )
    outdir = _outdir(args, config)
    write_json(outdir / "taxonomy.json", report.to_dict())
    (outdir / "categories.csv").write_text(
        ring_csv(report.pooled, "category"), encoding="utf-8"
    )
    (outdir / "subcategories.csv").write_text(
        ring_csv(report.pooled, "subcategory"), encoding="utf-8"
    )
    write_manifest(
        outdir, "taxonomy", config, 0,
        {"input": args.input, "other_threshold": str(args.other_threshold)},
        ["taxonomy.json", "categories.csv", "subcategories.csv"],
    )
    print(f"taxonomy over {len(dataset)} questions -> {outdir}")
    return EXIT_OK


def _squad_language_counts(raw: str) -> Dict[str, int]:
    """Per-language qa counts for a SQuAD-format file whose qa ids begin
    with a language name ("finnish-273...-1" style)."""
    doc = json.loads(raw)
    counts: Dict[str, int] = {}
    for article in doc.get("data", []):
        for para in article.get("paragraphs", []):
            for qa in para.get("qas", []):
                lang = str(qa.get("id", "")).split("-", 1)[0].lower() or "unknown"
                counts[lang] = counts.get(lang, 0) + 1
    return counts


def cmd_stats(args, config: RunConfig) -> int:
    path = Path(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "squad" if path.suffix == ".json" else "jsonl"
    if fmt == "squad":
        counts = _squad_language_counts(path.read_text(encoding="utf-8"))
        payload = {
            "format": "squad",
            "per_language": dict(sorted(counts.items())),
            "total": sum(counts.values()),
        }
    else:
        dataset = read_jsonl(path)
        payload = {"format": "jsonl", **dataset_stats(dataset).to_dict()}
    outdir = _outdir(args, config)
    write_json(outdir / "stats.json", payload)
    write_manifest(
        outdir, "stats", config, 0,
        {"input": args.input, "format": fmt},
        ["stats.json"],
    )
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2))
    return EXIT_OK


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
        return args.func(args, config)
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
