"""The three workloads: their inputs, their CLI chains and their output checks.

Each workload is one closed loop: one process runs the chain of `qasynth`
commands one after another, and the next iteration starts when the last
command returns. The commands that make the inputs a user would already
have (ingested gold, exemplars, a sampled pool) run once during set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import fixtures
import synthlang as sl

PASSAGES_PER_LANGUAGE = 100
MT_PARAGRAPHS, MT_QUESTIONS = 10, 5
PT_TRAIN, PT_DEV, PT_PASSAGES = 64, 16, 200
TUNER = {
    "m": 8, "d": 8, "h": 16, "model_seed": 0, "learning_rate": 0.3,
    "warmup_steps": 20, "batch_size": 16, "max_steps": 80, "eval_every": 20,
    "early_stop_metric": "bleu",
}
ORACLE_SAMPLE = 8
PARALLELISM = min(2, os.cpu_count() or 1)

Command = Tuple[str, List[str]]


@dataclass
class Context:
    """Paths and expectations shared by the set-up, the iterations and the checks."""

    seed: int
    fixture: Path
    prep: Path
    config: Path
    expected: dict
    cache: dict = field(default_factory=dict)


def _read_jsonl(path: Path) -> List[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _write_config(path: Path, url: str, languages, **extra) -> None:
    doc = {
        "languages": list(languages),
        "backend": {"kind": "http", "url": url, "parallelism": PARALLELISM, "timeout": 30},
        **extra,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _check_taxonomy(path: Path, total: int, errors: List[str]) -> None:
    doc = _read_json(path)
    if doc["translation_failures"]:
        errors.append(f"{path}: {doc['translation_failures']} translation failures")
    pooled = sum(cat["count"] for cat in doc["pooled"].values())
    if pooled != total:
        errors.append(f"{path}: pooled count {pooled} != {total} questions")
    allowed = {t.split()[0] for t in sl.QUESTION_TEMPLATES} | {"Other"}
    unknown = set(doc["pooled"]) - allowed
    if unknown:
        errors.append(f"{path}: question buckets {sorted(unknown)} are not English templates")


class Workload:
    name = ""

    def make_fixture(self, seed: int, out: Path) -> dict:
        raise NotImplementedError

    def prepare(self, ctx: Context, url: str) -> List[Command]:
        raise NotImplementedError

    def commands(self, ctx: Context, it: Path) -> List[Command]:
        raise NotImplementedError

    def check(self, ctx: Context, it: Path, stub: dict) -> List[str]:
        raise NotImplementedError

    def layer_counts(self, ctx: Context, it: Path) -> Dict[str, float]:
        """Per-layer figures read from the artifacts of one iteration."""
        return {}

    def layer_probes(self, ctx: Context, it: Path) -> Dict[str, float]:
        """Per-layer timings taken after a traced iteration, outside the chain."""
        return {}

    def report(self, wall: float, commands: Dict[str, float], layer: Dict[str, float]) -> Dict[str, float]:
        """Throughput and yield figures for the report, from the median timings."""
        raise NotImplementedError


class PeRoundtrip(Workload):
    name = "pe_roundtrip"

    def make_fixture(self, seed, out):
        return fixtures.pe_roundtrip(seed, out, PASSAGES_PER_LANGUAGE)

    def prepare(self, ctx, url):
        _write_config(ctx.config, url, ("en",) + sl.TARGET_LANGUAGES)
        fx, prep, cfg = ctx.fixture, ctx.prep, str(ctx.config)
        cmds = [
            ("ingest", ["ingest", "--input", str(fx / "gold_en.squad.json"), "--name",
                        "gold", "--language", "en", "--out", str(prep / "gold")]),
            ("ingest", ["ingest", "--input", str(fx / "dev_fi.squad.json"), "--name",
                        "dev", "--language", "fi", "--out", str(prep / "dev")]),
        ]
        for lang in sl.TARGET_LANGUAGES:
            cmds.append(("exemplars", ["exemplars", "--config", cfg, "--gold",
                                       str(prep / "gold" / "en.gold.jsonl"), "--language",
                                       lang, "--out", str(prep / "exemplars")]))
        return cmds

    def _sizes(self, ctx) -> List[int]:
        kept = sum(
            sum(cls == sl.KEEP for cls in classes.values())
            for classes in ctx.expected["classes"].values()
        )
        return [kept // 3, 2 * kept // 3, kept]

    def commands(self, ctx, it):
        fx, prep, cfg = ctx.fixture, ctx.prep, str(ctx.config)
        cmds = [
            ("sample", ["sample", "--config", cfg, "--passages", str(fx / f"pool.{lang}.ndjson"),
                        "--language", lang, "--n", str(PASSAGES_PER_LANGUAGE),
                        "--out", str(it / "passages")])
            for lang in sl.TARGET_LANGUAGES
        ]
        cmds += [
            ("synth", ["synth", "--config", cfg, "--method", "pe", "--passages-dir",
                       str(it / "passages"), "--exemplars-dir", str(prep / "exemplars"),
                       "--out", str(it / "pe")]),
            ("filter", ["filter", "--config", cfg, "--run", str(it / "pe"),
                        "--exemplars-dir", str(prep / "exemplars"), "--out", str(it / "filtered")]),
            ("assemble", ["assemble", "--config", cfg, "--gold", str(prep / "gold" / "en.gold.jsonl"),
                          "--runs", str(it / "filtered"),
                          "--sizes", ",".join(map(str, self._sizes(ctx))),
                          "--out", str(it / "assembled")]),
            ("eval", ["eval", "--config", cfg, "--gold", str(prep / "dev" / "fi.gold.jsonl"),
                      "--predictions", str(fx / "predictions.json"), "--out", str(it / "eval")]),
            ("taxonomy", ["taxonomy", "--config", cfg, "--input",
                          str(it / "assembled" / "assembled.jsonl"), "--out", str(it / "taxonomy")]),
        ]
        return cmds

    def check(self, ctx, it, stub):
        errors: List[str] = []
        report = _read_json(it / "filtered" / "report.json")
        for lang, classes in ctx.expected["classes"].items():
            n = len(classes)
            want = {
                "not_substring_of_context": sum(c == sl.NOT_IN_CONTEXT for c in classes.values()),
                "substring_of_question": sum(c == sl.TRIVIAL for c in classes.values()),
                "roundtrip_mismatch": sum(c == sl.MISMATCH for c in classes.values()),
            }
            got = report["reports"][lang]
            if got["input_count"] != n or got["dropped"] != want:
                errors.append(f"{lang}: filter report {got['input_count']} in, "
                              f"dropped {got['dropped']}; expected {n} in, dropped {want}")
            if got["kept_count"] + sum(got["dropped"].values()) != got["input_count"]:
                errors.append(f"{lang}: filter counts do not conserve")
            kept_ids = {r["id"] for r in _read_jsonl(it / "filtered" / lang / "filtered.jsonl")}
            want_ids = {f"pe-{lang}-{pid}" for pid, c in classes.items() if c == sl.KEEP}
            if kept_ids != want_ids:
                errors.append(f"{lang}: {len(kept_ids ^ want_ids)} kept ids differ from the stub rule")
        counts = _read_json(it / "assembled" / "counts.json")
        want_counts = {
            lang: sum(c == sl.KEEP for c in classes.values())
            for lang, classes in ctx.expected["classes"].items()
        }
        if counts["synthetic"] != want_counts or counts["english"] != ctx.expected["english_gold"]:
            errors.append(f"assemble counts {counts} do not match the stub rule")
        for size in self._sizes(ctx):
            name = f"assembled-n{size}.jsonl"
            lines = len(_read_jsonl(it / "assembled" / name))
            if lines != ctx.expected["english_gold"] + size:
                errors.append(f"{name}: {lines} lines")
        em = _read_json(it / "eval" / "eval.json")["per_language"]["fi"]["em"]
        if not math.isclose(em, ctx.expected["dev_em"], abs_tol=1e-9):
            errors.append(f"eval EM {em} != {ctx.expected['dev_em']}")
        _check_taxonomy(it / "taxonomy" / "taxonomy.json",
                        counts["total"], errors)
        return errors

    def layer_counts(self, ctx, it):
        report = _read_json(it / "filtered" / "report.json")["reports"]
        n = sum(r["input_count"] for r in report.values())
        kept = sum(r["kept_count"] for r in report.values())
        extractive = sum(
            r["dropped"].get("not_substring_of_context", 0)
            + r["dropped"].get("substring_of_question", 0)
            for r in report.values()
        )
        return {
            "synthesis.extractive_kept_ratio": (n - extractive) / n,
            "synthesis.roundtrip_kept_ratio": kept / (n - extractive),
        }


    def report(self, wall, commands, layer):
        return {
            "passages_per_s": PASSAGES_PER_LANGUAGE * len(sl.TARGET_LANGUAGES) / wall,
            "kept_ratio": layer["synthesis.extractive_kept_ratio"] * layer["synthesis.roundtrip_kept_ratio"],
        }


class MtShared(Workload):
    name = "mt_shared"

    def make_fixture(self, seed, out):
        return fixtures.mt_shared(seed, out, MT_PARAGRAPHS, MT_QUESTIONS)

    def prepare(self, ctx, url):
        _write_config(ctx.config, url, ("en",) + sl.TARGET_LANGUAGES)
        return [("ingest", ["ingest", "--input", str(ctx.fixture / "gold_en.squad.json"),
                            "--name", "gold", "--language", "en", "--out", str(ctx.prep / "gold")])]

    def commands(self, ctx, it):
        cfg, gold = str(ctx.config), str(ctx.prep / "gold" / "en.gold.jsonl")
        cmds = [
            ("exemplars", ["exemplars", "--config", cfg, "--gold", gold, "--language", lang,
                           "--out", str(it / "exemplars")])
            for lang in sl.TARGET_LANGUAGES
        ]
        cmds.append(("synth", ["synth", "--config", cfg, "--method", "mt", "--gold", gold,
                               "--out", str(it / "mt")]))
        cmds += [
            ("taxonomy", ["taxonomy", "--config", cfg, "--input",
                          str(it / "mt" / lang / "filtered.jsonl"), "--out", str(it / f"taxonomy-{lang}")])
            for lang in sl.TARGET_LANGUAGES
        ]
        return cmds

    def check(self, ctx, it, stub):
        errors: List[str] = []
        gold = ctx.expected["gold"]
        for lang in sl.TARGET_LANGUAGES:
            got = {r["id"]: r for r in _read_jsonl(it / "mt" / lang / "filtered.jsonl")}
            if len(got) != len(gold):
                errors.append(f"{lang}: {len(got)} translated examples, expected {len(gold)}")
            for g in gold:
                r = got.get(f"mt-{lang}-{g['id']}")
                if r is None or any(
                    r[f] != sl.translate(g[f], "en", lang) for f in ("context", "question", "answer")
                ):
                    errors.append(f"{lang}: example {g['id']} is not the stub's translation")
                    break
            exemplars = _read_json(it / "exemplars" / f"{lang}.exemplars.json")["exemplars"]
            contexts = {sl.translate(g["context"], "en", lang) for g in gold}
            for ex in exemplars:
                if (ex["context_l"] not in contexts
                        or ex["question_l"] != sl.translate(ex["question_en"], "en", lang)
                        or ex["answer_l"] != sl.translate(ex["answer_en"], "en", lang)):
                    errors.append(f"{lang}: exemplar is not the stub's translation")
                    break
            _check_taxonomy(it / f"taxonomy-{lang}" / "taxonomy.json", len(gold), errors)
        return errors


    def report(self, wall, commands, layer):
        examples = MT_PARAGRAPHS * MT_QUESTIONS * len(sl.TARGET_LANGUAGES)
        return {"translated_examples_per_s": examples / wall}


class TunePt(Workload):
    name = "tune_pt"

    def make_fixture(self, seed, out):
        return fixtures.tune_pt(seed, out, PT_TRAIN, PT_DEV, PT_PASSAGES)

    def prepare(self, ctx, url):
        _write_config(ctx.config, url, ("en", "fi"), tuner=TUNER)
        fx, prep, cfg = ctx.fixture, ctx.prep, str(ctx.config)
        return [
            ("ingest", ["ingest", "--input", str(fx / "train_fi.squad.json"), "--name", "train",
                        "--language", "fi", "--out", str(prep / "train")]),
            ("ingest", ["ingest", "--input", str(fx / "dev_fi.squad.json"), "--name", "dev",
                        "--language", "fi", "--out", str(prep / "dev")]),
            ("sample", ["sample", "--config", cfg, "--passages", str(fx / "pool.fi.ndjson"),
                        "--language", "fi", "--n", str(PT_PASSAGES), "--out", str(prep / "passages")]),
        ]

    def commands(self, ctx, it):
        cfg, prep = str(ctx.config), ctx.prep
        return [
            ("tune", ["tune", "--config", cfg, "--train", str(prep / "train" / "fi.gold.jsonl"),
                      "--dev", str(prep / "dev" / "fi.gold.jsonl"), "--language", "fi",
                      "--out", str(it / "tuned")]),
            ("synth", ["synth", "--config", cfg, "--method", "pt", "--passages-dir",
                       str(prep / "passages"), "--prompts-dir", str(it / "tuned"),
                       "--out", str(it / "pt")]),
        ]

    def _oracle(self, it: Path, passages: List[dict]) -> Dict[str, object]:
        """The repository's serial decoder, re-run on the saved prompt."""
        from qasynth.tuner import create_toy_lm, encode_context, greedy_decode, load_prompt, split_decoded

        model = create_toy_lm(d=TUNER["d"], h=TUNER["h"], seed=TUNER["model_seed"])
        prompt, _ = load_prompt(it / "tuned" / "fi.prompt.bin")
        out = {}
        for p in passages:
            tokens = greedy_decode(model, prompt, encode_context(p["text"], "fi"), 128)
            out[p["id"]] = (len(tokens), split_decoded(tokens))
        return out

    def check(self, ctx, it, stub):
        errors: List[str] = []
        calls = stub["generate_calls"] + stub["translate_calls"]
        if calls:
            errors.append(f"tune_pt made {calls} backend calls; expected none")
        trace = _read_json(it / "tuned" / "fi.trace.json")
        values = [trace["initial_train_loss"], trace["final_train_loss"]]
        values += [v for r in trace["records"] for v in (r["train_loss"], r["dev_metric"])]
        if not all(math.isfinite(v) for v in values):
            errors.append("tune trace has non-finite values")
        passages = _read_jsonl(ctx.prep / "passages" / "fi.passages.jsonl")
        got = {r["id"]: r for r in _read_jsonl(it / "pt" / "fi" / "raw.jsonl")}
        report = _read_json(it / "pt" / "report.json")["reports"]["fi"]
        if report["input_count"] != len(passages) or len(got) != report["kept_count"]:
            errors.append(f"pt report {report['input_count']} in / {report['kept_count']} kept, "
                          f"{len(got)} records, {len(passages)} passages")
        # Every passage on the first check, a seeded sample on later ones.
        if "decoded_tokens" in ctx.cache:
            oracle = self._oracle(it, random.Random(ctx.seed).sample(passages, ORACLE_SAMPLE))
        else:
            oracle = self._oracle(it, passages)
            ctx.cache["decoded_tokens"] = sum(n for n, _ in oracle.values())
        for pid, (_, pair) in oracle.items():
            record = got.get(f"pt-fi-{pid}")
            want = pair if pair and pair[0] and pair[1] else None
            have = (record["answer"], record["question"]) if record else None
            if have != want:
                errors.append(f"pt pair for {pid} is {have!r}; serial decode gives {want!r}")
        return errors

    def layer_counts(self, ctx, it):
        return {"tuner.decoded_tokens": ctx.cache.get("decoded_tokens", 0)}

    def layer_probes(self, ctx, it):
        """Public `grad` at the tune batch shape, on the tuned prompt."""
        from qasynth.corpus import read_jsonl
        from qasynth.tuner import create_toy_lm, encode_example, grad, load_prompt

        model = create_toy_lm(d=TUNER["d"], h=TUNER["h"], seed=TUNER["model_seed"])
        prompt, _ = load_prompt(it / "tuned" / "fi.prompt.bin")
        train = read_jsonl(ctx.prep / "train" / "fi.gold.jsonl")
        batch = [encode_example(ex) for ex in train.examples[: TUNER["batch_size"]]]
        times = []
        for _ in range(15):
            start = time.monotonic()
            grad(model, prompt, batch)
            times.append(time.monotonic() - start)
        return {"tuner.grad_ms": 1000 * statistics.median(times)}

    def report(self, wall, commands, layer):
        return {
            "tune_steps_per_s": TUNER["max_steps"] / commands["cli.tune_s"],
            "decode_tokens_per_s": layer.get("tuner.decoded_tokens", 0) / commands["cli.synth_s"],
        }


REGISTRY = {w.name: w for w in (PeRoundtrip(), MtShared(), TunePt())}
