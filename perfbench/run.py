"""qasynth benchmark: CLI workloads against a local latency stub.

    python3 perfbench/run.py --workload pe_roundtrip --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout of the repository; the package is imported from src/.
One run sets up the workload (several times, to time set-up), runs one
untimed warm-up iteration, then repeats the workload's CLI chain for
--seconds and checks every iteration's outputs, the warm-up's too. With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
ones; the last line of standard output is the result as one JSON object. A
fuller record of the run is written to perfbench/_results/. See
perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import Tracer, self_times
from stub import LATENCY_MS
from workloads import REGISTRY, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pinned before numpy is first imported. Tuner outputs depend on the BLAS
# thread count, and extra threads make CPU-bound timings noisy.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_ROUNDS = 5
LAYERS = ("corpus", "backends", "promptkit", "synthesis", "tuner", "metrics", "taxonomy", "cli")
# Stages that send backend requests, for the overlap figures.
BACKEND_STAGES = (
    "synthesis.synth_pe",
    "synthesis.filter_roundtrip",
    "synthesis.synth_mt",
    "promptkit.build_exemplars_en_only",
    "taxonomy.distribution",
)


def unit_of(name: str) -> str:
    """Unit of a report-only figure, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("kchars_sent", "kchar")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("ratio", "share", "overlap", "outputs_ok")):
        return "ratio"
    return "count"


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer"))


class Stub:
    """The latency stub, in its own process."""

    def __init__(self, seed: int, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=cwd, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("latency stub did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def _request(self, path: str, data: Optional[bytes] = None) -> dict:
        req = urllib.request.Request(self.url + path, data=data, method="POST" if data else "GET")
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._request("/reset", b"{}")

    def stats(self) -> dict:
        return self._request("/stats")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class CliRunner:
    """Runs `qasynth` commands in this process and times each one."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.seconds: Dict[str, float] = defaultdict(float)
        self.commands = 0
        self.failures: List[str] = []

    def run(self, label: str, argv: List[str]) -> bool:
        out = io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.cli.main(argv)
        self.seconds[label] += time.monotonic() - start
        self.commands += 1
        if code != 0:
            self.failures.append(f"qasynth {' '.join(argv[:1])} exited {code}: {out.getvalue().strip()[-500:]}")
        return code == 0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qasynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "latency_ms": LATENCY_MS,
    }


def set_up(workload, seed: int, base: Path, runner: CliRunner):
    """One set-up: a fresh interpreter's import, the fixture, the stub, the prep commands."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import qasynth.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    base.mkdir(parents=True)
    ctx = Context(seed=seed, fixture=base / "fixture", prep=base / "prep",
                  config=base / "config.json", expected={})
    ctx.fixture.mkdir()
    ctx.prep.mkdir()
    ctx.expected = workload.make_fixture(seed, ctx.fixture)
    stub = Stub(seed, base)
    try:
        for label, argv in workload.prepare(ctx, stub.url):
            if not runner.run(label, argv):
                raise RuntimeError(f"set-up failed: {runner.failures[-1]}")
    except BaseException:
        stub.stop()
        raise
    return time.monotonic() - start, ctx, stub


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_metrics(spans, stub_log, wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced iteration."""
    own = self_times(spans)
    total = defaultdict(float)
    count = Counter()
    layer_self = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        count[s.name] += 1
        layer_self[s.layer] += own[s.id]
    m: Dict[str, float] = {f"{layer}.self_share": layer_self[layer] / wall for layer in LAYERS}
    for stage in BACKEND_STAGES:
        served = busy = 0.0
        for s in spans:
            if s.name == stage:
                busy += s.duration
                served += sum(b - a for _, a, b in stub_log if a >= s.start and b <= s.end)
        m[f"{stage}.overlap"] = served / busy if busy else 0.0
    renders = [n for n in count if n.startswith("promptkit.render_")]
    m["promptkit.renders"] = sum(count[n] for n in renders)
    m["promptkit.render_s"] = sum(total[n] for n in renders)
    m["promptkit.build_exemplars_s"] = (
        total["promptkit.build_exemplars_en_only"] + total["promptkit.build_exemplars_fewshot"])
    for name in ("synth_pe", "synth_mt", "synth_pt", "filter_extractive", "filter_roundtrip",
                 "assemble", "size_sweep", "save_run"):
        m[f"synthesis.{name}_s"] = total[f"synthesis.{name}"]
    m["corpus.read_jsonl_s"] = total["corpus.read_jsonl"]
    m["corpus.write_jsonl_s"] = total["corpus.write_jsonl"]
    m["metrics.corpus_bleu_s"] = total["metrics.corpus_bleu"]
    m["metrics.evaluate_s"] = total["metrics.evaluate"]
    m["taxonomy.distribution_s"] = total["taxonomy.distribution"]
    m["tuner.tune_s"] = total["tuner.tune"]
    m["tuner.decode_calls"] = count["tuner.greedy_decode"]
    m["tuner.decode_ms_per_call"] = (
        1000 * total["tuner.greedy_decode"] / count["tuner.greedy_decode"]
        if count["tuner.greedy_decode"] else 0.0)
    dev_eval = 0.0
    for t in (s for s in spans if s.name == "tuner.tune"):
        dev_eval += sum(s.duration for s in spans
                        if s.name in ("tuner.greedy_decode", "metrics.corpus_bleu")
                        and s.start >= t.start and s.end <= t.end)
    m["tuner.dev_eval_share"] = dev_eval / m["tuner.tune_s"] if m["tuner.tune_s"] else 0.0
    # A client attempt beyond the first for one request. The stub never
    # fails, so this stays 0 unless the client starts to fail in transport.
    m["backends.retries"] = count["backends.Session.post"] - sum(
        count[n] for n in count if n.startswith("backends.HttpBackend."))
    m["trace.spans"] = len(spans)
    return m


def self_time_table(spans) -> Dict[str, float]:
    own = self_times(spans)
    table = defaultdict(float)
    for s in spans:
        table[s.name] += own[s.id]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def stub_metrics(stats: dict) -> Dict[str, float]:
    calls = stats["generate_calls"] + stats["translate_calls"]
    return {
        "backends.calls": calls,
        "backends.generate_calls": stats["generate_calls"],
        "backends.translate_calls": stats["translate_calls"],
        "backends.distinct_ratio": stats["distinct"] / calls if calls else 0.0,
        "backends.peak_inflight": stats["peak_inflight"],
        "backends.kchars_sent": stats["chars_sent"] / 1000,
    }


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import qasynth
    import qasynth.cli

    runner = CliRunner(qasynth.cli)
    setup_times = []
    stub = None
    for r in range(SETUP_ROUNDS):
        if stub is not None:
            stub.stop()
            shutil.rmtree(ctx.prep.parent)
        elapsed, ctx, stub = set_up(workload, seed, work / f"setup{r}", runner)
        setup_times.append(elapsed)
    setup_commands, setup_failures = runner.commands, len(runner.failures)
    tracer = Tracer(qasynth, LAYERS)
    iterations = []
    errors: List[str] = []
    traced_spans = []
    deadline = None
    try:
        n = 0
        while True:
            started = time.monotonic()
            # Iteration 0 is the untimed warm-up. After it, two traced
            # iterations for each untraced one: spans need the samples.
            warmup = n == 0
            traced = trace and not warmup and n % 3 != 1
            it = work / f"it{n}"
            stub.reset()
            runner.seconds.clear()
            failed_before = len(runner.failures)
            tracer.run = n
            with tracer.installed() if traced else contextlib.nullcontext():
                c0, t0 = time.process_time(), time.monotonic()
                for label, argv in workload.commands(ctx, it):
                    if not runner.run(label, argv):
                        break
                wall, cpu = time.monotonic() - t0, time.process_time() - c0
            stats = stub.stats()
            ok = len(runner.failures) == failed_before
            errors += runner.failures[failed_before:]
            if ok:
                errors += [f"iteration {n}: {e}" for e in workload.check(ctx, it, stats)]
            record = {
                "warmup": warmup, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                "commands": {f"cli.{k}_s": v for k, v in runner.seconds.items()},
                "stub": {k: v for k, v in stats.items() if k != "log"},
            }
            if ok:
                record["layer"] = workload.layer_counts(ctx, it)
            if traced:
                spans = [s for s in tracer.spans if s.run == n]
                traced_spans.append(spans)
                record["spans"] = span_metrics(spans, stats["log"], wall)
                if ok:
                    record["spans"].update(workload.layer_probes(ctx, it))
            iterations.append(record)
            if errors:
                break
            shutil.rmtree(it)
            n += 1
            now = time.monotonic()
            if deadline is None:
                deadline = now + seconds
            # Stop where the next iteration would end more past the deadline
            # than short of it, so the timed span is --seconds on average.
            # A traced run needs one untraced and one traced iteration.
            elif now + (now - started) / 2 >= deadline and (not trace or n >= 3):
                break
    finally:
        stub.stop()
    return {
        "setup_times": setup_times,
        "iterations": iterations,
        "errors": errors,
        "commands_run": runner.commands - setup_commands,
        "cli_failures": len(runner.failures) - setup_failures,
        "traced_spans": traced_spans,
    }


def summarize(workload, raw: dict, trace: bool) -> dict:
    measured = [it for it in raw["iterations"] if not it["warmup"]]
    plain = [it for it in measured if not it["traced"]]
    traced = [it for it in measured if it["traced"]]
    med = statistics.median
    attempted = raw["commands_run"] + sum(
        it["stub"]["generate_calls"] + it["stub"]["translate_calls"] for it in raw["iterations"])
    failed = raw["cli_failures"] + sum(it["stub"]["errors"] for it in raw["iterations"])
    correct = not raw["errors"] and bool(plain)
    out = {"correct": correct, "attempted": max(1, attempted), "failed": failed}
    # The host's speed drifts over seconds, so the mean over every iteration
    # of the run varies less from run to run than any single iteration does.
    e2e = {
        "setup_s": med(raw["setup_times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if plain:
        e2e["wall_s"] = statistics.mean(it["wall_s"] for it in plain)
        e2e["cpu_s"] = statistics.mean(it["cpu_s"] for it in plain)
    report: Dict[str, float] = {
        "outputs_ok": int(correct),
        "failed_ratio": failed / out["attempted"],
    }
    if correct:
        walls = [it["wall_s"] for it in plain]
        report["iterations"] = len(walls)
        report["min_wall_s"] = min(walls)
        report["max_wall_s"] = max(walls)
        stub = stub_metrics(plain[-1]["stub"])
        report["backend_calls"] = stub["backends.calls"]
        report["backend_kchars_sent"] = stub["backends.kchars_sent"]
        for key in sorted({k for it in plain for k in it["commands"]}):
            report[key] = med(it["commands"].get(key, 0.0) for it in plain)
        report.update(workload.report(e2e["wall_s"], report, plain[-1].get("layer", {})))
    per_layer: Dict[str, float] = {}
    if correct and traced:
        keys = sorted({k for it in traced for k in it["spans"]})
        for key in keys:
            per_layer[key] = med(it["spans"].get(key, 0.0) for it in traced)
        per_layer.update(stub_metrics(traced[-1]["stub"]))
        per_layer.update(traced[-1].get("layer", {}))
        per_layer.setdefault("synthesis.extractive_kept_ratio", 0.0)
        per_layer.setdefault("synthesis.roundtrip_kept_ratio", 0.0)
        per_layer["cli.synth_s"] = med(it["commands"].get("cli.synth_s", 0.0) for it in traced)
        per_layer["trace.wall_s"] = statistics.mean(it["wall_s"] for it in traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - e2e["wall_s"]
        latencies = [1000 * s.duration for spans in raw["traced_spans"] for s in spans
                     if s.name.startswith("backends.HttpBackend.")]
        per_layer["backends.client_latency_samples"] = len(latencies)
        per_layer["backends.client_latency_p50_ms"] = percentile(latencies, 0.5) if latencies else 0.0
        per_layer["backends.client_latency_p99_ms"] = percentile(latencies, 0.99) if latencies else 0.0
        all_spans = [s for spans in raw["traced_spans"] for s in spans]
        report["self_time_s_by_span"] = {
            k: v / len(traced) for k, v in self_time_table(all_spans).items()}
    e2e_units, layer_units = declared_metrics()
    values, units = (per_layer, layer_units) if trace else (e2e, e2e_units)
    # A failed run still reports what it has; a passing one must have every metric.
    out["metrics"] = {
        k: {"value": values[k] if correct else values.get(k, 0.0), "unit": u}
        for k, u in units.items()
    }
    out["_detail"] = {"end_to_end": e2e, "per_layer": per_layer, "report": report}
    return out


def print_report(name: str, seed: int, trace: bool, result: dict, env: dict, n_iter: int) -> None:
    print(f"# perfbench {name} seed={seed} trace={int(trace)} timed_iterations={n_iter} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas_threads=1 source={env['source_sha256']} git={env['git_sha']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    detail = result["_detail"]
    extra = dict(detail["report"])
    if trace:
        extra.update(detail["per_layer"])
    for key, value in extra.items():
        if key in result["metrics"]:
            continue
        if isinstance(value, dict):
            print(f"  {key}:")
            for k, v in value.items():
                print(f"    {k:<50} {v:>12.6f} s")
        else:
            print(f"  {key:<40} {value:>14.6g} {unit_of(key)}")


def run_one(args) -> int:
    workload = REGISTRY[args.workload]
    work = HERE / "_work" / f"{workload.name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        raw = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = summarize(workload, raw, bool(args.trace))
    env = environment()
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "errors": raw["errors"],
              "setup_times": raw["setup_times"],
              "iterations": [{k: v for k, v in it.items() if k != "spans"} for it in raw["iterations"]],
              **result}
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str), encoding="utf-8")
    print_report(workload.name, args.seed, bool(args.trace), result, env,
                 len(raw["iterations"]) - 1)
    for e in raw["errors"][:20]:
        print(f"  CHECK FAILED: {e}")
    del result["_detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    code = 0
    combined = {}
    for name in REGISTRY:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            code = 1
        try:
            combined[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined[name] = None
            code = 1
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qasynth benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*REGISTRY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qasynth" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'qasynth'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
