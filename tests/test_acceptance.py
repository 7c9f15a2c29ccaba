"""Acceptance gate: one test per finishing criterion, each printing a
single [PASS]/[FAIL] line with its runtime. Run with `pytest -s` to see the
lines on success; on failure the line is in the captured output.

Budgets are wall-clock seconds for the checked work, measured single-run.
"""

import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from qasynth.backends import Backend, BackendError, MockQABackend, TaggingTranslator
from qasynth.cli import EXIT_OK, TuneConfig, main
from qasynth.corpus import Dataset, Passage
from qasynth.metrics import corpus_bleu, em, f1, normalize_answer
from qasynth.synthesis import (
    assemble,
    filter_extractive,
    filter_roundtrip,
    size_sweep,
    synth_mt,
    synth_pe,
)
from qasynth.taxonomy import categorize, distribution
from qasynth.tuner import (
    VOCAB_SIZE,
    AdafactorState,
    SoftPrompt,
    create_toy_lm,
    encode_example,
    grad,
    init_prompt,
    loss,
    model_checksum,
    optimizer_step,
    tune,
)

from conftest import make_example
from test_cli import TINY_TUNER, read_manifest, write_config, write_tune_corpus
from test_synthesis import fi_exemplars


def finish(name: str, problems: list, started: float, budget: float = None):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget")
    status = "FAIL" if problems else "PASS"
    detail = "; ".join(problems) if problems else f"{elapsed:.2f}s"
    print(f"[{status}] {name}: {detail}")
    assert not problems, f"{name}: {detail}"


def test_metric_oracle_suite():
    started = time.perf_counter()
    problems = []

    norm_cases = [
        ("The 1457.", "en", "1457"),
        ("", "ar", ""),
        ("la maison", "fr", "la maison"),
        ("An Apple", "en", "apple"),
        ("the the the", "en", ""),
        ("  A  B  ", "fi", "a b"),
        ("Hello, world!", "en", "hello world"),
        ("¿Qué?", "es", "qué"),
        ("a-b", "fi", "ab"),
        ("THE TOWER", "fi", "the tower"),
    ]
    em_cases = [
        ("1457", ["1457"], "ar", 1),
        ("1458", ["1457"], "ar", 0),
        ("the 1457", ["1457"], "en", 1),
        ("Tower.", ["tower"], "fi", 1),
        ("a tower", ["tower"], "fi", 0),
        ("tower", ["castle", "tower"], "en", 1),
    ]
    f1_cases = [
        ("a b", ["b c"], "fi", 0.5),
        ("same words", ["same words"], "fi", 1.0),
        ("xx yy", ["zz ww"], "fi", 0.0),
        ("a b c", ["a b"], "fi", 0.8),
        ("b", ["a b a"], "fi", 0.5),
        ("", [""], "fi", 1.0),
    ]
    total_cases = len(norm_cases) + len(em_cases) + len(f1_cases)
    if total_cases < 20:
        problems.append(f"only {total_cases} oracle cases; need >= 20")
    for text, lang, want in norm_cases:
        got = normalize_answer(text, lang)
        if got != want:
            problems.append(f"normalize({text!r}, {lang}) = {got!r}, want {want!r}")
    for pred, golds, lang, want in em_cases:
        got = em(pred, golds, lang)
        if got != want:
            problems.append(f"em({pred!r}, {golds}) = {got}, want {want}")
    for pred, golds, lang, want in f1_cases:
        got = f1(pred, golds, lang)
        if abs(got - want) > 1e-12:
            problems.append(f"f1({pred!r}, {golds}) = {got}, want {want}")

    corpus = [tuple("abcde"), tuple("fghij")]
    identity = corpus_bleu(corpus, corpus)
    if abs(identity.score - 100.0) > 1e-9:
        problems.append(f"identity BLEU {identity.score} != 100 within 1e-9")

    counted = corpus_bleu([tuple("abcd")], [tuple("abce")])
    if counted.precisions != (0.75, 2.0 / 3.0, 0.5, 0.0):
        problems.append(f"hand-counted precisions {counted.precisions}")
    if counted.score != 0.0:
        problems.append(f"zero 4-gram precision must zero the score, got {counted.score}")

    short = corpus_bleu([("a", "b")], [("a", "b", "a", "b")])
    if abs(short.brevity_penalty - math.exp(-1.0)) > 1e-12:
        problems.append(f"brevity penalty {short.brevity_penalty} != e^-1 within 1e-12")

    finish("metric oracle suite", problems, started, budget=1.0)


def test_filter_invariants():
    started = time.perf_counter()
    problems = []

    passages = [
        Passage(
            id=f"fi-{i}",
            text=(
                f"Rakennus {1000 + i} valmistui vuonna {1900 + i % 90} "
                f"ja sai {3 + i % 9} kerrosta."
            ),
            language="fi",
        )
        for i in range(1000)
    ]
    backend = MockQABackend(noise_rate=0.3, seed=17)
    run = synth_pe({"fi": fi_exemplars()}, {"fi": passages}, backend)
    raw = run.raw["fi"]
    kept, report = filter_extractive(raw)

    for ex in kept.examples:
        if ex.answer not in ex.context:
            problems.append(f"kept {ex.id} has answer outside its context")
            break
        if ex.answer in ex.question:
            problems.append(f"kept {ex.id} has answer inside its question")
            break
    if report.kept_count + sum(report.dropped.values()) != report.input_count:
        problems.append("extractive report does not conserve counts")
    if report.input_count != len(raw):
        problems.append("report input_count != raw size")
    if report.kept_count == 0:
        problems.append("no examples survived; invariants held vacuously")
    if report.dropped.get("not_substring_of_context", 0) == 0:
        problems.append("noise produced no unanchored answers")
    if report.dropped.get("substring_of_question", 0) == 0:
        problems.append("noise produced no trivial questions")

    once, first_pass = filter_roundtrip(kept, backend, fi_exemplars())
    twice, second_pass = filter_roundtrip(once, backend, fi_exemplars())
    if twice.examples != once.examples:
        problems.append("round-trip filtering is not idempotent")
    if second_pass.kept_count != second_pass.input_count:
        problems.append("second round-trip pass dropped examples")
    if first_pass.kept_count + sum(first_pass.dropped.values()) != first_pass.input_count:
        problems.append("round-trip report does not conserve counts")

    finish("filter invariants", problems, started, budget=10.0)


def test_dataset_size_laws():
    started = time.perf_counter()
    problems = []

    def english_gold(n):
        return Dataset(
            name="gold-en",
            examples=tuple(
                make_example(i, f"Fact {100 + i} holds.", f"Which fact {i}?",
                             str(100 + i), language="en")
                for i in range(n)
            ),
        )

    translator = TaggingTranslator()
    run = synth_mt(english_gold(10), translator, ["ar", "bn", "fi"])
    total = sum(len(run.raw[lang]) for lang in run.languages)
    if total != 30:
        problems.append(f"mt over 10 examples x 3 languages gave {total}, want 30")

    joined = assemble(english_gold(10), run.filtered)
    langs = [ex.language for ex in joined.examples]
    if langs != ["en"] * 10 + ["ar"] * 10 + ["bn"] * 10 + ["fi"] * 10:
        problems.append("assemble order is not English then sorted languages")
    if len(joined) != 40:
        problems.append(f"assemble count {len(joined)} != 40")
    if len({ex.id for ex in joined.examples}) != 40:
        problems.append("assemble produced duplicate ids")

    big_run = synth_mt(english_gold(20), translator, ["ar", "bn", "fi"])
    big = assemble(english_gold(20), big_run.filtered)
    subsets = size_sweep(big, [5, 20, 50], seed=0)
    previous_ids = None
    for subset, size in zip(subsets, [5, 20, 50]):
        synth_ids = {ex.id for ex in subset.examples if ex.language != "en"}
        english = sum(1 for ex in subset.examples if ex.language == "en")
        if len(synth_ids) != size:
            problems.append(f"sweep subset has {len(synth_ids)} synthetic, want {size}")
        if english != 20:
            problems.append("sweep subset lost English examples")
        if previous_ids is not None and not previous_ids <= synth_ids:
            problems.append("sweep subsets are not nested")
        previous_ids = synth_ids

    finish("dataset-size laws", problems, started, budget=1.0)


def test_tuner_numerics():
    started = time.perf_counter()
    problems = []

    model = create_toy_lm(d=8, h=16, seed=0)
    batch = [
        encode_example(make_example(i, f"x{10 + i}a", "aaa", "aa"))
        for i in range(4)
    ]
    prompt = init_prompt(8, 8, seed=1)
    analytic = grad(model, prompt, batch)
    rng = np.random.default_rng(5)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        i = int(rng.integers(prompt.P.shape[0]))
        j = int(rng.integers(prompt.P.shape[1]))
        plus = prompt.P.copy()
        plus[i, j] += eps
        minus = prompt.P.copy()
        minus[i, j] -= eps
        fd = (
            loss(model, SoftPrompt(P=plus, m=prompt.m), batch)
            - loss(model, SoftPrompt(P=minus, m=prompt.m), batch)
        ) / (2 * eps)
        rel = abs(fd - analytic[i, j]) / max(abs(analytic[i, j]), 1e-12)
        worst = max(worst, rel)
    if worst >= 1e-4:
        problems.append(f"finite-difference relative error {worst:.2e} >= 1e-4")

    G = np.array([[1.0, 2.0], [2.0, 4.0]])
    config2 = TuneConfig(m=2, learning_rate=0.5, warmup_steps=1, max_steps=1)
    p0 = SoftPrompt(P=np.zeros((2, 2)), m=2)
    _, state = optimizer_step(AdafactorState.zeros(2, 2), p0, G, 1, config2)
    v_hat = np.outer(state.R, state.C) / state.R.mean()
    if np.max(np.abs(v_hat - G * G)) > 1e-10:
        problems.append("rank-1 second-moment reconstruction misses G*G at t=1")

    train = Dataset(
        name="train",
        examples=tuple(make_example(i, f"x{10 + i}a", "aaa", "aa") for i in range(32)),
    )
    dev = Dataset(
        name="dev",
        examples=tuple(
            make_example(100 + i, f"x{50 + i}a", "aaa", "aa") for i in range(8)
        ),
    )
    checksum_before = model_checksum(model)
    trace = tune(
        model,
        train,
        dev,
        TuneConfig(
            m=8,
            learning_rate=0.1,
            warmup_steps=50,
            max_steps=500,
            eval_every=100,
            early_stop_metric="dev_loss",
        ),
        seed=7,
    )
    if model_checksum(model) != checksum_before:
        problems.append("frozen parameters changed during 500 training steps")
    ratio = trace.final_train_loss / trace.initial_train_loss
    if ratio > 0.7:
        problems.append(
            f"train loss ratio {ratio:.3f} > 0.7 "
            f"({trace.initial_train_loss:.3f} -> {trace.final_train_loss:.3f})"
        )

    finish("tuner numerics", problems, started, budget=60.0)


def test_uniform_logit_loss():
    started = time.perf_counter()
    problems = []

    model = create_toy_lm(d=8, h=16, seed=0)
    flat = dataclasses.replace(
        model, W_o=np.zeros_like(model.W_o), b_o=np.zeros_like(model.b_o)
    )
    if VOCAB_SIZE != 259:
        problems.append(f"vocabulary size {VOCAB_SIZE} != 259")
    prompt = init_prompt(4, 8, seed=2)
    batches = [
        [encode_example(make_example(0, "xa", "q", "a"))],
        [encode_example(make_example(i, f"x{10 + i}a", "aaa", "aa")) for i in range(5)],
        [
            encode_example(make_example(7, "pitempi konteksti 42", "kuka?", "42")),
            encode_example(make_example(8, "x", "y?", "z")),
        ],
    ]
    for batch in batches:
        got = loss(flat, prompt, batch)
        if abs(got - math.log(259.0)) > 1e-9:
            problems.append(f"uniform-logit loss {got!r} != ln(259) within 1e-9")

    finish("uniform-logit loss", problems, started, budget=1.0)


class _ScriptedTranslator(Backend):
    def __init__(self, mapping):
        self.mapping = mapping

    def translate(self, request):
        if request.text not in self.mapping:
            raise BackendError(f"no translation for {request.text!r}")
        return self.mapping[request.text]


def test_taxonomy_conservation():
    started = time.perf_counter()
    problems = []

    if categorize("When was Tullintori completed?") != ("When", "When was"):
        problems.append("two-word bucketing misses the (When, When was) case")

    dataset = Dataset(
        name="tax",
        examples=tuple(
            make_example(i, "ctx", q, "a", language=lang)
            for i, (lang, q) in enumerate(
                [
                    ("en", "What is this?"),
                    ("en", "Where did it happen?"),
                    ("fi", "q-fi-1"),
                    ("fi", "q-fi-2"),
                    ("ar", "q-ar-1"),
                ]
            )
        ),
    )
    translator = _ScriptedTranslator(
        {
            "q-fi-1": "When was the bridge completed?",
            "q-fi-2": "What is the river called?",
            "q-ar-1": "Who wrote the poem?",
        }
    )
    report = distribution(dataset, translator, other_threshold=0.0)

    for view in list(report.per_language.values()) + [report.pooled]:
        total_fraction = sum(s.fraction for s in view.values())
        if abs(total_fraction - 1.0) > 1e-9:
            problems.append(f"category fractions sum to {total_fraction}")
        for cat, stat in view.items():
            if sum(c for c, _ in stat.subcategories.values()) != stat.count:
                problems.append(f"subcategory counts of {cat} do not sum up")
            sub_fraction = sum(fr for _, fr in stat.subcategories.values())
            if abs(sub_fraction - 1.0) > 1e-9:
                problems.append(f"subcategory fractions of {cat} sum to {sub_fraction}")

    summed = {}
    for view in report.per_language.values():
        for cat, stat in view.items():
            summed[cat] = summed.get(cat, 0) + stat.count
    pooled_counts = {cat: s.count for cat, s in report.pooled.items()}
    if summed != pooled_counts:
        problems.append(f"pooled {pooled_counts} != per-language sum {summed}")

    finish("taxonomy conservation", problems, started, budget=1.0)


def test_determinism(tmp_path, gold_en):
    started = time.perf_counter()
    problems = []

    from test_cli import synth_prerequisites, write_pool  # noqa: F401

    pre = synth_prerequisites(tmp_path, gold_en)
    synth_outs = []
    for name in ("synth-a", "synth-b"):
        out = tmp_path / name
        code = main(
            ["synth", "--config", pre["config"], "--method", "pe",
             "--passages-dir", pre["shared"], "--exemplars-dir", pre["shared"],
             "--out", str(out)]
        )
        if code != EXIT_OK:
            problems.append(f"cmd_synth exited {code}")
        synth_outs.append(out)
    for rel in ("report.json", "config.json", "fi/raw.jsonl", "fi/filtered.jsonl"):
        if (synth_outs[0] / rel).read_bytes() != (synth_outs[1] / rel).read_bytes():
            problems.append(f"cmd_synth rerun differs in {rel}")

    train, dev = write_tune_corpus(tmp_path)
    config = write_config(tmp_path, {"tuner": TINY_TUNER})
    tune_outs = []
    for name in ("tune-a", "tune-b"):
        out = tmp_path / name
        code = main(
            ["tune", "--config", config, "--train", train, "--dev", dev,
             "--language", "fi", "--out", str(out)]
        )
        if code != EXIT_OK:
            problems.append(f"cmd_tune exited {code}")
        tune_outs.append(out)
    for rel in ("fi.prompt.bin", "fi.trace.json"):
        if (tune_outs[0] / rel).read_bytes() != (tune_outs[1] / rel).read_bytes():
            problems.append(f"cmd_tune rerun differs in {rel}")

    for pair in (synth_outs, tune_outs):
        first, second = (read_manifest(p) for p in pair)
        first.pop("created_at")
        second.pop("created_at")
        if first != second:
            problems.append("manifests differ beyond their timestamp")

    finish("determinism", problems, started)


TYDIQA_ENV = "TYDIQA_GOLDP_TRAIN"
TYDIQA_TRAIN_COUNTS = {
    "arabic": 14805,
    "bengali": 2390,
    "english": 3696,
    "finnish": 6855,
    "indonesian": 5702,
    "kiswahili": 2755,
    "korean": 1625,
    "russian": 6490,
    "telugu": 5563,
}


def test_tydiqa_table_counts(tmp_path):
    path = os.environ.get(TYDIQA_ENV)
    if not path or not Path(path).exists():
        print(f"[SKIP] tydiqa gold-p counts: set {TYDIQA_ENV}=<train json> to run")
        pytest.skip(f"{TYDIQA_ENV} not set")
    started = time.perf_counter()
    problems = []

    out = tmp_path / "stats"
    code = main(["stats", "--input", path, "--format", "squad", "--out", str(out)])
    if code != EXIT_OK:
        problems.append(f"cmd_stats exited {code}")
    else:
        payload = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        got = payload["per_language"]
        if got.get("arabic") != 14805:
            problems.append(f"arabic count {got.get('arabic')} != 14805")
        if payload["total"] != 49881:
            problems.append(f"total {payload['total']} != 49881")
        # the release names Kiswahili "swahili"; compare counts irrespective
        if sorted(got.values()) != sorted(TYDIQA_TRAIN_COUNTS.values()):
            problems.append(f"per-language counts {got} do not match the table")

    finish("tydiqa gold-p counts", problems, started)
