"""Seeded input files for the benchmark workloads.

Everything here is a pure function of the workload seed. The program under
test only ever sees the files written here; the returned descriptions are
what the output checks compare against.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import synthlang as sl

MIN_LEN, MAX_LEN = 200, 510  # the `sample` command's default length window


def _sentence(rng: random.Random, lang: str) -> str:
    words = sl.LEXICONS[lang]
    tokens = [rng.choice(words).capitalize()]
    for _ in range(rng.randint(5, 11)):
        r = rng.random()
        if r < 0.12:
            tokens.append(rng.choice(words).capitalize())
        elif r < 0.18:
            tokens.append(str(rng.randint(1500, 2020)))
        else:
            tokens.append(rng.choice(words))
    return " ".join(tokens) + "."


def passage_text(rng: random.Random, lang: str, lo: int, hi: int) -> str:
    """Whole sentences of language `lang`, between lo and hi characters long."""
    while True:
        target = rng.randint(lo, hi)
        text = _sentence(rng, lang)
        while len(text) < target:
            text = f"{text} {_sentence(rng, lang)}"
        if lo <= len(text) <= hi:
            return text


def _write_pool(path: Path, passages: List[Tuple[str, str]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for pid, text in passages:
            fh.write(json.dumps({"id": pid, "text": text}, ensure_ascii=False) + "\n")


def _mixed_pool(
    rng: random.Random, lang: str, eligible: List[str], n_short: int, n_long: int
) -> List[Tuple[str, str]]:
    """Eligible passages plus some outside the length window, shuffled."""
    texts = list(eligible)
    texts += [passage_text(rng, lang, 60, MIN_LEN - 10) for _ in range(n_short)]
    texts += [passage_text(rng, lang, MAX_LEN + 20, 720) for _ in range(n_long)]
    rng.shuffle(texts)
    return [(f"{lang}-{i:04d}", t) for i, t in enumerate(texts)]


def _squad(
    rng: random.Random, lang: str, prefix: str, paragraphs: int, per_paragraph: int
) -> Tuple[dict, List[dict]]:
    """A SQuAD-v1.1 document and its examples as flat records."""
    data = []
    records = []
    for p in range(paragraphs):
        while True:
            context = passage_text(rng, lang, MIN_LEN, MAX_LEN)
            ents = sl.entities(context)
            if len(ents) >= 2:
                break
        qas = []
        for q in range(per_paragraph):
            answer = rng.choice(ents)
            question = sl.translate(rng.choice(sl.QUESTION_TEMPLATES), "en", lang)
            qid = f"{prefix}-{p:03d}-{q}"
            start = context.index(answer)
            qas.append({
                "id": qid,
                "question": question,
                "answers": [{"text": answer, "answer_start": start}],
            })
            records.append({"id": qid, "context": context, "question": question, "answer": answer})
        data.append({"title": f"{prefix}-{p}", "paragraphs": [{"context": context, "qas": qas}]})
    return {"version": "1.1", "data": data}, records


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


def _quota_passages(rng: random.Random, seed: int, lang: str, n: int) -> Dict[str, str]:
    """n passages whose stub classes fill QUOTA_PER_100 exactly; text -> class."""
    quota = {cls: q * n // 100 for cls, q in sl.QUOTA_PER_100.items()}
    quota[sl.KEEP] += n - sum(quota.values())
    out: Dict[str, str] = {}
    while len(out) < n:
        text = passage_text(rng, lang, MIN_LEN, MAX_LEN)
        if text in out or len(sl.entities(text)) < 2:
            continue
        cls = sl.passage_class(seed, text)
        if quota[cls] and sl.realized_class(seed, text) == cls:
            quota[cls] -= 1
            out[text] = cls
    return out


def pe_roundtrip(seed: int, out: Path, passages_per_language: int) -> dict:
    rng = random.Random(f"pe-{seed}")
    expected = {}
    for lang in sl.TARGET_LANGUAGES:
        classes = _quota_passages(rng, seed, lang, passages_per_language)
        pool = _mixed_pool(rng, lang, list(classes), 15, 10)
        _write_pool(out / f"pool.{lang}.ndjson", pool)
        expected[lang] = {pid: classes[text] for pid, text in pool if text in classes}
    gold_doc, gold = _squad(rng, "en", f"en{seed}", 10, 3)
    _write_json(out / "gold_en.squad.json", gold_doc)
    dev_doc, dev = _squad(rng, "fi", f"fidev{seed}", 10, 5)
    _write_json(out / "dev_fi.squad.json", dev_doc)
    # A fixed share of exact answers; the rest share no token with the gold.
    right = set(rng.sample([r["id"] for r in dev], int(0.7 * len(dev))))
    predictions = {r["id"]: (r["answer"] if r["id"] in right else "qqq zzz") for r in dev}
    _write_json(out / "predictions.json", predictions)
    return {
        "classes": expected,
        "english_gold": len(gold),
        "dev_em": 100.0 * len(right) / len(dev),
    }


def mt_shared(seed: int, out: Path, paragraphs: int, per_paragraph: int) -> dict:
    rng = random.Random(f"mt-{seed}")
    doc, gold = _squad(rng, "en", f"en{seed}", paragraphs, per_paragraph)
    _write_json(out / "gold_en.squad.json", doc)
    return {"gold": gold}


def tune_pt(seed: int, out: Path, train: int, dev: int, passages: int) -> dict:
    rng = random.Random(f"pt-{seed}")
    train_doc, _ = _squad(rng, "fi", f"fitrain{seed}", train // 4, 4)
    _write_json(out / "train_fi.squad.json", train_doc)
    dev_doc, _ = _squad(rng, "fi", f"fidev{seed}", dev // 4, 4)
    _write_json(out / "dev_fi.squad.json", dev_doc)
    eligible = []
    while len(eligible) < passages:
        text = passage_text(rng, "fi", MIN_LEN, MAX_LEN)
        if text not in eligible:
            eligible.append(text)
    pool = _mixed_pool(rng, "fi", eligible, 20, 20)
    _write_pool(out / "pool.fi.ndjson", pool)
    return {"passages": passages}
