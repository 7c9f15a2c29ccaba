"""Walkthrough: the three synthesis methods and the filter stack, end to end
on mock backends, finishing with an assembled multilingual training set.

The mock generator is seeded and noisy on purpose: corrupted answers fail
the in-context check and clean questions embed their answer span, so the
filter report shows every drop reason doing real work.

Run from the repository root:  python3 demos/04_synthesis_pipeline.py
"""

import json

from qasynth.backends import MockQABackend, TaggingTranslator
from qasynth.corpus import Dataset, Passage, QAExample
from qasynth.promptkit import build_exemplars_en_only
from qasynth.synthesis import (
    assemble,
    filter_extractive,
    filter_roundtrip,
    filter_run,
    merge_reports,
    size_sweep,
    synth_mt,
    synth_pe,
    synth_pt,
)


def english_gold(n: int) -> Dataset:
    examples = tuple(
        QAExample(
            id=f"en-{i}",
            context=f"Event {i} happened in {1900 + i}.",
            question=f"When did event {i} happen?",
            answer=str(1900 + i),
            answer_start=len(f"Event {i} happened in "),
            language="en",
            provenance="gold",
            source_dataset="demo",
        )
        for i in range(n)
    )
    return Dataset(name="gold-en", examples=examples)


def finnish_passages(n: int) -> list:
    return [
        Passage(
            id=f"fi-{i}",
            text=f"Rakennus {1000 + i} valmistui vuonna {1900 + i} keskustaan.",
            language="fi",
            source="demo",
        )
        for i in range(n)
    ]


def show_report(label: str, report) -> None:
    print(f"  {label}: {report.input_count} in, {report.kept_count} kept, "
          f"dropped {json.dumps(report.dropped)}")


def main():
    gold = english_gold(6)
    translator = TaggingTranslator()

    # Method 1: translate the gold data field by field. No filtering; the
    # answer offset is unknown after translation and stays unset.
    mt_run = synth_mt(gold, translator, ["fi", "ar"])
    print("translation-based synthesis:")
    for lang in mt_run.languages:
        print(f"  {lang}: {len(mt_run.raw[lang])} examples, "
              f"first answer {mt_run.raw[lang].examples[0].answer!r}")

    # Method 2: two-stage prompting over unlabeled passages.
    backend = MockQABackend(noise_rate=0.4, seed=5)
    exemplars = {"fi": build_exemplars_en_only(gold, translator, "fi")}
    pe_run = synth_pe(exemplars, {"fi": finnish_passages(30)}, backend)
    raw = pe_run.raw["fi"]
    print(f"\nprompt-based synthesis: {len(raw)} raw pairs")

    extracted, e_report = filter_extractive(raw)
    show_report("extractive filter", e_report)
    final, r_report = filter_roundtrip(extracted, backend, exemplars["fi"])
    show_report("round-trip filter", r_report)
    merged = merge_reports(e_report, r_report)
    show_report("combined", merged)

    # Method 3: decode from a language-prefixed prompt. The remote path asks
    # a backend that advertises a tuned prompt; the mock honors the wire
    # convention (answer, newline, question).
    pt_run = synth_pt(
        {"fi": finnish_passages(4)}, backend=backend, scenario="english_only"
    )
    pt_filtered = filter_run(pt_run)
    print(f"\ntuned-prompt synthesis: {len(pt_run.raw['fi'])} raw, "
          f"{len(pt_filtered.filtered['fi'])} after extractive filtering")
    show_report("filter_run", pt_filtered.reports["fi"])

    combined = assemble(gold, {"fi": final}, name="demo-train")
    print(f"\nassembled training set: {len(combined)} examples "
          f"({sum(1 for e in combined.examples if e.language == 'en')} English)")
    print("  first ids:", [ex.id for ex in combined.examples[:3]])

    n_synth = sum(1 for e in combined.examples if e.language != "en")
    sizes = [max(1, n_synth // 2), n_synth]
    for subset in size_sweep(combined, sizes, seed=0):
        print(f"  sweep subset {subset.name}: {len(subset)} examples")


if __name__ == "__main__":
    main()
