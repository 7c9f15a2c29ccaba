"""Walkthrough: parse SQuAD-format JSON into the internal dataset shape,
report statistics, and sample unlabeled passages for synthesis.

Run from the repository root:  python3 demos/01_ingest_and_sample.py
"""

import dataclasses
import json

from qasynth.corpus import (
    Passage,
    dataset_stats,
    parse_squad_json,
    sample_unlabeled,
)

SQUAD_DOC = {
    "version": "1.1",
    "data": [
        {
            "title": "Bridges",
            "paragraphs": [
                {
                    "context": "The old bridge was completed in 1887 and rebuilt in 1953.",
                    "qas": [
                        {
                            "id": "finnish-demo-1",
                            "question": "When was the old bridge completed?",
                            "answers": [{"text": "1887", "answer_start": 32}],
                        },
                        {
                            "id": "finnish-demo-2",
                            "question": "When was the bridge rebuilt?",
                            "answers": [
                                {"text": "1953", "answer_start": 52},
                                {"text": "in 1953", "answer_start": 49},
                            ],
                        },
                    ],
                }
            ],
        }
    ],
}


def main():
    dataset, report = parse_squad_json(json.dumps(SQUAD_DOC), "demo", "en")
    print(f"parsed {report.parsed}/{report.total_qas} questions")
    for ex in dataset.examples:
        print(f"  {ex.id}: answer {ex.answer!r} at byte {ex.answer_start}")
        if ex.extra_answers:
            print(f"    extra gold answers: {ex.extra_answers}")

    stats = dataset_stats(dataset)
    print("\ndataset statistics:")
    print(json.dumps(dataclasses.asdict(stats), indent=2))

    # A pool with lengths straddling the 200..510 byte sampling window.
    pool = [
        Passage(
            id=f"pool-{i}",
            text=f"Kohde {i} " * (12 + 6 * i),
            language="fi",
            source="demo",
        )
        for i in range(10)
    ]
    picked = sample_unlabeled(pool, n=3, seed=0)
    print("\nsampled passages (window 200..510 bytes):")
    for p in picked:
        print(f"  {p.id}: {len(p.text)} bytes")


if __name__ == "__main__":
    main()
