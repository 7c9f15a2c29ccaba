"""Walkthrough: build in-context exemplars for a target language and render
the three prompt layouts (answer stage, question stage, round-trip check).

Exemplars come from English gold data translated field by field; the mock
translator tags its output so every translated string is visibly marked.

Run from the repository root:  python3 demos/02_prompt_rendering.py
"""

from qasynth.backends import TaggingTranslator
from qasynth.corpus import Dataset, Passage, QAExample
from qasynth.promptkit import (
    build_exemplars_en_only,
    build_exemplars_fewshot,
    parse_completion,
    render_answer_prompt,
    render_question_prompt,
    render_roundtrip_prompt,
)


def english_gold() -> Dataset:
    rows = [
        ("The mill closed in 1972 after a fire.", "When did the mill close?", "1972"),
        ("Ada Lovelace described the first program.", "Who described the first program?", "Ada Lovelace"),
    ]
    examples = tuple(
        QAExample(
            id=f"en-{i}", context=c, question=q, answer=a,
            answer_start=c.index(a), language="en",
            provenance="gold", source_dataset="demo",
        )
        for i, (c, q, a) in enumerate(rows)
    )
    return Dataset(name="demo-gold", examples=examples)


def main():
    translator = TaggingTranslator()
    exemplars = build_exemplars_en_only(english_gold(), translator, "fi")
    print(f"built {len(exemplars)} exemplars for {exemplars.language!r} "
          f"({exemplars.scenario})")

    target = Passage(
        id="demo-passage",
        text="Silta valmistui vuonna 1956 ja se ylittaa joen.",
        language="fi",
        source="demo",
    )

    answer_prompt = render_answer_prompt(exemplars, target)
    print("\n--- answer-stage prompt " + "-" * 40)
    print(answer_prompt)

    question_prompt = render_question_prompt(exemplars, target, "1956")
    print("\n--- question-stage prompt " + "-" * 38)
    print(question_prompt)

    roundtrip = render_roundtrip_prompt(
        exemplars, target, "Milloin silta valmistui?"
    )
    print("\n--- round-trip prompt " + "-" * 42)
    print(roundtrip)

    # Completions arrive with a leading space and possible trailing run-on.
    print("\nparse_completion(' 1956') ->", repr(parse_completion(" 1956")))

    # Few-shot scenario: gold data already in the target language, the
    # English side of each exemplar is back-translated.
    fi_gold = Dataset(
        name="fi-gold",
        examples=(
            QAExample(
                id="fi-0",
                context="Torni valmistui vuonna 1975.",
                question="Milloin torni valmistui?",
                answer="1975",
                answer_start=23,
                language="fi",
                provenance="gold",
                source_dataset="demo",
            ),
        ),
    )
    few = build_exemplars_fewshot(fi_gold, translator)
    print(f"\nfew-shot exemplar, English side is translated back: "
          f"{few.exemplars[0].question_en!r}")


if __name__ == "__main__":
    main()
