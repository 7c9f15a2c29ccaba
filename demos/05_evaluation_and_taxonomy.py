"""Walkthrough: score predictions with EM/F1 per language, render the
summary table, and bucket questions by their English surface form.

Run from the repository root:  python3 demos/05_evaluation_and_taxonomy.py
"""

from qasynth.backends import Backend, BackendError
from qasynth.corpus import Dataset, QAExample
from qasynth.metrics import corpus_bleu, evaluate, render_eval_table
from qasynth.taxonomy import distribution, ring_csv


def gold() -> Dataset:
    rows = [
        ("en", "The play opened in London.", "Where did the play open?", "London"),
        ("en", "It rained for four days.", "How long did it rain?", "four days"),
        ("fi", "Torni valmistui vuonna 1975.", "Milloin torni valmistui?", "1975"),
        ("fi", "Joki virtaa kaupungin halki.", "Mika virtaa kaupungin halki?", "Joki"),
        ("ar", "ولد الشاعر عام 1920.", "متى ولد الشاعر؟", "1920"),
    ]
    examples = tuple(
        QAExample(
            id=f"{lang}-{i}", context=c, question=q, answer=a,
            answer_start=c.index(a), language=lang,
            provenance="gold", source_dataset="demo",
        )
        for i, (lang, c, q, a) in enumerate(rows)
    )
    return Dataset(name="demo-eval", examples=examples)


class PhraseTranslator(Backend):
    """Fixed phrase table standing in for a real translation service."""

    TABLE = {
        "Milloin torni valmistui?": "When was the tower completed?",
        "Mika virtaa kaupungin halki?": "What flows through the city?",
        "متى ولد الشاعر؟": "When was the poet born?",
    }

    def translate(self, request):
        if request.text not in self.TABLE:
            raise BackendError(f"no entry for {request.text!r}")
        return self.TABLE[request.text]


def main():
    dataset = gold()
    predictions = {
        "en-0": "London",
        "en-1": "for four days.",   # period forgiven, extra token costs EM
        "fi-2": "1975",
        "fi-3": "kaupunki",         # wrong: costs fi EM and most of its F1
        "ar-4": "1920",
    }
    report = evaluate(predictions, dataset)
    print(render_eval_table(report))
    print()

    # The macro averages skip English by convention; fi pays for its miss.
    assert report.macro_em_excl_en == 75.0

    hyp = [tuple("the tower was done".split())]
    ref = [tuple("the tower was completed".split())]
    bleu = corpus_bleu(hyp, ref)
    print(f"corpus BLEU {bleu.score:.1f} "
          f"(precisions {[round(p, 2) for p in bleu.precisions]}, "
          f"brevity penalty {bleu.brevity_penalty:.2f})")

    taxonomy = distribution(dataset, PhraseTranslator(), other_threshold=0.0)
    print("\nquestion-type distribution (pooled):")
    for category, stat in sorted(taxonomy.pooled.items()):
        subs = ", ".join(sorted(stat.subcategories))
        print(f"  {category:<8} {stat.count} ({stat.fraction:.0%})  [{subs}]")

    print("\ncategory ring as CSV:")
    print(ring_csv(taxonomy.pooled, "category"))


if __name__ == "__main__":
    main()
