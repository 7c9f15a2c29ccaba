"""Walkthrough: tune a soft prompt against the frozen byte-level toy model.

Only the m x d prompt matrix trains; the recurrent model itself is checked
against a checksum before and after. The trace shows the loss trajectory,
and greedy decoding shows what the tuned prompt makes the model emit.

Run from the repository root:  python3 demos/03_prompt_tuning.py
"""

from qasynth.cli import TuneConfig
from qasynth.corpus import Dataset, QAExample
from qasynth.tuner import (
    create_toy_lm,
    decode_bytes,
    encode_context,
    greedy_decode,
    model_checksum,
    tune,
)


def byte_corpus(n: int, offset: int = 10) -> Dataset:
    # Contexts vary by a digit pair; targets are a fixed byte pattern, which
    # a 16-dim frozen state can actually learn to emit.
    examples = tuple(
        QAExample(
            id=f"tune-{offset + i}",
            context=f"x{offset + i}a",
            question="aaa",
            answer="aa",
            answer_start=None,
            language="fi",
            provenance="gold",
            source_dataset="demo",
        )
        for i in range(n)
    )
    return Dataset(name=f"bytes-{offset}", examples=examples)


def main():
    model = create_toy_lm(d=8, h=16, seed=0)
    before = model_checksum(model)
    print(f"frozen model checksum: {before[:16]}...")

    train = byte_corpus(32, offset=10)
    dev = byte_corpus(8, offset=50)
    config = TuneConfig(
        m=8,
        learning_rate=0.1,
        warmup_steps=50,
        max_steps=500,
        eval_every=100,
        early_stop_metric="dev_loss",
    )
    trace = tune(model, train, dev, config, seed=7)

    print(f"\ninitial train loss {trace.initial_train_loss:.4f}")
    for record in trace.records:
        print(f"  step {record.step:4d}  train {record.train_loss:.4f}  "
              f"dev {record.dev_metric:.4f}")
    print(f"final train loss   {trace.final_train_loss:.4f}  "
          f"(ratio {trace.final_train_loss / trace.initial_train_loss:.3f})")
    print(f"best step by {trace.metric}: {trace.best_step}")

    assert model_checksum(model) == before, "frozen parameters moved"
    print("\nfrozen model checksum unchanged after tuning")

    context = encode_context("x99a", "fi")
    decoded = greedy_decode(model, trace.best_prompt, context, max_len=8)
    print(f"greedy decode after 'x99a': {decode_bytes(decoded)!r}")


if __name__ == "__main__":
    main()
