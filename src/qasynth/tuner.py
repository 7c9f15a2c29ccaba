"""Desk-scale soft prompt tuning on a frozen byte-level recurrent LM.

The generating model is a tiny Elman-style recurrence over a 259-token
vocabulary (256 byte values plus BOS/EOS/SEP markers):

    s_t = tanh(W_x x_t + W_s s_{t-1} + b_s),  s_0 = 0
    logits_t = W_o s_t + b_o

All its parameters stay frozen. The only trainable object is a soft prompt,
an m x d matrix whose rows are fed as the first m inputs before any token
embeddings. Training minimizes cross-entropy of the target segment (answer,
SEP, question, EOS) given the language-prefixed context, with teacher
forcing; the loss is the mean negative log-likelihood over all target
positions in the batch. Optimization is a simplified AdaFactor: factored
second moments (row/column means of G*G, rank-1 reconstruction) with linear
learning-rate warmup, no update clipping, no relative step sizes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .corpus import Dataset, QAExample, atomic_open
from .metrics import corpus_bleu


class _DeferredNumpy:
    """Stands in for `np` until first use, then rebinds it to numpy itself.

    Only tuning and toy-model decoding need numpy; every other command
    imports this module (for TuneConfig) and would otherwise pay for numpy's
    import. Module-level code must not touch `np`: annotations are strings
    under `from __future__ import annotations`.
    """

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _DeferredNumpy()

N_BYTES = 256
BOS = 256
EOS = 257
SEP = 258
VOCAB_SIZE = 259

ADAFACTOR_EPS = 1e-30

# Frozen-model initialization scales. The recurrence must neither wash out
# the prompt before the target positions (pure contraction) nor drown the
# readout in noise, so the recurrent matrix is a scaled rotation: orthogonal
# for norm preservation, gain slightly above 1 so tanh admits stable
# nonzero fixed points the prompt can select between.
EMBED_STD = 0.1          # small inputs keep the recurrence near-linear
RECURRENT_GAIN = 1.2     # > 1: state persists instead of decaying to 0
RECURRENT_MIX = 0.15     # rotation speed of the orthogonal factor
OUTPUT_SCALE = 8.0       # readout sharpness; logit swing per unit of state

# Unigram prior over output tokens, used to initialize the output bias to
# log-probabilities. Without it every one of the 259 logits competes at
# equal prior odds, which a 16-dim state cannot overcome. English letter
# frequencies, most common first.
LETTER_FREQUENCY_ORDER = "etaoinshrdlcumwfgypbvkjxqz"
SPACE_PRIOR = 0.17
LETTER_PRIOR_TOP = 0.09
LETTER_PRIOR_DECAY = 0.82
DIGIT_PRIOR = 0.004
PUNCT_PRIOR = 0.002
PUNCT_BYTES = ".,;:!?'\"()-[]"
MARKER_PRIOR = 0.01      # SEP and EOS each occur once per example
PRIOR_FLOOR = 1e-6       # unseen bytes keep nonzero mass


def byte_prior() -> np.ndarray:
    """Unigram distribution over the 259 output tokens (text-like prior)."""
    p = np.full(VOCAB_SIZE, PRIOR_FLOOR)
    p[ord(" ")] = SPACE_PRIOR
    for rank, ch in enumerate(LETTER_FREQUENCY_ORDER):
        p[ord(ch)] = LETTER_PRIOR_TOP * LETTER_PRIOR_DECAY ** rank
    for ch in "0123456789":
        p[ord(ch)] = DIGIT_PRIOR
    for ch in PUNCT_BYTES:
        p[ord(ch)] = PUNCT_PRIOR
    p[SEP] = MARKER_PRIOR
    p[EOS] = MARKER_PRIOR
    return p / p.sum()


class TunerError(ValueError):
    """Raised for invalid tuner configuration or inputs."""


@dataclass(eq=False)
class ToyLM:
    """Frozen byte-level recurrent LM. Arrays are read-only after creation."""

    d: int
    h: int
    E: np.ndarray      # vocab_size x d
    W_x: np.ndarray    # h x d
    W_s: np.ndarray    # h x h
    W_o: np.ndarray    # vocab_size x h
    b_s: np.ndarray    # h
    b_o: np.ndarray    # vocab_size
    seed: int

    vocab_size: int = VOCAB_SIZE

    def __post_init__(self):
        expected = {
            "E": (self.vocab_size, self.d),
            "W_x": (self.h, self.d),
            "W_s": (self.h, self.h),
            "W_o": (self.vocab_size, self.h),
            "b_s": (self.h,),
            "b_o": (self.vocab_size,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise TunerError(f"{name} has shape {arr.shape}; expected {shape}")
            arr.setflags(write=False)


def create_toy_lm(d: int = 8, h: int = 16, seed: int = 0) -> ToyLM:
    """Build a frozen model with seeded weights.

    The recurrent matrix is a gain-scaled orthogonal rotation built through
    a Cayley transform of a random skew-symmetric matrix; the output bias
    starts at the log of a text-like unigram prior. Both choices exist so a
    trained soft prompt can actually steer decoding: see the scale constants
    above for the constraint each one serves.
    """
    rng = np.random.default_rng(seed)
    E = rng.normal(0.0, EMBED_STD, (VOCAB_SIZE, d))
    W_x = rng.normal(0.0, 1.0 / math.sqrt(d), (h, d))
    M = rng.normal(0.0, 1.0 / math.sqrt(h), (h, h))
    A = (M - M.T) / 2.0
    eye = np.eye(h)
    W_s = RECURRENT_GAIN * np.linalg.solve(
        eye + RECURRENT_MIX * A, eye - RECURRENT_MIX * A
    )
    W_o = rng.normal(0.0, OUTPUT_SCALE / math.sqrt(h), (VOCAB_SIZE, h))
    return ToyLM(
        d=d,
        h=h,
        E=E,
        W_x=W_x,
        W_s=W_s,
        W_o=W_o,
        b_s=np.zeros(h),
        b_o=np.log(byte_prior()),
        seed=seed,
    )


def model_checksum(model: ToyLM) -> str:
    """SHA-256 over the raw bytes of every parameter; bit-exact identity."""
    digest = hashlib.sha256()
    for arr in (model.E, model.W_x, model.W_s, model.W_o, model.b_s, model.b_o):
        digest.update(str(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class SoftPrompt:
    """The trainable prompt: m rows of width d, fed before any token."""

    P: np.ndarray
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise TunerError("prompt length m must be >= 1")
        if self.P.ndim != 2 or self.P.shape[0] != self.m:
            raise TunerError(
                f"P has shape {self.P.shape}; expected ({self.m}, d)"
            )
        if not np.isfinite(self.P).all():
            raise TunerError("prompt entries must be finite")

    @property
    def d(self) -> int:
        return int(self.P.shape[1])


@dataclass(frozen=True)
class TuneConfig:
    """Tuner hyperparameters plus the frozen-model geometry to rebuild it.

    This is the run config's `tuner` section; the tuning seed is `tune`'s
    argument, taken from the run config's `seeds.tune`.
    """

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
        for name in ("m", "d", "h", "model_seed", "warmup_steps", "batch_size",
                     "max_steps", "eval_every"):
            value = getattr(self, name)
            minimum = 0 if name == "model_seed" else 1
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise TunerError(f"{name} must be an integer >= {minimum}, got {value!r}")
        lr = self.learning_rate
        if (
            isinstance(lr, bool)
            or not isinstance(lr, (int, float))
            or not math.isfinite(lr)
            or lr <= 0
        ):
            raise TunerError(f"learning_rate must be a finite number > 0, got {lr!r}")
        if self.early_stop_metric not in ("bleu", "dev_loss"):
            raise TunerError(
                f"early_stop_metric must be 'bleu' or 'dev_loss', "
                f"got {self.early_stop_metric!r}"
            )


@dataclass(frozen=True)
class EvalRecord:
    step: int
    train_loss: float
    dev_metric: float


@dataclass(frozen=True)
class TuneTrace:
    records: Tuple[EvalRecord, ...]
    best_step: int
    best_prompt: SoftPrompt
    metric: str
    initial_train_loss: float
    final_train_loss: float


def encode_context(context: str, language: str) -> Tuple[int, ...]:
    """Token ids for the conditioning side: "[l]" bytes, BOS, context bytes."""
    if not context:
        raise TunerError("context must be non-empty")
    if not language:
        raise TunerError("language must be non-empty")
    prefix = f"[{language}]".encode("utf-8")
    return tuple(prefix) + (BOS,) + tuple(context.encode("utf-8"))


def encode_example(example: QAExample) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(input_tokens, target_tokens) for one QA example.

    input = bytes("[l]") + BOS + bytes(context)
    target = bytes(answer) + SEP + bytes(question) + EOS
    """
    inp = encode_context(example.context, example.language)
    tgt = (
        tuple(example.answer.encode("utf-8"))
        + (SEP,)
        + tuple(example.question.encode("utf-8"))
        + (EOS,)
    )
    return inp, tgt


def decode_bytes(tokens: Sequence[int]) -> str:
    """UTF-8 decode of the byte-valued tokens, skipping marker ids."""
    return bytes(t for t in tokens if 0 <= t < N_BYTES).decode(
        "utf-8", errors="replace"
    )


def split_decoded(tokens: Sequence[int]) -> Optional[Tuple[str, str]]:
    """Split a decoded target sequence at the first SEP into (answer, question).

    Returns None when no SEP is present (the generation never produced the
    answer/question boundary).
    """
    toks = list(tokens)
    if SEP not in toks:
        return None
    at = toks.index(SEP)
    return decode_bytes(toks[:at]), decode_bytes(toks[at + 1 :])


def _batch_nll(
    model: ToyLM,
    prompt: SoftPrompt,
    batch: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    need_grad: bool,
) -> Tuple[float, int, Optional[np.ndarray]]:
    """Teacher-forced NLL sum, target-position count, and optionally dP.

    Sequences are padded to the batch maximum; padded positions use zero
    input vectors and are excluded from the loss mask, and because every
    loss position of an example precedes its padded tail, padding cannot
    leak into either the loss or the gradient.
    """
    if not batch:
        raise TunerError("batch must be non-empty")
    m = prompt.m
    B = len(batch)
    body_lens = [len(inp) + len(tgt) - 1 for inp, tgt in batch]
    T = m + max(body_lens)

    # Time-major layout: step t reads and writes the contiguous (B, .) block
    # [t]. Inputs come from the embedding table extended by the prompt rows
    # and one zero row for padding.
    V = model.vocab_size
    table = np.vstack([model.E, prompt.P, np.zeros((1, model.d))])
    ids = np.full((T, B), V + m, dtype=np.intp)
    ids[:m] = V + np.arange(m)[:, None]
    loss_mask = np.zeros((B, T), dtype=bool)
    targets = np.zeros((B, T), dtype=np.int64)
    for b, (inp, tgt) in enumerate(batch):
        ids[m : m + len(inp), b] = inp
        ids[m + len(inp) : m + len(inp) + len(tgt) - 1, b] = tgt[:-1]
        base = m + len(inp) - 1
        loss_mask[b, base : base + len(tgt)] = True
        targets[b, base : base + len(tgt)] = tgt

    # The step loops are bound by per-call dispatch, so every step works in
    # place on preallocated blocks. The operand order of each sum is fixed,
    # s_t = tanh((W_x x_t + W_s s_{t-1}) + b_s), and each product goes through
    # the same BLAS call per (B, .) block as a one-step-at-a-time loop, so the
    # loss and dP do not depend on the loop layout. The input projection is
    # one stacked matmul over the T blocks; b_s is tiled to (B, h) because a
    # same-shape add dispatches faster than a broadcast one.
    X = table[ids] @ model.W_x.T
    S = np.empty((T, B, model.h))
    W_sT = model.W_s.T
    b_s = np.tile(model.b_s, (B, 1))
    prev = np.zeros((B, model.h))
    for x, s in zip(X, S):
        np.dot(prev, W_sT, out=s)
        np.add(x, s, out=s)
        np.add(s, b_s, out=s)
        np.tanh(s, out=s)
        prev = s
    # X is not read again: its buffer becomes dS, or is freed before the loss.
    if need_grad:
        dS = X
        dS.fill(0.0)
    del X

    # Loss positions in example-major order, through a (B, T, h) view. One
    # (n, V) buffer holds the logits, then the shifted logits, then exp().
    flat_states = S.transpose(1, 0, 2)[loss_mask]
    flat_targets = targets[loss_mask]
    n = flat_targets.shape[0]
    rows = np.arange(n)
    logits = flat_states @ model.W_o.T
    logits += model.b_o
    picked = logits[rows, flat_targets]
    top = logits.max(axis=1)
    logits -= top[:, None]
    probs = np.exp(logits, out=logits)
    sums = probs.sum(axis=1)
    nll_sum = float((np.log(sums) + top - picked).sum())

    if not need_grad:
        return nll_sum, n, None

    probs /= sums[:, None]
    dlogits = probs
    dlogits[rows, flat_targets] -= 1.0
    dlogits /= n
    dS.transpose(1, 0, 2)[loss_mask] = dlogits @ model.W_o

    # S is not read again, so it becomes the tanh derivative in place; each
    # dS[t] becomes dz_t in place, and the prompt rows' dz_t give dP.
    S *= S
    np.subtract(1.0, S, out=S)
    W_s = model.W_s
    carry = np.zeros((B, model.h))
    for dz, s in zip(dS[::-1], S[::-1]):
        dz += carry
        dz *= s
        np.dot(dz, W_s, out=carry)
    dP = (dS[:m] @ model.W_x).sum(axis=1)
    return nll_sum, n, dP


def loss(
    model: ToyLM,
    prompt: SoftPrompt,
    batch: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
) -> float:
    """Mean NLL over all target positions in the batch."""
    nll_sum, n, _ = _batch_nll(model, prompt, batch, need_grad=False)
    return nll_sum / n


def grad(
    model: ToyLM,
    prompt: SoftPrompt,
    batch: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
) -> np.ndarray:
    """Exact gradient of loss() with respect to the prompt matrix."""
    _, _, dP = _batch_nll(model, prompt, batch, need_grad=True)
    return dP


@dataclass
class AdafactorState:
    """Factored second-moment accumulators: R over rows, C over columns."""

    R: np.ndarray
    C: np.ndarray

    @classmethod
    def zeros(cls, m: int, d: int) -> "AdafactorState":
        return cls(R=np.zeros(m), C=np.zeros(d))


def warmup_lr(learning_rate: float, t: int, warmup_steps: int) -> float:
    """Linear warmup to learning_rate over warmup_steps, then constant."""
    return learning_rate * min(1.0, t / warmup_steps)


def optimizer_step(
    state: AdafactorState,
    prompt: SoftPrompt,
    G: np.ndarray,
    t: int,
    config: TuneConfig,
) -> Tuple[SoftPrompt, AdafactorState]:
    """One simplified-AdaFactor update at step index t (1-based).

    decay = 1 - t**-0.8; the second moment is reconstructed rank-1 from the
    running row and column means of G*G, normalized by mean(R).
    """
    if t < 1:
        raise TunerError("step index t must be >= 1")
    if G.shape != prompt.P.shape:
        raise TunerError(f"gradient shape {G.shape} != prompt shape {prompt.P.shape}")
    beta = 1.0 - t ** -0.8
    gsq = G * G
    R = beta * state.R + (1.0 - beta) * gsq.mean(axis=1)
    C = beta * state.C + (1.0 - beta) * gsq.mean(axis=0)
    new_state = AdafactorState(R=R, C=C)
    mean_r = R.mean()
    if mean_r == 0.0:
        # All accumulated gradient mass is zero, which forces G == 0 here;
        # the update would be 0/sqrt(eps) anyway, so skip the division.
        return prompt, new_state
    v_hat = np.outer(R, C) / mean_r
    lr_t = warmup_lr(config.learning_rate, t, config.warmup_steps)
    new_p = prompt.P - lr_t * G / np.sqrt(v_hat + ADAFACTOR_EPS)
    return SoftPrompt(P=new_p, m=prompt.m), new_state


def init_prompt(m: int, d: int, seed: Union[int, np.random.Generator]) -> SoftPrompt:
    """Seeded uniform(-0.5, 0.5) initialization; a Generator is drawn from as is."""
    rng = np.random.default_rng(seed)
    return SoftPrompt(P=rng.uniform(-0.5, 0.5, (m, d)), m=m)


def greedy_decode(
    model: ToyLM,
    prompt: SoftPrompt,
    context_tokens: Sequence[int],
    max_len: int,
) -> Tuple[int, ...]:
    """Greedy continuation after prompt rows + context embeddings.

    Emits argmax tokens (np.argmax: ties resolve to the lowest id) until EOS
    or max_len tokens; EOS itself is not part of the output.
    """
    if max_len < 0:
        raise TunerError("max_len must be >= 0")
    s = np.zeros(model.h)
    for row in prompt.P:
        s = np.tanh(model.W_x @ row + model.W_s @ s + model.b_s)
    for tok in context_tokens:
        s = np.tanh(model.W_x @ model.E[tok] + model.W_s @ s + model.b_s)
    out: List[int] = []
    for _ in range(max_len):
        logits = model.W_o @ s + model.b_o
        nxt = int(np.argmax(logits))
        if nxt == EOS:
            break
        out.append(nxt)
        s = np.tanh(model.W_x @ model.E[nxt] + model.W_s @ s + model.b_s)
    return tuple(out)


def _matvec_rows(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i is W @ X[i].

    np.matmul computes a stack of matrix-vector products with the BLAS
    routine that the 1-d W @ x in greedy_decode uses, so each row is
    bit-identical to the serial product. One X @ W.T matrix product rounds
    differently.
    """
    return np.matmul(W, X[:, :, None])[:, :, 0]


def greedy_decode_batch(
    model: ToyLM,
    prompt: SoftPrompt,
    contexts: Sequence[Sequence[int]],
    max_len: int,
) -> List[Tuple[int, ...]]:
    """greedy_decode for every context, in one batched recurrence.

    Contexts are right-aligned, so every row feeds its last context token on
    the same step; a row's state stays exactly 0 until its prompt rows
    start, and a row stops updating once it emits EOS. Each row's step is
    greedy_decode's W_x x + W_s s + b_s, then np.argmax, with the same
    matrix-vector products (see _matvec_rows), so the result equals
    [greedy_decode(model, prompt, c, max_len) for c in contexts].
    """
    if max_len < 0:
        raise TunerError("max_len must be >= 0")
    if not contexts:
        return []
    m = prompt.m
    B = len(contexts)
    # Longest context first, so the rows that have started form a prefix.
    order = sorted(range(B), key=lambda b: -len(contexts[b]))
    L = len(contexts[order[0]])
    # W_x x for every token, then for every prompt row, as greedy_decode
    # computes it.
    inputs = _matvec_rows(model.W_x, np.vstack([model.E, prompt.P]))
    ids = np.empty((m + L, B), dtype=np.intp)
    starts = np.empty(B, dtype=np.intp)
    for row, b in enumerate(order):
        context = np.asarray(contexts[b], dtype=np.intp)
        if context.size and not (
            0 <= context.min() and context.max() < model.vocab_size
        ):
            raise TunerError(f"context {b} has a token id outside the vocabulary")
        start = L - len(context)
        starts[row] = start
        ids[start : start + m, row] = model.vocab_size + np.arange(m)
        ids[start + m :, row] = context
    S = np.zeros((B, model.h))
    for t in range(m + L):
        k = int(np.searchsorted(starts, t, side="right"))
        S[:k] = np.tanh(
            inputs[ids[t, :k]] + _matvec_rows(model.W_s, S[:k]) + model.b_s
        )

    tokens = np.empty((max_len, B), dtype=np.intp)
    lengths = np.zeros(B, dtype=np.intp)
    live = np.arange(B)
    for step in range(max_len):
        logits = _matvec_rows(model.W_o, S[live]) + model.b_o
        nxt = np.argmax(logits, axis=1)
        going = nxt != EOS
        live, nxt = live[going], nxt[going]
        if not live.size:
            break
        tokens[step, live] = nxt
        lengths[live] += 1
        S[live] = np.tanh(
            inputs[nxt] + _matvec_rows(model.W_s, S[live]) + model.b_s
        )
    out: List[Tuple[int, ...]] = [()] * B
    for row, b in enumerate(order):
        out[b] = tuple(tokens[: lengths[row], row].tolist())
    return out


def _dataset_language(dataset: Dataset, role: str) -> str:
    languages = {ex.language for ex in dataset.examples}
    if len(languages) != 1:
        raise TunerError(
            f"{role} dataset must be monolingual; found {sorted(languages)}"
        )
    return next(iter(languages))


def _full_loss(
    model: ToyLM,
    prompt: SoftPrompt,
    encoded: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    chunk: int = 64,
) -> float:
    total = 0.0
    count = 0
    for i in range(0, len(encoded), chunk):
        nll, n, _ = _batch_nll(model, prompt, encoded[i : i + chunk], need_grad=False)
        total += nll
        count += n
    return total / count


def _dev_bleu(
    model: ToyLM,
    prompt: SoftPrompt,
    dev: Dataset,
    dev_encoded: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
) -> float:
    """Corpus BLEU of greedily decoded question bytes against dev questions."""
    max_len = max(len(tgt) for _, tgt in dev_encoded) + 8
    decodes = greedy_decode_batch(
        model, prompt, [inp for inp, _ in dev_encoded], max_len
    )
    hypotheses = []
    references = []
    for ex, decoded in zip(dev.examples, decodes):
        if SEP in decoded:
            question_tokens = list(decoded[decoded.index(SEP) + 1 :])
        else:
            question_tokens = []
        hypotheses.append([t for t in question_tokens if t < N_BYTES])
        references.append(list(ex.question.encode("utf-8")))
    return corpus_bleu(hypotheses, references).score


def tune(
    model: ToyLM,
    train: Dataset,
    dev: Dataset,
    config: TuneConfig,
    seed: int = 0,
) -> TuneTrace:
    """Tune one soft prompt on a monolingual corpus with early-stop tracking.

    The prompt starts from a uniform(-0.5, 0.5) draw and minibatches follow
    a per-epoch shuffle, both from one generator seeded with seed; the dev
    metric is computed every eval_every steps and at the final step; the
    returned best prompt is the one from the eval with the best dev metric
    (highest bleu / lowest dev_loss, earliest step on ties). Recorded
    train_loss values are means of the batch losses since the previous eval.
    The model must be the one config describes: same d, h and model_seed.
    """
    if (model.d, model.h, model.seed) != (config.d, config.h, config.model_seed):
        raise TunerError(
            f"model d={model.d}, h={model.h}, seed={model.seed} differs from "
            f"config d={config.d}, h={config.h}, model_seed={config.model_seed}"
        )
    if not train.examples:
        raise TunerError("train dataset must be non-empty")
    if not dev.examples:
        raise TunerError("dev dataset must be non-empty")
    train_lang = _dataset_language(train, "train")
    dev_lang = _dataset_language(dev, "dev")
    if train_lang != dev_lang:
        raise TunerError(
            f"train language {train_lang!r} != dev language {dev_lang!r}"
        )

    train_encoded = [encode_example(ex) for ex in train.examples]
    dev_encoded = [encode_example(ex) for ex in dev.examples]

    rng = np.random.default_rng(seed)
    prompt = init_prompt(config.m, model.d, rng)
    state = AdafactorState.zeros(config.m, model.d)
    initial_train_loss = _full_loss(model, prompt, train_encoded)

    def dev_metric(p: SoftPrompt) -> float:
        if config.early_stop_metric == "bleu":
            return _dev_bleu(model, p, dev, dev_encoded)
        return _full_loss(model, p, dev_encoded)

    records: List[EvalRecord] = []
    best_idx = -1
    best_prompt = prompt
    window: List[float] = []
    order: List[int] = []

    for t in range(1, config.max_steps + 1):
        while len(order) < config.batch_size:
            perm = rng.permutation(len(train_encoded))
            order.extend(int(i) for i in perm)
        batch_idx, order = order[: config.batch_size], order[config.batch_size :]
        batch = [train_encoded[i] for i in batch_idx]
        nll, n, dP = _batch_nll(model, prompt, batch, need_grad=True)
        window.append(nll / n)
        prompt, state = optimizer_step(state, prompt, dP, t, config)

        if t % config.eval_every == 0 or t == config.max_steps:
            metric_value = dev_metric(prompt)
            records.append(
                EvalRecord(
                    step=t,
                    train_loss=sum(window) / len(window),
                    dev_metric=metric_value,
                )
            )
            window = []
            better = (
                best_idx == -1
                or (
                    config.early_stop_metric == "bleu"
                    and metric_value > records[best_idx].dev_metric
                )
                or (
                    config.early_stop_metric == "dev_loss"
                    and metric_value < records[best_idx].dev_metric
                )
            )
            if better:
                best_idx = len(records) - 1
                best_prompt = SoftPrompt(P=prompt.P.copy(), m=prompt.m)

    final_train_loss = _full_loss(model, prompt, train_encoded)
    return TuneTrace(
        records=tuple(records),
        best_step=records[best_idx].step,
        best_prompt=best_prompt,
        metric=config.early_stop_metric,
        initial_train_loss=initial_train_loss,
        final_train_loss=final_train_loss,
    )


def save_prompt(
    prompt: SoftPrompt,
    path: Union[str, Path],
    seed: int,
    config_hash: str,
) -> None:
    """Write a one-line JSON header then the row-major float64 payload."""
    header = json.dumps(
        {"m": prompt.m, "d": prompt.d, "seed": seed, "config_hash": config_hash},
        sort_keys=True,
    )
    with atomic_open(path, binary=True) as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(prompt.P, dtype="<f8").tobytes())


def load_prompt(path: Union[str, Path]) -> Tuple[SoftPrompt, Dict]:
    """Read a prompt written by save_prompt; returns (prompt, header).

    A malformed file raises TunerError naming the path.
    """
    blob = Path(path).read_bytes()
    header_line, nl, payload = blob.partition(b"\n")
    if not nl:
        raise TunerError(f"{path}: no header line")
    try:
        header = json.loads(header_line)
    except ValueError as e:
        raise TunerError(f"{path}: header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise TunerError(f"{path}: header must be a JSON object, got {header!r}")
    for key in ("m", "d"):
        value = header.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise TunerError(f"{path}: header {key} must be an integer >= 1, got {value!r}")
    m, d = header["m"], header["d"]
    expected = m * d * 8
    if len(payload) != expected:
        raise TunerError(
            f"{path}: prompt payload is {len(payload)} bytes; expected {expected}"
        )
    P = np.frombuffer(payload, dtype="<f8").reshape(m, d).copy()
    try:
        return SoftPrompt(P=P, m=m), header
    except TunerError as e:
        raise TunerError(f"{path}: {e}") from None
