"""Tuner oracles: encoding, loss, gradients, optimizer steps, decoding."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qasynth import tuner as tuner_module
from qasynth.cli import ConfigError, TuneConfig
from qasynth.corpus import Dataset
from qasynth.tuner import (
    BLOCK,
    BOS,
    EOS,
    SEP,
    VOCAB_SIZE,
    AdafactorState,
    SoftPrompt,
    ToyLM,
    TunerError,
    _batch_nll,
    _full_loss,
    create_toy_lm,
    decode_bytes,
    encode_context,
    encode_example,
    grad,
    greedy_decode,
    greedy_decode_batch,
    init_prompt,
    load_prompt,
    loss,
    model_checksum,
    optimizer_step,
    save_prompt,
    split_decoded,
    tune,
    warmup_lr,
)

from helpers import make_example


def oracle_loss(model: ToyLM, prompt: SoftPrompt, batch) -> float:
    """Straight-line recurrence in plain Python lists; no numpy, no batching."""
    m = prompt.m
    total = 0.0
    count = 0
    for inp, tgt in batch:
        xs = [list(map(float, prompt.P[i])) for i in range(m)]
        xs += [list(map(float, model.E[t])) for t in list(inp) + list(tgt[:-1])]
        s = [0.0] * model.h
        states = []
        for x in xs:
            pre = [
                sum(model.W_x[r][c] * x[c] for c in range(model.d))
                + sum(model.W_s[r][c] * s[c] for c in range(model.h))
                + model.b_s[r]
                for r in range(model.h)
            ]
            s = [math.tanh(v) for v in pre]
            states.append(s)
        for j, want in enumerate(tgt):
            st = states[m + len(inp) - 1 + j]
            logits = [
                sum(model.W_o[v][c] * st[c] for c in range(model.h)) + model.b_o[v]
                for v in range(VOCAB_SIZE)
            ]
            mx = max(logits)
            lse = mx + math.log(sum(math.exp(l - mx) for l in logits))
            total += lse - logits[want]
            count += 1
    return total / count


def reference_batch_nll(model: ToyLM, prompt: SoftPrompt, batch, need_grad: bool):
    """The one-step-at-a-time _batch_nll that the in-place loops replaced.

    Kept as the bit-level reference: the library function must return the
    same floats, not merely close ones, so tuned prompts stay byte-identical.
    """
    m = prompt.m
    B = len(batch)
    body_lens = [len(inp) + len(tgt) - 1 for inp, tgt in batch]
    T = m + max(body_lens)
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

    S = np.empty((T, B, model.h))
    prev = np.zeros((B, model.h))
    for t in range(T):
        prev = np.tanh(
            table[ids[t]] @ model.W_x.T + prev @ model.W_s.T + model.b_s, out=S[t]
        )

    flat_states = S.transpose(1, 0, 2)[loss_mask]
    flat_targets = targets[loss_mask]
    n = flat_targets.shape[0]
    logits = flat_states @ model.W_o.T + model.b_o
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    nll_sum = float((logsumexp - logits[np.arange(n), flat_targets]).sum())
    if not need_grad:
        return nll_sum, n, None

    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    dlogits = probs
    dlogits[np.arange(n), flat_targets] -= 1.0
    dlogits /= n
    dS = np.zeros((T, B, model.h))
    dS.transpose(1, 0, 2)[loss_mask] = dlogits @ model.W_o
    S *= S
    np.subtract(1.0, S, out=S)
    dP = np.zeros((m, model.d))
    carry = np.zeros((B, model.h))
    for t in range(T - 1, -1, -1):
        dz = (dS[t] + carry) * S[t]
        if t < m:
            dP[t] = (dz @ model.W_x).sum(axis=0)
        carry = dz @ model.W_s
    return nll_sum, n, dP


def random_batch(rng: np.random.Generator, lengths):
    """(input, target) pairs of the given lengths with random token ids."""
    return [
        (
            tuple(int(t) for t in rng.integers(0, BOS + 1, n_in)),
            tuple(int(t) for t in rng.integers(0, VOCAB_SIZE, n_tgt)),
        )
        for n_in, n_tgt in lengths
    ]



class TestEncoding:
    def test_context_layout(self):
        tokens = encode_context("ab", "fi")
        assert tokens == tuple(b"[fi]") + (BOS,) + tuple(b"ab")

    def test_target_layout(self):
        ex = make_example(0, "ctx", "y?", "x")
        inp, tgt = encode_example(ex)
        assert inp == encode_context("ctx", "fi")
        assert tgt == tuple(b"x") + (SEP,) + tuple(b"y?") + (EOS,)

    def test_decode_restores_text(self):
        ex = make_example(0, "ctx", "y?", "x")
        _, tgt = encode_example(ex)
        answer, question = split_decoded([t for t in tgt if t != EOS])
        assert answer == "x"
        assert question == "y?"

    def test_split_without_sep_is_none(self):
        assert split_decoded(list(b"no marker")) is None

    def test_decode_bytes_utf8(self):
        text = "päivä"
        assert decode_bytes(list(text.encode("utf-8"))) == text


class TestLossOracle:
    def test_matches_plain_python(self):
        model = create_toy_lm(seed=2)
        batch = [
            encode_example(make_example(0, "ab1", "qq", "a")),
            encode_example(make_example(1, "xyz9", "w?", "zz")),
            encode_example(make_example(2, "k", "mn", "p")),
        ]
        prompt = SoftPrompt(P=init_prompt(4, model.d, seed=5).P, m=4)
        got = loss(model, prompt, batch)
        want = oracle_loss(model, prompt, batch)
        assert got == pytest.approx(want, rel=1e-10)

    def test_batch_equals_position_weighted_mean(self):
        # global mean over target positions: padding must not leak into it
        model = create_toy_lm(seed=3)
        examples = [
            make_example(0, "aa", "q", "a"),
            make_example(1, "bbbbbbbb", "qq better", "longer answer"),
            make_example(2, "c3", "?", "k"),
        ]
        batch = [encode_example(e) for e in examples]
        prompt = init_prompt(3, model.d, seed=1)
        whole = loss(model, prompt, batch)
        total = 0.0
        count = 0
        for item in batch:
            single = loss(model, prompt, [item])
            total += single * len(item[1])
            count += len(item[1])
        assert whole == pytest.approx(total / count, rel=1e-12)

    def test_uniform_logits_give_log_vocab(self):
        base = create_toy_lm(seed=0)
        zeroed = ToyLM(
            d=base.d, h=base.h, E=base.E.copy(), W_x=base.W_x.copy(),
            W_s=base.W_s.copy(), W_o=np.zeros_like(base.W_o),
            b_s=base.b_s.copy(), b_o=np.zeros(VOCAB_SIZE), seed=0,
        )
        batch = [encode_example(make_example(0, "abc", "q?", "a"))]
        value = loss(zeroed, init_prompt(2, base.d, seed=0), batch)
        assert value == pytest.approx(math.log(VOCAB_SIZE), abs=1e-9)

    def test_empty_batch_rejected(self):
        model = create_toy_lm(seed=0)
        with pytest.raises(TunerError):
            loss(model, init_prompt(2, model.d, seed=0), [])


class TestGradient:
    def test_matches_central_differences(self):
        model = create_toy_lm(seed=1)
        batch = [
            encode_example(make_example(0, "ab2", "qq", "b")),
            encode_example(make_example(1, "zz", "w", "z")),
        ]
        for probe in range(6):
            rng = np.random.default_rng(50 + probe)
            P = rng.normal(0.0, 0.4, (3, model.d))
            g = grad(model, SoftPrompt(P=P, m=3), batch)
            i = int(rng.integers(0, 3))
            j = int(rng.integers(0, model.d))
            eps = 1e-6
            up, down = P.copy(), P.copy()
            up[i, j] += eps
            down[i, j] -= eps
            fd = (
                loss(model, SoftPrompt(P=up, m=3), batch)
                - loss(model, SoftPrompt(P=down, m=3), batch)
            ) / (2 * eps)
            assert abs(g[i, j] - fd) / max(abs(fd), 1e-12) < 1e-4


class TestBatchNllLayout:
    """_batch_nll against the one-step-at-a-time reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(8, 16), (4, 8), (16, 32)]),
        model_seed=st.integers(0, 50),
        bias=st.booleans(),
        m=st.integers(1, 11),
        scale=st.sampled_from([0.3, 1.0, 4.0]),
        lengths=st.lists(
            st.tuples(st.integers(1, 80), st.integers(1, 40)), min_size=1, max_size=20
        ),
        data_seed=st.integers(0, 2**16),
        need_grad=st.booleans(),
    )
    @example(shape=(8, 16), model_seed=0, bias=False, m=1, scale=1.0,
             lengths=[(1, 1)], data_seed=0, need_grad=True)
    @example(shape=(8, 16), model_seed=1, bias=True, m=11, scale=4.0,
             lengths=[(80, 1), (1, 40), (5, 5)], data_seed=1, need_grad=True)
    @example(shape=(4, 8), model_seed=2, bias=False, m=3, scale=0.3,
             lengths=[(60, 30)] * 16 + [(2, 1)] * 4, data_seed=2, need_grad=False)
    # T = m + the longest input + target - 1 lands on each side of a block
    # edge, so the state carried across it is checked in both modes.
    @example(shape=(8, 16), model_seed=3, bias=True, m=2, scale=1.0,
             lengths=[(30, BLOCK - 32), (7, 3)], data_seed=3, need_grad=False)
    @example(shape=(8, 16), model_seed=3, bias=True, m=2, scale=1.0,
             lengths=[(30, BLOCK - 32), (7, 3)], data_seed=3, need_grad=True)
    @example(shape=(8, 16), model_seed=4, bias=False, m=4, scale=1.0,
             lengths=[(2, 1), (BLOCK - 30, 27)], data_seed=4, need_grad=False)
    @example(shape=(8, 16), model_seed=4, bias=False, m=4, scale=1.0,
             lengths=[(2, 1), (BLOCK - 30, 27)], data_seed=4, need_grad=True)
    @example(shape=(4, 8), model_seed=5, bias=True, m=1, scale=4.0,
             lengths=[(BLOCK - 20, 21), (40, 2), (1, 1)], data_seed=5, need_grad=False)
    @example(shape=(4, 8), model_seed=5, bias=True, m=1, scale=4.0,
             lengths=[(BLOCK - 20, 21), (40, 2), (1, 1)], data_seed=5, need_grad=True)
    @example(shape=(16, 32), model_seed=6, bias=False, m=11, scale=0.3,
             lengths=[(2 * BLOCK - 40, 31), (BLOCK, 5)], data_seed=6, need_grad=False)
    @example(shape=(16, 32), model_seed=6, bias=False, m=11, scale=0.3,
             lengths=[(2 * BLOCK - 40, 31), (BLOCK, 5)], data_seed=6, need_grad=True)
    # B = 1 takes the gemv path through every product; longer than a block.
    @example(shape=(8, 16), model_seed=7, bias=True, m=3, scale=1.0,
             lengths=[(BLOCK + 20, 40)], data_seed=7, need_grad=True)
    def test_equals_reference(
        self, shape, model_seed, bias, m, scale, lengths, data_seed, need_grad
    ):
        d, h = shape
        model = create_toy_lm(d=d, h=h, seed=model_seed)
        rng = np.random.default_rng(data_seed)
        if bias:
            # create_toy_lm starts b_s at 0; the add must keep its place.
            model = ToyLM(
                d=d, h=h, E=model.E.copy(), W_x=model.W_x.copy(),
                W_s=model.W_s.copy(), W_o=model.W_o.copy(),
                b_s=rng.normal(0.0, 0.3, h), b_o=model.b_o.copy(), seed=model_seed,
            )
        prompt = SoftPrompt(P=rng.normal(0.0, scale, (m, d)), m=m)
        batch = random_batch(rng, lengths)
        nll, n, dP = _batch_nll(model, prompt, batch, need_grad)
        want_nll, want_n, want_dP = reference_batch_nll(model, prompt, batch, need_grad)
        assert (nll, n) == (want_nll, want_n)
        if need_grad:
            assert np.array_equal(dP, want_dP)
        else:
            assert dP is None and want_dP is None

    def test_full_loss_over_several_chunks(self):
        model = create_toy_lm(seed=4)
        prompt = init_prompt(5, model.d, seed=4)
        rng = np.random.default_rng(4)
        encoded = random_batch(
            rng, [(int(a), int(b)) for a, b in zip(rng.integers(1, 90, 11),
                                                    rng.integers(1, 30, 11))]
        )
        total = 0.0
        count = 0
        for i in range(0, len(encoded), 4):
            nll, n, _ = reference_batch_nll(model, prompt, encoded[i : i + 4], False)
            total += nll
            count += n
        assert _full_loss(model, prompt, encoded, chunk=4) == total / count


def long_batch(m: int):
    """64 examples whose longest one runs m + 549 steps; about 1,900 targets."""
    rng = np.random.default_rng(0)
    lengths = [(510, 40)] + [
        (int(a), int(b))
        for a, b in zip(rng.integers(200, 511, 63), rng.integers(20, 41, 63))
    ]
    batch = random_batch(rng, lengths)
    T = m + max(a + b - 1 for a, b in lengths)
    n = sum(b for _, b in lengths)
    return batch, T, n


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchNllMemory:
    """What the forward pass keeps alive, on a 64-example batch of ~550 steps."""

    def test_loss_pass_holds_no_step_history(self):
        model = create_toy_lm()
        prompt = init_prompt(5, model.d, seed=0)
        batch, _, n = long_batch(prompt.m)
        B, V, d, h = len(batch), model.vocab_size, model.d, model.h
        peak = traced_peak(lambda: _batch_nll(model, prompt, batch, need_grad=False))
        # The logits, the gathered states and one block of projected inputs
        # and states; a (T, B, h) array alone would be 4.5 MB here.
        block_buffers = BLOCK * B * (d + h) * 8
        assert peak < 1.25 * (n * V + 2 * n * h) * 8 + block_buffers

    def test_gradient_pass_frees_logits_before_ds(self):
        model = create_toy_lm()
        prompt = init_prompt(5, model.d, seed=0)
        batch, T, n = long_batch(prompt.m)
        B, V, h = len(batch), model.vocab_size, model.h
        peak = traced_peak(lambda: _batch_nll(model, prompt, batch, need_grad=True))
        assert peak < (2 * T * B * h + n * V) * 8


class TestTuneConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"m": True}, "m"),
            ({"m": "5"}, "m"),
            ({"h": 0}, "h"),
            ({"model_seed": -1}, "model_seed"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"learning_rate": True}, "learning_rate"),
        ],
    )
    def test_bad_value_raises_tuner_error_naming_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=rf"^tuner\.{field} must be "):
            TuneConfig(**kwargs)


class TestOptimizer:
    def test_rank_one_reconstruction_exact(self):
        G = np.array([[1.0, 2.0], [2.0, 4.0]])
        state = AdafactorState.zeros(2, 2)
        cfg = TuneConfig(m=2, learning_rate=0.5, warmup_steps=1, batch_size=1)
        prompt = SoftPrompt(P=np.zeros((2, 2)), m=2)
        stepped, state = optimizer_step(state, prompt, G, 1, cfg)
        vhat = np.outer(state.R, state.C) / state.R.mean()
        assert np.abs(vhat - G * G).max() <= 1e-10
        # update reduces to lr * sign-magnitude-normalized G = lr * ones here
        assert np.allclose(stepped.P, -0.5 * np.ones((2, 2)), atol=1e-9)

    def test_zero_gradient_is_a_no_op(self):
        state = AdafactorState.zeros(2, 3)
        prompt = SoftPrompt(P=np.arange(6.0).reshape(2, 3), m=2)
        cfg = TuneConfig(m=2, learning_rate=0.5, warmup_steps=1, batch_size=1)
        stepped, _ = optimizer_step(state, prompt, np.zeros((2, 3)), 1, cfg)
        assert np.array_equal(stepped.P, prompt.P)

    def test_decay_schedule_tracks_step(self):
        # beta_t = 1 - t^-0.8; after two steps with constant G the factored
        # moments follow the closed form
        G = np.array([[2.0]])
        state = AdafactorState.zeros(1, 1)
        cfg = TuneConfig(m=1, learning_rate=0.1, warmup_steps=1, batch_size=1)
        prompt = SoftPrompt(P=np.zeros((1, 1)), m=1)
        prompt, state = optimizer_step(state, prompt, G, 1, cfg)
        assert state.R[0] == pytest.approx(4.0)
        prompt, state = optimizer_step(state, prompt, G, 2, cfg)
        beta2 = 1.0 - 2.0 ** -0.8
        assert state.R[0] == pytest.approx(beta2 * 4.0 + (1 - beta2) * 4.0)

    def test_warmup_monotone_then_flat(self):
        values = [warmup_lr(0.3, t, 10) for t in range(1, 16)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-15
        assert values[9] == pytest.approx(0.3)
        assert values[14] == pytest.approx(0.3)


def flat_model(base: ToyLM) -> ToyLM:
    """Zero readout and bias: every logit ties, so argmax picks id 0."""
    return ToyLM(
        d=base.d, h=base.h, E=base.E.copy(), W_x=base.W_x.copy(),
        W_s=base.W_s.copy(), W_o=np.zeros_like(base.W_o),
        b_s=base.b_s.copy(), b_o=np.zeros(VOCAB_SIZE), seed=0,
    )


def eager_model(base: ToyLM) -> ToyLM:
    """Zero readout, bias favouring EOS: every decode stops at once."""
    bias = np.full(VOCAB_SIZE, -10.0)
    bias[EOS] = 10.0
    return ToyLM(
        d=base.d, h=base.h, E=base.E.copy(), W_x=base.W_x.copy(),
        W_s=base.W_s.copy(), W_o=np.zeros_like(base.W_o),
        b_s=base.b_s.copy(), b_o=bias, seed=0,
    )


class TestGreedyDecode:
    def test_max_len_zero(self):
        model = create_toy_lm(seed=0)
        out = greedy_decode(model, init_prompt(2, model.d, seed=0), encode_context("a", "fi"), 0)
        assert out == ()

    def test_tie_breaks_to_lowest_id(self):
        base = create_toy_lm(seed=0)
        flat = flat_model(base)
        out = greedy_decode(flat, init_prompt(2, base.d, seed=0), encode_context("a", "fi"), 5)
        assert out == (0, 0, 0, 0, 0)

    def test_eos_stops_and_is_excluded(self):
        base = create_toy_lm(seed=0)
        eager = eager_model(base)
        out = greedy_decode(eager, init_prompt(2, base.d, seed=0), encode_context("a", "fi"), 5)
        assert out == ()


class TestGreedyDecodeBatch:
    """The batched decoder against the serial greedy_decode oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["random", "eos_eager", "tie_flat"]),
        model_seed=st.integers(0, 50),
        m=st.integers(1, 4),
        scale=st.sampled_from([0.5, 3.0, 8.0]),
        contexts=st.lists(
            st.tuples(st.integers(1, 600), st.integers(0, 2**16)),
            min_size=1,
            max_size=6,
        ),
        duplicates=st.integers(0, 2),
        max_len=st.integers(0, 300),
    )
    @example(kind="random", model_seed=1, m=2, scale=3.0,
             contexts=[(1, 0)], duplicates=0, max_len=200)
    @example(kind="random", model_seed=2, m=3, scale=8.0,
             contexts=[(600, 1), (1, 2), (300, 3)], duplicates=2, max_len=300)
    @example(kind="random", model_seed=3, m=1, scale=3.0,
             contexts=[(5, 4), (400, 5)], duplicates=0, max_len=0)
    @example(kind="eos_eager", model_seed=0, m=2, scale=1.0,
             contexts=[(3, 6), (50, 7)], duplicates=1, max_len=5)
    @example(kind="tie_flat", model_seed=0, m=2, scale=1.0,
             contexts=[(3, 8), (50, 9)], duplicates=1, max_len=5)
    def test_equals_serial_decode(
        self, kind, model_seed, m, scale, contexts, duplicates, max_len
    ):
        model = create_toy_lm(seed=model_seed)
        if kind == "eos_eager":
            model = eager_model(model)
        elif kind == "tie_flat":
            model = flat_model(model)
        # A scaled prompt pushes the state off the text prior, so decodes
        # run long instead of ending at an early EOS.
        prompt = SoftPrompt(P=scale * init_prompt(m, model.d, seed=model_seed).P, m=m)
        ctxs = [
            tuple(int(t) for t in np.random.default_rng(seed).integers(0, VOCAB_SIZE, n))
            for n, seed in contexts
        ]
        ctxs += ctxs[:duplicates]
        want = [greedy_decode(model, prompt, c, max_len) for c in ctxs]
        assert greedy_decode_batch(model, prompt, ctxs, max_len) == want

    def test_long_decodes_are_covered(self):
        model = create_toy_lm(seed=2)
        prompt = SoftPrompt(P=8.0 * init_prompt(3, model.d, seed=2).P, m=3)
        out = greedy_decode_batch(model, prompt, [encode_context("a" * 500, "fi")], 300)
        assert len(out[0]) > 100

    def test_empty_batch(self):
        model = create_toy_lm(seed=0)
        assert greedy_decode_batch(model, init_prompt(2, model.d, seed=0), [], 5) == []

    def test_negative_max_len_rejected(self):
        model = create_toy_lm(seed=0)
        with pytest.raises(TunerError):
            greedy_decode_batch(model, init_prompt(2, model.d, seed=0), [], -1)

    def test_token_outside_vocabulary_rejected(self):
        model = create_toy_lm(seed=0)
        with pytest.raises(TunerError):
            greedy_decode_batch(
                model, init_prompt(2, model.d, seed=0), [(1, VOCAB_SIZE)], 5
            )


class TestTune:
    def test_identical_seeds_identical_traces(self, tune_corpus):
        train, dev = tune_corpus
        model = create_toy_lm(seed=7)
        cfg = TuneConfig(m=4, model_seed=7, max_steps=20, eval_every=10,
                         learning_rate=0.1, warmup_steps=5)
        a = tune(model, train, dev, cfg, seed=3)
        b = tune(model, train, dev, cfg, seed=3)
        assert np.array_equal(a.best_prompt.P, b.best_prompt.P)
        assert [(r.step, r.train_loss, r.dev_metric) for r in a.records] == [
            (r.step, r.train_loss, r.dev_metric) for r in b.records
        ]

    def test_single_eval_when_steps_below_eval_every(self, tune_corpus):
        train, dev = tune_corpus
        model = create_toy_lm(seed=7)
        cfg = TuneConfig(m=4, model_seed=7, max_steps=7, eval_every=50,
                         learning_rate=0.1, warmup_steps=5)
        trace = tune(model, train, dev, cfg)
        assert [r.step for r in trace.records] == [7]
        assert trace.best_step == 7

    def test_frozen_parameters_unchanged(self, tune_corpus):
        train, dev = tune_corpus
        model = create_toy_lm(seed=7)
        before = model_checksum(model)
        tune(model, train, dev, TuneConfig(m=4, model_seed=7, max_steps=15, eval_every=5))
        assert model_checksum(model) == before

    def test_mixed_language_train_rejected(self, gold_multi, tune_corpus):
        _, dev = tune_corpus
        model = create_toy_lm(seed=0)
        with pytest.raises(TunerError, match=r"^gold-multi: train dataset must be monolingual"):
            tune(model, gold_multi, dev, TuneConfig(m=4, max_steps=5))

    def test_dev_language_must_match(self, tune_corpus):
        train, _ = tune_corpus
        model = create_toy_lm(seed=0)
        other = Dataset(
            name="dev-ar",
            examples=(make_example(0, "ctx", "q?", "c", language="ar"),),
        )
        with pytest.raises(TunerError):
            tune(model, train, other, TuneConfig(m=4, max_steps=5))

    def test_dev_loss_metric_picks_minimum(self, tune_corpus):
        train, dev = tune_corpus
        model = create_toy_lm(seed=7)
        cfg = TuneConfig(m=4, model_seed=7, max_steps=30, eval_every=10,
                         learning_rate=0.1, warmup_steps=5,
                         early_stop_metric="dev_loss")
        trace = tune(model, train, dev, cfg)
        best = min(trace.records, key=lambda r: (r.dev_metric, r.step))
        assert trace.best_step == best.step


    @pytest.mark.parametrize(
        "geometry",
        [{"d": 4, "h": 3}, {"h": 8}, {"model_seed": 1}],
        ids=["d-and-h", "h", "model-seed"],
    )
    def test_config_geometry_must_match_model(self, tune_corpus, monkeypatch, geometry):
        train, dev = tune_corpus
        model = create_toy_lm(d=8, h=16, seed=0)

        def no_step(*args, **kwargs):
            raise AssertionError("tune ran a step")

        monkeypatch.setattr(tuner_module, "_batch_nll", no_step)
        with pytest.raises(TunerError, match="differs from config"):
            tune(model, train, dev, TuneConfig(m=2, max_steps=1, **geometry))


class TestChecksumAndSerialization:
    def test_checksum_sensitive_to_any_parameter(self):
        model = create_toy_lm(seed=4)
        tweaked_bias = model.b_s.copy()
        tweaked_bias[0] += 1e-9
        other = ToyLM(
            d=model.d, h=model.h, E=model.E.copy(), W_x=model.W_x.copy(),
            W_s=model.W_s.copy(), W_o=model.W_o.copy(),
            b_s=tweaked_bias, b_o=model.b_o.copy(), seed=4,
        )
        assert model_checksum(model) != model_checksum(other)

    def test_model_arrays_are_read_only(self):
        model = create_toy_lm(seed=0)
        with pytest.raises(ValueError):
            model.W_s[0, 0] = 1.0

    def test_init_prompt_range_and_determinism(self):
        a = init_prompt(6, 8, seed=9)
        b = init_prompt(6, 8, seed=9)
        assert np.array_equal(a.P, b.P)
        assert (a.P >= -0.5).all() and (a.P < 0.5).all()
        assert a.P.shape == (6, 8)

    def test_init_prompt_draws_from_a_given_generator(self):
        # tune() passes its own Generator so the minibatch permutations
        # continue the same stream after the prompt draw
        rng = np.random.default_rng(9)
        a = init_prompt(6, 8, rng)
        assert np.array_equal(a.P, init_prompt(6, 8, seed=9).P)
        reference = np.random.default_rng(9)
        reference.uniform(-0.5, 0.5, (6, 8))
        assert np.array_equal(rng.permutation(10), reference.permutation(10))

    def test_prompt_file_round_trip(self, tmp_path):
        prompt = init_prompt(5, 8, seed=2)
        path = tmp_path / "p.bin"
        save_prompt(prompt, path, seed=2, config_hash="cafe12345678")
        loaded, header = load_prompt(path)
        assert np.array_equal(loaded.P, prompt.P)
        assert header == {"m": 5, "d": 8, "seed": 2, "config_hash": "cafe12345678"}

    def test_truncated_prompt_file_rejected(self, tmp_path):
        prompt = init_prompt(5, 8, seed=2)
        path = tmp_path / "p.bin"
        save_prompt(prompt, path, seed=2, config_hash="x")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TunerError):
            load_prompt(path)
