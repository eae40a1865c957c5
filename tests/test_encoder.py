"""Encoder tests: shapes, determinism, masking, and the scalar-loop oracle."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapstack
from hapstack import encoder, pipeline
from hapstack.encoder import (
    ATTENTION_MASK_BIAS,
    EncoderConfig,
    _erf,
    _gelu,
    _gelu_in_tiles,
    _layernorm,
    _softmax,
    bert_base_config,
    count_parameters,
    forward_batch,
    init_random,
    named_tensors,
    packed_logits,
    piccolo_config,
)
from hapstack.wordpiece import TokenizedSequence, build_ascii_vocab, encode, pad_sequence

from conftest import random_words
from reference_forward import reference_forward


def make_seq(ids, mask=None):
    return TokenizedSequence(ids=list(ids),
                             attention_mask=list(mask) if mask else [1] * len(ids),
                             word_spans=[], pieces=[], words=[])


class TestInitRandom:
    def test_deterministic(self, tiny_config):
        a = init_random(tiny_config, 7)
        b = init_random(tiny_config, 7)
        np.testing.assert_array_equal(a.token_embedding, b.token_embedding)
        np.testing.assert_array_equal(a.layers[1].ffn_up_weight, b.layers[1].ffn_up_weight)
        np.testing.assert_array_equal(a.classifier_bias, b.classifier_bias)

    def test_seeds_differ(self, tiny_config):
        a = init_random(tiny_config, 0)
        b = init_random(tiny_config, 1)
        assert not np.array_equal(a.token_embedding, b.token_embedding)

    def test_shapes(self):
        config = EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=16, max_positions=16)
        w = init_random(config, 0)
        assert w.token_embedding.shape == (16, 8)
        assert w.position_embedding.shape == (16, 8)
        assert w.layers[0].ffn_up_weight.shape == (8, 16)
        assert w.layers[0].ffn_down_weight.shape == (16, 8)
        assert w.classifier_weight.shape == (8, 2)
        assert all(t.dtype == np.float32 for t in
                   (w.token_embedding, w.layers[0].q_weight, w.classifier_bias))

    def test_layernorm_init(self, tiny_config):
        w = init_random(tiny_config, 3)
        np.testing.assert_array_equal(w.embedding_ln_gamma, np.ones(8, dtype=np.float32))
        np.testing.assert_array_equal(w.layers[0].attn_ln_beta, np.zeros(8, dtype=np.float32))

    @pytest.mark.parametrize("draw_values", [7, 64, encoder.INIT_DRAW_VALUES])
    @pytest.mark.parametrize("config", [
        EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                      intermediate_size=16, vocab_size=16, max_positions=16),
        # Hidden size 1: one-row weights, and tensors of one value.
        EncoderConfig(num_layers=1, num_heads=1, hidden_size=1,
                      intermediate_size=1, vocab_size=5, max_positions=2),
        EncoderConfig(num_layers=1, num_heads=3, hidden_size=12,
                      intermediate_size=40, vocab_size=301, max_positions=33),
    ])
    def test_tensors_equal_the_whole_float64_draw(self, config, draw_values, monkeypatch):
        # Chunked draws read the same stream: every tensor, 1-D ones too,
        # equals one float64 draw of its shape cast to float32.
        monkeypatch.setattr(encoder, "INIT_DRAW_VALUES", draw_values)
        for seed in (0, 11):
            rng = np.random.default_rng(seed)
            for name, tensor in named_tensors(init_random(config, seed), config).items():
                if "_ln_" in name:
                    continue
                expected = rng.normal(0.0, encoder.INIT_SCALE, size=tensor.shape)
                np.testing.assert_array_equal(tensor, expected.astype(np.float32), err_msg=name)
                assert tensor.dtype == np.float32

    def test_peak_memory_is_one_float32_model(self):
        # 16 MiB covers one float64 draw (8 MiB) and one tensor before its
        # F-ordered copy is made; the 3-layer model's two inner blocks hold
        # 16 MiB of projections, which would show if their originals stayed.
        for config in (EncoderConfig(num_layers=1, num_heads=2, hidden_size=64,
                                     intermediate_size=128, vocab_size=200000),
                       EncoderConfig(num_layers=3, num_heads=4, hidden_size=512,
                                     intermediate_size=1024, vocab_size=1000)):
            tracemalloc.start()
            try:
                weights = init_random(config, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            model = sum(t.nbytes for t in named_tensors(weights, config).values())
            assert peak <= model + 16 * 2**20, (
                f"peak {peak / 2**20:.1f} MiB, model {model / 2**20:.1f}")


class TestForward:
    def test_single_token_attention_is_one(self, tiny_config):
        w = init_random(tiny_config, 0)
        out = forward_batch([make_seq([2])], w, tiny_config)[0]
        for layer in out.attentions:
            np.testing.assert_array_equal(layer, np.ones((2, 1, 1), dtype=np.float32))

    def test_pad_columns_get_zero_attention(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 5, 6, 3, 0, 0], [1, 1, 1, 1, 0, 0])
        out = forward_batch([seq], w, tiny_config)[0]
        for layer in out.attentions:
            assert np.abs(layer[:, :, 4:]).max() <= 1e-7

    def test_rows_sum_to_one(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 5, 6, 7, 3, 0], [1, 1, 1, 1, 1, 0])
        out = forward_batch([seq], w, tiny_config)[0]
        for layer in out.attentions:
            np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-6)

    def test_id_out_of_range(self, tiny_config):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError):
            forward_batch([make_seq([tiny_config.vocab_size])], w, tiny_config)

    def test_too_long(self, tiny_config):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError):
            forward_batch([make_seq([2] * (tiny_config.max_positions + 1))], w, tiny_config)

    def test_deterministic_logits(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 9, 8, 3])
        first = forward_batch([seq], w, tiny_config)[0].logits
        second = forward_batch([seq], w, tiny_config)[0].logits
        np.testing.assert_array_equal(first, second)

    def test_pad_invisibility(self, tiny_config, ascii_vocab):
        w = init_random(tiny_config, 0)
        seq = encode("some words here.", ascii_vocab, 32, pad_to_max=False)
        base = forward_batch([seq], w, tiny_config)[0].logits
        padded = pad_sequence(seq, 24, ascii_vocab)
        np.testing.assert_allclose(forward_batch([padded], w, tiny_config)[0].logits, base,
                                   atol=1e-5)

    def test_permutation_sensitivity(self):
        # At width-8 toy scale attention is near-uniform and a token swap is
        # almost invisible; the property needs production-scale dims.
        config = piccolo_config(256, max_positions=64)
        w = init_random(config, 0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            ids = rng.integers(4, config.vocab_size, size=8).tolist()
            if ids[1] == ids[2]:
                continue
            swapped = [ids[0], ids[2], ids[1]] + ids[3:]
            a = forward_batch([make_seq(ids)], w, config)[0].logits
            b = forward_batch([make_seq(swapped)], w, config)[0].logits
            if np.abs(a - b).max() > 1e-3:
                return
        pytest.fail("no random token swap moved the logits; positions look inert")


class TestForwardBatch:
    def test_batch_of_one_equals_forward(self, tiny_config):
        # The batch of one is the single-sequence call form: it must agree
        # with the same sequence's row in a larger batch.
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 9, 8, 3])
        single = forward_batch([seq], w, tiny_config)[0]
        batched = forward_batch([make_seq([2, 5, 6, 3]), seq], w, tiny_config)[1]
        assert single.logits.shape == (tiny_config.num_labels,)
        assert len(single.attentions) == tiny_config.num_layers
        np.testing.assert_allclose(single.logits, batched.logits, atol=1e-5)

    def test_mixed_padding_matches_unbatched(self, tiny_config, ascii_vocab):
        w = init_random(tiny_config, 0)
        a = encode("ab", ascii_vocab, 8, pad_to_max=True)           # 3 real + pad
        b = encode("abc def gh", ascii_vocab, 8, pad_to_max=True)   # fills 8
        outs = forward_batch([a, b], w, tiny_config)
        for seq, out in zip([a, b], outs):
            alone = forward_batch([seq], w, tiny_config)[0]
            np.testing.assert_allclose(out.logits, alone.logits, atol=1e-5)

    def test_empty_batch(self, tiny_config):
        assert forward_batch([], init_random(tiny_config, 0), tiny_config) == []

    def test_outputs_are_views_of_the_batch(self, tiny_config):
        w = init_random(tiny_config, 0)
        for out in forward_batch([make_seq([2, 9, 3]), make_seq([2, 8, 3])], w, tiny_config):
            for array in (out.logits, *out.attentions):
                assert not array.flags.owndata

    def test_inconsistent_lengths(self, tiny_config):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError):
            forward_batch([make_seq([2, 3]), make_seq([2, 5, 3])], w, tiny_config)


def scaled_weights(config, seed, scale=10.0):
    """Random weights at ``scale`` times the init scale (layernorms left
    alone); at 10x, O(1) logits and far-from-uniform attention, so a
    misplaced row shows."""
    weights = init_random(config, seed)
    for name, tensor in named_tensors(weights, config).items():
        if "_ln_" not in name:
            tensor *= np.float32(scale)
    return weights


@st.composite
def small_models(draw):
    """A random small config, weights at 1x-10x the init scale, and 1-5
    unpadded sequences of lengths 1 to ``max_positions``."""
    heads, head_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    config = EncoderConfig(num_layers=draw(st.integers(1, 3)), num_heads=heads,
                           hidden_size=heads * head_dim,
                           intermediate_size=draw(st.integers(1, 16)), vocab_size=32,
                           max_positions=draw(st.integers(2, 16)))
    weights = scaled_weights(config, draw(st.integers(0, 2**16)), draw(st.floats(1.0, 10.0)))
    lengths = draw(st.lists(st.integers(1, config.max_positions), min_size=1, max_size=5))
    seqs = [make_seq(draw(st.lists(st.integers(0, 31), min_size=n, max_size=n)))
            for n in lengths]
    return config, weights, seqs


class TestOracle:
    def test_matches_naive_reference(self):
        config = EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=32, max_positions=16)
        rng = np.random.default_rng(123)
        for seed in range(3):
            weights = init_random(config, seed)
            length = int(rng.integers(2, 8))
            ids = rng.integers(0, config.vocab_size, size=length).tolist()
            n_pad = int(rng.integers(0, 3))
            mask = [1] * length + [0] * n_pad
            ids = ids + [0] * n_pad
            out = forward_batch([make_seq(ids, mask)], weights, config)[0]
            ref_logits, ref_attn, _ = reference_forward(ids, mask, weights, config)
            np.testing.assert_allclose(out.logits, ref_logits, atol=1e-5)
            np.testing.assert_allclose(out.attentions[-1], ref_attn[-1], atol=1e-5)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_padded_batches_match_reference_on_every_row_and_layer(self, num_layers):
        # The final block runs past its softmax on row 0 only; every row of a
        # tail-padded batch, and a model whose one block is the final one,
        # must still give the reference logits and every layer's attention.
        # Weights 10x the init scale make the logits O(1) and the attention
        # far from uniform, so a misplaced row or head shows at 1e-5.
        config = EncoderConfig(num_layers=num_layers, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=32, max_positions=16)
        rng = np.random.default_rng(num_layers)
        for seed in range(2):
            weights = scaled_weights(config, seed)
            t = int(rng.integers(4, 9))
            lengths = [t, 1, *rng.integers(2, t + 1, size=3).tolist()]
            seqs = [make_seq(rng.integers(0, config.vocab_size, size=n).tolist() + [0] * (t - n),
                             [1] * n + [0] * (t - n)) for n in lengths]
            outs = forward_batch(seqs, weights, config)
            assert len(outs) == len(seqs)
            for seq, n, out in zip(seqs, lengths, outs):
                ref_logits, ref_attn, _ = reference_forward(seq.ids, seq.attention_mask,
                                                            weights, config)
                np.testing.assert_allclose(out.logits, ref_logits, atol=1e-5)
                assert len(out.attentions) == num_layers
                for got, ref in zip(out.attentions, ref_attn):
                    assert got.shape == (config.num_heads, t, t)
                    np.testing.assert_allclose(got[:, :n, :n], np.asarray(ref)[:, :n, :n],
                                               atol=1e-5)


class TestPackedLogits:
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_matches_reference_on_mixed_lengths(self, num_layers):
        # With one layer, the K/V-free final block is also the first.
        config = EncoderConfig(num_layers=num_layers, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=32, max_positions=16)
        rng = np.random.default_rng(10 + num_layers)
        lengths = [5, 2, config.max_positions, 1, 5, 2, 9, 3, 1, config.max_positions]
        seqs = [make_seq(rng.integers(0, config.vocab_size, size=n).tolist()) for n in lengths]
        weights = scaled_weights(config, num_layers)
        logits = packed_logits(seqs, weights, config)
        assert logits.shape == (len(seqs), 2) and logits.dtype == np.float32
        for seq, row in zip(seqs, logits):
            ref_logits, _, _ = reference_forward(seq.ids, seq.attention_mask, weights, config)
            np.testing.assert_allclose(row, ref_logits, atol=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(small_models())
    def test_rewrites_match_the_oracle_on_random_small_models(self, model):
        # The scalar oracle makes none of the scoring forward's rewrites:
        # k_bias left out, each head's query folded into W_k, and the
        # final context taken as (p·X)·W_v + b_v. Heads, head size,
        # lengths, batch-mates and weight scale vary together here.
        config, weights, seqs = model
        logits = packed_logits(seqs, weights, config)
        for seq, row in zip(seqs, logits):
            ref_logits, _, _ = reference_forward(seq.ids, seq.attention_mask, weights, config)
            np.testing.assert_allclose(row, ref_logits, rtol=0, atol=1e-5)
            np.testing.assert_allclose(row, forward_batch([seq], weights, config)[0].logits,
                                       rtol=0, atol=1e-6)

    def test_row_equals_batch_of_one_whatever_its_batch_mates(self):
        config = EncoderConfig(num_layers=2, num_heads=4, hidden_size=64,
                               intermediate_size=128, vocab_size=64, max_positions=64)
        weights = init_random(config, 3)
        rng = np.random.default_rng(3)
        seqs = [make_seq(rng.integers(0, config.vocab_size, size=n).tolist())
                for n in (2, 17, 5, 64, 17, 9, 5, 2, 33)]
        alone = np.stack([forward_batch([seq], weights, config)[0].logits for seq in seqs])
        for trial in range(4):
            picked = rng.permutation(len(seqs))[:int(rng.integers(1, len(seqs) + 1))]
            got = packed_logits([seqs[i] for i in picked], weights, config)
            np.testing.assert_allclose(got, alone[picked], rtol=0, atol=1e-6)

    def test_rows_equal_batch_of_one_on_the_production_config(self):
        # Batch-mates change the GEMM shapes, so a packed row agrees with
        # the sentence run alone up to float32 matmul noise.
        config = piccolo_config(256)
        weights = init_random(config, 4)
        rng = np.random.default_rng(4)
        seqs = [make_seq(rng.integers(4, 256, size=n).tolist()) for n in (512, 1, 23, 7, 23)]
        packed = packed_logits(seqs, weights, config)
        for seq, row in zip(seqs, packed):
            np.testing.assert_allclose(row, forward_batch([seq], weights, config)[0].logits,
                                       rtol=0, atol=1e-6)

    def test_both_entries_give_one_logit_per_sentence(self):
        # Both entries run one sentence through the same blocks, the same
        # K/V-free final block included, so their logits are equal.
        config = piccolo_config(256)
        weights = init_random(config, 5)
        rng = np.random.default_rng(5)
        for n in (1, 2, 23, 512):
            seq = make_seq(rng.integers(4, 256, size=n).tolist())
            np.testing.assert_array_equal(forward_batch([seq], weights, config)[0].logits,
                                          packed_logits([seq], weights, config)[0])

    def test_padded_rows_match_the_oracle_on_the_production_config(self):
        # The shared final block checked against the scalar oracle at
        # production dimensions, on a padded pair (a short one: the oracle
        # takes about a second per token here).
        config = piccolo_config(256)
        weights = init_random(config, 6)
        rng = np.random.default_rng(6)
        t, lengths = 2, [2, 1]
        seqs = [make_seq(rng.integers(4, 256, size=n).tolist()) for n in lengths]
        padded = [make_seq(seq.ids + [0] * (t - n), [1] * n + [0] * (t - n))
                  for seq, n in zip(seqs, lengths)]
        for seq, pad, out in zip(seqs, padded, forward_batch(padded, weights, config)):
            ref_logits, _, _ = reference_forward(pad.ids, pad.attention_mask, weights, config)
            np.testing.assert_allclose(out.logits, ref_logits, rtol=0, atol=1e-5)
            np.testing.assert_allclose(out.logits, packed_logits([seq], weights, config)[0],
                                       rtol=0, atol=1e-6)

    def test_key_bias_cancels_in_the_softmax(self):
        # q·k_bias is the same for every key of a query row, so no block
        # adds it: random key biases leave the logits and the attention
        # alone, and the scalar oracle, which adds them, still agrees.
        config = EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=32, max_positions=16)
        weights = scaled_weights(config, 6)
        rng = np.random.default_rng(6)
        lengths = [7, 1, 4, 7]
        seqs = [make_seq(rng.integers(0, config.vocab_size, size=n).tolist()) for n in lengths]
        padded = [make_seq(seq.ids + [0] * (7 - n), [1] * n + [0] * (7 - n))
                  for seq, n in zip(seqs, lengths)]
        packed = packed_logits(seqs, weights, config)
        batched = forward_batch(padded, weights, config)
        for layer in weights.layers:
            layer.k_bias = rng.normal(0.0, 3.0, size=config.hidden_size).astype(np.float32)
        np.testing.assert_allclose(packed_logits(seqs, weights, config), packed,
                                   rtol=0, atol=1e-6)
        for before, after in zip(batched, forward_batch(padded, weights, config)):
            np.testing.assert_allclose(after.logits, before.logits, rtol=0, atol=1e-6)
            for got, expected in zip(after.attentions, before.attentions):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)
        for seq, row in zip(seqs, packed):
            ref_logits, _, _ = reference_forward(seq.ids, seq.attention_mask, weights, config)
            np.testing.assert_allclose(row, ref_logits, atol=1e-5)

    def test_final_block_honours_a_mask_bias(self):
        # Both entries take the K/V-free final block, forward_batch on
        # padded runs: it must mask the pad columns, so the padded rows
        # give the scalar oracle's logits, and do not without the bias.
        config = EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=32, max_positions=16)
        weights = scaled_weights(config, 8)
        rng = np.random.default_rng(8)
        t, lengths = 6, [6, 3, 1]
        seqs = [make_seq(rng.integers(0, config.vocab_size, size=n).tolist() + [0] * (t - n),
                         [1] * n + [0] * (t - n)) for n in lengths]
        expected = np.stack([reference_forward(seq.ids, seq.attention_mask, weights, config)[0]
                             for seq in seqs])
        batched = np.stack([out.logits for out in forward_batch(seqs, weights, config)])
        np.testing.assert_allclose(batched, expected, rtol=0, atol=1e-5)
        ids = np.asarray([seq.ids for seq in seqs])
        mask = np.asarray([seq.attention_mask for seq in seqs], dtype=np.float32)
        bias = (np.float32(1.0) - mask)[:, None, None, :] * np.float32(ATTENTION_MASK_BIAS)

        def logits(run_bias):
            x = weights.token_embedding[ids] + weights.position_embedding[:t]
            x = encoder._layernorm(x.reshape(-1, config.hidden_size), weights.embedding_ln_gamma,
                                   weights.embedding_ln_beta, config.layernorm_epsilon)
            runs = [(slice(0, len(seqs) * t), slice(0, len(seqs)), t, run_bias)]
            return encoder._head(encoder._blocks(x, runs, weights, config), weights)

        np.testing.assert_array_equal(logits(bias), batched)
        assert not np.allclose(logits(None)[1:], expected[1:], atol=1e-3)

    @pytest.mark.parametrize("ids, mask", [([2, 256, 3], None), ([2] * 65, None),
                                           ([2, 5, 3], [1, 1])], ids=["id", "length", "mask"])
    def test_rejects_what_forward_batch_rejects(self, tiny_config, ids, mask):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError) as batched:
            forward_batch([make_seq(ids, mask)], w, tiny_config)
        with pytest.raises(ValueError) as packed:
            packed_logits([make_seq(ids, mask)], w, tiny_config)
        assert str(packed.value) == str(batched.value)
        with pytest.raises(ValueError, match="out of range|exceeds max_positions|in length"):
            packed_logits([make_seq([2, 3]), make_seq(ids, mask)], w, tiny_config)

    def test_rejects_empty_and_padded_sequences(self, tiny_config):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError, match="empty"):
            packed_logits([make_seq([2, 3]), make_seq([])], w, tiny_config)
        with pytest.raises(ValueError, match="unpadded"):
            packed_logits([make_seq([2, 5, 0], [1, 1, 0])], w, tiny_config)
        assert packed_logits([], w, tiny_config).shape == (0, 2)

    def test_long_sentence_keeps_no_attention(self):
        # Four layers of [12, 512, 512] float32 attention take 48 MiB; the
        # packed forward holds one layer's scores (12 MiB) at a time.
        config = piccolo_config(256)
        weights = init_random(config, 0)
        seq = make_seq(np.random.default_rng(0).integers(4, 256, size=512).tolist())
        packed_logits([make_seq([2, 3])], weights, config)  # first-call allocations
        tracemalloc.start()
        try:
            packed_logits([seq], weights, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def c_ordered(weights):
    """``weights`` with every tensor in C order, as the forward held them
    before ``weights_from_tensors`` transposed the inner projections."""
    return dataclasses.replace(weights, layers=[
        dataclasses.replace(layer, **{field: np.ascontiguousarray(getattr(layer, field))
                                      for field in encoder.INNER_PROJECTIONS})
        for layer in weights.layers])


@pytest.fixture
def blas_threads():
    """Yields a function that pins OpenBLAS to ``n`` threads (a no-op without
    OpenBLAS); the count is restored afterwards."""
    blas = pipeline._openblas()
    if blas is None:
        yield lambda n: None
        return
    set_threads, get_threads, _ = blas
    saved = get_threads()
    try:
        yield set_threads
    finally:
        set_threads(saved)


class TestMemoryOrder:
    """The F-ordered inner projections give the bits of the C-ordered model
    wherever a forward runs 4 or more rows: ``x @ w`` and (wᵀ·xᵀ)ᵀ take the
    same products in the same order on either side of ``TRANSPOSED_ROWS``."""

    def test_logits_and_attentions_equal_the_c_ordered_model(self, blas_threads):
        config = piccolo_config(1000)
        weights = scaled_weights(config, 8, scale=3.0)
        reference = c_ordered(weights)
        assert not weights.layers[0].q_weight.flags.c_contiguous
        assert weights.layers[-1].q_weight.flags.c_contiguous
        rng = np.random.default_rng(8)
        crossover = encoder.TRANSPOSED_ROWS
        cases = [rng.integers(4, 41, size=rng.integers(1, 10)).tolist() for _ in range(5)]
        cases += [[n] for n in (crossover - 1, crossover, crossover + 1, 512)]
        cases += [[40, 40, 40, n - 120] for n in (crossover - 1, crossover, crossover + 1)]
        for threads in (1, 2):
            blas_threads(threads)
            for lengths in cases:
                seqs = [make_seq(rng.integers(4, 1000, size=n).tolist()) for n in lengths]
                np.testing.assert_array_equal(packed_logits(seqs, weights, config),
                                              packed_logits(seqs, reference, config))
                t = max(lengths)
                padded = [make_seq(seq.ids + [0] * (t - n), [1] * n + [0] * (t - n))
                          for seq, n in zip(seqs, lengths)]
                for got, want in zip(forward_batch(padded, weights, config),
                                     forward_batch(padded, reference, config)):
                    np.testing.assert_array_equal(got.logits, want.logits)
                    for got_probs, want_probs in zip(got.attentions, want.attentions,
                                                      strict=True):
                        np.testing.assert_array_equal(got_probs, want_probs)

    def test_three_rows_or_fewer_agree_within_matmul_noise(self, blas_threads):
        # Below 4 rows OpenBLAS's bits depend on the weight's memory order.
        config = piccolo_config(1000)
        weights = init_random(config, 9)
        reference = c_ordered(weights)
        rng = np.random.default_rng(9)
        for threads in (1, 2):
            blas_threads(threads)
            for n in (1, 2, 3):
                seq = make_seq(rng.integers(4, 1000, size=n).tolist())
                got, want = (forward_batch([seq], model, config)[0]
                             for model in (weights, reference))
                np.testing.assert_allclose(got.logits, want.logits, rtol=0, atol=1e-6)
                np.testing.assert_allclose(packed_logits([seq], weights, config),
                                           packed_logits([seq], reference, config),
                                           rtol=0, atol=1e-6)
                for got_probs, want_probs in zip(got.attentions, want.attentions):
                    np.testing.assert_allclose(got_probs, want_probs, rtol=0, atol=1e-6)


class TestElementwiseStages:
    """The in-place and tiled stages give the bits of the plain expressions."""

    @staticmethod
    def scores(rows, cols, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 3.0, size=(rows, cols)).astype(np.float32)
        x[::3, cols // 2:] += np.float32(ATTENTION_MASK_BIAS)  # masked pad columns
        return x

    @pytest.mark.parametrize("rows, cols", [(1, 1), (7, 5), (48, 130)])
    def test_softmax_equals_textbook_form(self, rows, cols):
        x = self.scores(rows, cols)
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(_softmax(x.copy()), expected)

    def test_softmax_works_in_its_argument(self):
        x = self.scores(4, 6)
        assert _softmax(x) is x

    @pytest.mark.parametrize("rows", [1, 9, 1937])
    def test_layernorm_equals_textbook_form(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(0.5, 2.0, size=(rows, 576)).astype(np.float32)
        gamma = rng.normal(1.0, 0.1, size=576).astype(np.float32)
        beta = rng.normal(0.0, 0.1, size=576).astype(np.float32)
        original = x.copy()
        eps = 1e-12
        expected = ((x - x.mean(axis=-1, keepdims=True))
                    / np.sqrt(x.var(axis=-1, keepdims=True) + np.float32(eps)) * gamma + beta)
        np.testing.assert_array_equal(_layernorm(x, gamma, beta, eps), expected)
        np.testing.assert_array_equal(x, original)

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 129])
    def test_tiled_gelu_equals_whole_array_gelu(self, rows):
        x = np.random.default_rng(rows).normal(0.0, 3.0, size=(rows, 40)).astype(np.float32)
        expected = _gelu(x)
        assert _gelu_in_tiles(x) is x
        np.testing.assert_array_equal(x, expected)


class TestGelu:
    # Dense float32 grid over [-10, 10], with 0 and the erf clip points +-4.
    GRID = np.concatenate([np.linspace(-10.0, 10.0, 200_001, dtype=np.float32),
                           np.float32([0.0, 4.0, -4.0])])

    def test_erf_matches_math_erf(self):
        expected = [math.erf(v) for v in self.GRID.tolist()]
        got = _erf(self.GRID)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)

    def test_gelu_matches_exact_form(self):
        expected = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in self.GRID.tolist()]
        got = _gelu(self.GRID)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expected, rtol=0, atol=2e-6)

    def test_gelu_leaves_its_input_alone(self):
        x = self.GRID.copy()
        _gelu(x)
        np.testing.assert_array_equal(x, self.GRID)


def test_scoring_does_not_import_scipy():
    code = (
        "import sys\n"
        "import hapstack\n"
        "from hapstack.encoder import EncoderConfig, init_random\n"
        "from hapstack.model_io import LoadedModel\n"
        "from hapstack.pipeline import score_sentences\n"
        "from hapstack.wordpiece import build_ascii_vocab\n"
        "vocab = build_ascii_vocab(256)\n"
        "config = EncoderConfig(num_layers=1, num_heads=2, hidden_size=8,\n"
        "                       intermediate_size=16, vocab_size=len(vocab))\n"
        "model = LoadedModel(config, init_random(config, 0), vocab)\n"
        "(score,) = score_sentences(['a short sentence.'], model, batch_size=8)\n"
        "assert abs(score.hap + score.non_hap - 1.0) < 1e-6\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(hapstack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_package_root_loads_only_the_bundle_loader():
    # Names are imported from their modules; the root exposes model_io alone.
    code = (
        "import sys\n"
        "import hapstack\n"
        "assert callable(hapstack.model_io.load_bundle)\n"
        "print(sorted(m for m in ('pipeline', 'cli', 'bootstrap', 'rescore', 'heatmap', 'config')\n"
        "             if 'hapstack.' + m in sys.modules))\n"
    )
    src = str(Path(hapstack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


class TestCountParameters:
    def test_hand_derived_tiny_count(self):
        config = EncoderConfig(num_layers=1, num_heads=1, hidden_size=2,
                               intermediate_size=4, vocab_size=4, max_positions=4)
        # 16 emb + 4 LN + 24 attn + 4 LN + 22 ffn + 4 LN + 6 pooler + 6 classifier
        assert count_parameters(config) == 86

    def test_small_model_is_smaller(self):
        assert (count_parameters(piccolo_config(30000))
                < count_parameters(bert_base_config(30000)))

    def test_layers_monotonic(self):
        base = EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                             intermediate_size=16, vocab_size=16, max_positions=16)
        double = EncoderConfig(num_layers=4, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=16, max_positions=16)
        assert count_parameters(double) > count_parameters(base)

    def test_matches_actual_tensor_sizes(self, tiny_config):
        w = init_random(tiny_config, 0)
        total = sum(t.size for t in (w.token_embedding, w.position_embedding,
                                     w.embedding_ln_gamma, w.embedding_ln_beta,
                                     w.pooler_weight, w.pooler_bias,
                                     w.classifier_weight, w.classifier_bias))
        for layer in w.layers:
            total += sum(getattr(layer, f).size for f in (
                "q_weight", "q_bias", "k_weight", "k_bias", "v_weight", "v_bias",
                "out_weight", "out_bias", "attn_ln_gamma", "attn_ln_beta",
                "ffn_up_weight", "ffn_up_bias", "ffn_down_weight", "ffn_down_bias",
                "ffn_ln_gamma", "ffn_ln_beta"))
        assert count_parameters(tiny_config) == total

    @settings(max_examples=50, deadline=None)
    @given(heads=st.integers(1, 4), head_dim=st.integers(1, 8), data=st.data())
    def test_property_equals_the_tensor_shapes_sum(self, heads, head_dim, data):
        config = EncoderConfig(num_layers=data.draw(st.integers(1, 6), label="layers"),
                               num_heads=heads, hidden_size=heads * head_dim,
                               intermediate_size=data.draw(st.integers(1, 64), label="inter"),
                               vocab_size=data.draw(st.integers(1, 300), label="vocab"),
                               max_positions=data.draw(st.integers(2, 600), label="positions"))
        assert count_parameters(config) == sum(
            math.prod(shape) for shape in encoder.tensor_shapes(config).values())

    def test_huge_layer_count_builds_no_table(self, tiny_config):
        # A table of 10**9 layers would hold 1.6e10 entries: only tables of
        # at most two layers may be built, and the count scales exactly.
        shapes = encoder.tensor_shapes

        def small_tables_only(config):
            assert config.num_layers <= 2, f"a table of {config.num_layers} layers"
            return shapes(config)

        with mock.patch.object(encoder, "tensor_shapes", small_tables_only):
            one, two, huge = (count_parameters(dataclasses.replace(tiny_config, num_layers=n))
                              for n in (1, 2, 10**9))
        assert huge == one + (10**9 - 1) * (two - one)


class TestConfigValidation:
    def test_indivisible_heads(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_layers=1, num_heads=3, hidden_size=8,
                          intermediate_size=16, vocab_size=16, max_positions=16)

    def test_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_layers=0, num_heads=1, hidden_size=8,
                          intermediate_size=16, vocab_size=16, max_positions=16)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            EncoderConfig(num_layers=1, num_heads=1, hidden_size=8,
                          intermediate_size=16, vocab_size=16, max_positions=16,
                          activation="relu")

    @pytest.mark.parametrize("field, value", [
        ("num_layers", 2.0), ("hidden_size", "8"), ("num_heads", True),
        ("max_positions", None), ("num_labels", 3), ("layernorm_epsilon", float("nan")),
        ("layernorm_epsilon", float("inf")), ("layernorm_epsilon", 1e39),
        ("layernorm_epsilon", 10**39), ("layernorm_epsilon", True),
        ("layernorm_epsilon", 1e-50),
    ])
    def test_rejected_field_value(self, field, value):
        fields = dict(num_layers=1, num_heads=1, hidden_size=8, intermediate_size=16,
                      vocab_size=16, max_positions=16)
        fields[field] = value
        with pytest.raises(ValueError):
            EncoderConfig(**fields)
