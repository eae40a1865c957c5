"""Encoder tests: shapes, determinism, masking, and the scalar-loop oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hapstack
from hapstack.encoder import (
    EncoderConfig,
    _erf,
    _gelu,
    bert_base_config,
    count_parameters,
    forward,
    forward_batch,
    init_random,
    piccolo_config,
)
from hapstack.wordpiece import TokenizedSequence, build_ascii_vocab, encode, pad_sequence

from conftest import random_words
from reference_forward import reference_forward


def make_seq(ids, mask=None):
    return TokenizedSequence(ids=list(ids),
                             attention_mask=list(mask) if mask else [1] * len(ids),
                             word_spans=[], original_text="", pieces=[], words=[])


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


class TestForward:
    def test_single_token_attention_is_one(self, tiny_config):
        w = init_random(tiny_config, 0)
        out = forward(make_seq([2]), w, tiny_config)
        for layer in out.attentions:
            np.testing.assert_array_equal(layer, np.ones((2, 1, 1), dtype=np.float32))

    def test_pad_columns_get_zero_attention(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 5, 6, 3, 0, 0], [1, 1, 1, 1, 0, 0])
        out = forward(seq, w, tiny_config)
        for layer in out.attentions:
            assert np.abs(layer[:, :, 4:]).max() <= 1e-7

    def test_rows_sum_to_one(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 5, 6, 7, 3, 0], [1, 1, 1, 1, 1, 0])
        out = forward(seq, w, tiny_config)
        for layer in out.attentions:
            np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-6)

    def test_id_out_of_range(self, tiny_config):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError):
            forward(make_seq([tiny_config.vocab_size]), w, tiny_config)

    def test_too_long(self, tiny_config):
        w = init_random(tiny_config, 0)
        with pytest.raises(ValueError):
            forward(make_seq([2] * (tiny_config.max_positions + 1)), w, tiny_config)

    def test_deterministic_logits(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 9, 8, 3])
        first = forward(seq, w, tiny_config).logits
        second = forward(seq, w, tiny_config).logits
        np.testing.assert_array_equal(first, second)

    def test_pad_invisibility(self, tiny_config, ascii_vocab):
        w = init_random(tiny_config, 0)
        seq = encode("some words here.", ascii_vocab, 32, pad_to_max=False)
        base = forward(seq, w, tiny_config).logits
        padded = pad_sequence(seq, 24, ascii_vocab)
        np.testing.assert_allclose(forward(padded, w, tiny_config).logits, base, atol=1e-5)

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
            a = forward(make_seq(ids), w, config).logits
            b = forward(make_seq(swapped), w, config).logits
            if np.abs(a - b).max() > 1e-3:
                return
        pytest.fail("no random token swap moved the logits; positions look inert")


class TestForwardBatch:
    def test_batch_of_one_equals_forward(self, tiny_config):
        w = init_random(tiny_config, 0)
        seq = make_seq([2, 9, 8, 3])
        single = forward(seq, w, tiny_config)
        batched = forward_batch([seq], w, tiny_config)[0]
        np.testing.assert_array_equal(single.logits, batched.logits)

    def test_mixed_padding_matches_unbatched(self, tiny_config, ascii_vocab):
        w = init_random(tiny_config, 0)
        a = encode("ab", ascii_vocab, 8, pad_to_max=True)           # 3 real + pad
        b = encode("abc def gh", ascii_vocab, 8, pad_to_max=True)   # fills 8
        outs = forward_batch([a, b], w, tiny_config)
        for seq, out in zip([a, b], outs):
            np.testing.assert_allclose(out.logits, forward(seq, w, tiny_config).logits,
                                       atol=1e-5)

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
            out = forward(make_seq(ids, mask), weights, config)
            ref_logits, ref_attn, _ = reference_forward(ids, mask, weights, config)
            np.testing.assert_allclose(out.logits, ref_logits, atol=1e-5)
            np.testing.assert_allclose(out.attentions[-1], ref_attn[-1], atol=1e-5)


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
    ])
    def test_rejected_field_value(self, field, value):
        fields = dict(num_layers=1, num_heads=1, hidden_size=8, intermediate_size=16,
                      vocab_size=16, max_positions=16)
        fields[field] = value
        with pytest.raises(ValueError):
            EncoderConfig(**fields)
