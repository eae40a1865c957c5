"""Heatmap computation and rendering tests."""

import numpy as np
import pytest

from hapstack.encoder import ForwardOutput, forward_batch, init_random
from hapstack.heatmap import compute_heatmap, render_heatmap
from hapstack.wordpiece import TokenizedSequence, encode, pad_sequence

from conftest import random_words


def synthetic_output(attention, num_layers=1):
    """ForwardOutput carrying a hand-built final-layer attention [heads,T,T]."""
    attention = np.asarray(attention, dtype=np.float32)
    return ForwardOutput(
        logits=np.zeros(2, dtype=np.float32),
        attentions=[attention] * num_layers,
    )


def test_single_token_heatmap():
    seq = TokenizedSequence(ids=[2], attention_mask=[1], word_spans=[],
                            pieces=["[CLS]"], words=[])
    hm = compute_heatmap(synthetic_output(np.ones((2, 1, 1))), seq)
    np.testing.assert_array_equal(hm.matrix, [[1.0]])
    np.testing.assert_array_equal(hm.cls_row, [1.0])
    assert hm.tokens == ["[CLS]"]


def test_uniform_attention_cls_row():
    attention = np.full((3, 4, 4), 0.25)
    seq = TokenizedSequence(ids=[2, 9, 9, 3], attention_mask=[1, 1, 1, 1],
                            word_spans=[(0, 1, 2)],
                            pieces=["[CLS]", "x", "##y", "[SEP]"], words=["xy"])
    hm = compute_heatmap(synthetic_output(attention), seq)
    np.testing.assert_allclose(hm.cls_row, [0.25, 0.25, 0.25, 0.25])


def test_word_attribution_sums_piece_weights():
    # cls row weights: CLS .6, pieces .1/.2/.1 for one three-piece word
    attention = np.zeros((2, 5, 5), dtype=np.float32)
    attention[:, 0, :] = [0.6, 0.1, 0.2, 0.1, 0.0]
    attention[:, 1:, 0] = 1.0
    seq = TokenizedSequence(ids=[2, 9, 9, 9, 3], attention_mask=[1] * 5,
                            word_spans=[(0, 1, 3)],
                            pieces=["[CLS]", "a", "##b", "##c", "[SEP]"], words=["abc"])
    hm = compute_heatmap(synthetic_output(attention), seq)
    assert hm.word_attributions == [("abc", pytest.approx(0.4, abs=1e-6))]
    assert hm.special_attributions[0] == ("[CLS]", pytest.approx(0.6, abs=1e-6))
    assert hm.special_attributions[1] == ("[SEP]", pytest.approx(0.0, abs=1e-6))


def test_cls_row_is_matrix_row_zero(tiny_model):
    config, weights, vocab = tiny_model
    seq = encode("some short words.", vocab, 32, pad_to_max=False)
    hm = compute_heatmap(forward_batch([seq], weights, config)[0], seq)
    np.testing.assert_array_equal(hm.cls_row, hm.matrix[0])


def test_head_mean_preserves_row_stochasticity(tiny_model):
    config, weights, vocab = tiny_model
    rng = np.random.default_rng(5)
    for _ in range(10):
        seq = encode(random_words(rng, int(rng.integers(1, 6))), vocab, 32,
                     pad_to_max=False)
        hm = compute_heatmap(forward_batch([seq], weights, config)[0], seq)
        np.testing.assert_allclose(hm.matrix.sum(axis=1), 1.0, atol=1e-6)


def test_attribution_mass_conserved(tiny_model):
    config, weights, vocab = tiny_model
    rng = np.random.default_rng(6)
    for _ in range(10):
        seq = encode(random_words(rng, int(rng.integers(1, 6))), vocab, 32,
                     pad_to_max=False)
        hm = compute_heatmap(forward_batch([seq], weights, config)[0], seq)
        total = (sum(w for _, w in hm.word_attributions)
                 + sum(w for _, w in hm.special_attributions))
        assert total == pytest.approx(1.0, abs=1e-6)


def test_shape_mismatch_rejected(tiny_model):
    config, weights, vocab = tiny_model
    seq = encode("one two.", vocab, 32, pad_to_max=False)
    out = forward_batch([seq], weights, config)[0]
    longer = encode("one two three four.", vocab, 32, pad_to_max=False)
    with pytest.raises(ValueError):
        compute_heatmap(out, longer)


class TestBatch:
    def test_pointwise_equivalence(self, tiny_model):
        config, weights, vocab = tiny_model
        seqs = [encode("aa bb.", vocab, 16, pad_to_max=True),
                encode("cc dd ee ff.", vocab, 16, pad_to_max=True)]
        outs = forward_batch(seqs, weights, config)
        batched = [compute_heatmap(o, s) for o, s in zip(outs, seqs)]
        for out, seq, hm in zip(outs, seqs, batched):
            single = compute_heatmap(out, seq)
            np.testing.assert_array_equal(hm.matrix, single.matrix)
            assert hm.word_attributions == single.word_attributions

    def test_padded_batch_matches_unpadded_single(self, tiny_model):
        config, weights, vocab = tiny_model
        short = encode("aa bb.", vocab, 16, pad_to_max=False)
        long = encode("cc dd ee ff gg hh.", vocab, 16, pad_to_max=False)
        target = max(len(short.ids), len(long.ids))
        padded = [pad_sequence(short, target, vocab), pad_sequence(long, target, vocab)]
        batched = [compute_heatmap(o, s)
                   for o, s in zip(forward_batch(padded, weights, config), padded)]
        for original, hm in zip([short, long], batched):
            single = compute_heatmap(forward_batch([original], weights, config)[0],
                                     original)
            assert hm.matrix.shape == single.matrix.shape
            np.testing.assert_allclose(hm.matrix, single.matrix, atol=1e-6)


class TestRender:
    def test_one_by_one_grid(self):
        seq = TokenizedSequence(ids=[2], attention_mask=[1], word_spans=[],
                                pieces=["[CLS]"], words=[])
        hm = compute_heatmap(synthetic_output(np.ones((1, 1, 1))), seq)
        assert render_heatmap(hm, "text-grid") == "1.0000"

    def test_two_by_two_uniform(self):
        attention = np.full((2, 2, 2), 0.5)
        seq = TokenizedSequence(ids=[2, 3], attention_mask=[1, 1], word_spans=[],
                                pieces=["[CLS]", "[SEP]"], words=[])
        hm = compute_heatmap(synthetic_output(attention), seq)
        assert render_heatmap(hm, "text-grid") == "0.5000 0.5000\n0.5000 0.5000"

    def test_rendering_is_deterministic(self, tiny_model):
        config, weights, vocab = tiny_model
        seq = encode("fine words butter no parsnips.", vocab, 32, pad_to_max=False)
        hm = compute_heatmap(forward_batch([seq], weights, config)[0], seq)
        for fmt in ("text-grid", "key-value-records"):
            assert render_heatmap(hm, fmt) == render_heatmap(hm, fmt)

    def test_key_value_records_format(self, tiny_model):
        config, weights, vocab = tiny_model
        seq = encode("aa bb.", vocab, 32, pad_to_max=False)
        hm = compute_heatmap(forward_batch([seq], weights, config)[0], seq)
        lines = render_heatmap(hm, "key-value-records").splitlines()
        size = hm.matrix.shape[0]
        att_lines = [l for l in lines if l.startswith("ATT ")]
        word_lines = [l for l in lines if l.startswith("WORD ")]
        assert len(att_lines) == size * size
        assert len(word_lines) == len(hm.word_attributions)
        assert att_lines[0].split() == ["ATT", "0", "0", f"{hm.matrix[0, 0]:.6f}"]
        word, weight = hm.word_attributions[0]
        assert word_lines[0] == f"WORD {word} {weight:.6f}"
        assert render_heatmap(hm, "key-value-records").endswith("\n")

    def test_unknown_format(self, tiny_model):
        config, weights, vocab = tiny_model
        seq = encode("aa.", vocab, 16, pad_to_max=False)
        hm = compute_heatmap(forward_batch([seq], weights, config)[0], seq)
        with pytest.raises(ValueError):
            render_heatmap(hm, "png")
