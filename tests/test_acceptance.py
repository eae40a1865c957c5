"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion is one test that prints a PASS/FAIL line (visible with
``pytest -s``); the timed criteria assert their wall-clock budgets too.
Trained-model score values are not reproducible with random weights, so
the checks are property- and oracle-based plus architecture-ratio bounds.
"""

import functools
import time

import numpy as np
import pytest

from hapstack.bootstrap import Lexicon, SampleLabel, balanced_sample, label_corpus, match_terms
from hapstack.config import RunConfig
from hapstack.encoder import (
    EncoderConfig,
    bert_base_config,
    count_parameters,
    forward,
    forward_batch,
    init_random,
    piccolo_config,
)
from hapstack.heatmap import compute_heatmap
from hapstack.model_io import LoadedModel, load_bundle, save_bundle
from hapstack.pipeline import (
    bench_latency,
    bench_throughput,
    decide_from_scores,
    escape_text,
    score_sentences,
)
from hapstack.rescore import Hypothesis, rescore_beam
from hapstack.wordpiece import Vocabulary, build_ascii_vocab, encode, pad_sequence

from conftest import random_words
from reference_forward import reference_forward

ORACLE_CONFIG = EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                              intermediate_size=16, vocab_size=64, max_positions=32)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {number:02d} {title}")
                raise
            print(f"PASS {number:02d} {title}")
        return wrapper
    return decorate


def random_sequence(rng, config, min_len=2, max_len=12, pad_tail=True):
    length = int(rng.integers(min_len, max_len + 1))
    ids = rng.integers(0, config.vocab_size, size=length).tolist()
    n_pad = int(rng.integers(0, 4)) if pad_tail else 0
    from hapstack.wordpiece import TokenizedSequence
    return TokenizedSequence(ids=ids + [0] * n_pad,
                             attention_mask=[1] * length + [0] * n_pad,
                             word_spans=[], original_text="", pieces=[], words=[])


@criterion(1, "oracle equivalence: vectorized forward matches scalar-loop reference")
def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for seed in range(10):
        weights = init_random(ORACLE_CONFIG, seed)
        for _ in range(5):
            seq = random_sequence(rng, ORACLE_CONFIG, min_len=2, max_len=8)
            out = forward(seq, weights, ORACLE_CONFIG)
            ref_logits, _, _ = reference_forward(seq.ids, seq.attention_mask,
                                                 weights, ORACLE_CONFIG)
            np.testing.assert_allclose(out.logits, ref_logits, atol=1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle check took {elapsed:.2f}s, budget is 5s"


@criterion(2, "attention normalization: rows sum to 1, pad columns get <= 1e-7")
def test_criterion_02_attention_normalization():
    rng = np.random.default_rng(7)
    weights = init_random(ORACLE_CONFIG, 0)
    for _ in range(100):
        seq = random_sequence(rng, ORACLE_CONFIG)
        out = forward(seq, weights, ORACLE_CONFIG)
        real = seq.length
        for layer in out.attentions:
            np.testing.assert_allclose(layer.sum(axis=-1), 1.0, atol=1e-6)
            if real < len(seq.ids):
                assert np.abs(layer[:, :, real:]).max() <= 1e-7


@criterion(3, "batch-mask equivalence: batched scores equal per-sentence scores")
def test_criterion_03_batch_mask_equivalence(tiny_model):
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        sentences = [random_words(rng, int(rng.integers(1, 10))) for _ in range(n)]
        batched = score_sentences(sentences, tiny_model, batch_size=n)
        singles = score_sentences(sentences, tiny_model, batch_size=1)
        for a, b in zip(batched, singles):
            assert abs(a.hap - b.hap) < 1e-5
            assert abs(a.non_hap - b.non_hap) < 1e-5


@criterion(4, "score contract: hap + non_hap = 1, both within [0, 1]")
def test_criterion_04_score_contract(tiny_model):
    rng = np.random.default_rng(17)
    sentences = [random_words(rng, int(rng.integers(1, 12))) for _ in range(60)]
    for score in score_sentences(sentences, tiny_model, batch_size=16):
        assert 0.0 <= score.hap <= 1.0
        assert 0.0 <= score.non_hap <= 1.0
        assert abs(score.hap + score.non_hap - 1.0) <= 1e-6


@criterion(5, "latency ratio: 4-layer config beats 12-layer config by > 2x")
def test_criterion_05_latency_ratio():
    start = time.perf_counter()
    small = piccolo_config(4096, 512)
    large = bert_base_config(4096, 512)
    report_small, report_large, speedup = bench_latency(small, large,
                                                        n_runs=100, n_seeds=5,
                                                        seq_len=32)
    elapsed = time.perf_counter() - start
    assert report_small.seeds == report_large.seeds == 5
    assert report_small.stddev_ms >= 0 and report_large.stddev_ms >= 0
    assert speedup > 2.0, f"speedup {speedup:.2f}x not above 2x"
    assert elapsed < 300.0, f"latency bench took {elapsed:.0f}s, budget is 5 min"


def short_sentence(rng):
    """Three short random words; about ten wordpieces under the ASCII vocab."""
    words = []
    for _ in range(3):
        n = int(rng.integers(1, 5))
        words.append("".join(chr(c) for c in rng.integers(ord("a"), ord("z") + 1, size=n)))
    return " ".join(words) + "."


@criterion(6, "throughput ratio: corpus filtering > 2x faster with the small config")
def test_criterion_06_throughput_ratio(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    corpus = tmp_path / "corpus.tsv"
    with open(corpus, "w", encoding="utf-8", newline="\n") as f:
        for i in range(50):
            text = " ".join(short_sentence(rng) for _ in range(100))
            f.write(f"doc{i}\t{escape_text(text)}\n")
    _, _, speedup = bench_throughput(corpus, piccolo_config(4096, 512),
                                     bert_base_config(4096, 512), batch_size=64)
    elapsed = time.perf_counter() - start
    assert speedup > 2.0, f"throughput speedup {speedup:.2f}x not above 2x"
    assert elapsed < 600.0, f"throughput bench took {elapsed:.0f}s, budget is 10 min"


@criterion(7, "parameter counts: small < base config, tiny config sums to 86")
def test_criterion_07_parameter_count():
    tiny = EncoderConfig(num_layers=1, num_heads=1, hidden_size=2,
                         intermediate_size=4, vocab_size=4, max_positions=4)
    assert count_parameters(tiny) == 86
    small = count_parameters(piccolo_config(30000, 512))
    base = count_parameters(bert_base_config(30000, 512))
    assert small < base


@criterion(8, "filter rule: worked example reproduces, monotonic over random scores")
def test_criterion_08_filter_rule():
    fraction, kept = decide_from_scores([0.9, 0.2, 0.1], 0.5, 0.25)
    assert fraction == pytest.approx(1 / 3, abs=1e-12)
    assert kept is False
    rng = np.random.default_rng(23)
    for _ in range(1000):
        scores = rng.random(int(rng.integers(1, 20))).tolist()
        thr, frac = float(rng.random()), float(rng.random())
        _, kept = decide_from_scores(scores, thr, frac)
        _, kept_thr = decide_from_scores(scores, min(1.0, thr + float(rng.random())), frac)
        _, kept_frac = decide_from_scores(scores, thr, min(1.0, frac + float(rng.random())))
        assert kept_thr >= kept
        assert kept_frac >= kept


@criterion(9, "rescoring flip: benign hypothesis wins at lambda 1, original order at 0")
def test_criterion_09_rescoring_flip():
    offensive = Hypothesis(text="offensive", original_score=-0.5, non_hap=0.02)
    benign = Hypothesis(text="benign", original_score=-1.2, non_hap=0.99)
    ranked = rescore_beam([offensive, benign], weight=1.0)
    assert [h.text for h in ranked] == ["benign", "offensive"]
    assert ranked[0].new_score == pytest.approx(-0.21)
    assert ranked[1].new_score == pytest.approx(-0.48)
    unweighted = rescore_beam([offensive, benign], weight=0.0)
    assert [h.text for h in unweighted] == ["offensive", "benign"]
    assert [h.new_score for h in unweighted] == [-0.5, -1.2]


@criterion(10, "heatmaps: unit single-token map, mass conservation, batch equality")
def test_criterion_10_heatmap(tiny_model):
    config, weights, vocab = tiny_model
    from hapstack.wordpiece import TokenizedSequence
    one = TokenizedSequence(ids=[vocab.cls_id], attention_mask=[1], word_spans=[],
                            original_text="", pieces=["[CLS]"], words=[])
    hm = compute_heatmap(forward(one, weights, config), one)
    np.testing.assert_array_equal(hm.matrix, [[1.0]])

    rng = np.random.default_rng(29)
    for _ in range(100):
        seq = encode(random_words(rng, int(rng.integers(1, 8))), vocab, 32,
                     pad_to_max=False)
        heat = compute_heatmap(forward(seq, weights, config), seq)
        mass = (sum(w for _, w in heat.word_attributions)
                + sum(w for _, w in heat.special_attributions))
        assert abs(mass - 1.0) <= 1e-6

    sentences = [random_words(rng, k) for k in (2, 5, 9)]
    seqs = [encode(s, vocab, 32, pad_to_max=False) for s in sentences]
    target = max(len(s.ids) for s in seqs)
    padded = [pad_sequence(s, target, vocab) for s in seqs]
    batched = [compute_heatmap(o, s)
               for o, s in zip(forward_batch(padded, weights, config), padded)]
    for seq, hm_batched in zip(seqs, batched):
        hm_single = compute_heatmap(forward(seq, weights, config), seq)
        np.testing.assert_allclose(hm_batched.matrix, hm_single.matrix, atol=1e-6)


@criterion(11, "bootstrap: 300/300 balanced draw, boundary matches subset of substring")
def test_criterion_11_bootstrap():
    lexicon = Lexicon(terms=("grack", "snib", "plorf"))
    rng = np.random.default_rng(31)
    sentences = []
    terms = list(lexicon.terms)
    for i in range(500):
        sentences.append(f"sentence {i} with a {terms[i % 3]} inside")
    for i in range(5000):
        sentences.append(f"plain sentence number {i} nothing here")
    samples = label_corpus(sentences, lexicon, "word-boundary")
    positives = sum(1 for s in samples if s.label is SampleLabel.HAP_POSITIVE)
    assert positives == 500
    drawn = balanced_sample(samples, 600, seed=0)
    drawn_pos = sum(1 for s in drawn if s.label is SampleLabel.HAP_POSITIVE)
    assert drawn_pos == 300
    assert len(drawn) - drawn_pos == 300

    alphabet = list("abgrcknspl if")
    for _ in range(1000):
        sentence = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 30))))
        boundary = set(match_terms(sentence, lexicon, "word-boundary"))
        substring = set(match_terms(sentence, lexicon, "exact-substring"))
        assert boundary <= substring


@criterion(12, "bundle round-trip is bitwise, corrupted files rejected")
def test_criterion_12_round_trip(tmp_path):
    from hapstack.model_io import BadMagicError, TruncatedBundleError

    rng = np.random.default_rng(37)
    for trial in range(10):
        layers = int(rng.integers(1, 4))
        heads = int(rng.integers(1, 3))
        hidden = int(heads * rng.integers(2, 5) * 2)
        config = EncoderConfig(num_layers=layers, num_heads=heads, hidden_size=hidden,
                               intermediate_size=int(rng.integers(4, 24)),
                               vocab_size=int(rng.integers(8, 64)),
                               max_positions=int(rng.integers(4, 32)))
        tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"]
        tokens += [f"tok{trial}_{i}" for i in range(config.vocab_size - 4)]
        vocab = Vocabulary(tuple(tokens))
        weights = init_random(config, trial)
        path = tmp_path / f"m{trial}.hap"
        save_bundle(config, weights, vocab, path)
        loaded = load_bundle(path)
        assert loaded.config == config
        assert loaded.vocab.tokens == vocab.tokens
        np.testing.assert_array_equal(loaded.weights.token_embedding,
                                      weights.token_embedding)
        np.testing.assert_array_equal(loaded.weights.layers[-1].ffn_down_weight,
                                      weights.layers[-1].ffn_down_weight)
        np.testing.assert_array_equal(loaded.weights.classifier_bias,
                                      weights.classifier_bias)
        # the whole file round-trips: saving the loaded model is byte-identical
        resaved = tmp_path / f"m{trial}_again.hap"
        save_bundle(loaded.config, loaded.weights, loaded.vocab, resaved)
        assert path.read_bytes() == resaved.read_bytes()

    good = tmp_path / "m0.hap"
    corrupted = bytearray(good.read_bytes())
    corrupted[:4] = b"XXXX"
    bad_path = tmp_path / "bad_magic.hap"
    bad_path.write_bytes(bytes(corrupted))
    with pytest.raises(BadMagicError):
        load_bundle(bad_path)
    short_path = tmp_path / "short.hap"
    short_path.write_bytes(good.read_bytes()[:-32])
    with pytest.raises(TruncatedBundleError):
        load_bundle(short_path)
