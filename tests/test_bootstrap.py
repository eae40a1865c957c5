"""Lexicon labeling and balanced sampling tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapstack.bootstrap import (
    Lexicon,
    LexiconSample,
    SampleLabel,
    balanced_sample,
    label_corpus,
    load_lexicon,
    match_terms,
    mine_high_confidence,
    plan_balanced_counts,
)
from hapstack import pipeline

from conftest import random_words


@pytest.fixture
def fool_lexicon():
    return Lexicon(terms=("fool",))


class TestLexicon:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Lexicon(terms=())

    def test_whitespace_term_rejected(self):
        with pytest.raises(ValueError):
            Lexicon(terms=("ok", "  "))

    def test_terms_sorted_and_deduped(self):
        lex = Lexicon(terms=("b", "a", "b"))
        assert lex.terms == ("a", "b")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("fool\nidiot\n\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.terms == ("fool", "idiot")


class TestMatchTerms:
    def test_word_boundary_hit(self, fool_lexicon):
        assert match_terms("he is a fool", fool_lexicon, "word-boundary") == ["fool"]

    def test_boundary_semantics(self, fool_lexicon):
        assert match_terms("he is foolish", fool_lexicon, "word-boundary") == []
        assert match_terms("he is foolish", fool_lexicon, "exact-substring") == ["fool"]

    def test_punctuation_is_a_boundary(self, fool_lexicon):
        assert match_terms("you fool!", fool_lexicon, "word-boundary") == ["fool"]
        assert match_terms("(fool)", fool_lexicon, "word-boundary") == ["fool"]

    def test_case_sensitive_by_default(self, fool_lexicon):
        assert match_terms("FOOL around", fool_lexicon, "word-boundary") == []
        assert match_terms("FOOL around", fool_lexicon, "word-boundary",
                           case_fold=True) == ["fool"]

    def test_multiple_terms_sorted(self):
        lex = Lexicon(terms=("wretch", "fool"))
        matched = match_terms("a fool and a wretch", lex, "word-boundary")
        assert matched == ["fool", "wretch"]

    def test_unknown_mode(self, fool_lexicon):
        with pytest.raises(ValueError):
            match_terms("x", fool_lexicon, "regex")


LETTERS = st.text(alphabet="abcdefg hij", min_size=0, max_size=40)


@settings(max_examples=200)
@given(LETTERS)
def test_word_boundary_subset_of_substring(sentence):
    lex = Lexicon(terms=("abc", "hi", "de"))
    boundary = set(match_terms(sentence, lex, "word-boundary"))
    substring = set(match_terms(sentence, lex, "exact-substring"))
    assert boundary <= substring


class TestLabelCorpus:
    def test_positive_and_negative(self, fool_lexicon):
        samples = label_corpus(["a fool here", "a nice day"], fool_lexicon)
        assert samples[0].label is SampleLabel.HAP_POSITIVE
        assert samples[0].matched_terms == ("fool",)
        assert samples[1].label is SampleLabel.HAP_NEGATIVE
        assert samples[1].matched_terms == ()

    def test_all_negative(self, fool_lexicon):
        samples = label_corpus(["x", "y", "z"], fool_lexicon)
        assert all(s.label is SampleLabel.HAP_NEGATIVE for s in samples)

    def test_two_terms_both_listed(self):
        lex = Lexicon(terms=("fool", "wretch"))
        samples = label_corpus(["the fool met the wretch"], lex)
        assert samples[0].matched_terms == ("fool", "wretch")

    def test_permutation_equivariance(self, fool_lexicon):
        sentences = ["a fool", "fine", "another fool", "ok"]
        forward_order = label_corpus(sentences, fool_lexicon)
        reversed_order = label_corpus(sentences[::-1], fool_lexicon)
        assert forward_order == reversed_order[::-1]

    def test_label_invariant_enforced(self):
        with pytest.raises(ValueError):
            LexiconSample(sentence="x", label=SampleLabel.HAP_POSITIVE, matched_terms=())


def make_samples(n_pos, n_neg):
    pos = [LexiconSample(sentence=f"bad {i}", label=SampleLabel.HAP_POSITIVE,
                         matched_terms=("bad",)) for i in range(n_pos)]
    neg = [LexiconSample(sentence=f"ok {i}", label=SampleLabel.HAP_NEGATIVE,
                         matched_terms=()) for i in range(n_neg)]
    return pos + neg


def label_counts(samples):
    pos = sum(1 for s in samples if s.label is SampleLabel.HAP_POSITIVE)
    return pos, len(samples) - pos


class TestBalancedSample:
    def test_even_split(self):
        drawn = balanced_sample(make_samples(100, 100), 50, seed=0)
        assert label_counts(drawn) == (25, 25)

    def test_exhausted_label(self):
        drawn = balanced_sample(make_samples(5, 100), 50, seed=0)
        assert label_counts(drawn) == (5, 45)

    def test_plan_reports_shortfall(self):
        take_pos, take_neg, short_pos, short_neg = plan_balanced_counts(5, 100, 50)
        assert (take_pos, take_neg) == (5, 45)
        assert (short_pos, short_neg) == (20, 0)

    def test_deterministic(self):
        samples = make_samples(40, 40)
        assert balanced_sample(samples, 20, seed=9) == balanced_sample(samples, 20, seed=9)

    def test_seeds_differ(self):
        samples = make_samples(200, 200)
        a = balanced_sample(samples, 20, seed=0)
        b = balanced_sample(samples, 20, seed=1)
        assert a != b

    def test_no_replacement(self):
        drawn = balanced_sample(make_samples(30, 30), 40, seed=2)
        assert len({s.sentence for s in drawn}) == 40

    def test_target_too_large(self):
        with pytest.raises(ValueError):
            balanced_sample(make_samples(2, 2), 5, seed=0)

    def test_odd_target_differs_by_one(self):
        drawn = balanced_sample(make_samples(50, 50), 21, seed=3)
        pos, neg = label_counts(drawn)
        assert abs(pos - neg) == 1
        assert pos + neg == 21

    @settings(max_examples=100)
    @given(st.integers(0, 60), st.integers(0, 60), st.integers(2, 40), st.integers(0, 99))
    def test_counts_property(self, n_pos, n_neg, target, seed):
        if target > n_pos + n_neg:
            with pytest.raises(ValueError):
                balanced_sample(make_samples(n_pos, n_neg), target, seed)
            return
        drawn = balanced_sample(make_samples(n_pos, n_neg), target, seed)
        pos, neg = label_counts(drawn)
        assert pos + neg == target
        if n_pos >= (target + 1) // 2 and n_neg >= (target + 1) // 2:
            assert abs(pos - neg) <= 1


class TestMineHighConfidence:
    def test_zero_threshold_passes_everything(self, tiny_model):
        sentences = ["one thing.", "two things.", "three things."]
        mined = mine_high_confidence(sentences, tiny_model, min_hap=0.0,
                                     limit=10, seed=0)
        assert len(mined) == 3

    def test_threshold_one_usually_empty(self, tiny_model):
        sentences = ["one thing.", "two things."]
        mined = mine_high_confidence(sentences, tiny_model, min_hap=1.0,
                                     limit=10, seed=0)
        assert mined == []

    def test_limit_caps_output(self, tiny_model):
        sentences = [f"sentence number {i}." for i in range(8)]
        mined = mine_high_confidence(sentences, tiny_model, min_hap=0.0,
                                     limit=3, seed=0)
        assert len(mined) == 3

    def test_deterministic(self, tiny_model):
        sentences = [f"sentence number {i}." for i in range(8)]
        a = mine_high_confidence(sentences, tiny_model, min_hap=0.0, limit=3, seed=5)
        b = mine_high_confidence(sentences, tiny_model, min_hap=0.0, limit=3, seed=5)
        assert [s for s, _ in a] == [s for s, _ in b]

    def test_streamed_windows_draw_what_one_call_draws(self, tiny_model):
        # Three windows of lines; the draw is the one a single scoring
        # call over the whole input gives.
        rng = np.random.default_rng(9)
        sentences = [random_words(rng, 3) + "." for _ in range(2 * pipeline.WINDOW_SENTENCES + 9)]
        scores = pipeline.score_sentences(sentences, tiny_model, 32)
        median = float(np.median([s.hap for s in scores]))
        pool = [(s, score) for s, score in zip(sentences, scores) if score.hap >= median]
        expected = random.Random(4).sample(pool, 20)
        mined = mine_high_confidence(iter(sentences), tiny_model, min_hap=median,
                                     limit=20, seed=4)
        assert [s for s, _ in mined] == [s for s, _ in expected]
        for (_, got), (_, want) in zip(mined, expected):
            assert got.hap == pytest.approx(want.hap, abs=1e-6)
