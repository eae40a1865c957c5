"""Lexicon-driven weak labeling and balanced sampling.

Sentences containing a lexicon term become positives, the rest negatives,
and a seeded sampler draws an (approximately) label-balanced training set.
Matching is case-sensitive by default; word-boundary mode requires the
term to be delimited by non-letter characters or string edges, which
avoids the worst substring false positives while the literal substring
mode stays available.
"""

from __future__ import annotations

import enum
import logging
import random
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .config import DEFAULT_MAX_LENGTH, RunConfig
from .model_io import LoadedModel
from .pipeline import HapScore, score_windows
from .wordpiece import iter_lines

logger = logging.getLogger(__name__)

MATCH_MODES = ("exact-substring", "word-boundary")


class SampleLabel(enum.Enum):
    HAP_NEGATIVE = 0
    HAP_POSITIVE = 1


@dataclass
class Lexicon:
    """Deduplicated, sorted term list for deterministic matching."""

    terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("lexicon must contain at least one term")
        for term in self.terms:
            if not term.strip():
                raise ValueError(f"lexicon term {term!r} is empty after trimming")
        self.terms = tuple(sorted(set(self.terms)))


def load_lexicon(path: str | Path) -> Lexicon:
    """One term per line, UTF-8; blank lines are ignored."""
    return Lexicon(terms=tuple(line for _, line in iter_lines(path) if line))


@dataclass
class LexiconSample:
    sentence: str
    label: SampleLabel
    matched_terms: tuple[str, ...]

    def __post_init__(self) -> None:
        if (self.label is SampleLabel.HAP_POSITIVE) != bool(self.matched_terms):
            raise ValueError("positive label requires matched terms and vice versa")


def _boundary_occurrence(haystack: str, needle: str) -> bool:
    pos = haystack.find(needle)
    while pos != -1:
        before_ok = pos == 0 or not haystack[pos - 1].isalpha()
        end = pos + len(needle)
        after_ok = end == len(haystack) or not haystack[end].isalpha()
        if before_ok and after_ok:
            return True
        pos = haystack.find(needle, pos + 1)
    return False


def match_terms(sentence: str, lexicon: Lexicon, mode: str = "word-boundary",
                case_fold: bool = False) -> list[str]:
    """Terms of ``lexicon`` occurring in ``sentence`` (sorted term order).

    ``exact-substring`` is a literal containment test; ``word-boundary``
    additionally requires non-letter characters (or string edges) on both
    sides of the occurrence, so its matches are a subset of the former's.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown match mode {mode!r}, expected one of {MATCH_MODES}")
    haystack = sentence.casefold() if case_fold else sentence
    matched = []
    for term in lexicon.terms:
        needle = term.casefold() if case_fold else term
        if mode == "exact-substring":
            if needle in haystack:
                matched.append(term)
        elif _boundary_occurrence(haystack, needle):
            matched.append(term)
    return matched


def label_corpus(sentences: list[str], lexicon: Lexicon, mode: str = "word-boundary",
                 case_fold: bool = False) -> list[LexiconSample]:
    """One weakly labeled sample per sentence, positive iff any term matches."""
    samples = []
    for sentence in sentences:
        matched = tuple(match_terms(sentence, lexicon, mode, case_fold=case_fold))
        label = SampleLabel.HAP_POSITIVE if matched else SampleLabel.HAP_NEGATIVE
        samples.append(LexiconSample(sentence=sentence, label=label, matched_terms=matched))
    return samples


def plan_balanced_counts(n_positive: int, n_negative: int,
                         target_size: int) -> tuple[int, int, int, int]:
    """(take_pos, take_neg, shortfall_pos, shortfall_neg) for a draw aiming
    at an even label split; an exhausted label is taken whole and the other
    label absorbs the difference. Odd targets give the extra slot to the
    positive label."""
    if target_size < 2:
        raise ValueError("target_size must be >= 2")
    if target_size > n_positive + n_negative:
        raise ValueError(f"target_size {target_size} exceeds the "
                         f"{n_positive + n_negative} available samples")
    want_pos = target_size // 2 + target_size % 2
    want_neg = target_size - want_pos
    take_pos = min(want_pos, n_positive)
    take_neg = min(target_size - take_pos, n_negative)
    take_pos = min(target_size - take_neg, n_positive)
    return take_pos, take_neg, max(0, want_pos - take_pos), max(0, want_neg - take_neg)


def balanced_sample(samples: list[LexiconSample], target_size: int,
                    seed: int) -> list[LexiconSample]:
    """Seeded uniform draw without replacement, per label.

    Label counts differ by at most 1 when both labels have enough
    candidates; shortfalls against the even split are logged.
    """
    positives = [s for s in samples if s.label is SampleLabel.HAP_POSITIVE]
    negatives = [s for s in samples if s.label is SampleLabel.HAP_NEGATIVE]
    take_pos, take_neg, short_pos, short_neg = plan_balanced_counts(
        len(positives), len(negatives), target_size)
    if short_pos or short_neg:
        logger.warning("balanced_sample shortfall: positives short by %d, "
                       "negatives short by %d", short_pos, short_neg)
    rng = random.Random(seed)
    return rng.sample(positives, take_pos) + rng.sample(negatives, take_neg)


def mine_high_confidence(sentences: Iterable[str], model: LoadedModel, min_hap: float,
                         limit: int, seed: int, batch_size: int = 32,
                         max_length: int = DEFAULT_MAX_LENGTH) -> list[tuple[str, HapScore]]:
    """Score sentences and draw up to ``limit`` of those with
    hap >= ``min_hap`` (uniform, seeded); meant for downstream review.
    ``sentences`` stream through ``score_windows``, so memory is bounded by
    a window and the sentences kept."""
    if not 0.0 <= min_hap <= 1.0:
        raise ValueError("min_hap must lie in [0, 1]")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    pool = [(sentence, score) for sentence, _, (score,) in score_windows(
                ((sentence, [sentence]) for sentence in sentences), model,
                RunConfig(batch_size=batch_size, max_length=max_length))
            if score.hap >= min_hap]
    if len(pool) <= limit:
        return pool
    return random.Random(seed).sample(pool, limit)
