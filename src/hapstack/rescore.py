"""Re-rank generation hypotheses by generator score plus weighted
non-toxicity score.

The combined score is ``original_score + weight * non_hap`` with weight
defaulting to 1.0 (a plain sum). Ranking is stable: ties keep the input
order, and weight 0 reproduces the original ranking exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .config import DEFAULT_MAX_LENGTH
from .model_io import LoadedModel
from .pipeline import score_sentences
from .wordpiece import iter_lines


@dataclass
class Hypothesis:
    text: str
    original_score: float
    non_hap: float | None = None
    new_score: float | None = None


def combine_scores(hypothesis: Hypothesis, weight: float = 1.0) -> Hypothesis:
    """Fill ``new_score = original_score + weight * non_hap``."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    if hypothesis.non_hap is None:
        raise ValueError(f"hypothesis {hypothesis.text!r} has no non_hap score")
    return replace(hypothesis,
                   new_score=hypothesis.original_score + weight * hypothesis.non_hap)


def rescore_beam(hypotheses: list[Hypothesis], model: LoadedModel | None = None,
                 weight: float = 1.0, batch_size: int = 32,
                 max_length: int = DEFAULT_MAX_LENGTH) -> list[Hypothesis]:
    """Score any hypotheses lacking a preset non_hap, combine, and sort by
    new_score descending (stable; ties keep input rank)."""
    if not hypotheses:
        raise ValueError("cannot rescore an empty beam")
    missing = [i for i, h in enumerate(hypotheses) if h.non_hap is None]
    if missing:
        if model is None:
            raise ValueError("hypotheses lack non_hap scores and no model was given")
        scores = score_sentences([hypotheses[i].text for i in missing], model,
                                 batch_size, max_length=max_length)
        hypotheses = list(hypotheses)
        for i, score in zip(missing, scores):
            hypotheses[i] = replace(hypotheses[i], non_hap=score.non_hap)
    combined = [combine_scores(h, weight) for h in hypotheses]
    return sorted(combined, key=lambda h: -h.new_score)


def read_beam_file(path: str | Path) -> list[Hypothesis]:
    """Parse ``<original_score><TAB><text>[<TAB><non_hap>]`` lines. A
    non-numeric or NaN original score, or a non_hap that is not a number in
    [0, 1], raises ``ValueError`` naming the line; an infinite original
    score sorts and is accepted."""
    hypotheses = []
    for lineno, line in iter_lines(path):
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"beam line {lineno} has {len(parts)} fields, expected 2 or 3")
        try:
            original = float(parts[0])
            non_hap = float(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ValueError(f"beam line {lineno}: {exc}") from None
        if math.isnan(original):
            raise ValueError(f"beam line {lineno}: original score is NaN")
        if non_hap is not None and not 0.0 <= non_hap <= 1.0:
            raise ValueError(f"beam line {lineno}: non_hap {parts[2]!r} is not in [0, 1]")
        hypotheses.append(Hypothesis(text=parts[1], original_score=original,
                                     non_hap=non_hap))
    return hypotheses


def format_ranked(ranked: list[Hypothesis]) -> list[str]:
    """``<rank><TAB><new_score><TAB><original_score><TAB><non_hap><TAB><text>`` lines."""
    return [
        f"{rank}\t{h.new_score:.6f}\t{h.original_score}\t{h.non_hap:.6f}\t{h.text}"
        for rank, h in enumerate(ranked, start=1)
    ]
