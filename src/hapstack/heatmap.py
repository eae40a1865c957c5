"""Attention attribution for scored sequences.

The heatmap is the head-mean of the final block's attention, restricted
to unmasked positions (raw values, no renormalization). Row 0 — the
attention paid by the classification token — is aggregated into per-word
attributions by summing each word's surviving piece weights, so total
attribution mass is conserved. [CLS]/[SEP] keep their own mass, reported
separately from the word entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ForwardOutput
from .wordpiece import TokenizedSequence

RENDER_FORMATS = ("text-grid", "key-value-records")


@dataclass
class AttentionHeatmap:
    tokens: list[str]
    matrix: np.ndarray
    cls_row: np.ndarray
    word_attributions: list[tuple[str, float]]
    special_attributions: list[tuple[str, float]]


def compute_heatmap(output: ForwardOutput, seq: TokenizedSequence) -> AttentionHeatmap:
    """Head-mean final-block attention over the unmasked region of ``seq``."""
    final = output.attentions[-1]
    if final.shape[-1] != len(seq.ids):
        raise ValueError(f"attention size {final.shape[-1]} does not match "
                         f"sequence length {len(seq.ids)}")
    length = seq.length
    matrix = final[:, :length, :length].mean(axis=0)
    cls_row = matrix[0]

    word_attributions = []
    covered: set[int] = set()
    for word_index, first, count in seq.word_spans:
        weight = float(cls_row[first:first + count].sum())
        word_attributions.append((seq.words[word_index], weight))
        covered.update(range(first, first + count))
    special_attributions = [
        (seq.pieces[pos], float(cls_row[pos]))
        for pos in range(length)
        if pos not in covered
    ]
    return AttentionHeatmap(
        tokens=seq.pieces[:length],
        matrix=matrix,
        cls_row=cls_row,
        word_attributions=word_attributions,
        special_attributions=special_attributions,
    )


def render_heatmap(heatmap: AttentionHeatmap, format: str = "text-grid") -> str:
    """Deterministic text rendering.

    ``text-grid`` is the bare aligned matrix with 4-decimal cells;
    ``key-value-records`` emits LF-terminated ``ATT <i> <j> <weight>`` and
    ``WORD <word> <weight>`` lines with 6-decimal weights.
    """
    # One % format over every cell, as Python floats (faster than numpy
    # scalars, to the same text).
    rows, cols = heatmap.matrix.shape
    cells = tuple(heatmap.matrix.ravel().tolist())
    if format == "text-grid":
        return "\n".join([" ".join(["%.4f"] * cols)] * rows) % cells
    if format == "key-value-records":
        matrix = "".join([f"ATT {i} {j} %.6f\n" for i in range(rows) for j in range(cols)])
        return matrix % cells + "".join(f"WORD {word} {weight:.6f}\n"
                                        for word, weight in heatmap.word_attributions)
    raise ValueError(f"unknown render format {format!r}, expected one of {RENDER_FORMATS}")
