"""Hate/Abuse/Profanity scoring toolkit.

A self-contained encoder-only transformer classifier with WordPiece
tokenization, attention heatmap attribution, corpus filtering, beam
hypothesis rescoring and lexicon-bootstrapped labeling.
"""

from . import model_io

__version__ = "0.1.0"
