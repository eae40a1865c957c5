"""Hate/Abuse/Profanity scoring toolkit.

A self-contained encoder-only transformer classifier with WordPiece
tokenization, attention heatmap attribution, corpus filtering, beam
hypothesis rescoring and lexicon-bootstrapped labeling.
"""

from .bootstrap import (
    Lexicon,
    LexiconSample,
    SampleLabel,
    balanced_sample,
    label_corpus,
    load_lexicon,
    match_terms,
    mine_high_confidence,
)
from .config import RunConfig
from .encoder import (
    EncoderConfig,
    ForwardOutput,
    ModelWeights,
    bert_base_config,
    count_parameters,
    forward,
    forward_batch,
    init_random,
    piccolo_config,
)
from .heatmap import AttentionHeatmap, compute_heatmap, render_heatmap
from .model_io import LoadedModel, load_bundle, save_bundle
from .pipeline import (
    BenchReport,
    Document,
    FilterDecision,
    HapScore,
    bench_latency,
    bench_throughput,
    filter_document,
    run_corpus,
    score_sentences,
    split_sentences,
)
from .rescore import Hypothesis, combine_scores, rescore_beam
from .wordpiece import (
    TokenizedSequence,
    Vocabulary,
    build_ascii_vocab,
    encode,
    load_vocab,
    tokenize_word,
)

__version__ = "0.1.0"
