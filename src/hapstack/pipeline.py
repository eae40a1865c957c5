"""End-to-end scoring, document filtering and benchmark harnesses.

Documents are split into sentences, each sentence scored with a softmax
over the classifier's two logits (index 1 = HAP), and a document is
discarded when too large a fraction of its sentences score at or above
the threshold. Corpus runs read a line-delimited record format and score
a bounded window of documents at a time, writing the decisions in input
order. Sentences are batched in order of token length under a row and a
token ceiling, and a batch stops growing where its padding would cost
more than another call.
"""

from __future__ import annotations

import logging
import math
import re
import statistics
import tempfile
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .config import RunConfig
from .encoder import EncoderConfig, ModelWeights, count_parameters, forward_batch, init_random
from .model_io import LoadedModel
from .wordpiece import TokenizedSequence, build_ascii_vocab, encode, pad_sequence

logger = logging.getLogger(__name__)

# Sentences break at LF and between a terminator and the whitespace after it.
SENTENCE_BREAK = re.compile(r"\n|(?<=[.!?])(?=\s)")
BENCH_WARMUP_RUNS = 3
# bench_throughput repeats A/B/B/A runs until each side has run this long,
# so a short corpus is timed many times and a long one twice.
BENCH_THROUGHPUT_MIN_S = 2.0
MALFORMED_LINES_REPORTED = 5
# A corpus window is scored once it holds this many sentences: enough for
# cross-document batches, small enough that memory stays flat.
WINDOW_SENTENCES = 256
# The fixed cost of one forward_batch call on the 4-layer model, in tokens
# of batch work: a least-squares fit of its time over 29 batch shapes gave
# 2-3 ms per call at 200-250 us per token. A batch takes a longer sequence
# only while the pad tokens that adds cost less than starting a new batch.
CALL_COST_TOKENS = 12


@dataclass(frozen=True)
class HapScore:
    """Softmax probability pair; ``hap`` is the probability of toxic content."""

    non_hap: float
    hap: float


@dataclass(frozen=True)
class Document:
    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")


@dataclass
class FilterDecision:
    doc_id: str
    sentence_scores: list[tuple[str, HapScore]]
    flagged_fraction: float
    kept: bool


@dataclass
class BenchReport:
    model_label: str
    architecture: tuple[int, int, int, int]
    mean_latency_ms: float
    stddev_ms: float
    seeds: int
    throughput_docs_per_s: float | None = None


@dataclass
class CorpusSummary:
    processed: int
    skipped: int
    kept: int
    discarded: int
    wall_ms: float
    docs_per_s: float

    def to_lines(self) -> list[str]:
        return [
            f"processed={self.processed}",
            f"skipped={self.skipped}",
            f"kept={self.kept}",
            f"discarded={self.discarded}",
            f"wall_ms={self.wall_ms:.3f}",
            f"docs_per_s={self.docs_per_s:.3f}",
        ]


def split_sentences(text: str) -> list[str]:
    """Deterministic splitter: newlines always break; ``. ! ?`` break when
    followed by whitespace or end of line. Terminators stay with their
    sentence and empty fragments are dropped."""
    return [s for s in (part.strip() for part in SENTENCE_BREAK.split(text)) if s]


def softmax_pair(logits: np.ndarray) -> HapScore:
    """Two-way softmax in float64; index 1 is the HAP label."""
    a, b = float(logits[0]), float(logits[1])
    m = max(a, b)
    ea, eb = math.exp(a - m), math.exp(b - m)
    z = ea + eb
    return HapScore(non_hap=ea / z, hap=eb / z)


def _batch_indices(seqs: list[TokenizedSequence], batch_size: int,
                   token_budget: int) -> list[list[int]]:
    """Group indices into batches in order of token length (stable).

    A batch holds at most ``batch_size`` rows and, unless it is one row,
    at most ``token_budget`` padded tokens. It also stops growing when the
    next, longer sequence would add more pad tokens than
    ``CALL_COST_TOKENS``.
    """
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i].ids))
    batches: list[list[int]] = []
    width = 0
    for idx in order:
        length = len(seqs[idx].ids)
        rows = len(batches[-1]) if batches else 0
        if (not rows or rows >= batch_size or (rows + 1) * length > token_budget
                or rows * (length - width) > CALL_COST_TOKENS):
            batches.append([])
        batches[-1].append(idx)
        width = length
    return batches


def score_sentences(sentences: list[str], model: LoadedModel, batch_size: int,
                    max_length: int = 512, token_budget: int = 8192) -> list[HapScore]:
    """Score each sentence; output order matches input order and the
    results are independent of batch composition within 1e-5.

    Each distinct token-id sequence is run through the encoder once and
    its score shared by every sentence that encodes to it. ``batch_size``
    and ``token_budget`` are ceilings on a batch's rows and padded tokens.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    config, weights, vocab = model
    effective_max = min(max_length, config.max_positions)
    seqs: list[TokenizedSequence] = []
    slot_of_ids: dict[tuple[int, ...], int] = {}
    slots = []
    for sentence in sentences:
        seq = encode(sentence, vocab, effective_max, pad_to_max=False)
        slot = slot_of_ids.setdefault(tuple(seq.ids), len(seqs))
        if slot == len(seqs):
            seqs.append(seq)
        slots.append(slot)
    scores: list[HapScore | None] = [None] * len(seqs)
    for batch in _batch_indices(seqs, batch_size, token_budget):
        target = max(len(seqs[i].ids) for i in batch)
        padded = [pad_sequence(seqs[i], target, vocab) for i in batch]
        outputs = forward_batch(padded, weights, config)
        for i, output in zip(batch, outputs):
            scores[i] = softmax_pair(output.logits)
    return [scores[slot] for slot in slots]  # type: ignore[misc]


def decide_from_scores(hap_scores: list[float], hap_threshold: float,
                       max_flagged_fraction: float) -> tuple[float, bool]:
    """Filter rule on raw hap scores: flagged when score >= threshold,
    discarded when the flagged fraction exceeds the allowed maximum."""
    if not hap_scores:
        return 0.0, True
    flagged = sum(1 for s in hap_scores if s >= hap_threshold)
    fraction = flagged / len(hap_scores)
    return fraction, fraction <= max_flagged_fraction


def _decide_window(window: list[tuple[Document, list[str]]], model: LoadedModel,
                   run_config: RunConfig) -> list[FilterDecision]:
    """Score a window's sentences as one set and decide each document, in
    window order: the one place scored sentences become decisions."""
    scores = iter(score_sentences(
        [sentence for _, sentences in window for sentence in sentences], model,
        run_config.batch_size, max_length=run_config.max_length,
        token_budget=run_config.token_budget))
    decisions = []
    for doc, sentences in window:
        doc_scores = list(islice(scores, len(sentences)))
        fraction, kept = decide_from_scores([s.hap for s in doc_scores],
                                            run_config.hap_threshold,
                                            run_config.max_flagged_fraction)
        decisions.append(FilterDecision(doc.id, list(zip(sentences, doc_scores)),
                                        fraction, kept))
    return decisions


def filter_document(doc: Document, model: LoadedModel, hap_threshold: float,
                    max_flagged_fraction: float, batch_size: int = 32,
                    max_length: int = 512, token_budget: int = 8192) -> FilterDecision:
    """Decide one document as a window of one; ``RunConfig`` checks the settings."""
    run_config = RunConfig(batch_size=batch_size, max_length=max_length,
                           hap_threshold=hap_threshold, max_flagged_fraction=max_flagged_fraction,
                           token_budget=token_budget)
    return _decide_window([(doc, split_sentences(doc.text))], model, run_config)[0]


def unescape_text(text: str) -> str:
    """Undo the corpus format's LF escaping."""
    return text.replace("\\n", "\n")


def escape_text(text: str) -> str:
    return text.replace("\n", "\\n")


def _parse_corpus_line(line: str) -> Document | None:
    tab = line.find("\t")
    if tab <= 0:
        return None
    return Document(id=line[:tab], text=unescape_text(line[tab + 1:]))


def _write_window(window: list[tuple[Document, list[str]]], out, model: LoadedModel,
                  run_config: RunConfig) -> int:
    """Write a window's decision records in input order; return the kept count."""
    decisions = _decide_window(window, model, run_config)
    for d in decisions:
        joined = ",".join(f"{score.hap:.6f}" for _, score in d.sentence_scores)
        out.write(f"{d.doc_id}\t{int(d.kept)}\t{d.flagged_fraction:.6f}\t{joined}\n")
    return sum(d.kept for d in decisions)


def run_corpus(input_path: str | Path, output_path: str | Path,
               model: LoadedModel, run_config: RunConfig) -> CorpusSummary:
    """Filter a tab-separated corpus file, one document per line, streaming.

    Only LF ends a line; a CR stays in the text. Parsed documents gather in
    a window until it holds ``WINDOW_SENTENCES`` sentences; the window's
    sentences are then scored together, so batches span documents, and its
    decisions are written in input order. Memory is bounded by the window,
    not the corpus. Malformed lines are counted, skipped and reported in one
    warning. A line that is not valid UTF-8 raises ``UnicodeDecodeError``
    after every earlier decision is written.
    """
    if Path(output_path).resolve() == Path(input_path).resolve():
        raise ValueError(f"output {output_path} would overwrite the input corpus")
    start = time.perf_counter()
    processed = skipped = kept = 0
    first_skipped: list[int] = []
    window: list[tuple[Document, list[str]]] = []
    window_sentences = 0
    with (open(input_path, "rb") as src,
          open(output_path, "w", encoding="utf-8", newline="\n") as out):
        for lineno, raw in enumerate(src, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                _write_window(window, out, model, run_config)
                raise
            doc = _parse_corpus_line(line.removesuffix("\n"))
            if doc is None:
                skipped += 1
                if len(first_skipped) < MALFORMED_LINES_REPORTED:
                    first_skipped.append(lineno)
                continue
            sentences = split_sentences(doc.text)
            window.append((doc, sentences))
            window_sentences += len(sentences)
            processed += 1
            if window_sentences >= WINDOW_SENTENCES:
                kept += _write_window(window, out, model, run_config)
                window, window_sentences = [], 0
        kept += _write_window(window, out, model, run_config)
    if skipped:
        logger.warning("skipped %d malformed corpus line(s); first line numbers: %s",
                       skipped, ", ".join(map(str, first_skipped)))

    wall_s = time.perf_counter() - start
    return CorpusSummary(
        processed=processed,
        skipped=skipped,
        kept=kept,
        discarded=processed - kept,
        wall_ms=wall_s * 1000.0,
        docs_per_s=processed / wall_s if wall_s > 0 else float("inf"),
    )


def _bench_label(config: EncoderConfig) -> str:
    return "x".join(str(d) for d in config.architecture)


def _latency_case(config: EncoderConfig, seed: int,
                  seq_len: int) -> tuple[TokenizedSequence, ModelWeights]:
    """Fresh random weights and a random unpadded sequence for one seed."""
    length = min(seq_len, config.max_positions)
    ids = np.random.default_rng(seed + 1).integers(0, config.vocab_size, size=length)
    seq = TokenizedSequence(ids=ids.tolist(), attention_mask=[1] * length,
                            word_spans=[], pieces=[], words=[])
    return seq, init_random(config, seed)


def _ordered_by_size(config_a: EncoderConfig, config_b: EncoderConfig,
                     report_a: BenchReport, report_b: BenchReport) -> tuple[BenchReport, BenchReport]:
    """(smaller-model report, larger-model report) by parameter count."""
    if count_parameters(config_b) < count_parameters(config_a):
        return report_b, report_a
    return report_a, report_b


def bench_latency(config_a: EncoderConfig, config_b: EncoderConfig,
                  n_runs: int = 100, n_seeds: int = 5,
                  seq_len: int = 32) -> tuple[BenchReport, BenchReport, float]:
    """Single-sequence latency comparison on a monotonic clock.

    Per seed: fresh random weights for both sides, 3 untimed warm-up runs
    each, then ``n_runs`` timed forwards per side with the A/B order
    alternating run by run, so drift on a noisy machine hits both sides
    alike. A side's mean and stddev are taken over its per-seed median
    times. Speedup is larger-model mean over smaller-model mean.
    """
    if n_runs < 10:
        raise ValueError("n_runs must be >= 10")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    configs = (config_a, config_b)
    seed_medians: tuple[list[float], list[float]] = ([], [])
    for seed in range(n_seeds):
        cases = [_latency_case(config, seed, seq_len) for config in configs]
        for (seq, weights), config in zip(cases, configs):
            for _ in range(BENCH_WARMUP_RUNS):
                forward_batch([seq], weights, config)
        times: tuple[list[float], list[float]] = ([], [])
        for run in range(n_runs):
            for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                seq, weights = cases[side]
                t0 = time.perf_counter()
                forward_batch([seq], weights, configs[side])
                times[side].append(time.perf_counter() - t0)
        for side in (0, 1):
            seed_medians[side].append(statistics.median(times[side]))
    report_a, report_b = (
        BenchReport(
            model_label=_bench_label(config),
            architecture=config.architecture,
            mean_latency_ms=statistics.mean(medians) * 1000.0,
            stddev_ms=statistics.pstdev(medians) * 1000.0,
            seeds=n_seeds,
        )
        for config, medians in zip(configs, seed_medians)
    )
    small, large = _ordered_by_size(config_a, config_b, report_a, report_b)
    speedup = large.mean_latency_ms / small.mean_latency_ms
    return report_a, report_b, speedup


def bench_throughput(corpus_path: str | Path, config_a: EncoderConfig,
                     config_b: EncoderConfig, batch_size: int = 32,
                     seed: int = 0) -> tuple[BenchReport, BenchReport, float]:
    """Time ``run_corpus`` under two architectures with identical settings.

    Both models are built first. The corpus then runs in A/B/B/A groups,
    so drift on a noisy machine hits both sides alike, until each side has
    run for ``BENCH_THROUGHPUT_MIN_S`` seconds (at least two runs per
    side). A side reports its median wall time (``mean_latency_ms``), the
    stddev over its runs and the docs/s at that median. Speedup is
    larger-model median over smaller-model median.
    """
    if not Path(corpus_path).exists():
        raise FileNotFoundError(f"corpus not found: {corpus_path}")
    configs = (config_a, config_b)
    models = [LoadedModel(config=config, weights=init_random(config, seed),
                          vocab=build_ascii_vocab(config.vocab_size))
              for config in configs]
    run_config = RunConfig(batch_size=batch_size)
    walls_ms: tuple[list[float], list[float]] = ([], [])
    processed = 0
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "decisions.tsv"
        while min(sum(walls) for walls in walls_ms) < BENCH_THROUGHPUT_MIN_S * 1000.0:
            for side in (0, 1, 1, 0):
                summary = run_corpus(corpus_path, out_path, models[side], run_config)
                walls_ms[side].append(summary.wall_ms)
                processed = summary.processed
    report_a, report_b = (
        BenchReport(
            model_label=_bench_label(config),
            architecture=config.architecture,
            mean_latency_ms=statistics.median(walls),
            stddev_ms=statistics.pstdev(walls),
            seeds=1,
            throughput_docs_per_s=processed * 1000.0 / statistics.median(walls),
        )
        for config, walls in zip(configs, walls_ms)
    )
    small, large = _ordered_by_size(config_a, config_b, report_a, report_b)
    speedup = large.mean_latency_ms / small.mean_latency_ms
    return report_a, report_b, speedup
