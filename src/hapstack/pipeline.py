"""End-to-end scoring, document filtering and benchmark harnesses.

Documents are split into sentences, each sentence scored with a softmax
over the classifier's two logits (index 1 = HAP), and a document is
discarded when too large a fraction of its sentences score at or above
the threshold. Corpus runs read a line-delimited record format and score
a bounded window of documents at a time, writing the decisions in input
order. Sentences are batched in order of token length under a row and a
token ceiling, and a batch stops growing where its padding would cost
more than another call. A corpus run scores each window's batches largest
first on a thread per usable CPU, with OpenBLAS pinned to one thread for
the run; with one CPU, or a BLAS other than OpenBLAS on Linux, they run
in sequence. Single requests always run in sequence and leave BLAS
threading alone.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import re
import statistics
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np

from .config import RunConfig
from .encoder import EncoderConfig, count_parameters, forward_batch, init_random
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
# (set, get) thread-count functions of OpenBLAS, in the order they are
# tried: numpy's wheels export the scipy_openblas 64-bit-integer names,
# other builds the 64-bit or the plain ones.
OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# The OpenBLAS thread count is process-wide, so overlapping corpus runs
# share one pin: the first run in saves the count, the last run out
# restores it.
_pin_lock = threading.Lock()
_pinned_runs = 0
_unpinned_threads = 0


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


@cache
def _openblas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The (set, get) thread-count functions of the OpenBLAS mapped into
    this process, or None on a platform other than Linux, with another
    BLAS, or when the lookup fails."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({fields[5].rstrip("\n") for fields in
                            (line.split(maxsplit=5) for line in maps)
                            if len(fields) == 6 and "openblas" in Path(fields[5]).name})
        for path in paths:
            library = ctypes.CDLL(path)
            for set_name, get_name in OPENBLAS_THREAD_FUNCTIONS:
                if hasattr(library, set_name) and hasattr(library, get_name):
                    set_threads, get_threads = getattr(library, set_name), getattr(library, get_name)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    return set_threads, get_threads
    except OSError:
        return None
    return None


@contextmanager
def _scoring_pool() -> Iterator[ThreadPoolExecutor | None]:
    """A thread pool with one worker per usable CPU, with OpenBLAS pinned
    to one thread until the last overlapping run leaves; None, for the
    sequential path, with one CPU or no OpenBLAS found.

    Whole batches on every core beat one batch whose GEMMs use every core:
    a forward's elementwise stages run on one core, and two pool threads
    on a BLAS that keeps its own threads contend for the same cores.
    """
    global _pinned_runs, _unpinned_threads
    # OpenBLAS is looked up on Linux only, where sched_getaffinity exists.
    blas = _openblas_threads()
    if blas is None or (workers := len(os.sched_getaffinity(0))) < 2:
        yield None
        return
    set_threads, get_threads = blas
    with _pin_lock:
        if _pinned_runs == 0:
            _unpinned_threads = get_threads()
            set_threads(1)
        _pinned_runs += 1
    try:
        with ThreadPoolExecutor(workers) as pool:
            yield pool
    finally:
        with _pin_lock:
            _pinned_runs -= 1
            if _pinned_runs == 0:
                set_threads(_unpinned_threads)


def score_sentences(sentences: list[str], model: LoadedModel, batch_size: int,
                    max_length: int = 512, token_budget: int = 8192,
                    pool: ThreadPoolExecutor | None = None) -> list[HapScore]:
    """Score each sentence; output order matches input order and the
    results are independent of batch composition within 1e-5.

    Each distinct token-id sequence is run through the encoder once and
    its score shared by every sentence that encodes to it. ``batch_size``
    and ``token_budget`` are ceilings on a batch's rows and padded tokens.
    Batches run largest first (rows x width), on ``pool`` when one is
    given, so a long batch does not run last and alone.
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
    batches = sorted(_batch_indices(seqs, batch_size, token_budget), reverse=True,
                     key=lambda batch: len(batch) * max(len(seqs[i].ids) for i in batch))

    def run(batch: list[int]) -> list[np.ndarray]:
        # Logits only: a finished batch waiting for its turn in map order
        # must not hold every layer's attention.
        width = max(len(seqs[i].ids) for i in batch)
        padded = [pad_sequence(seqs[i], width, vocab) for i in batch]
        return [output.logits for output in forward_batch(padded, weights, config)]

    scores: list[HapScore | None] = [None] * len(seqs)
    for batch, logits in zip(batches, pool.map(run, batches) if pool else map(run, batches)):
        for i, row in zip(batch, logits):
            scores[i] = softmax_pair(row)
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
                   run_config: RunConfig,
                   pool: ThreadPoolExecutor | None = None) -> list[FilterDecision]:
    """Score a window's sentences as one set and decide each document, in
    window order: the one place scored sentences become decisions."""
    scores = iter(score_sentences(
        [sentence for _, sentences in window for sentence in sentences], model,
        run_config.batch_size, max_length=run_config.max_length,
        token_budget=run_config.token_budget, pool=pool))
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
                  run_config: RunConfig, pool: ThreadPoolExecutor | None) -> int:
    """Write a window's decision records in input order; return the kept count."""
    decisions = _decide_window(window, model, run_config, pool)
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
    after every earlier decision is written. A window's batches run on the
    run's scoring pool (see ``_scoring_pool``); the OpenBLAS thread count is
    restored when the run returns or raises.
    """
    if os.path.exists(output_path) and os.path.samefile(input_path, output_path):
        raise ValueError(f"output {output_path} would overwrite the input corpus")
    start = time.perf_counter()
    processed = skipped = kept = 0
    first_skipped: list[int] = []
    window: list[tuple[Document, list[str]]] = []
    window_sentences = 0
    with (open(input_path, "rb") as src,
          open(output_path, "w", encoding="utf-8", newline="\n") as out,
          _scoring_pool() as pool):
        for lineno, raw in enumerate(src, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                _write_window(window, out, model, run_config, pool)
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
                kept += _write_window(window, out, model, run_config, pool)
                window, window_sentences = [], 0
        kept += _write_window(window, out, model, run_config, pool)
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


def _interleaved(timers: tuple[Callable[[], float], Callable[[], float]],
                 done: Callable[[list[float], list[float]], bool]) -> tuple[list[float], list[float]]:
    """Call two timers in A/B/B/A groups, so drift on a noisy machine hits
    both sides alike, until ``done(times_a, times_b)`` holds at the end of
    a group; return each side's times."""
    times: tuple[list[float], list[float]] = ([], [])
    while not done(*times):
        for side in (0, 1, 1, 0):
            times[side].append(timers[side]())
    return times


def _compare(configs: tuple[EncoderConfig, EncoderConfig], centres_ms: list[float],
             spreads_ms: list[float], seeds: int,
             docs: int | None = None) -> tuple[BenchReport, BenchReport, float]:
    """Both sides' reports, with docs/s at the centre time when ``docs`` is given, and
    the speedup: the larger model's time over the smaller's, by parameter count."""
    report_a, report_b = (
        BenchReport(config.architecture, centre, spread, seeds,
                    None if docs is None else docs * 1000.0 / centre)
        for config, centre, spread in zip(configs, centres_ms, spreads_ms))
    small, large = sorted((0, 1), key=lambda side: count_parameters(configs[side]))
    return report_a, report_b, centres_ms[large] / centres_ms[small]


def bench_latency(config_a: EncoderConfig, config_b: EncoderConfig,
                  n_runs: int = 100, n_seeds: int = 5,
                  seq_len: int = 32) -> tuple[BenchReport, BenchReport, float]:
    """Single-sequence latency comparison on a monotonic clock.

    Per seed: fresh random weights and a random unpadded sequence for each
    side, 3 untimed warm-up runs each, then ``n_runs`` timed forwards per
    side in A/B/B/A groups (see ``_interleaved``), so an odd ``n_runs`` is
    rounded up to the next even count. A side's mean and stddev are taken
    over its per-seed median times. Speedup is larger-model mean over
    smaller-model mean.
    """
    if n_runs < 10:
        raise ValueError("n_runs must be >= 10")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")

    def timer(config: EncoderConfig, seed: int) -> Callable[[], float]:
        ids = np.random.default_rng(seed + 1).integers(
            0, config.vocab_size, size=min(seq_len, config.max_positions)).tolist()
        seq = TokenizedSequence(ids=ids, attention_mask=[1] * len(ids), word_spans=[],
                                pieces=[], words=[])
        weights = init_random(config, seed)

        def run() -> float:
            t0 = time.perf_counter()
            forward_batch([seq], weights, config)
            return (time.perf_counter() - t0) * 1000.0
        return run

    seed_medians = []
    for seed in range(n_seeds):
        timers = (timer(config_a, seed), timer(config_b, seed))
        for warm_up in timers * BENCH_WARMUP_RUNS:
            warm_up()
        times = _interleaved(timers, lambda a, b: len(a) >= n_runs)
        seed_medians.append([statistics.median(side) for side in times])
    sides = list(zip(*seed_medians))
    return _compare((config_a, config_b), [statistics.mean(side) for side in sides],
                    [statistics.pstdev(side) for side in sides], n_seeds)


def bench_throughput(corpus_path: str | Path, config_a: EncoderConfig,
                     config_b: EncoderConfig, batch_size: int = 32,
                     seed: int = 0) -> tuple[BenchReport, BenchReport, float]:
    """Time ``run_corpus`` under two architectures with identical settings.

    Both models are built first. The corpus then runs in A/B/B/A groups
    (see ``_interleaved``) until each side has run for
    ``BENCH_THROUGHPUT_MIN_S`` seconds, so each side runs at least twice.
    Decision files go to a temporary directory. A side reports its median
    wall time (``mean_latency_ms``), the stddev over its runs and the
    docs/s at that median. Speedup is larger-model median over
    smaller-model median.
    """
    if not Path(corpus_path).exists():
        raise FileNotFoundError(f"corpus not found: {corpus_path}")
    run_config = RunConfig(batch_size=batch_size)
    summaries: list[CorpusSummary] = []

    def timer(config: EncoderConfig, out_path: Path) -> Callable[[], float]:
        model = LoadedModel(config, init_random(config, seed), build_ascii_vocab(config.vocab_size))

        def run() -> float:
            summaries.append(run_corpus(corpus_path, out_path, model, run_config))
            return summaries[-1].wall_ms
        return run

    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "decisions.tsv"
        walls = _interleaved((timer(config_a, out_path), timer(config_b, out_path)),
                             lambda a, b: min(sum(a), sum(b)) >= BENCH_THROUGHPUT_MIN_S * 1000.0)
    return _compare((config_a, config_b), [statistics.median(side) for side in walls],
                    [statistics.pstdev(side) for side in walls], 1, docs=summaries[-1].processed)
