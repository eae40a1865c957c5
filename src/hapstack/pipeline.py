"""End-to-end scoring, document filtering and benchmark harnesses.

Documents are split into sentences, each sentence scored with a softmax
over the classifier's two logits (index 1 = HAP), and a document is
discarded when too large a fraction of its sentences score at or above
the threshold.
"""

from __future__ import annotations

import ctypes
import errno
import logging
import math
import os
import re
import statistics
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np

from .config import DEFAULT_MAX_LENGTH, RunConfig
from .encoder import EncoderConfig, count_parameters, init_random, packed_logits
from .model_io import LoadedModel
# forward_batch and pad_sequence are not called here; they stay importable
# from this module because perfbench/tracing.py wraps them by these names.
from .encoder import forward_batch  # noqa: F401
from .wordpiece import TokenizedSequence, build_ascii_vocab, encode, pad_sequence  # noqa: F401
from .wordpiece import iter_lines

logger = logging.getLogger(__name__)

# Sentences break at LF and between a terminator and the whitespace after it.
SENTENCE_BREAK = re.compile(r"\n|(?<=[.!?])(?=\s)")
BENCH_WARMUP_RUNS = 3
# bench_throughput repeats A/B/B/A runs until each side has run this long,
# so a short corpus is timed many times and a long one twice.
BENCH_THROUGHPUT_MIN_S = 2.0
MALFORMED_LINES_REPORTED = 5
# score_windows scores a window once it holds this many sentences: enough
# for tasks across documents or lines, small enough that memory stays flat.
WINDOW_SENTENCES = 256
# Most real tokens per scoring task, unless the task is one sentence.
# Larger tasks run fewer, larger GEMMs, but a window's longest task then
# runs alone while the other pool threads wait. The sweep behind 512 is in
# CHANGES.md ("Padding-free scoring forward").
TOKEN_BUDGET = 512
# (set, get) thread-count functions of OpenBLAS, in the order they are
# tried: numpy's wheels export the scipy_openblas 64-bit-integer names,
# other builds the 64-bit or the plain ones.
OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# The OpenBLAS thread count is process-wide, so overlapping streaming runs
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


def _plan(seqs: list[TokenizedSequence], batch_size: int) -> tuple[list[list[int]], list[int]]:
    """The scoring plan of a window: ``(tasks, slots)``. ``slots[i]`` is the
    index of the first sequence with the ids of ``seqs[i]``, and only those
    first sequences run. They are cut, in order of token length (stable),
    into tasks of at most ``batch_size`` rows and, unless a task is one
    row, at most ``TOKEN_BUDGET`` real tokens; tasks come largest first
    (by tokens), so a long task does not run last and alone."""
    first: dict[tuple[int, ...], int] = {}
    slots = [first.setdefault(tuple(seq.ids), i) for i, seq in enumerate(seqs)]
    tasks: list[list[int]] = []
    tokens = 0
    for idx in sorted(first.values(), key=lambda i: len(seqs[i].ids)):
        length = len(seqs[idx].ids)
        if not tasks or len(tasks[-1]) >= batch_size or tokens + length > TOKEN_BUDGET:
            tasks.append([])
            tokens = 0
        tasks[-1].append(idx)
        tokens += length
    tasks.sort(key=lambda task: sum(len(seqs[i].ids) for i in task), reverse=True)
    return tasks, slots


@cache
def _openblas() -> tuple[Callable[[int], None], Callable[[], int],
                         Callable[[], None] | None] | None:
    """The (set_threads, get_threads, park) functions of the OpenBLAS mapped
    into this process, or None on a platform other than Linux, with another
    BLAS, or when the lookup fails. ``park`` is ``blas_thread_shutdown_``,
    or None where it is not exported: it stops OpenBLAS's worker threads,
    which otherwise spin for a while after each multithreaded call, and
    OpenBLAS starts them again at its next thread-count change or
    multithreaded call."""
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
                    set_threads = getattr(library, set_name)
                    get_threads = getattr(library, get_name)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    if (park := getattr(library, "blas_thread_shutdown_", None)) is not None:
                        park.argtypes, park.restype = [], None
                    return set_threads, get_threads, park
    except OSError:
        return None
    return None


@contextmanager
def _scoring_pool() -> Iterator[ThreadPoolExecutor | None]:
    """A thread pool with one worker per usable CPU, with OpenBLAS
    (``_openblas``) pinned to one thread until the last overlapping run
    leaves; None, for the sequential path, with one CPU or no OpenBLAS
    found. When its caller is the process's only Python thread, the first
    run in also parks OpenBLAS's worker threads, so workers still spinning
    after an earlier multithreaded call leave the cores to the pool.

    Whole tasks on every core beat one task whose GEMMs use every core:
    a forward's elementwise stages run on one core, and two pool threads
    on a BLAS that keeps its own threads contend for the same cores (see
    CHANGES.md, "Corpus windows scored on every core").
    """
    global _pinned_runs, _unpinned_threads
    # OpenBLAS is looked up on Linux only, where sched_getaffinity exists.
    blas = _openblas()
    if blas is None or (workers := len(os.sched_getaffinity(0))) < 2:
        yield None
        return
    set_threads, get_threads, park = blas
    with _pin_lock:
        if _pinned_runs == 0:
            _unpinned_threads = get_threads()
            set_threads(1)
            # Parking while another thread's multithreaded call is in
            # flight deadlocks, so only a process's sole thread parks.
            if threading.active_count() == 1 and park is not None:
                park()
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
                    max_length: int = DEFAULT_MAX_LENGTH,
                    pool: ThreadPoolExecutor | None = None) -> list[HapScore]:
    """Score each sentence; output order matches input order and the
    results are independent of task composition within 1e-5. Every encoded
    sentence is held until the call returns; ``score_windows`` streams.
    The tasks of ``_plan`` run on ``pool`` when one is given."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    config, weights, vocab = model
    effective_max = min(max_length, config.max_positions)
    seqs = [encode(sentence, vocab, effective_max, pad_to_max=False) for sentence in sentences]
    tasks, slots = _plan(seqs, batch_size)

    def run(task: list[int]) -> np.ndarray:
        return packed_logits([seqs[i] for i in task], weights, config)

    logits = np.empty((len(seqs), 2), dtype=np.float32)
    for task, rows in zip(tasks, pool.map(run, tasks) if pool else map(run, tasks)):
        logits[task] = rows
    return [softmax_pair(logits[slot]) for slot in slots]


def decide_from_scores(hap_scores: list[float], hap_threshold: float,
                       max_flagged_fraction: float) -> tuple[float, bool]:
    """Filter rule on raw hap scores: flagged when score >= threshold,
    discarded when the flagged fraction exceeds the allowed maximum."""
    if not hap_scores:
        return 0.0, True
    flagged = sum(1 for s in hap_scores if s >= hap_threshold)
    fraction = flagged / len(hap_scores)
    return fraction, fraction <= max_flagged_fraction


def _decide(doc: Document, sentences: list[str], scores: list[HapScore],
            run_config: RunConfig) -> FilterDecision:
    """Decide a document from its sentences' scores: the one place scored
    sentences become a decision."""
    fraction, kept = decide_from_scores([s.hap for s in scores], run_config.hap_threshold,
                                        run_config.max_flagged_fraction)
    return FilterDecision(doc.id, list(zip(sentences, scores)), fraction, kept)


def filter_document(doc: Document, model: LoadedModel, hap_threshold: float,
                    max_flagged_fraction: float, batch_size: int = 32,
                    max_length: int = DEFAULT_MAX_LENGTH) -> FilterDecision:
    """Decide one document as a window of one; ``RunConfig`` checks the settings."""
    run_config = RunConfig(batch_size=batch_size, max_length=max_length,
                           hap_threshold=hap_threshold, max_flagged_fraction=max_flagged_fraction)
    sentences = split_sentences(doc.text)
    scores = score_sentences(sentences, model, batch_size, max_length=max_length)
    return _decide(doc, sentences, scores, run_config)


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


def refuse_overwrite(input_path: str | Path | None, output_path: str | Path | None) -> None:
    """Before a streaming run opens its files: raise the ``OSError`` that
    reading would for a missing, directory or unreadable input, without
    opening it (a FIFO keeps its data), and ``ValueError`` for an output
    that is the input file (by path or hard link), which writing truncates."""
    if input_path is None:
        return
    source = os.stat(input_path)
    if os.path.isdir(input_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(input_path))
    if not os.access(input_path, os.R_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(input_path))
    if (output_path is not None and os.path.exists(output_path)
            and os.path.samestat(source, os.stat(output_path))):
        raise ValueError(f"output {output_path} would overwrite the input corpus")


def score_windows(items: Iterable[tuple[object, list[str]]], model: LoadedModel,
                  run_config: RunConfig) -> Iterator[tuple[object, list[str], list[HapScore]]]:
    """The one window loop of the streaming drivers: yield each ``(item,
    sentences)`` pair with its own scores, as ``(item, sentences, scores)``,
    in input order. A window is scored once it holds ``WINDOW_SENTENCES``
    sentences, as one set on the run's scoring pool (a sentence repeated in
    it is scored once), so memory is bounded by the window. When ``items``
    raises ``UnicodeDecodeError``, the window held so far is yielded first.
    The pool lives until the generator ends or is closed."""
    window: list[tuple[object, list[str]]] = []
    held = 0
    with _scoring_pool() as pool:
        def scored() -> Iterator[tuple[object, list[str], list[HapScore]]]:
            scores = iter(score_sentences([s for _, group in window for s in group], model,
                                          run_config.batch_size,
                                          max_length=run_config.max_length, pool=pool))
            for item, sentences in window:
                yield item, sentences, list(islice(scores, len(sentences)))
        try:
            for item, sentences in items:
                window.append((item, sentences))
                held += len(sentences)
                if held >= WINDOW_SENTENCES:
                    yield from scored()
                    window, held = [], 0
        except UnicodeDecodeError:
            yield from scored()
            raise
        yield from scored()


def run_corpus(input_path: str | Path, output_path: str | Path,
               model: LoadedModel, run_config: RunConfig) -> CorpusSummary:
    """Filter a tab-separated corpus file, one document per line, streaming.

    Lines are read by ``iter_lines`` (only LF ends a line) and documents
    scored by ``score_windows``, so tasks span documents, memory is bounded
    by the window and decisions are written in input order. Malformed
    lines are counted, skipped and reported in one warning. A line that is
    not valid UTF-8 raises ``UnicodeDecodeError`` after every earlier
    decision is written; an unreadable input, or an output that is the
    input, raises before the output is opened (``refuse_overwrite``). The
    OpenBLAS thread count is restored when the run returns or raises.
    """
    refuse_overwrite(input_path, output_path)
    start = time.perf_counter()
    processed = skipped = kept = 0
    first_skipped: list[int] = []

    def documents() -> Iterator[tuple[Document, list[str]]]:
        nonlocal processed, skipped
        for lineno, line in iter_lines(input_path):
            doc = _parse_corpus_line(line)
            if doc is None:
                skipped += 1
                if len(first_skipped) < MALFORMED_LINES_REPORTED:
                    first_skipped.append(lineno)
                continue
            processed += 1
            yield doc, split_sentences(doc.text)

    with open(output_path, "w", encoding="utf-8", newline="\n") as out:
        for doc, sentences, scores in score_windows(documents(), model, run_config):
            d = _decide(doc, sentences, scores, run_config)
            joined = ",".join(f"{score.hap:.6f}" for score in scores)
            out.write(f"{d.doc_id}\t{int(d.kept)}\t{d.flagged_fraction:.6f}\t{joined}\n")
            kept += d.kept
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
    """Single-sentence latency comparison of ``packed_logits``, the scoring
    forward, on a monotonic clock.

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
    if seq_len > min(config_a.max_positions, config_b.max_positions):
        raise ValueError(f"seq_len {seq_len} exceeds a config's max_positions")

    def timer(config: EncoderConfig, seed: int) -> Callable[[], float]:
        ids = np.random.default_rng(seed + 1).integers(
            0, config.vocab_size, size=seq_len).tolist()
        seq = TokenizedSequence(ids=ids, attention_mask=[1] * len(ids), word_spans=[],
                                pieces=[], words=[])
        weights = init_random(config, seed)

        def run() -> float:
            t0 = time.perf_counter()
            packed_logits([seq], weights, config)
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
                     config_b: EncoderConfig,
                     batch_size: int = 32) -> tuple[BenchReport, BenchReport, float]:
    """Time ``run_corpus`` under two architectures with identical settings.

    Both models are built first. The corpus then runs in A/B/B/A groups
    (see ``_interleaved``) until each side has run for
    ``BENCH_THROUGHPUT_MIN_S`` seconds, so each side runs at least twice.
    Weights are ``init_random(config, 0)``: the timed work depends on
    token ids and shapes, not on weight values, and decision files go to
    a temporary directory that is deleted. A side reports its median
    wall time (``mean_latency_ms``), the stddev over its runs and the
    docs/s at that median. Speedup is larger-model median over
    smaller-model median.
    """
    if not Path(corpus_path).exists():
        raise FileNotFoundError(f"corpus not found: {corpus_path}")
    run_config = RunConfig(batch_size=batch_size)
    summaries: list[CorpusSummary] = []

    def timer(config: EncoderConfig, out_path: Path) -> Callable[[], float]:
        model = LoadedModel(config, init_random(config, 0), build_ascii_vocab(config.vocab_size))

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
