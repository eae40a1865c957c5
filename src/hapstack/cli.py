"""Command-line entry point: one executable, one subcommand per capability.

Subcommands: score, filter, heatmap, rescore, sample, bench, init-random.
Data records go to stdout (or --output); diagnostics go to stderr. The
model path falls back to the HAPSTACK_MODEL environment variable. Exit
codes: 0 success, 1 runtime/I/O error, 2 usage error or unreadable model.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from typing import BinaryIO

from . import bootstrap, heatmap, model_io, pipeline, rescore, wordpiece
from .config import DEFAULT_HAP_THRESHOLD, DEFAULT_MAX_LENGTH, RunConfig
from .encoder import EncoderConfig, forward_batch, init_random
from .model_io import LoadedModel
from .wordpiece import encode, iter_lines

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class CommandError(Exception):
    def __init__(self, message: str, code: int = RUNTIME_ERROR):
        super().__init__(message)
        self.code = code


def _in_range(kind: type, low: float, high: float = float("inf")):
    """An argparse ``type``: a ``kind`` in [low, high], else a usage error."""
    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"{text} is not in [{low}, {high}]")
        return value
    parse.__name__ = kind.__name__  # argparse then reports "invalid int value"
    return parse


POSITIVE_INT, PROBABILITY = _in_range(int, 1), _in_range(float, 0.0, 1.0)


def _parse_config_spec(spec: str) -> EncoderConfig:
    """Parse 'layers,heads,hidden,intermediate,vocab,positions'."""
    parts = spec.split(",")
    if len(parts) != 6:
        raise CommandError(f"--config expects 6 comma-separated integers, got {spec!r}",
                           USAGE_ERROR)
    try:
        layers, heads, hidden, inter, vocab, positions = (int(p) for p in parts)
        if vocab < len(wordpiece.SPECIAL_TOKENS):  # no vocabulary can be that small
            raise ValueError(f"vocab_size must be >= {len(wordpiece.SPECIAL_TOKENS)}")
        return EncoderConfig(num_layers=layers, num_heads=heads, hidden_size=hidden,
                             intermediate_size=inter, vocab_size=vocab,
                             max_positions=positions)
    except ValueError as exc:
        raise CommandError(f"invalid --config {spec!r}: {exc}", USAGE_ERROR) from exc


def _load_model(args: argparse.Namespace) -> LoadedModel:
    path = args.model or os.environ.get("HAPSTACK_MODEL")
    if not path:
        raise CommandError("no model given: pass --model or set HAPSTACK_MODEL",
                           USAGE_ERROR)
    try:
        return model_io.load_bundle(path)
    except (OSError, model_io.BundleError, ValueError) as exc:
        raise CommandError(f"cannot load model {path}: {exc}", USAGE_ERROR) from exc


@contextmanager
def _output(path: str | None) -> Iterator[BinaryIO]:
    """A byte stream to the file at ``path``, or to stdout when None, flushed
    on the way out, also on an error; every subcommand writes its records
    through it as UTF-8."""
    sys.stdout.flush()
    with open(path, "wb") if path else nullcontext(sys.stdout.buffer) as out:
        try:
            yield out
        finally:
            out.flush()


def _write_lines(lines: list[str], path: str | None = None) -> None:
    """Write LF-terminated lines to ``path``, or to stdout when None."""
    with _output(path) as out:
        out.write("".join(line + "\n" for line in lines).encode("utf-8"))


def cmd_score(args: argparse.Namespace) -> int:
    model = _load_model(args)
    pipeline.refuse_overwrite(args.input, args.output)
    run_config = RunConfig(batch_size=args.batch_size, max_length=args.max_length)
    with _output(args.output) as out:
        for line, _, (score,) in pipeline.score_windows(
                ((line, [line]) for _, line in iter_lines(args.input)), model, run_config):
            out.write(f"{score.hap:.6f}\t{score.non_hap:.6f}\t{line}\n".encode("utf-8"))
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    model = _load_model(args)
    run_config = RunConfig(
        batch_size=args.batch_size,
        max_length=args.max_length,
        hap_threshold=args.threshold,
        max_flagged_fraction=args.max_flagged_fraction,
    )
    _write_lines(pipeline.run_corpus(args.input, args.output, model, run_config).to_lines())
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    config, weights, vocab = _load_model(args)
    pipeline.refuse_overwrite(args.input, args.output)
    separator = ""
    with _output(args.output) as out:
        for _, sentence in iter_lines(args.input):
            if not sentence:
                continue
            seq = encode(sentence, vocab, min(args.max_length, config.max_positions),
                         pad_to_max=False)
            hm = heatmap.compute_heatmap(forward_batch([seq], weights, config)[0], seq)
            block = heatmap.render_heatmap(hm, format=args.format).rstrip("\n")
            out.write(f"{separator}{block}\n".encode("utf-8"))
            separator = "\n"  # a blank line between blocks
    return 0


def cmd_rescore(args: argparse.Namespace) -> int:
    hypotheses = rescore.read_beam_file(args.input)
    model = None
    if any(h.non_hap is None for h in hypotheses):
        model = _load_model(args)
    ranked = rescore.rescore_beam(hypotheses, model, weight=args.rescore_lambda,
                                  batch_size=args.batch_size, max_length=args.max_length)
    _write_lines(rescore.format_ranked(ranked), args.output)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.mine:
        model = _load_model(args)
        mined = bootstrap.mine_high_confidence(
            (line for _, line in iter_lines(args.input)), model, min_hap=args.min_hap,
            limit=args.limit, seed=args.seed, batch_size=args.batch_size,
            max_length=args.max_length)
        _write_lines([f"{score.hap:.6f}\t{score.non_hap:.6f}\t{sentence}"
                      for sentence, score in mined], args.output)
        return 0
    if not args.lexicon:
        raise CommandError("--lexicon is required unless --mine is given", USAGE_ERROR)
    sentences = [line for _, line in iter_lines(args.input)]
    lexicon = bootstrap.load_lexicon(args.lexicon)
    samples = bootstrap.label_corpus(sentences, lexicon, mode=args.match_mode,
                                     case_fold=args.case_fold)
    if args.target_size is not None:
        samples = bootstrap.balanced_sample(samples, args.target_size, args.seed)
    _write_lines([f"{s.label.value}\t{s.sentence}\t{';'.join(s.matched_terms)}"
                  for s in samples], args.output)
    return 0


def _format_bench_report(report: pipeline.BenchReport) -> list[str]:
    dims = [str(d) for d in report.architecture]
    lines = [
        f"model={'x'.join(dims)}",
        f"architecture={','.join(dims)}",
        f"mean_latency_ms={report.mean_latency_ms:.4f}",
        f"stddev_ms={report.stddev_ms:.4f}",
        f"seeds={report.seeds}",
    ]
    if report.throughput_docs_per_s is not None:
        lines.append(f"docs_per_s={report.throughput_docs_per_s:.3f}")
    return lines


def cmd_bench(args: argparse.Namespace) -> int:
    config_a = _parse_config_spec(args.config)
    config_b = _parse_config_spec(args.config_b)
    if args.mode == "latency":
        positions = min(config_a.max_positions, config_b.max_positions)
        if args.seq_len > positions:
            raise CommandError(f"--seq-len {args.seq_len} exceeds max_positions {positions}",
                               USAGE_ERROR)
        report_a, report_b, speedup = pipeline.bench_latency(
            config_a, config_b, n_runs=args.runs, n_seeds=args.seeds,
            seq_len=args.seq_len)
    else:
        if not args.corpus:
            raise CommandError("--corpus is required for throughput mode", USAGE_ERROR)
        report_a, report_b, speedup = pipeline.bench_throughput(
            args.corpus, config_a, config_b, batch_size=args.batch_size, seed=args.seed)
    lines = _format_bench_report(report_a) + _format_bench_report(report_b)
    lines.append(f"speedup={speedup:.4f}")
    _write_lines(lines)
    return 0


def cmd_init_random(args: argparse.Namespace) -> int:
    config = _parse_config_spec(args.config)
    if args.vocab:
        vocab = wordpiece.load_vocab(args.vocab)
        if len(vocab) != config.vocab_size:
            raise CommandError(f"vocab file has {len(vocab)} tokens but config "
                               f"declares {config.vocab_size}", USAGE_ERROR)
    else:
        vocab = wordpiece.build_ascii_vocab(config.vocab_size)
    weights = init_random(config, args.seed)
    model_io.save_bundle(config, weights, vocab, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _add_model_flags(parser: argparse.ArgumentParser, batches: bool = True) -> None:
    """--model and --max-length; --batch-size too for a subcommand that batches."""
    parser.add_argument("--model", "-m", help="model bundle path "
                        "(falls back to $HAPSTACK_MODEL)")
    if batches:
        parser.add_argument("--batch-size", type=POSITIVE_INT, default=32,
                            help="most sentences per encoder call (default 32)")
    parser.add_argument("--max-length", type=_in_range(int, 2), default=DEFAULT_MAX_LENGTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapstack",
        description="Score, filter, explain and rescore text for hate/abuse/profanity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score sentences from stdin or --input",
                       description="Score one sentence per line, streaming, in input order. "
                       "An invalid UTF-8 line exits 1 after the lines before it are written.")
    _add_model_flags(p)
    p.add_argument("--input", help="sentence-per-line input file (default stdin)")
    p.add_argument("--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("filter", help="filter a document corpus",
                       description="Filter a corpus of one document per line, streaming: "
                       "decision records go to --output in input order, the run summary to "
                       "stdout. An invalid UTF-8 line exits 1 after the earlier records.")
    _add_model_flags(p)
    p.add_argument("--input", required=True, help="corpus file: <id>\\t<text>")
    p.add_argument("--output", required=True, help="decision records file")
    p.add_argument("--threshold", type=PROBABILITY, default=DEFAULT_HAP_THRESHOLD)
    p.add_argument("--max-flagged-fraction", type=PROBABILITY, default=0.5)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("heatmap", help="render attention heatmaps for sentences")
    _add_model_flags(p, batches=False)
    p.add_argument("--input", help="sentence-per-line input file (default stdin)")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--format", choices=heatmap.RENDER_FORMATS, default="text-grid")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("rescore", help="re-rank a beam file by combined score")
    _add_model_flags(p)
    p.add_argument("--input", required=True,
                   help="beam file: <original_score>\\t<text>[\\t<non_hap>]")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--lambda", dest="rescore_lambda",
                   type=_in_range(float, 0.0, sys.float_info.max), default=1.0,
                   help="weight on the non-HAP score (default 1.0)")
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("sample", help="weakly label sentences against a lexicon")
    _add_model_flags(p)
    p.add_argument("--input", help="sentence-per-line input file (default stdin)")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--lexicon", help="term-per-line lexicon file")
    p.add_argument("--match-mode", choices=bootstrap.MATCH_MODES,
                   default="word-boundary")
    p.add_argument("--case-fold", action="store_true")
    p.add_argument("--target-size", type=_in_range(int, 2),
                   help="draw a balanced sample of this size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mine", action="store_true",
                   help="mine high-confidence positives with the model instead")
    p.add_argument("--min-hap", type=PROBABILITY, default=0.5)
    p.add_argument("--limit", type=_in_range(int, 0), default=100)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bench", help="latency/throughput comparison of two architectures")
    p.add_argument("--mode", choices=("latency", "throughput"), default="latency")
    p.add_argument("--config", required=True,
                   help="layers,heads,hidden,intermediate,vocab,positions")
    p.add_argument("--config-b", required=True, help="second architecture, same format")
    p.add_argument("--runs", type=_in_range(int, 10), default=100)
    p.add_argument("--seeds", type=POSITIVE_INT, default=5)
    p.add_argument("--seq-len", type=POSITIVE_INT, default=32)
    p.add_argument("--corpus", help="corpus file for throughput mode")
    p.add_argument("--batch-size", type=POSITIVE_INT, default=32,
                   help="most sentences per encoder call in throughput mode (default 32)")
    p.add_argument("--seed", type=_in_range(int, 0), default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("init-random", help="write a randomly initialized model bundle")
    p.add_argument("--config", required=True,
                   help="layers,heads,hidden,intermediate,vocab,positions")
    p.add_argument("--seed", type=_in_range(int, 0), default=0)
    p.add_argument("--output", required=True, help="bundle path to write")
    p.add_argument("--vocab", help="vocab file (default: synthetic ASCII vocab)")
    p.set_defaults(func=cmd_init_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"hapstack: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print(f"hapstack: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
