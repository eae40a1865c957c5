"""Run one workload in a fresh process and write its result as JSON.

    python3 perfbench/workloads.py --workload filter-web --inputs DIR \
        --seconds 12 --trace 0 --seed 1 --out result.json [--spans spans.jsonl]

``run.py`` starts this after generating the inputs, so the peak resident
memory reported here is the workload's own. With ``--trace 0`` the
workload is timed with nothing wrapped. With ``--trace 1`` each unit of
work (a corpus chunk, or a block of requests) runs twice, once plain and
once with the tracer installed, in alternating order; the traced runs
give the per-layer metrics and the ratio of the two gives
``trace.overhead``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import hapstack  # noqa: E402  (found through PYTHONPATH=src, set by run.py)
from hapstack import heatmap, model_io, pipeline, rescore  # noqa: E402
from hapstack.config import RunConfig  # noqa: E402
from hapstack.encoder import forward_batch  # noqa: E402
from hapstack.pipeline import decide_from_scores, softmax_pair, split_sentences  # noqa: E402
from hapstack.wordpiece import encode, tokenize_word  # noqa: E402

import machine  # noqa: E402
from tracing import Tracer  # noqa: E402

SCORE_TOLERANCE = 1e-5       # acceptance criterion 3
PAIR_TOLERANCE = 1e-6        # acceptance criterion 4
MASS_TOLERANCE = 1e-6        # acceptance criterion 10
CLI_BATCH_SIZE = 32
CLI_MAX_LENGTH = 512
KINDS = ("score", "rescore", "explain")
# Medians need MIN_SAMPLES per kind; a p95 needs ten samples beyond it.
MIN_SAMPLES = 100
# After each corpus chunk, interactive requests run for this share of the
# chunk's wall time.
PROBE_SHARE = 0.4
MIN_TAIL_SAMPLES = 200
WARMUP_REQUESTS = 9
WARMUP_LINES = 4
TRACE_BLOCK = 30
HASHED_REQUESTS = 300
MAX_FAILURE_NOTES = 20

RUN_CONFIGS = {
    # Acceptance criterion 6 settings.
    "filter-long": RunConfig(batch_size=64, dynamic_batching=True, workers=1),
    # CLI defaults, with two thread workers, one per core of a 2-core machine.
    "filter-web": RunConfig(batch_size=32, dynamic_batching=False,
                            max_length=CLI_MAX_LENGTH, workers=2),
}
SAMPLED_DOCS = {"filter-long": 1, "filter-web": 24}


class Ledger:
    """Ops attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def paired(tracer: Tracer, seconds: float, enough, run_unit) -> tuple[float, float]:
    """Run each unit of work twice, plain and traced, alternating which
    goes first, for ``seconds`` and until ``enough()``. ``run_unit(unit,
    tracer or None)`` returns its wall time. Returns (plain, traced) totals."""
    walls = [0.0, 0.0]
    deadline = time.perf_counter() + seconds
    unit = 0
    while time.perf_counter() < deadline or not enough():
        for traced in ((False, True) if unit % 2 == 0 else (True, False)):
            if traced:
                tracer.install(COUNTERS)
            try:
                walls[traced] += run_unit(unit, tracer if traced else None)
            finally:
                if traced:
                    tracer.restore()
        unit += 1
    return walls[0], walls[1]


# -- corpus workloads ------------------------------------------------------

def parse_chunk(path: Path) -> dict[str, str]:
    """doc id -> unescaped text for the valid lines of a chunk."""
    docs = {}
    for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
        tab = line.find("\t")
        if tab > 0:
            docs[line[:tab]] = line[tab + 1:].replace("\\n", "\n")
    return docs


def check_chunk(out_path: Path, chunk: dict, docs: dict[str, str], summary,
                ledger: Ledger) -> tuple[dict[str, list[str]], int]:
    """Check one ``run_corpus`` output against the generator's record.
    Returns the records by doc id and the number of sentences scored."""
    lines = out_path.read_text(encoding="utf-8").split("\n")
    records = {}
    sentences = 0
    if lines[-1] != "":
        ledger.fail(f"{out_path.name}: output does not end with a newline")
    got_ids = [line.split("\t", 1)[0] for line in lines[:-1]]
    if summary.skipped != chunk["malformed"]:
        ledger.fail(f"{chunk['path']}: skipped={summary.skipped}, "
                    f"expected {chunk['malformed']}")
    if got_ids != chunk["ids"]:
        ledger.fail(f"{chunk['path']}: records out of order or missing", ops=len(chunk["ids"]))
        return records, sentences
    for line in lines[:-1]:
        doc_id, kept, fraction, joined = line.split("\t")
        scores = joined.split(",") if joined else []
        expected = len(split_sentences(docs[doc_id]))
        if len(scores) != expected or kept not in ("0", "1"):
            ledger.fail(f"{doc_id}: {len(scores)} scores for {expected} sentences")
        records[doc_id] = [kept, fraction, *scores]
        sentences += len(scores)
    return records, sentences


def check_alone(doc_id: str, text: str, record: list[str], model, run_config: RunConfig,
                ledger: Ledger) -> None:
    """Rescore each sentence of a document alone with ``forward_batch([seq])``."""
    config, weights, vocab = model
    max_length = min(run_config.max_length, config.max_positions)
    haps = []
    for sentence in split_sentences(text):
        seq = encode(sentence, vocab, max_length, pad_to_max=False)
        haps.append(softmax_pair(forward_batch([seq], weights, config)[0].logits).hap)
    kept, _, *scores = record
    fraction, alone_kept = decide_from_scores(haps, run_config.hap_threshold,
                                              run_config.max_flagged_fraction)
    worst = max((abs(h - float(s)) for h, s in zip(haps, scores)), default=0.0)
    if len(haps) != len(scores) or worst > SCORE_TOLERANCE or int(alone_kept) != int(kept):
        ledger.fail(f"{doc_id}: alone-scored max diff {worst:.2e}, kept {alone_kept} vs {kept}")


class CorpusRun:
    def __init__(self, workload: str, inputs: Path, manifest: dict, model, ledger: Ledger):
        self.run_config = RUN_CONFIGS[workload]
        self.inputs = inputs
        self.chunks = manifest["chunks"]
        self.model = model
        self.ledger = ledger
        self.records: dict[str, list[str]] = {}
        self.texts: dict[str, str] = {}
        self.out_sha256: dict[str, str] = {}
        self.runs = 0

    def run_chunk(self, index: int, tracer: Tracer | None = None) -> tuple[float, int, int]:
        """Run ``run_corpus`` on one chunk; returns (wall s, docs, sentences)."""
        chunk = self.chunks[index % len(self.chunks)]
        in_path = self.inputs / chunk["path"]
        out_path = self.inputs / f"out-{self.runs}.tsv"
        self.runs += 1
        self.ledger.attempted += len(chunk["ids"]) + chunk["malformed"]
        root = tracer.root("bench.run_corpus", chunk["path"]) if tracer else contextlib.nullcontext()
        try:
            start = time.perf_counter()
            with root as span:
                summary = pipeline.run_corpus(in_path, out_path, self.model, self.run_config)
            wall = time.perf_counter() - start
            if span is not None:
                span.info["skipped"] = summary.skipped
        except Exception as exc:  # every line of the chunk failed
            self.ledger.fail(f"{chunk['path']}: {type(exc).__name__}: {exc}",
                             ops=len(chunk["ids"]) + chunk["malformed"])
            return 0.0, 0, 0
        docs = parse_chunk(in_path)
        records, sentences = check_chunk(out_path, chunk, docs, summary, self.ledger)
        self.texts.update(docs)
        self.records.update(records)
        self.out_sha256.setdefault(chunk["path"], machine.sha256_bytes(out_path.read_bytes()))
        out_path.unlink()
        return wall, summary.processed, sentences

    def check_sample(self, seed: int, count: int) -> None:
        import numpy as np

        ids = sorted(self.records)
        rng = np.random.default_rng([seed, 7])
        for i in rng.choice(len(ids), size=min(count, len(ids)), replace=False):
            doc_id = ids[int(i)]
            check_alone(doc_id, self.texts[doc_id], self.records[doc_id], self.model,
                        self.run_config, self.ledger)


def corpus_workload(args, manifest: dict, model, ledger: Ledger, tracer: Tracer | None) -> dict:
    run = CorpusRun(args.workload, args.inputs, manifest, model, ledger)
    warmup = args.inputs / "warmup.tsv"
    lines = (args.inputs / run.chunks[0]["path"]).read_text(encoding="utf-8").split("\n")
    warmup.write_text("".join(line + "\n" for line in lines[:WARMUP_LINES]), encoding="utf-8")
    pipeline.run_corpus(warmup, args.inputs / "warmup.out", model, run.run_config)
    result: dict = {}
    if tracer is None:
        # Every end-to-end metric exists on every workload: between chunks,
        # a closed loop of the interactive request mix gives the latencies,
        # so both sample the same stretch of time.
        requests = json.loads((args.inputs / manifest["requests"]).read_text(encoding="utf-8"))
        probe = RequestRun(requests, model, ledger)
        doc_rates, sentence_rates = [], []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while time.perf_counter() < deadline:
            wall, docs, sentences = run.run_chunk(index)
            index += 1
            if wall > 0:
                doc_rates.append(docs / wall)
                sentence_rates.append(sentences / wall)
            probe_until = time.perf_counter() + PROBE_SHARE * wall
            while time.perf_counter() < probe_until:
                probe.one()
        request_loop(probe, 0.0)
        result["metrics"] = {
            "docs_per_s": statistics.median(doc_rates),
            "sentences_per_s": statistics.median(sentence_rates),
            **probe.latency_metrics("p50"),
        }
        result["chunks_timed"] = len(doc_rates)
        result["samples"] = {kind: len(v) for kind, v in probe.latencies.items()}
    else:
        result["trace_wall"] = paired(tracer, args.seconds, lambda: True,
                                      lambda unit, t: run.run_chunk(unit, t)[0])
    run.check_sample(args.seed, SAMPLED_DOCS[args.workload])
    result["outputs_sha256"] = run.out_sha256
    return result


# -- request workloads -----------------------------------------------------

def execute(request: dict, index: int, model, ledger: Ledger,
            tracer: Tracer | None) -> tuple[float, str]:
    """Issue one request the way the CLI would; returns (latency s, output)."""
    kind = request["kind"]
    config, weights, vocab = model
    ledger.attempted += 1
    root = tracer.root(f"bench.{kind}", str(index)) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with root:
        if kind == "score":
            result = pipeline.score_sentences([request["text"]], model, CLI_BATCH_SIZE,
                                              max_length=CLI_MAX_LENGTH)
        elif kind == "rescore":
            beam = [rescore.Hypothesis(text=text, original_score=original)
                    for original, text in request["beam"]]
            result = rescore.rescore_beam(beam, model, weight=1.0, batch_size=CLI_BATCH_SIZE,
                                          max_length=CLI_MAX_LENGTH)
        else:
            seq = pipeline.encode(request["text"], vocab,
                                  min(CLI_MAX_LENGTH, config.max_positions), pad_to_max=False)
            output = pipeline.forward_batch([seq], weights, config)[0]
            hm = heatmap.compute_heatmap(output, seq)
            result = (hm, heatmap.render_heatmap(hm, "key-value-records"))
    latency = time.perf_counter() - start
    return latency, check_request(request, index, result, ledger)


def check_request(request: dict, index: int, result, ledger: Ledger) -> str:
    """Check one request's result and return its output text."""
    kind = request["kind"]
    if kind == "score":
        (score,) = result
        if abs(score.hap + score.non_hap - 1.0) > PAIR_TOLERANCE:
            ledger.fail(f"request {index}: hap + non_hap = {score.hap + score.non_hap!r}")
        return f"{score.hap:.6f}\t{score.non_hap:.6f}\n"
    if kind == "rescore":
        positions = {(original, text): i for i, (original, text) in enumerate(request["beam"])}
        order = [positions.get((h.original_score, h.text), -1) for h in result]
        ok = sorted(order) == list(range(len(request["beam"])))
        for a, b, ia, ib in zip(result, result[1:], order, order[1:]):
            if a.new_score < b.new_score or (a.new_score == b.new_score and ia > ib):
                ok = False
        for h in result:
            if abs(h.new_score - (h.original_score + h.non_hap)) > PAIR_TOLERANCE:
                ok = False
        if not ok:
            ledger.fail(f"request {index}: beam not ranked stably by new_score")
        return "".join(line + "\n" for line in rescore.format_ranked(result))
    hm, rendered = result
    mass = (sum(w for _, w in hm.word_attributions)
            + sum(w for _, w in hm.special_attributions))
    if abs(mass - float(hm.cls_row.sum())) > MASS_TOLERANCE or not rendered:
        ledger.fail(f"request {index}: attributions sum to {mass!r}, "
                    f"CLS row holds {float(hm.cls_row.sum())!r}")
    return rendered


class RequestRun:
    def __init__(self, requests: list[dict], model, ledger: Ledger):
        self.requests = requests
        self.model = model
        self.ledger = ledger
        self.next = 0
        self.latencies: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.digest = hashlib.sha256()
        self.hashed = 0

    def one(self, tracer: Tracer | None = None, index: int | None = None,
            record: bool = True) -> float:
        if index is None:
            index = self.next
            self.next += 1
        request = self.requests[index % len(self.requests)]
        try:
            latency, output = execute(request, index, self.model, self.ledger, tracer)
        except Exception as exc:
            self.ledger.fail(f"request {index}: {type(exc).__name__}: {exc}")
            return 0.0
        if record:
            self.latencies[request["kind"]].append(latency)
            if self.hashed == index < HASHED_REQUESTS:
                self.digest.update(output.encode("utf-8"))
                self.hashed += 1
        return latency

    def enough(self, samples: int) -> bool:
        return all(len(v) >= samples for v in self.latencies.values())

    def latency_metrics(self, quantile: str) -> dict:
        if quantile == "p50":
            return {f"{kind}_p50_ms": statistics.median(v) * 1000.0
                    for kind, v in self.latencies.items()}
        return {f"{kind}_p95_ms": percentile(v, 95) * 1000.0
                for kind, v in self.latencies.items()}


def request_loop(run: RequestRun, seconds: float) -> None:
    """Closed loop with one caller: the next request is sent when the last
    returns. Runs for ``seconds`` and until every kind has enough samples."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not run.enough(MIN_SAMPLES):
        run.one()


def request_workload(args, manifest: dict, model, ledger: Ledger,
                     tracer: Tracer | None) -> dict:
    requests = json.loads((args.inputs / manifest["requests"]).read_text(encoding="utf-8"))
    run = RequestRun(requests, model, ledger)
    for i in range(WARMUP_REQUESTS):
        run.one(index=len(requests) - 1 - i, record=False)
    result: dict = {}
    if tracer is None:
        start = time.perf_counter()
        request_loop(run, args.seconds)
        wall = time.perf_counter() - start
        sentences = sum(8 if requests[i % len(requests)]["kind"] == "rescore" else 1
                        for i in range(run.next))
        result["metrics"] = {"docs_per_s": run.next / wall, "sentences_per_s": sentences / wall,
                             **run.latency_metrics("p50")}
    else:
        def block(unit: int, traced: Tracer | None) -> float:
            start = time.perf_counter()
            for i in range(unit * TRACE_BLOCK, (unit + 1) * TRACE_BLOCK):
                run.one(traced, index=i, record=traced is None)
            return time.perf_counter() - start

        # The p95s repeat too poorly between runs to bound, so they are
        # diagnostics, taken from the plain blocks of the traced run.
        result["trace_wall"] = paired(tracer, args.seconds,
                                      lambda: run.enough(MIN_TAIL_SAMPLES), block)
        result["tail"] = run.latency_metrics("p95")
    result["samples"] = {kind: len(v) for kind, v in run.latencies.items()}
    result["outputs_sha256"] = {f"requests[0:{run.hashed}]": run.digest.hexdigest()}
    return result


# -- counters taken at the wrapped boundaries ------------------------------

def count_split(span, result, text):
    span.info["sentences"] = len(result)


def count_encode(span, result, text, vocab, max_length, pad_to_max, lowercase=False):
    real = sum(result.attention_mask)
    pieces = real - 2
    truncated = False
    if pieces >= max_length - 2 and result.word_spans:
        word_index, _, take = result.word_spans[-1]
        word = result.words[word_index]
        truncated = (word_index < len(result.words) - 1
                     or take < len(tokenize_word(word.lower() if lowercase else word, vocab)))
    span.info.update(tokens=real, pieces=pieces, unk=result.ids[:real].count(vocab.unk_id),
                     truncated=truncated, key=hash(tuple(result.ids[:real])))


def count_forward(span, result, seqs, weights, config):
    rows, t = len(seqs), len(seqs[0].ids) if seqs else 0
    h, i, layers = config.hidden_size, config.intermediate_size, config.num_layers
    n = rows * t
    # Matrix products only: QKV and output projections, scores and context,
    # the two FFN GEMMs, pooler and classifier. Elementwise work is left out.
    per_layer = 2 * n * (4 * h * h + 2 * h * i) + 4 * rows * t * t * h
    flop = layers * per_layer + 2 * rows * h * (h + config.num_labels)
    span.info.update(rows=rows, t=t, real=sum(sum(s.attention_mask) for s in seqs),
                     flop=flop, attention_bytes=4 * layers * rows * config.num_heads * t * t)


COUNTERS = {
    "pipeline.split_sentences": count_split,
    "pipeline.encode": count_encode,
    "pipeline.forward_batch": count_forward,
}


def layer_metrics(tracer: Tracer, plain: float, traced: float) -> dict:
    spans = tracer.spans
    self_times = tracer.self_times()
    by_id = {span.id: span for span in spans}
    self_by_name: dict[str, float] = {}
    for span in spans:
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_times[span.id]

    def named(name):
        return [span for span in spans if span.name == name]

    def under_scoring(span):
        parent = by_id.get(span.parent)
        return parent is not None and parent.name.endswith(".score_sentences")

    encodes = sorted(named("pipeline.encode"), key=lambda s: s.start)
    tokens = sum(s.info["tokens"] for s in encodes)
    pieces = sum(s.info["pieces"] for s in encodes)
    seen, repeats, scored = set(), 0, 0
    for span in encodes:
        if under_scoring(span):
            scored += 1
            repeats += span.info["key"] in seen
            seen.add(span.info["key"])
    forwards = named("pipeline.forward_batch")
    batches = [s for s in forwards if under_scoring(s)]
    padded = sum(s.info["rows"] * s.info["t"] for s in batches)
    forward_s = self_by_name.get("pipeline.forward_batch", 0.0)
    gflop = sum(s.info["flop"] for s in forwards) / 1e9
    roots = [span for span in spans if span.parent is None]
    root_s = sum(span.duration for span in roots)
    self_sum = sum(self_times.values())
    bench_self = sum((t for name, t in self_by_name.items()
                     if name.startswith("bench.") and name not in ("bench.run_corpus",
                                                                   "bench.rescore")), 0.0)
    return {
        "pipeline.split_s": self_by_name.get("pipeline.split_sentences", 0.0),
        "pipeline.sentences": sum(s.info["sentences"] for s in named("pipeline.split_sentences")),
        "wordpiece.encode_s": self_by_name.get("pipeline.encode", 0.0),
        "wordpiece.tokens": tokens,
        "wordpiece.unk_rate": sum(s.info["unk"] for s in encodes) / pieces if pieces else 0.0,
        "wordpiece.truncated": sum(s.info["truncated"] for s in encodes),
        "pipeline.batches": len(batches),
        "pipeline.rows_per_batch": (sum(s.info["rows"] for s in batches) / len(batches)
                                    if batches else 0.0),
        "pipeline.padding_efficiency": (sum(s.info["real"] for s in batches) / padded
                                        if padded else 0.0),
        "pipeline.pad_s": self_by_name.get("pipeline.pad_sequence", 0.0),
        "pipeline.dup_share": repeats / scored if scored else 0.0,
        "encoder.forward_s": forward_s,
        "encoder.calls": len(forwards),
        "encoder.rows": sum(s.info["rows"] for s in forwards),
        "encoder.padded_tokens": sum(s.info["rows"] * s.info["t"] for s in forwards),
        "encoder.gflop": gflop,
        "encoder.gflops_per_s": gflop / forward_s if forward_s else 0.0,
        "encoder.attention_mb": sum(s.info["attention_bytes"] for s in forwards) / 2**20,
        "pipeline.softmax_s": self_by_name.get("pipeline.softmax_pair", 0.0),
        "pipeline.corpus_self_s": self_by_name.get("bench.run_corpus", 0.0),
        "pipeline.skipped": sum(s.info["skipped"] for s in named("bench.run_corpus")),
        "pipeline.filter_self_s": self_by_name.get("pipeline.filter_document", 0.0),
        "pipeline.score_self_s": (self_by_name.get("pipeline.score_sentences", 0.0)
                                  + self_by_name.get("rescore.score_sentences", 0.0)),
        "heatmap.compute_s": self_by_name.get("heatmap.compute_heatmap", 0.0),
        "heatmap.render_s": self_by_name.get("heatmap.render_heatmap", 0.0),
        "rescore.self_s": self_by_name.get("bench.rescore", 0.0),
        "bench.self_s": bench_self,
        "trace.overhead": traced / plain if plain else 0.0,
        "trace.wall_s": traced,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": traced - root_s,
        "trace.overlap_s": self_sum - root_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("filter-long", "filter-web", "interactive"))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hapstack.__file__).resolve().parents:
        print(f"hapstack was imported from {hapstack.__file__}, not from {src}", file=sys.stderr)
        return 2
    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    model = model_io.load_bundle(args.inputs / manifest["bundle"])
    ledger = Ledger()
    tracer = Tracer() if args.trace else None

    if args.workload == "interactive":
        result = request_workload(args, manifest, model, ledger, tracer)
    else:
        result = corpus_workload(args, manifest, model, ledger, tracer)

    if tracer is None:
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result["metrics"] = layer_metrics(tracer, *result.pop("trace_wall"))
        result["metrics"].update(result.pop("tail", None)
                                 or {f"{kind}_p95_ms": 0.0 for kind in KINDS})
        if args.spans:
            tracer.write_jsonl(args.spans)
    result.update(attempted=ledger.attempted, failed=ledger.failed, failures=ledger.notes,
                  machine=machine.record(ROOT))
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v)]
    if bad:
        ledger.fail(f"non-finite metrics: {bad}")
        result["failed"] = ledger.failed
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
