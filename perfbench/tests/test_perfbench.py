"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench/tests``.

The end-to-end test runs the benchmark once per workload and tracing mode
with a one-second window, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_deterministic(tmp_path):
    first = inputs.generate(tmp_path / "a", 5, "filter-web")
    again = inputs.generate(tmp_path / "b", 5, "filter-web")
    other = inputs.generate(tmp_path / "c", 6, "filter-web")
    assert first["sha256"] == again["sha256"]
    for name in first["sha256"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first["sha256"]["model.hap"] != other["sha256"]["model.hap"]
    assert first["sha256"]["chunk-000.tsv"] != other["sha256"]["chunk-000.tsv"]


def test_generated_inputs_match_their_description(tmp_path):
    from hapstack.model_io import load_bundle
    from hapstack.pipeline import split_sentences
    from hapstack.wordpiece import encode

    manifest = inputs.generate(tmp_path, 3, "filter-web")
    config, _, vocab = load_bundle(tmp_path / manifest["bundle"])
    assert len(vocab) == config.vocab_size == inputs.VOCAB_SIZE
    assert config.architecture == (4, 12, 576, 768)
    chunk = manifest["chunks"][0]
    lines = (tmp_path / chunk["path"]).read_text(encoding="utf-8").split("\n")[:-1]
    docs = [line.split("\t", 1) for line in lines if line.find("\t") > 0]
    assert len(lines) - len(docs) == chunk["malformed"] == 1
    assert [doc_id for doc_id, _ in docs] == chunk["ids"]
    sentences = [s for _, text in docs for s in split_sentences(text.replace("\\n", "\n"))]
    assert len(sentences) == chunk["sentences"]
    seqs = [encode(s, vocab, 512, pad_to_max=False) for s in sentences]
    assert sum(len(seq.ids) == 512 for seq in seqs) >= 1  # the run-on is truncated
    assert any(vocab.unk_id in seq.ids for seq in seqs)
    words = sum(len(seq.words) for seq in seqs)
    pieces = sum(len(seq.ids) - 2 for seq in seqs)
    assert 1.0 < pieces / words < 1.6


def test_wrappers_are_restored_and_record_spans():
    import importlib

    from hapstack import pipeline
    from hapstack.encoder import EncoderConfig, init_random
    from hapstack.model_io import LoadedModel
    from hapstack.wordpiece import build_ascii_vocab

    modules = {name: importlib.import_module(name) for name, _ in tracing.WRAPPED}
    originals = {(name, attr): getattr(modules[name], attr) for name, attr in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, attr), original in originals.items():
            wrapped = getattr(modules[name], attr)
            assert wrapped is not original and wrapped.__wrapped__ is original
        config = EncoderConfig(num_layers=1, num_heads=2, hidden_size=8,
                               intermediate_size=16, vocab_size=200, max_positions=32)
        model = LoadedModel(config, init_random(config, 0), build_ascii_vocab(200))
        with tracer.root("bench.score", "7"):
            pipeline.score_sentences(["a b c.", "d e."], model, batch_size=2)
    finally:
        tracer.restore()
    for (name, attr), original in originals.items():
        assert getattr(modules[name], attr) is original
    names = [span.name for span in tracer.spans]
    assert names.count("pipeline.encode") == 2
    assert names.count("pipeline.forward_batch") == 1
    root = next(span for span in tracer.spans if span.name == "bench.score")
    assert all(span.request == "7" for span in tracer.spans)
    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(root.duration, rel=1e-9, abs=1e-12)


def test_self_time_does_not_double_count_concurrent_children():
    tracer = tracing.Tracer()
    spans = [tracing.Span(1, "root", 0.0, 10.0, None, 1, None),
             tracing.Span(2, "child", 1.0, 6.0, 1, 2, None),
             tracing.Span(3, "child", 4.0, 9.0, 1, 3, None)]
    tracer.spans.extend(spans)
    assert tracer.self_times() == {1: 2.0, 2: 5.0, 3: 5.0}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_in_benchmark_json_is_produced(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
