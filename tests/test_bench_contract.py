"""The benchmark's call contract with the package.

``perfbench/`` imports and wraps ``hapstack`` names from outside the
package, and its own tests are not part of this suite. These checks run
the benchmark's call forms on a tiny model, so a change to a name or a
call form that would break the benchmark fails here.
"""

import importlib
import sys
from pathlib import Path

from hapstack import pipeline
from hapstack.config import RunConfig
from hapstack.encoder import EncoderConfig, init_random
from hapstack.model_io import LoadedModel
from hapstack.wordpiece import build_ascii_vocab

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402  (builds RUN_CONFIGS at import)

DOCS = [("d1", "One fine day. Another one!"), ("d2", ""), ("d3", "One fine day.\nA third, short.")]


def tiny_model():
    config = EncoderConfig(num_layers=1, num_heads=2, hidden_size=8, intermediate_size=16,
                           vocab_size=200, max_positions=32)
    return LoadedModel(config, init_random(config, 0), build_ascii_vocab(200))


def test_run_configs_are_built():
    assert set(workloads.RUN_CONFIGS) == {"filter-long", "filter-web"}
    assert all(isinstance(c, RunConfig) for c in workloads.RUN_CONFIGS.values())


def test_every_wrapped_name_resolves():
    for module, attr in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_explain_and_check_alone_call_forms(tmp_path):
    model = tiny_model()
    ledger = workloads.Ledger()
    tracer = tracing.Tracer()
    tracer.install(workloads.COUNTERS)
    try:
        for index, kind in enumerate(workloads.KINDS):
            request = {"kind": kind, "text": "a plainly bad sentence.",
                       "beam": [[-0.5, "like this"], [-1.2, "like that"]]}
            _, output = workloads.execute(request, index, model, ledger, tracer)
            assert output
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("".join(f"{i}\t{pipeline.escape_text(t)}\n" for i, t in DOCS),
                       encoding="utf-8")
        chunk = {"path": src.name, "ids": [doc_id for doc_id, _ in DOCS], "malformed": 0}
        for run_config in workloads.RUN_CONFIGS.values():
            summary = pipeline.run_corpus(src, dst, model, run_config)
            records, _ = workloads.check_chunk(dst, chunk, dict(DOCS), summary, ledger)
            for doc_id, text in DOCS:
                workloads.check_alone(doc_id, text, records[doc_id], model, run_config,
                                      ledger)
    finally:
        tracer.restore()
    assert ledger.failed == 0, ledger.notes
    infos = {span.name: span.info for span in tracer.spans}
    assert {"tokens", "pieces", "unk", "truncated"} <= set(infos["pipeline.encode"])
    assert {"rows", "t", "flop", "attention_bytes"} <= set(infos["pipeline.forward_batch"])
    assert "heatmap.compute_heatmap" in infos and "heatmap.render_heatmap" in infos
