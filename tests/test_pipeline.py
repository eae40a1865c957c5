"""Pipeline tests: splitting, scoring, filtering, corpus runs, benches."""

import contextlib
import ctypes
import logging
import math
import os
import sys
import tempfile
import threading
import time
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hapstack import pipeline
from hapstack.config import RunConfig
from hapstack.encoder import EncoderConfig, init_random
from hapstack.model_io import LoadedModel
from hapstack.pipeline import (
    Document,
    HapScore,
    bench_latency,
    bench_throughput,
    decide_from_scores,
    escape_text,
    filter_document,
    run_corpus,
    score_sentences,
    softmax_pair,
    split_sentences,
    unescape_text,
)
from hapstack.pipeline import _batch_indices
from hapstack.rescore import Hypothesis, rescore_beam
from hapstack.wordpiece import TokenizedSequence, iter_lines

from conftest import random_words, two_cpus


@contextlib.contextmanager
def forward_rows(measure=len):
    """Record ``measure(seqs)``, by default the row count, of every
    packed_logits call the pipeline makes."""
    rows = []
    packed_logits = pipeline.packed_logits

    def counting(seqs, *args):
        rows.append(measure(seqs))
        return packed_logits(seqs, *args)

    with mock.patch.object(pipeline, "packed_logits", counting):
        yield rows


@pytest.fixture
def openblas():
    """The OpenBLAS (set, get, park) triple, set to 3 threads for the test,
    so a run that fails to restore its count leaves a count of 1."""
    blas = pipeline._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS in this process")
    set_threads, get_threads, _ = blas
    before = get_threads()
    set_threads(3)
    try:
        yield blas
    finally:
        set_threads(before)


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("A good day. A bad day!") == ["A good day.", "A bad day!"]

    def test_empty(self):
        assert split_sentences("") == []

    def test_no_terminator(self):
        assert split_sentences("no terminator") == ["no terminator"]

    def test_newline_breaks(self):
        assert split_sentences("first line\nsecond line") == ["first line", "second line"]

    def test_terminator_needs_following_space(self):
        assert split_sentences("v1.2 is out. yes?!") == ["v1.2 is out.", "yes?!"]

    def test_question_and_bang(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_whitespace_only(self):
        assert split_sentences("   \n  ") == []

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("ab.!? \t\n\r\x85\xa0\u3000")) | st.text())
    def test_documented_rule(self, text):
        fragments = split_sentences(text)
        for fragment in fragments:
            assert fragment and fragment == fragment.strip() and "\n" not in fragment
            assert not any(a in ".!?" and b.isspace() for a, b in zip(fragment, fragment[1:]))
        # str.split() drops exactly the whitespace: the visible text survives
        assert "".join("".join(fragments).split()) == "".join(text.split())


class TestSoftmaxPair:
    def test_symmetric_logits(self):
        s = softmax_pair(np.array([0.0, 0.0]))
        assert s == HapScore(non_hap=0.5, hap=0.5)

    def test_hand_evaluated(self):
        s = softmax_pair(np.array([0.0, math.log(3.0)]))
        assert s.non_hap == pytest.approx(0.25, abs=1e-12)
        assert s.hap == pytest.approx(0.75, abs=1e-12)

    def test_sums_to_one_extremes(self):
        s = softmax_pair(np.array([50.0, -50.0]))
        assert s.hap + s.non_hap == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= s.hap <= 1.0


class TestScoreSentences:
    def test_order_and_contract(self, tiny_model):
        sentences = ["one bad thing.", "two fine things.", "three more."]
        scores = score_sentences(sentences, tiny_model, batch_size=2)
        assert len(scores) == 3
        for s in scores:
            assert 0.0 <= s.hap <= 1.0 and 0.0 <= s.non_hap <= 1.0
            assert s.hap + s.non_hap == pytest.approx(1.0, abs=1e-6)

    def test_batch_size_invariance(self, tiny_model):
        rng = np.random.default_rng(11)
        sentences = [random_words(rng, int(rng.integers(1, 9))) for _ in range(12)]
        per_one = score_sentences(sentences, tiny_model, batch_size=1)
        per_five = score_sentences(sentences, tiny_model, batch_size=5)
        per_all = score_sentences(sentences, tiny_model, batch_size=64)
        for a, b, c in zip(per_one, per_five, per_all):
            assert abs(a.hap - b.hap) < 1e-5
            assert abs(a.hap - c.hap) < 1e-5

    def test_token_budget_invariance(self, tiny_model, monkeypatch):
        rng = np.random.default_rng(12)
        sentences = [random_words(rng, int(rng.integers(1, 12))) for _ in range(20)]
        default = score_sentences(sentences, tiny_model, batch_size=4)
        monkeypatch.setattr(pipeline, "TOKEN_BUDGET", 64)
        budgeted = score_sentences(sentences, tiny_model, batch_size=4)
        for a, b in zip(default, budgeted):
            assert abs(a.hap - b.hap) < 1e-5

    def test_empty_input(self, tiny_model):
        assert score_sentences([], tiny_model, batch_size=4) == []

    def test_batches_run_largest_first(self, tiny_model):
        rng = np.random.default_rng(13)
        sentences = [random_words(rng, n) for n in (1, 9, 2, 5, 3, 8, 1, 4, 7, 2, 6, 3)]
        with forward_rows(lambda seqs: sum(len(seq.ids) for seq in seqs)) as sizes:
            score_sentences(sentences, tiny_model, batch_size=3)
        assert len(set(sizes)) >= 3
        assert sizes == sorted(sizes, reverse=True)

    def test_duplicates_scored_once(self, tiny_model):
        sentences = ["same words here.", "other words.", "same words here.", "same words here."]
        with forward_rows() as rows:
            scores = score_sentences(sentences, tiny_model, batch_size=4)
        assert sum(rows) == 2
        assert scores[0] == scores[2] == scores[3]
        alone = score_sentences(["other words."], tiny_model, batch_size=1)
        assert abs(scores[1].hap - alone[0].hap) < 1e-5

    def test_beam_is_one_encoder_call(self, tiny_model):
        rng = np.random.default_rng(14)
        beam = [Hypothesis(random_words(rng, int(rng.integers(2, 6))), -float(i))
                for i in range(8)]
        calls = []

        def spy(forward):
            def counting(seqs, *args):
                calls.append(len(seqs))
                return forward(seqs, *args)
            return counting

        with mock.patch.multiple(pipeline, packed_logits=spy(pipeline.packed_logits),
                                 forward_batch=spy(pipeline.forward_batch)):
            rescore_beam(beam, tiny_model, batch_size=32)
        assert calls == [8]

    def test_bad_batch_size(self, tiny_model):
        with pytest.raises(ValueError):
            score_sentences(["x"], tiny_model, batch_size=0)


def _seqs(lengths):
    return [TokenizedSequence(ids=[1] * n, attention_mask=[1] * n, word_spans=[],
                              pieces=[], words=[]) for n in lengths]


class TestBatchIndices:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 600), max_size=60), st.integers(1, 40),
           st.integers(1, 10000))
    def test_partition_within_ceilings(self, lengths, batch_size, token_budget):
        batches = _batch_indices(_seqs(lengths), batch_size, token_budget)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(lengths)))
        assert [lengths[i] for i in flat] == sorted(lengths)
        for batch in batches:
            assert 1 <= len(batch) <= batch_size
            assert len(batch) == 1 or sum(lengths[i] for i in batch) <= token_budget

    def test_cut_at_token_budget(self):
        # Real tokens, not rows x width: 10 + 11 + 12 = 33 fit a budget of 33,
        # one token less starts a new task, and a longer row runs alone.
        lengths = [10, 11, 12, 12, 600]
        assert _batch_indices(_seqs(lengths), 64, 33) == [[0, 1, 2], [3], [4]]
        assert _batch_indices(_seqs(lengths), 64, 32) == [[0, 1], [2, 3], [4]]


class TestFilterDocument:
    def test_decide_from_scores_example(self):
        fraction, kept = decide_from_scores([0.9, 0.2, 0.1], 0.5, 0.25)
        assert fraction == pytest.approx(1 / 3)
        assert kept is False

    def test_decide_no_flags(self):
        fraction, kept = decide_from_scores([0.2, 0.1], 0.5, 0.25)
        assert fraction == 0.0
        assert kept is True

    def test_max_fraction_one_keeps_everything(self):
        _, kept = decide_from_scores([1.0, 1.0, 1.0], 0.0, 1.0)
        assert kept is True

    def test_zero_sentences_kept(self, tiny_model):
        decision = filter_document(Document(id="d0", text="   "), tiny_model, 0.5, 0.5)
        assert decision.kept is True
        assert decision.flagged_fraction == 0.0
        assert decision.sentence_scores == []

    def test_document_records_scores(self, tiny_model):
        decision = filter_document(Document(id="d1", text="One thing. Two things!"),
                                   tiny_model, 0.5, 1.0)
        assert [s for s, _ in decision.sentence_scores] == ["One thing.", "Two things!"]

    def test_decisions_match_run_corpus_records(self, tiny_model, tmp_path):
        # filter_document and run_corpus share one decision path: a document
        # decided alone matches its record from a multi-window corpus run.
        rng = np.random.default_rng(8)
        pool = [random_words(rng, int(rng.integers(1, 6))) + "." for _ in range(40)]
        docs = [(f"doc{i}", " ".join(rng.choice(pool, size=int(rng.integers(0, 6)))))
                for i in range(40)]
        scores = score_sentences(pool, tiny_model, batch_size=32)
        run_config = RunConfig(batch_size=5, hap_threshold=float(np.median(
            [s.hap for s in scores])), max_flagged_fraction=0.4)
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        write_corpus(src, docs)
        with mock.patch.object(pipeline, "WINDOW_SENTENCES", 9):
            run_corpus(src, dst, tiny_model, run_config)
        records = [line.split("\t") for line in dst.read_text(encoding="utf-8").splitlines()]
        assert [record[0] for record in records] == [doc_id for doc_id, _ in docs]
        for (doc_id, text), (_, kept, fraction, joined) in zip(docs, records):
            decision = filter_document(Document(doc_id, text), tiny_model,
                                       run_config.hap_threshold,
                                       run_config.max_flagged_fraction, batch_size=5)
            assert int(kept) == decision.kept
            assert fraction == f"{decision.flagged_fraction:.6f}"
            haps = [float(h) for h in joined.split(",")] if joined else []
            assert len(haps) == len(decision.sentence_scores)
            for hap, (_, score) in zip(haps, decision.sentence_scores):
                assert abs(hap - score.hap) <= 1e-6
        assert {kept for _, kept, _, _ in records} == {"0", "1"}

    @pytest.mark.parametrize("setting", [
        {"hap_threshold": 1.5}, {"hap_threshold": -0.1},
        {"max_flagged_fraction": 2.0}, {"max_flagged_fraction": float("nan")},
        {"batch_size": 0},
    ])
    def test_out_of_range_settings_raise(self, tiny_model, setting):
        kwargs = {"hap_threshold": 0.5, "max_flagged_fraction": 0.5, **setting}
        with pytest.raises(ValueError):
            filter_document(Document("d", "One. Two."), tiny_model, **kwargs)

    def test_run_config_cannot_be_changed_past_its_check(self):
        with pytest.raises(AttributeError):
            RunConfig().hap_threshold = 2.0

    def test_empty_doc_id_rejected(self):
        with pytest.raises(ValueError):
            Document(id="", text="x")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotonicity(self, scores, threshold, max_fraction, bump):
        _, kept = decide_from_scores(scores, threshold, max_fraction)
        # raising the threshold can only unflag sentences
        _, kept_higher_thr = decide_from_scores(scores, min(1.0, threshold + bump),
                                                max_fraction)
        assert kept_higher_thr >= kept
        # raising the allowed fraction can only keep more documents
        _, kept_higher_frac = decide_from_scores(scores, threshold,
                                                 min(1.0, max_fraction + bump))
        assert kept_higher_frac >= kept


def write_corpus(path, docs):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc_id, text in docs:
            f.write(f"{doc_id}\t{escape_text(text)}\n")


class TestRunCorpus:
    def test_empty_corpus(self, tiny_model, tmp_path):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("", encoding="utf-8")
        summary = run_corpus(src, dst, tiny_model, RunConfig())
        assert summary.processed == 0
        assert summary.skipped == 0
        assert dst.read_text(encoding="utf-8") == ""

    def test_worker_count_does_not_change_output(self, tiny_model, tmp_path):
        # One window of many batches, scored on a two-thread pool and in
        # sequence (no OpenBLAS found).
        rng = np.random.default_rng(21)
        docs = [(f"doc{i}", ". ".join(random_words(rng, int(rng.integers(1, 12)))
                                      for _ in range(3)) + ".") for i in range(10)]
        src = tmp_path / "in.tsv"
        write_corpus(src, docs)
        threads, lock = [], threading.Lock()
        both_in = threading.Barrier(2, timeout=30)
        packed_logits = pipeline.packed_logits

        def recording(seqs, *args):
            with lock:
                threads.append(threading.get_ident())
                first_two = len(threads) <= 2
            if first_two:
                both_in.wait()  # passes only with two forwards running at once
            return packed_logits(seqs, *args)

        pooled, sequential = tmp_path / "pooled.tsv", tmp_path / "sequential.tsv"
        with two_cpus(), mock.patch.object(pipeline, "packed_logits", recording):
            s1 = run_corpus(src, pooled, tiny_model, RunConfig(batch_size=4))
        with mock.patch.object(pipeline, "_openblas", lambda: None):
            with forward_rows() as rows:
                s2 = run_corpus(src, sequential, tiny_model, RunConfig(batch_size=4))
        assert len(rows) >= 3 and len(threads) == len(rows)
        assert len(set(threads)) > 1
        assert pooled.read_bytes() == sequential.read_bytes()
        assert s1.processed == s2.processed == 10

    def test_malformed_line_skipped(self, tiny_model, tmp_path):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("a\tfine day.\nmalformed-no-tab\nb\tanother one.\n",
                       encoding="utf-8")
        summary = run_corpus(src, dst, tiny_model, RunConfig())
        assert summary.processed == 2
        assert summary.skipped == 1
        assert summary.processed + summary.skipped == 3
        lines = dst.read_text(encoding="utf-8").splitlines()
        assert [l.split("\t")[0] for l in lines] == ["a", "b"]

    def test_one_warning_for_all_malformed_lines(self, tiny_model, tmp_path, caplog):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("a\tone.\nno-tab\nb\ttwo.\n\tempty id\nc\tthree.\n\n",
                       encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="hapstack.pipeline"):
            summary = run_corpus(src, dst, tiny_model, RunConfig())
        assert summary.skipped == 3
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "skipped 3 " in message and "2, 4, 6" in message

    def test_memory_does_not_grow_with_corpus_size(self, tiny_model, tmp_path):
        rng = np.random.default_rng(22)
        docs = [(f"doc{i}", ". ".join(random_words(rng, 4) for _ in range(4)) + ".")
                for i in range(800)]

        def peak_bytes(n_docs):
            src = tmp_path / f"in{n_docs}.tsv"
            write_corpus(src, docs[:n_docs])
            tracemalloc.start()
            try:
                run_corpus(src, tmp_path / "out.tsv", tiny_model, RunConfig())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(20)  # warm-up: first-call allocations are not per-document
        small, large = peak_bytes(200), peak_bytes(800)
        assert large < 1.25 * small, f"peak {small} B for 200 docs, {large} B for 800"

    def test_window_batches_across_documents(self, tiny_model, tmp_path):
        src = tmp_path / "in.tsv"
        write_corpus(src, [(f"d{i}", f"word{i % 10} here.") for i in range(20)])
        with forward_rows() as rows:
            summary = run_corpus(src, tmp_path / "out.tsv", tiny_model, RunConfig())
        assert summary.processed == 20
        assert rows == [10]  # one batch, each distinct sentence once

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 8), max_size=5), min_size=1, max_size=12),
           st.integers(0, 2**16))
    def test_window_size_does_not_change_decisions(self, tiny_model, doc_shapes, seed):
        rng = np.random.default_rng(seed)
        docs = [(f"d{i}", " ".join(random_words(rng, n) + "." for n in shape))
                for i, shape in enumerate(doc_shapes)]
        records = []
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "in.tsv"
            write_corpus(src, docs)
            for window in (1, 2, pipeline.WINDOW_SENTENCES):
                dst = Path(tmp) / f"out{window}.tsv"
                with mock.patch.object(pipeline, "WINDOW_SENTENCES", window):
                    run_corpus(src, dst, tiny_model, RunConfig(batch_size=3))
                records.append([line.split("\t")
                                for line in dst.read_text(encoding="utf-8").splitlines()])
        first = records[0]
        assert [r[0] for r in first] == [doc_id for doc_id, _ in docs]
        for other in records[1:]:
            assert [r[:2] for r in other] == [r[:2] for r in first]
            for a, b in zip(first, other):
                scores_a = [float(x) for x in a[3].split(",") if x]
                scores_b = [float(x) for x in b[3].split(",") if x]
                assert len(scores_a) == len(scores_b)
                assert all(abs(x - y) <= 1e-5 for x, y in zip(scores_a, scores_b))

    def test_output_over_input_rejected(self, tiny_model, tmp_path):
        src = tmp_path / "in.tsv"
        write_corpus(src, [("d1", "a day.")])
        with pytest.raises(ValueError):
            run_corpus(src, tmp_path / "." / "in.tsv", tiny_model, RunConfig())
        assert src.read_text(encoding="utf-8") == "d1\ta day.\n"

    def test_hard_linked_output_rejected(self, tiny_model, tmp_path):
        src = tmp_path / "in.tsv"
        write_corpus(src, [("d1", "a day.")])
        before = src.read_bytes()
        os.link(src, tmp_path / "out.tsv")
        with pytest.raises(ValueError):
            run_corpus(src, tmp_path / "out.tsv", tiny_model, RunConfig())
        assert src.read_bytes() == before

    def test_decision_record_format(self, tiny_model, tmp_path):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("d1\tGood day. Bad day!\n", encoding="utf-8")
        run_corpus(src, dst, tiny_model, RunConfig(max_flagged_fraction=1.0))
        doc_id, kept, fraction, scores = dst.read_text(encoding="utf-8").strip().split("\t")
        assert doc_id == "d1"
        assert kept in ("0", "1")
        float(fraction)
        assert len(scores.split(",")) == 2

    def test_escaped_newlines_round_trip(self, tiny_model, tmp_path):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        write_corpus(src, [("d1", "line one.\nline two.")])
        run_corpus(src, dst, tiny_model, RunConfig(max_flagged_fraction=1.0))
        record = dst.read_text(encoding="utf-8").strip().split("\t")
        assert len(record[3].split(",")) == 2  # both sentences scored

    def test_summary_lines(self, tiny_model, tmp_path):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        write_corpus(src, [("d1", "a day."), ("d2", "b day.")])
        summary = run_corpus(src, dst, tiny_model, RunConfig())
        keys = [line.split("=")[0] for line in summary.to_lines()]
        assert keys == ["processed", "skipped", "kept", "discarded", "wall_ms", "docs_per_s"]
        assert summary.kept + summary.discarded == summary.processed


class TestScoringPool:
    def _corpus(self, tmp_path, tail=b""):
        src = tmp_path / "in.tsv"
        write_corpus(src, [(f"d{i}", f"word{i} here. and {'x ' * i}there.") for i in range(12)])
        with open(src, "ab") as f:
            f.write(tail)
        return src

    def _pinned_counts(self, get_threads):
        """Record the OpenBLAS thread count as each document is decided."""
        counts = []
        decide = pipeline._decide

        def recording(*args):
            counts.append(get_threads())
            return decide(*args)

        return counts, mock.patch.object(pipeline, "_decide", recording)

    def test_count_restored_after_a_run(self, tiny_model, tmp_path, openblas):
        counts, recording = self._pinned_counts(openblas[1])
        with two_cpus(), recording:
            run_corpus(self._corpus(tmp_path), tmp_path / "out.tsv", tiny_model, RunConfig())
        assert counts and set(counts) == {1}
        assert openblas[1]() == 3

    def test_count_restored_after_a_failed_run(self, tiny_model, tmp_path, openblas):
        counts, recording = self._pinned_counts(openblas[1])
        src = self._corpus(tmp_path, tail=b"bad\t\xff\xfe\n")
        with two_cpus(), recording, pytest.raises(UnicodeDecodeError):
            run_corpus(src, tmp_path / "out.tsv", tiny_model, RunConfig())
        assert counts and set(counts) == {1}
        assert openblas[1]() == 3
        assert len((tmp_path / "out.tsv").read_text(encoding="utf-8").splitlines()) == 12

    def test_count_restored_after_a_failed_decision(self, tiny_model, tmp_path, openblas):
        # The error unwinds run_corpus's loop over score_windows, which
        # closes the generator, and with it the scoring pool, at once.
        counts = []
        decide = pipeline._decide

        def failing(*args):
            counts.append(openblas[1]())
            if len(counts) == 3:
                raise OSError("no space left on device")
            return decide(*args)

        with (two_cpus(), mock.patch.object(pipeline, "_decide", failing),
              pytest.raises(OSError, match="no space left")):
            run_corpus(self._corpus(tmp_path), tmp_path / "out.tsv", tiny_model, RunConfig())
        assert counts == [1, 1, 1]
        assert openblas[1]() == 3
        assert pipeline._pinned_runs == 0

    def test_count_restored_after_overlapping_runs(self, tiny_model, tmp_path, openblas):
        # "first" enters, "second" enters, "first" leaves while "second"
        # still runs pinned, then "second" leaves and restores the count.
        src = self._corpus(tmp_path)
        get_threads = openblas[1]
        both_in = threading.Barrier(2, timeout=30)
        first_left = threading.Event()
        entered, counts, errors = set(), [], []
        decide = pipeline._decide

        def overlapping(*args):
            name = threading.current_thread().name
            if name not in entered:
                entered.add(name)
                both_in.wait()
                if name == "second":
                    first_left.wait(30)
                    counts.append(get_threads())
            return decide(*args)

        def run(name):
            try:
                run_corpus(src, tmp_path / f"{name}.tsv", tiny_model, RunConfig())
            except Exception as exc:
                errors.append(exc)
            finally:
                if name == "first":
                    first_left.set()

        with two_cpus(), mock.patch.object(pipeline, "_decide", overlapping):
            runs = [threading.Thread(target=run, args=(name,), name=name)
                    for name in ("first", "second")]
            for thread in runs:
                thread.start()
            for thread in runs:
                thread.join(60)
        assert not any(thread.is_alive() for thread in runs)
        assert errors == []
        assert first_left.is_set() and counts == [1]
        assert get_threads() == 3
        assert (tmp_path / "first.tsv").read_bytes() == (tmp_path / "second.tsv").read_bytes()

    def test_many_overlapping_pools_restore_the_count(self):
        # More threads than cores entering and leaving at once: a lost update
        # of the run count would restore the count early or never.
        blas_threads = [3]

        def set_threads(n):
            time.sleep(0)  # like the ctypes call, let other threads run
            blas_threads[0] = n

        def get_threads():
            time.sleep(0)
            return blas_threads[0]

        inside = []

        def enter_and_leave():
            for _ in range(50):
                with pipeline._scoring_pool() as pool:
                    inside.append((pool is not None, blas_threads[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with two_cpus((set_threads, get_threads, None)):
                runs = [threading.Thread(target=enter_and_leave) for _ in range(8)]
                for thread in runs:
                    thread.start()
                for thread in runs:
                    thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in runs)
        assert len(inside) == 400 and set(inside) == {(True, 1)}
        assert blas_threads == [3]

    def test_single_requests_leave_blas_threading_alone(self, tiny_model, tmp_path):
        set_threads, get_threads = mock.Mock(), mock.Mock(return_value=2)
        with two_cpus((set_threads, get_threads, None)):
            score_sentences(["one thing.", "two things here."], tiny_model, batch_size=1)
            rescore_beam([Hypothesis("a b.", -1.0), Hypothesis("c d e.", -2.0)], tiny_model,
                         batch_size=1)
            filter_document(Document("d", "One. Two. Three!"), tiny_model, 0.5, 0.5,
                            batch_size=1)
            assert set_threads.call_count == get_threads.call_count == 0
            # the spy sees a corpus run pin and restore
            run_corpus(self._corpus(tmp_path), tmp_path / "out.tsv", tiny_model, RunConfig())
        assert set_threads.call_args_list == [mock.call(1), mock.call(2)]

    @staticmethod
    def _blas_spies():
        """One mock whose ``mock_calls`` order the pin, the park and the
        restore; the count before the pin is 2."""
        blas = mock.Mock()
        blas.get_threads.return_value = 2
        return blas, two_cpus((blas.set_threads, blas.get_threads, blas.park))

    def test_first_run_in_parks_once_after_pinning(self):
        blas, pooled = self._blas_spies()
        with pooled:
            with pipeline._scoring_pool() as first, pipeline._scoring_pool() as second:
                assert first is not None and second is not None
        assert blas.mock_calls == [mock.call.get_threads(), mock.call.set_threads(1),
                                   mock.call.park(), mock.call.set_threads(2)]

    def test_no_park_while_another_thread_is_alive(self, tiny_model, tmp_path):
        # Parking while another thread's multithreaded call is in flight
        # deadlocks OpenBLAS.
        blas, pooled = self._blas_spies()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            with pooled:
                run_corpus(self._corpus(tmp_path), tmp_path / "out.tsv", tiny_model, RunConfig())
        finally:
            release.set()
            other.join(30)
        assert blas.mock_calls == [mock.call.get_threads(), mock.call.set_threads(1),
                                   mock.call.set_threads(2)]

    @pytest.mark.parametrize("cpus, found", [({0}, True), ({0, 1}, False)],
                             ids=["one CPU", "no OpenBLAS"])
    def test_no_park_on_the_sequential_path(self, cpus, found):
        blas, pooled = self._blas_spies()
        unfound = mock.patch.object(pipeline, "_openblas", lambda: None)
        with (pooled, mock.patch.object(pipeline.os, "sched_getaffinity", lambda pid: cpus),
              contextlib.nullcontext() if found else unfound):
            with pipeline._scoring_pool() as pool:
                assert pool is None
        assert blas.mock_calls == []

    def test_pin_without_the_park_symbol(self):
        blas, _ = self._blas_spies()
        with two_cpus((blas.set_threads, blas.get_threads, None)):
            with pipeline._scoring_pool() as pool:
                assert pool is not None
        assert blas.mock_calls == [mock.call.get_threads(), mock.call.set_threads(1),
                                   mock.call.set_threads(2)]

    def test_parking_stops_the_spin_of_real_openblas(self, openblas):
        set_threads, get_threads, park = openblas
        if park is None:
            pytest.skip("this OpenBLAS exports no blas_thread_shutdown_")
        set_threads(2)
        a, b = np.random.default_rng(0).standard_normal((2, 256, 256), dtype=np.float32)
        product = a @ b  # a 2-thread GEMM, after which OpenBLAS's worker spins
        start = time.process_time()
        with two_cpus(), pipeline._scoring_pool() as pool:
            assert pool is not None
            time.sleep(0.3)
        assert time.process_time() - start < 0.05  # about 0.12 s without the park
        assert get_threads() == 2
        assert np.array_equal(a @ b, product)


class TestOpenblasLookup:
    """``_openblas``'s branches, called through ``__wrapped__`` so that its
    cache and the real library's thread count are left alone."""

    @staticmethod
    def _loads(**load):
        """Patch ``ctypes.CDLL`` with a mock built from ``load``; skipped
        where no OpenBLAS is mapped, since only a mapped one is loaded."""
        if pipeline._openblas() is None:
            pytest.skip("no OpenBLAS in this process")
        return mock.patch.object(pipeline.ctypes, "CDLL", **load)

    def test_none_off_linux(self):
        with mock.patch.object(pipeline.sys, "platform", "darwin"):
            assert pipeline._openblas.__wrapped__() is None

    def test_none_when_the_library_does_not_load(self):
        with self._loads(side_effect=OSError("cannot load")):
            assert pipeline._openblas.__wrapped__() is None

    def test_none_without_a_thread_function_pair(self):
        library = types.SimpleNamespace(openblas_set_num_threads=mock.Mock(),
                                        blas_thread_shutdown_=mock.Mock())
        with self._loads(return_value=library):
            assert pipeline._openblas.__wrapped__() is None

    def test_no_park_without_the_shutdown_symbol(self):
        library = types.SimpleNamespace(openblas_set_num_threads=mock.Mock(),
                                        openblas_get_num_threads=mock.Mock())
        with self._loads(return_value=library):
            set_threads, get_threads, park = pipeline._openblas.__wrapped__()
        assert set_threads is library.openblas_set_num_threads
        assert get_threads is library.openblas_get_num_threads
        assert park is None
        assert (set_threads.argtypes, set_threads.restype) == ([ctypes.c_int], None)
        assert (get_threads.argtypes, get_threads.restype) == ([], ctypes.c_int)


_ID = st.text("abc019", min_size=1, max_size=3)
_TEXT = st.text("ab .!\r\t", max_size=12)


@st.composite
def corpus_lines(draw):
    """One raw corpus line: valid, with an empty id, or with no tab; the
    text may carry CR and an escaped LF at either edge."""
    kind = draw(st.sampled_from(["valid", "empty id", "no tab"]))
    text = draw(_TEXT)
    if kind == "no tab":
        return text.replace("\t", " ")
    edges = draw(st.tuples(st.booleans(), st.booleans()))
    text = "\\n" * edges[0] + text + "\\n" * edges[1]
    return ("" if kind == "empty id" else draw(_ID)) + "\t" + text


class TestStreamingReader:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(corpus_lines(), max_size=6), st.booleans())
    @example(lines=["d1\ta\rb.", "d2\tc."], final_lf=False)
    def test_lines_counted_and_ordered(self, tiny_model, lines, final_lf):
        data = "\n".join(lines) + ("\n" if final_lf and lines else "")
        n_lines = data.count("\n") + (1 if data and not data.endswith("\n") else 0)
        expected = [(line[:line.index("\t")], unescape_text(line[line.index("\t") + 1:]))
                    for line in data.split("\n")[:n_lines]
                    if line.find("\t") > 0]
        seen = []
        decide = pipeline._decide

        def recording(doc, *args):
            seen.append((doc.id, doc.text))
            return decide(doc, *args)

        with tempfile.TemporaryDirectory() as tmp:
            src, dst = Path(tmp) / "in.tsv", Path(tmp) / "out.tsv"
            src.write_bytes(data.encode("utf-8"))
            with mock.patch.object(pipeline, "_decide", recording):
                summary = run_corpus(src, dst, tiny_model, RunConfig())
            out_ids = [record.split("\t")[0]
                       for record in dst.read_bytes().decode("utf-8").split("\n")[:-1]]
            read = list(iter_lines(src))
        assert read == list(enumerate(data.split("\n")[:n_lines], start=1))
        assert summary.processed + summary.skipped == n_lines
        assert seen == expected
        assert out_ids == [doc_id for doc_id, _ in expected]


class TestInterleaved:
    def test_abba_groups_until_done(self):
        calls = []

        def timer(name):
            return lambda: calls.append(name) or float(len(calls))

        times = pipeline._interleaved((timer("A"), timer("B")),
                                      lambda a, b: len(a) + len(b) >= 6)
        assert "".join(calls) == "ABBAABBA"
        assert times == ([1.0, 4.0, 5.0, 8.0], [2.0, 3.0, 6.0, 7.0])


class TestBenchLatency:
    def test_odd_run_count_rounded_up(self, tiny_config):
        larger = EncoderConfig(num_layers=2, num_heads=2, hidden_size=16,
                               intermediate_size=32, vocab_size=64, max_positions=32)
        configs = []
        packed_logits = pipeline.packed_logits

        def counting(seqs, weights, config):
            configs.append(config)
            return packed_logits(seqs, weights, config)

        with mock.patch.object(pipeline, "packed_logits", counting):
            bench_latency(tiny_config, larger, n_runs=11, n_seeds=1, seq_len=8)
        assert configs.count(tiny_config) == configs.count(larger) == 3 + 12

    def test_self_comparison_band(self, tiny_config):
        _, _, speedup = bench_latency(tiny_config, tiny_config, n_runs=30,
                                      n_seeds=2, seq_len=8)
        assert 0.8 <= speedup <= 1.25

    def test_reports_have_stats(self, tiny_config):
        report_a, report_b, _ = bench_latency(tiny_config, tiny_config, n_runs=10,
                                              n_seeds=2, seq_len=8)
        for report in (report_a, report_b):
            assert report.mean_latency_ms > 0
            assert report.stddev_ms >= 0
            assert report.seeds == 2
            assert report.architecture == tiny_config.architecture

    def test_run_count_validated(self, tiny_config):
        with pytest.raises(ValueError):
            bench_latency(tiny_config, tiny_config, n_runs=5, n_seeds=1)

    def test_bigger_model_is_slower(self):
        small = EncoderConfig(num_layers=1, num_heads=2, hidden_size=32,
                              intermediate_size=64, vocab_size=64, max_positions=32)
        large = EncoderConfig(num_layers=8, num_heads=2, hidden_size=128,
                              intermediate_size=512, vocab_size=64, max_positions=32)
        _, _, speedup = bench_latency(small, large, n_runs=20, n_seeds=2, seq_len=16)
        assert speedup > 1.0


class TestBenchThroughput:
    def test_self_comparison_band(self, tiny_config, tmp_path):
        rng = np.random.default_rng(31)
        docs = [(f"d{i}", ". ".join(random_words(rng, 5) for _ in range(12)) + ".")
                for i in range(100)]
        corpus = tmp_path / "corpus.tsv"
        write_corpus(corpus, docs)
        # one untimed pass so numpy/BLAS warmup doesn't skew side a
        bench_throughput(corpus, tiny_config, tiny_config)
        report_a, report_b, speedup = bench_throughput(corpus, tiny_config, tiny_config)
        assert 0.8 <= speedup <= 1.25
        assert report_a.throughput_docs_per_s is not None
        assert report_b.throughput_docs_per_s is not None

    def test_missing_corpus(self, tiny_config, tmp_path):
        with pytest.raises(FileNotFoundError):
            bench_throughput(tmp_path / "nope.tsv", tiny_config, tiny_config)

    def test_writes_nothing_next_to_the_corpus(self, tiny_config, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        corpus = corpus_dir / "corpus.tsv"
        write_corpus(corpus, [("d1", "a day."), ("d2", "b day.")])
        bench_throughput(corpus, tiny_config, tiny_config)
        assert list(corpus_dir.iterdir()) == [corpus]
