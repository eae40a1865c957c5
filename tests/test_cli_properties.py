"""Hypothesis properties of the CLI, driven in process on a tiny bundle.

Each property's docstring names the defect it pins. Examples are
bounded, and the suite's Hypothesis profile derandomizes them, so the
module runs the same way every time.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapstack import pipeline
from hapstack.cli import main

from conftest import two_cpus, write_spread_bundle

TINY_SPEC = "2,2,8,16,256,64"
# About 600 pieces under the ASCII vocabulary, over any --max-length.
LONG_LINE = b" ".join([b"ab"] * 300)
# A preset non_hap of 0: an infinite weight times it is NaN.
PRESET_BEAM = b"-0.5\tlike sh*t\t0\n-1.2\tlike roses\t0.99\n-0.7\tso so\t0.5\n"

line_bytes = st.lists(st.one_of(
    st.sampled_from([b"\r", b"\t", b"\x00", b"\xff", b"\xc3", b"\xe2\x80", b" ", b". ",
                     b"caf\xc3\xa9", b"bad!"]),
    st.binary(max_size=6),
    st.text(max_size=6).map(str.encode),
), max_size=6).map(b"".join)
lines = st.lists(st.one_of(line_bytes, st.just(LONG_LINE)), max_size=4)
# Few letters, so sentences repeat within and across documents.
sentences = st.lists(st.text("abz", min_size=1, max_size=4), min_size=1, max_size=5).map(
    lambda words: " ".join(words) + ".")
documents = st.lists(st.lists(sentences, max_size=4).map(" ".join), min_size=1, max_size=8)
# Printed scores are rounded to 6 places: 1e-6 of noise plus 5e-7 of rounding.
NEAR_THRESHOLD_MICROS = 1.5


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a tiny bundle, ``model.hap``."""
    root = tmp_path_factory.mktemp("cli-properties")
    code, _, _ = run(["init-random", "--config", TINY_SPEC, "--output", str(root / "model.hap")])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def spread_bundle(files):
    """``model.hap`` with scores spread out (``write_spread_bundle``)."""
    return write_spread_bundle(files / "model.hap", files / "spread.hap")


def run(argv, stdin=b""):
    """(exit code, stdout bytes, stderr text) of one in-process CLI run;
    an exception other than SystemExit propagates and fails the test."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with (mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")),
          redirect_stdout(out), redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(chosen=lines, final_lf=st.booleans())
def test_any_input_bytes_exit_0_or_1_without_a_traceback(files, chosen, final_lf):
    """Pins: a CR, TAB, NUL, invalid UTF-8 byte, empty input or an
    over-long line reaching a traceback in ``score``, ``filter``,
    ``heatmap``, ``rescore`` or ``sample --mine``, or any exit but 1 for
    invalid UTF-8 and 0 otherwise (``rescore`` also exits 1 for a bad beam
    line); and a reader that treats stdin and ``--input`` differently."""
    data = b"\n".join(chosen) + (b"\n" if final_lf and chosen else b"")
    try:
        data.decode("utf-8")
        expected = 0
    except UnicodeDecodeError:
        expected = 1
    src, out = files / "in.txt", files / "out.txt"
    model = ["--model", str(files / "model.hap")]
    for argv in (["score", *model], ["heatmap", *model],
                 ["heatmap", *model, "--format", "key-value-records"],
                 ["sample", "--mine", "--min-hap", "0", *model]):
        src.write_bytes(data)
        from_stdin = run(argv, data)
        from_file = run([*argv, "--input", str(src)])
        assert from_stdin[0] == expected, (argv, from_stdin)
        assert from_stdin[:2] == from_file[:2], argv
        assert "Traceback" not in from_stdin[2] + from_file[2]
    for argv, text in ((["filter", *model, "--output", str(out)], b"d\t"),
                       (["rescore", *model], b"-0.5\t")):
        src.write_bytes(b"".join(text + line + b"\n" for line in chosen))
        code, _, err = run([*argv, "--input", str(src)])
        assert code == expected or (argv[0] == "rescore" and code == 1), (argv, err)
        assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_bundle_fails_at_load_with_exit_2(files, data):
    """Pins: a truncated or byte-flipped bundle that escapes the load
    checks and fails later, at the first score, with a traceback or exit
    code 1. A flip in the magic, a section length or the tensor table
    always fails to load; a flip in the config, the vocab or the tensor
    data may leave a valid model, which then runs, but never scores NaN."""
    raw = (files / "model.hap").read_bytes()
    config_len = int.from_bytes(raw[4:8], "little")
    vocab_at = 8 + config_len
    table_at = vocab_at + 4 + int.from_bytes(raw[vocab_at:vocab_at + 4], "little")
    payload_at = table_at + 4 + int.from_bytes(raw[table_at:table_at + 4], "little")
    if data.draw(st.booleans(), label="truncate"):
        damaged, must_fail = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")], True
    else:
        at = data.draw(st.one_of(st.integers(0, payload_at - 1), st.integers(0, len(raw) - 1)),
                       label="at")
        bit = data.draw(st.integers(0, 7), label="bit")
        damaged = raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]
        must_fail = at < 8 or vocab_at <= at < vocab_at + 4 or table_at <= at < payload_at
    path, src = files / "damaged.hap", files / "beam.tsv"
    path.write_bytes(damaged)
    src.write_bytes(b"-0.5\tsome words\n-1.2\tother words.\n")
    model = ["--model", str(path)]
    for argv in (["score", *model], ["heatmap", *model], ["sample", "--mine", *model],
                 ["filter", *model, "--input", str(src), "--output", str(files / "out.tsv")],
                 ["rescore", *model, "--input", str(src)]):
        code, out, err = run(argv, b"a few words.\n")
        assert "Traceback" not in err
        if code == 2:
            assert out == b"" and "cannot load model" in err, (argv, err)
        else:
            assert not must_fail and code == 0, (argv, code, err)
            written = (files / "out.tsv").read_bytes() if argv[0] == "filter" else out
            assert b"nan" not in written, argv


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "Infinity", "1e309", "-0.0",
                     "1e308", "1.7976931348623157e308", "0x10", "", " 1"]),
    st.from_regex(r"\A[+-]?(\d{1,3}(\.\d*)?|\.\d+)([eE][+-]?\d{1,3})?\Z"),
))
def test_any_lambda_text_is_a_usage_error_or_ranks_without_nan(files, text):
    """Pins: ``rescore --lambda inf`` accepted, so a preset non_hap of 0
    gives a NaN score that prints as ``nan`` and ranks first."""
    beam = files / "preset.tsv"
    beam.write_bytes(PRESET_BEAM)
    code, out, err = run(["rescore", "--input", str(beam), f"--lambda={text}"])
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert out.count(b"\n") == 3 and b"nan" not in out.lower()
    else:
        assert out == b"" and "argument --lambda" in err


@settings(max_examples=50, deadline=None)
@given(texts=documents, threshold=st.floats(0.0, 0.6), max_fraction=st.floats(0.0, 1.0))
def test_filter_decisions_do_not_depend_on_windows_or_the_pool(files, spread_bundle, texts,
                                                               threshold, max_fraction):
    """Pins: a ``filter`` decision that depends on how documents fall into
    windows (``WINDOW_SENTENCES`` 1 or its default) or on whether a window's
    tasks run on the pool or in sequence: the records must keep their ids
    and order, every printed score must agree within 1e-6, and ``kept``
    and the flagged fraction must agree unless a score lies at the
    threshold."""
    src, out = files / "corpus.tsv", files / "decisions.tsv"
    src.write_text("".join(f"d{i}\t{text}\n" for i, text in enumerate(texts)))
    runs = []
    for window in (1, pipeline.WINDOW_SENTENCES):
        for pool in (two_cpus(), mock.patch.object(pipeline, "_openblas", lambda: None)):
            with mock.patch.object(pipeline, "WINDOW_SENTENCES", window), pool:
                code, _, err = run(["filter", "--model", str(spread_bundle),
                                    "--input", str(src), "--output", str(out),
                                    "--threshold", repr(threshold),
                                    "--max-flagged-fraction", repr(max_fraction)])
            assert code == 0, err
            runs.append([line.split("\t") for line in out.read_text().splitlines()])
    first, *others = runs
    for other in others:
        assert [record[0] for record in other] == [record[0] for record in first]
        for a, b in zip(first, other):
            # Each printed score in millionths, so 1e-6 is a difference of 1.
            micros_a, micros_b = ([round(float(s) * 1e6) for s in r[3].split(",") if s]
                                  for r in (a, b))
            assert len(micros_a) == len(micros_b)
            assert all(abs(x - y) <= 1 for x, y in zip(micros_a, micros_b)), (a, b)
            if all(abs(x - threshold * 1e6) > NEAR_THRESHOLD_MICROS for x in micros_a + micros_b):
                assert a[1:3] == b[1:3], (a, b)
