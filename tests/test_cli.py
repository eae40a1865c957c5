"""CLI tests driving main() in-process: exit codes, formats, end-to-end runs."""

import io
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hapstack import model_io, pipeline
from hapstack.cli import main
from hapstack.wordpiece import build_ascii_vocab

from conftest import (random_words, read_raw_bundle, two_cpus, write_raw_bundle,
                      write_spread_bundle)

TINY_SPEC = "2,2,8,16,256,64"
SRC = str(Path(__file__).resolve().parents[1] / "src")
INVALID_UTF8 = b"a\n\xff\n"
NON_ASCII = "caf\u00e9 \u2014 na\u00efve.\n".encode()
# One full window of valid lines, then an invalid line opening the second.
SECOND_WINDOW_INVALID = b"".join(f"line {i % 50}.\n".encode()
                                 for i in range(pipeline.WINDOW_SENTENCES)) + b"\xff\nlater.\n"


@pytest.fixture
def bundle(tmp_path):
    path = tmp_path / "model.hap"
    assert main(["init-random", "--config", TINY_SPEC, "--seed", "0",
                 "--output", str(path)]) == 0
    return path


@pytest.fixture
def spread(bundle, tmp_path):
    """``bundle`` with scores spread out, so a misplaced row shows."""
    return write_spread_bundle(bundle, tmp_path / "spread.hap")


def subprocess_env():
    """The environment of a CLI subprocess that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        # A byte stream under a text layer, like the real stdin: the CLI
        # reads its bytes.
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode("utf-8")),
                                                          encoding="utf-8"))
    code = main(argv)
    captured = capsys.readouterr() if capsys else None
    return code, captured


class TestScore:
    def test_two_sentences(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(["score", "--model", str(bundle)],
                                 "A first one.\nA second one!\n", monkeypatch, capsys)
        assert code == 0
        lines = captured.out.splitlines()
        assert len(lines) == 2
        hap, non_hap, sentence = lines[0].split("\t")
        assert sentence == "A first one."
        assert float(hap) + float(non_hap) == pytest.approx(1.0, abs=1e-6)

    def test_only_lf_ends_a_line(self, bundle, tmp_path, monkeypatch, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"a\rb\n")
        code, from_file = run_cli(["score", "--model", str(bundle), "--input", str(src)],
                                  "", monkeypatch, capsys)
        assert code == 0
        code, from_stdin = run_cli(["score", "--model", str(bundle)], "a\rb\n",
                                   monkeypatch, capsys)
        assert code == 0
        assert from_file.out.count("\n") == from_stdin.out.count("\n") == 1
        assert from_file.out == from_stdin.out

    @pytest.mark.parametrize("command, data", [
        pytest.param("score", INVALID_UTF8, id="invalid"),
        pytest.param("score", NON_ASCII, id="non-ascii"),
        pytest.param("score", SECOND_WINDOW_INVALID, id="second-window-invalid"),
        pytest.param("heatmap", INVALID_UTF8, id="heatmap-invalid"),
        pytest.param("heatmap", NON_ASCII, id="heatmap-non-ascii"),
        pytest.param("sample", INVALID_UTF8, id="sample-invalid"),
        pytest.param("sample", NON_ASCII, id="sample-non-ascii"),
    ])
    def test_stdin_and_input_file_agree(self, bundle, tmp_path, command, data):
        # A real process, so stdin is decoded the way the interpreter sets it
        # up under the C locale, not through a test double.
        src, lexicon = tmp_path / "in.txt", tmp_path / "lexicon.txt"
        src.write_bytes(data)
        lexicon.write_bytes(b"na\xc3\xafve\n")
        env = dict(subprocess_env(), LC_ALL="C")
        env.pop("PYTHONIOENCODING", None)
        env.pop("PYTHONUTF8", None)
        flags = {"score": ["-m", str(bundle)],
                 "heatmap": ["-m", str(bundle), "--format", "key-value-records"],
                 "sample": ["--lexicon", str(lexicon)]}
        argv = [sys.executable, "-m", "hapstack.cli", command, *flags[command]]
        from_stdin = subprocess.run(argv, input=data, env=env, capture_output=True,
                                    timeout=120)
        from_file = subprocess.run(argv + ["--input", str(src)], env=env,
                                   capture_output=True, timeout=120)
        assert from_stdin.returncode == from_file.returncode
        assert from_stdin.stdout == from_file.stdout
        if b"\xff" in data:
            # score and heatmap stream: what precedes the bad line is written,
            # then the run exits 1; sample reads all its input first.
            assert from_stdin.returncode == 1
            before = data[:data.index(b"\xff")].splitlines()
            out = from_stdin.stdout.splitlines()
            if command == "score":
                assert [record.split(b"\t")[2] for record in out] == before
            elif command == "heatmap":
                assert [line.split(b" ")[1] for line in out if line.startswith(b"WORD ")] \
                    == before
            else:
                assert out == []
        else:
            assert from_stdin.returncode == 0
            expected = {"score": b"\t" + data, "heatmap": b"WORD na\xc3\xafve ",
                        "sample": b"1\t" + data.rstrip(b"\n") + b"\tna\xc3\xafve\n"}
            assert expected[command] in from_stdin.stdout

    def test_invalid_line_is_named_by_its_number(self, bundle, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(INVALID_UTF8),
                                                          encoding="utf-8"))
        assert main(["score", "--model", str(bundle)]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("\ta\n") and captured.out.count("\n") == 1
        assert "on line 2" in captured.err

    def test_windows_match_one_call_over_the_whole_input(self, spread, tmp_path, monkeypatch):
        # Five pooled windows, every sentence repeated across them: the same
        # lines, texts and order as one sequential score_sentences call,
        # scores within 1e-6. "a." and "b." are 4 pieces each, so a window
        # holds tasks of more than one row even if tasks were cut at 8 tokens.
        rng = np.random.default_rng(31)
        pool = [random_words(rng, int(rng.integers(1, 9))) + "." for _ in range(9)] + ["a.", "b."]
        lines = [pool[int(i)] for i in rng.integers(0, len(pool), size=40)]
        src, dst = tmp_path / "in.txt", tmp_path / "out.tsv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(pipeline, "WINDOW_SENTENCES", 8)
        threads = []
        packed_logits = pipeline.packed_logits

        def recording(seqs, *args):
            threads.append(threading.get_ident())
            return packed_logits(seqs, *args)

        with two_cpus(), mock.patch.object(pipeline, "packed_logits", recording):
            assert main(["score", "-m", str(spread), "--batch-size", "3",
                         "--input", str(src), "--output", str(dst)]) == 0
        assert threads and threading.get_ident() not in threads  # every task ran pooled
        expected = pipeline.score_sentences(lines, model_io.load_bundle(spread), 32)
        records = [record.split("\t") for record in dst.read_text(encoding="utf-8").splitlines()]
        assert [text for _, _, text in records] == lines
        for (hap, non_hap, _), score in zip(records, expected):
            assert abs(float(hap) - score.hap) <= 1e-6
            assert abs(float(non_hap) - score.non_hap) <= 1e-6

    def test_pooled_and_sequential_output_identical(self, spread, tmp_path, monkeypatch):
        rng = np.random.default_rng(32)
        src = tmp_path / "in.txt"
        src.write_text("".join(random_words(rng, int(rng.integers(1, 12))) + ".\n"
                               for _ in range(30)), encoding="utf-8")
        monkeypatch.setattr(pipeline, "WINDOW_SENTENCES", 8)
        pools = []
        score_sentences = pipeline.score_sentences

        def recording(*args, pool=None, **kwargs):
            pools.append(pool is not None)
            return score_sentences(*args, pool=pool, **kwargs)

        outputs = {}
        for name, blas in (("pooled", two_cpus()),
                           ("sequential", mock.patch.object(pipeline, "_openblas", lambda: None))):
            outputs[name] = tmp_path / f"{name}.tsv"
            with blas, mock.patch.object(pipeline, "score_sentences", recording):
                assert main(["score", "-m", str(spread), "--batch-size", "2",
                             "--input", str(src), "--output", str(outputs[name])]) == 0
        assert pools == [True] * 4 + [False] * 4  # four windows each, the last one partial
        assert outputs["pooled"].read_bytes() == outputs["sequential"].read_bytes()
        assert outputs["pooled"].read_text(encoding="utf-8").count("\n") == 30

    def test_lone_lf_is_one_empty_line(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(["score", "--model", str(bundle)], "\n",
                                 monkeypatch, capsys)
        assert code == 0
        assert captured.out.count("\n") == 1 and captured.out.endswith("\t\n")

    def test_empty_stdin(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(["score", "--model", str(bundle)], "",
                                 monkeypatch, capsys)
        assert code == 0
        assert captured.out == ""

    def test_missing_model_exits_2(self, tmp_path, monkeypatch, capsys):
        code, captured = run_cli(["score", "--model", str(tmp_path / "nope.hap")],
                                 "text\n", monkeypatch, capsys)
        assert code == 2
        assert captured.out == ""
        assert "cannot load model" in captured.err

    def test_no_model_flag_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("HAPSTACK_MODEL", raising=False)
        code, captured = run_cli(["score"], "text\n", monkeypatch, capsys)
        assert code == 2

    def test_env_var_fallback(self, bundle, monkeypatch, capsys):
        monkeypatch.setenv("HAPSTACK_MODEL", str(bundle))
        code, captured = run_cli(["score"], "hello there.\n", monkeypatch, capsys)
        assert code == 0
        assert len(captured.out.splitlines()) == 1

    def test_corrupt_model_exits_2(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.hap"
        bad.write_bytes(b"XXXXjunkjunkjunk")
        code, _ = run_cli(["score", "--model", str(bad)], "x\n", monkeypatch, capsys)
        assert code == 2

    @pytest.mark.parametrize("defect", ["vocab_size", "float_layers", "three_labels",
                                        "infinite_epsilon", "duplicate_token", "invalid_utf8",
                                        "truncated", "flipped_weight"])
    def test_inconsistent_model_exits_2_at_load(self, tmp_path, monkeypatch, capsys, defect):
        path = tmp_path / "model.hap"
        assert main(["init-random", "--config", "2,2,8,16,64,64", "--output", str(path)]) == 0
        config, tokens, tensors = read_raw_bundle(path)
        if defect == "vocab_size":
            tokens = build_ascii_vocab(256).tokens
        elif defect == "duplicate_token":
            tokens = tokens[:-1] + ["[CLS]"]
        elif defect == "invalid_utf8":
            tokens = tokens[:-1] + ["\udcff"]
        elif defect == "float_layers":
            config["num_layers"] = 2.0
        elif defect == "infinite_epsilon":
            config["layernorm_epsilon"] = float("inf")
        elif defect == "three_labels":
            config["num_labels"] = 3
            tensors["classifier_weight"] = np.zeros((8, 3), np.float32)
            tensors["classifier_bias"] = np.zeros(3, np.float32)
        elif defect == "flipped_weight":  # finite, but 2**128 times the weight
            tensors["layer.0.q_weight"] = tensors["layer.0.q_weight"].copy()
            tensors["layer.0.q_weight"].view(np.uint32)[2, 5] ^= 1 << 30
        write_raw_bundle(path, config, tokens, tensors)
        if defect == "truncated":
            path.write_bytes(path.read_bytes()[:-1])
        code, captured = run_cli(["score", "--model", str(path)], "a b c.\n",
                                 monkeypatch, capsys)
        assert code == 2
        assert captured.out == ""
        assert "cannot load model" in captured.err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    @pytest.mark.parametrize("argv", [
        ["score"], ["heatmap"], ["sample", "--mine"],
        ["filter", "--input", "in.tsv", "--output", "out.tsv"],
        ["rescore", "--input", "in.tsv"],  # no preset non_hap, so the model loads
    ], ids=lambda argv: argv[0])
    def test_fifo_model_exits_2_without_waiting(self, tmp_path, argv):
        # With no writer, a blocking open of a FIFO waits for one; the
        # timeout fails such a loader instead of hanging the suite.
        os.mkfifo(tmp_path / "model.hap")
        (tmp_path / "in.tsv").write_bytes(b"-0.5\tsome words.\n")
        done = subprocess.run([sys.executable, "-m", "hapstack.cli", *argv, "-m", "model.hap"],
                              input=b"a few words.\n", cwd=tmp_path, env=subprocess_env(),
                              capture_output=True, timeout=10)
        assert done.returncode == 2
        assert done.stdout == b""
        assert b"cannot load model model.hap: model.hap is not a regular file" in done.stderr
        assert b"Traceback" not in done.stderr


class TestStreamingDrivers:
    @pytest.mark.parametrize("command", ["score", "heatmap", "filter"])
    @pytest.mark.parametrize("hard_link", [False, True], ids=["same-path", "hard-link"])
    def test_output_over_input_refused(self, bundle, tmp_path, capsys, command, hard_link):
        src = tmp_path / "in.txt"
        src.write_bytes(b"d1\tone line.\nd2\tanother line.\n")
        dst = tmp_path / "out.txt" if hard_link else tmp_path / "." / "in.txt"
        if hard_link:
            os.link(src, dst)
        code = main([command, "-m", str(bundle), "--input", str(src), "--output", str(dst)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"output {dst} would overwrite the input corpus" in captured.err
        assert src.read_bytes() == b"d1\tone line.\nd2\tanother line.\n"

    @pytest.mark.parametrize("command", ["score", "heatmap", "filter"])
    @pytest.mark.parametrize("kind, error", [("directory", "Is a directory"),
                                             ("unreadable", "Permission denied")],
                             ids=["directory", "unreadable"])
    def test_unreadable_input_refused_before_output_opens(self, bundle, tmp_path, capsys,
                                                          command, kind, error):
        src, dst = tmp_path / "in", tmp_path / "out.txt"
        if kind == "directory":
            src.mkdir()
        else:
            src.write_bytes(b"d1\tone line.\n")
        dst.write_bytes(b"earlier\n")
        # Root may read any file, so whether this process may read it is forced.
        with mock.patch.object(os, "access", lambda path, mode: kind != "unreadable"):
            code = main([command, "-m", str(bundle), "--input", str(src), "--output", str(dst)])
        assert code == 1
        assert error in capsys.readouterr().err
        assert dst.read_bytes() == b"earlier\n"

    @pytest.mark.parametrize("command, n_lines",
                             [("score", 800), ("heatmap", 100), ("sample", 800)])
    def test_memory_does_not_grow_with_input_size(self, bundle, tmp_path, command, n_lines):
        rng = np.random.default_rng(33)
        lines = [random_words(rng, 4) + "." for _ in range(4 * n_lines)]
        # Mining with --min-hap 1.0 keeps no line, so only the window is held.
        flags = ["--mine", "--min-hap", "1.0"] if command == "sample" else []

        def peak_bytes(n):
            src = tmp_path / f"in{n}.txt"
            src.write_text("\n".join(lines[:n]) + "\n", encoding="utf-8")
            tracemalloc.start()
            try:
                assert main([command, "-m", str(bundle), "--input", str(src),
                             "--output", str(tmp_path / "out.txt"), *flags]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(20)  # warm-up: first-call allocations are not per-line
        small, large = peak_bytes(n_lines), peak_bytes(4 * n_lines)
        assert large < 1.25 * small, f"peak {small} B for {n_lines} lines, {large} B for 4x"


class TestInitRandom:
    def test_deterministic_bundles(self, tmp_path):
        a, b = tmp_path / "a.hap", tmp_path / "b.hap"
        assert main(["init-random", "--config", TINY_SPEC, "--seed", "3",
                     "--output", str(a)]) == 0
        assert main(["init-random", "--config", TINY_SPEC, "--seed", "3",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_spec(self, tmp_path, capsys):
        code = main(["init-random", "--config", "1,2,3", "--output",
                     str(tmp_path / "x.hap")])
        assert code == 2

    def test_external_vocab(self, tmp_path):
        vocab_path = tmp_path / "vocab.txt"
        tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"t{i}" for i in range(12)]
        vocab_path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        out = tmp_path / "m.hap"
        assert main(["init-random", "--config", "1,1,4,8,16,16", "--seed", "0",
                     "--vocab", str(vocab_path), "--output", str(out)]) == 0

    def test_vocab_size_mismatch(self, tmp_path, capsys):
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n", encoding="utf-8")
        code = main(["init-random", "--config", "1,1,4,8,16,16",
                     "--vocab", str(vocab_path), "--output", str(tmp_path / "m.hap")])
        assert code == 2


class TestFilter:
    def test_corpus_round(self, bundle, tmp_path, capsys):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("d1\tOne fine day. Another one!\nd2\tShort.\n", encoding="utf-8")
        code = main(["filter", "--model", str(bundle), "--input", str(src),
                     "--output", str(dst), "--max-flagged-fraction", "1.0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "processed=2" in captured.out
        assert "discarded=0" in captured.out
        assert len(dst.read_text(encoding="utf-8").splitlines()) == 2

    def test_max_fraction_one_discards_nothing(self, bundle, tmp_path, capsys):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("\n".join(f"d{i}\tvery bad words here." for i in range(5)) + "\n",
                       encoding="utf-8")
        code = main(["filter", "--model", str(bundle), "--input", str(src),
                     "--output", str(dst), "--threshold", "0.0",
                     "--max-flagged-fraction", "1.0"])
        assert code == 0
        assert all(line.split("\t")[1] == "1"
                   for line in dst.read_text(encoding="utf-8").splitlines())

    def test_missing_input_exits_1(self, bundle, tmp_path, capsys):
        code = main(["filter", "--model", str(bundle),
                     "--input", str(tmp_path / "none.tsv"),
                     "--output", str(tmp_path / "out.tsv")])
        assert code == 1

    def test_invalid_utf8_line_exits_1_after_earlier_decisions(self, bundle, tmp_path,
                                                               capsys):
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_bytes(b"d1\tFine.\nd2\tBad \xff byte.\nd3\tLater.\n")
        code = main(["filter", "--model", str(bundle), "--input", str(src),
                     "--output", str(dst)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("hapstack: ") and "Traceback" not in captured.err
        assert [line.split("\t")[0] for line in dst.read_text(encoding="utf-8").splitlines()] \
            == ["d1"]

    @pytest.mark.parametrize("flag", [["--token-budget", "512"], ["--dynamic-batching"],
                                      ["--workers", "3"]], ids=lambda flag: flag[0])
    def test_removed_flags_are_usage_errors(self, flag, bundle, monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(model_io, "load_bundle", loads.append)
        with pytest.raises(SystemExit) as exc:
            main(["filter", "--model", str(bundle), *FILTER_FILES, *flag])
        assert exc.value.code == 2
        assert loads == []
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestHeatmap:
    def test_text_grid(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(["heatmap", "--model", str(bundle)],
                                 "a short one.\n", monkeypatch, capsys)
        assert code == 0
        rows = captured.out.strip().splitlines()
        assert len(rows) >= 3
        first_row = [float(cell) for cell in rows[0].split()]
        # cells are rounded to 4 decimals, so allow n * 5e-5 rounding drift
        assert sum(first_row) == pytest.approx(1.0, abs=len(first_row) * 5e-5)

    def test_key_value_records(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(
            ["heatmap", "--model", str(bundle), "--format", "key-value-records"],
            "a short one.\n", monkeypatch, capsys)
        assert code == 0
        assert any(line.startswith("ATT 0 0 ") for line in captured.out.splitlines())
        assert any(line.startswith("WORD a ") for line in captured.out.splitlines())

    def test_batch_size_is_a_usage_error(self, bundle, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("a short one.\n"))
        with pytest.raises(SystemExit) as exc:
            main(["heatmap", "--model", str(bundle), "--batch-size", "4"])
        assert exc.value.code == 2
        assert "--batch-size" in capsys.readouterr().err


class TestRescore:
    def test_preset_scores_no_model(self, tmp_path, capsys):
        beam = tmp_path / "beam.tsv"
        beam.write_text("-0.5\tlike sh*t\t0.02\n-1.2\tlike roses\t0.99\n",
                        encoding="utf-8")
        code = main(["rescore", "--input", str(beam), "--lambda", "1.0"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0].endswith("like roses")
        assert lines[0].startswith("1\t-0.210000\t")

    def test_lambda_zero_original_order(self, tmp_path, capsys):
        beam = tmp_path / "beam.tsv"
        beam.write_text("-0.5\tfirst\t0.0\n-1.2\tsecond\t1.0\n", encoding="utf-8")
        code = main(["rescore", "--input", str(beam), "--lambda", "0.0"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0].endswith("first")

    def test_model_backed(self, bundle, tmp_path, capsys):
        beam = tmp_path / "beam.tsv"
        beam.write_text("-0.5\tsome words\n-1.2\tother words\n", encoding="utf-8")
        code = main(["rescore", "--input", str(beam), "--model", str(bundle)])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestSample:
    def test_label_and_format(self, tmp_path, monkeypatch, capsys):
        lex = tmp_path / "lex.txt"
        lex.write_text("fool\n", encoding="utf-8")
        code, captured = run_cli(["sample", "--lexicon", str(lex)],
                                 "a fool here\na nice day\n", monkeypatch, capsys)
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "1\ta fool here\tfool"
        assert lines[1] == "0\ta nice day\t"

    def test_balanced_draw(self, tmp_path, monkeypatch, capsys):
        lex = tmp_path / "lex.txt"
        lex.write_text("bad\n", encoding="utf-8")
        sentences = [f"bad thing {i}" for i in range(10)] + [f"fine {i}" for i in range(10)]
        code, captured = run_cli(
            ["sample", "--lexicon", str(lex), "--target-size", "10", "--seed", "1"],
            "\n".join(sentences) + "\n", monkeypatch, capsys)
        assert code == 0
        lines = captured.out.splitlines()
        assert len(lines) == 10
        assert sum(1 for l in lines if l.startswith("1\t")) == 5

    def test_missing_lexicon_flag(self, monkeypatch, capsys):
        code, _ = run_cli(["sample"], "x\n", monkeypatch, capsys)
        assert code == 2

    def test_mine_mode_invalid_line_prints_nothing(self, bundle, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(SECOND_WINDOW_INVALID),
                                                          encoding="utf-8"))
        assert main(["sample", "--mine", "--model", str(bundle), "--min-hap", "0.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"on line {pipeline.WINDOW_SENTENCES + 1}" in captured.err

    def test_mine_mode(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(
            ["sample", "--mine", "--model", str(bundle), "--min-hap", "0.0",
             "--limit", "2"],
            "one thing.\ntwo things.\nthree things.\n", monkeypatch, capsys)
        assert code == 0
        assert len(captured.out.splitlines()) == 2


@pytest.mark.usefixtures("short_bench")
class TestBench:
    def test_latency_self_comparison(self, capsys):
        code = main(["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC])
        captured = capsys.readouterr()
        assert code == 0
        speedup = float([l for l in captured.out.splitlines()
                         if l.startswith("speedup=")][0].split("=")[1])
        assert 0.5 <= speedup <= 2.0  # loose: a 0.2 s smoke run

    @staticmethod
    def report(capsys, *flags):
        """The lines ``bench`` prints for two 2x2x8x16 configs, and each one's key."""
        code = main(["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC, *flags])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        return lines, [line.split("=")[0] for line in lines]

    def test_latency_report_keys(self, capsys):
        lines, keys = self.report(capsys)
        side = ["model", "architecture", "median_ms", "stddev_ms", "runs"]
        assert keys == side + side + ["speedup"]
        assert lines[0] == lines[5] == "model=2x2x8x16"
        assert lines[1] == lines[6] == "architecture=2,2,8,16"

    def test_throughput_report_keys(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("d1\tone day.\nd2\ttwo days.\n", encoding="utf-8")
        _, keys = self.report(capsys, "--corpus", str(corpus))
        side = ["model", "architecture", "median_ms", "stddev_ms", "runs", "docs_per_s"]
        assert keys == side + side + ["speedup"]

    @pytest.mark.parametrize("side", ["--config", "--config-b"])
    def test_seq_len_beyond_either_configs_positions_is_a_usage_error(self, side, monkeypatch,
                                                                     capsys):
        # The bench sentence has 32 tokens; this side holds 31 positions.
        calls = []
        monkeypatch.setattr(pipeline, "bench", lambda *args: calls.append(args))
        other = "--config-b" if side == "--config" else "--config"
        code, captured = run_cli(["bench", side, "2,2,8,16,256,31", other, TINY_SPEC],
                                 capsys=capsys)
        assert code == 2
        assert calls == []
        assert captured.out == ""
        assert "bench needs max_positions >= 32, got 31" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [("--mode", "latency"), ("--runs", "100"),
                                             ("--seeds", "5"), ("--seq-len", "32"),
                                             ("--batch-size", "32")])
    def test_deleted_flags_are_usage_errors(self, flag, value, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "bench", None)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


FILTER_FILES = ["--input", "in.tsv", "--output", "out.tsv"]


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("command, flag, value", [
        (["score"], "--max-length", "1"),
        (["score"], "--batch-size", "0"),
        (["filter", *FILTER_FILES], "--threshold", "2"),
        (["filter", *FILTER_FILES], "--max-flagged-fraction", "-0.5"),
        (["sample", "--mine"], "--min-hap", "2"),
        (["sample", "--mine"], "--limit", "-1"),
        (["rescore", "--input", "beam.tsv"], "--lambda", "-1"),
        (["rescore", "--input", "beam.tsv"], "--lambda", "inf"),
        (["sample", "--lexicon", "lexicon.txt"], "--target-size", "1"),
        (["init-random", "--config", TINY_SPEC, "--output", "x.hap"], "--seed", "-1"),
    ], ids=lambda arg: arg[0] if isinstance(arg, list) else arg)
    def test_usage_error_before_the_model_loads(self, command, flag, value, bundle,
                                                monkeypatch, capsys):
        loads = []
        monkeypatch.setattr(model_io, "load_bundle", loads.append)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        monkeypatch.setenv("HAPSTACK_MODEL", str(bundle))
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert loads == []
        assert captured.out == ""
        assert f"argument {flag}: {value} is not in [" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["init-random", "--output", "x.hap", "--config"],
        ["bench", "--config-b", TINY_SPEC, "--config"],
        ["bench", "--corpus", "in.tsv", "--config-b", TINY_SPEC, "--config"],
    ], ids=["init-random", "latency", "throughput"])
    def test_config_vocab_below_the_special_tokens(self, command, tmp_path, monkeypatch,
                                                   capsys):
        # No vocabulary holds fewer than [PAD], [UNK], [CLS] and [SEP], so
        # such a --config is a usage error before anything runs or is written.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(pipeline, "bench", None)
        code, captured = run_cli([*command, "1,1,4,4,3,2"], capsys=capsys)
        assert code == 2
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        assert "vocab_size must be >= 4" in captured.err
        assert "Traceback" not in captured.err

    def test_bounds_are_inclusive(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(["score", "--model", str(bundle), "--max-length", "2",
                                  "--batch-size", "1"], "a b c.\n", monkeypatch, capsys)
        assert code == 0 and len(captured.out.splitlines()) == 1


class TestEndToEnd:
    def test_init_then_score_self_hosting(self, tmp_path, monkeypatch, capsys):
        model = tmp_path / "model.hap"
        assert main(["init-random", "--config", TINY_SPEC, "--output", str(model)]) == 0
        capsys.readouterr()
        code, captured = run_cli(["score", "--model", str(model)],
                                 "this runs with no external assets.\n",
                                 monkeypatch, capsys)
        assert code == 0
        assert len(captured.out.splitlines()) == 1

    def test_output_files(self, bundle, tmp_path, monkeypatch, capsys):
        out = tmp_path / "scores.tsv"
        code, _ = run_cli(["score", "--model", str(bundle), "--output", str(out)],
                          "a line.\n", monkeypatch, capsys)
        assert code == 0
        assert out.read_text(encoding="utf-8").count("\n") == 1
