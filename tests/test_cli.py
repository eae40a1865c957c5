"""CLI tests driving main() in-process: exit codes, formats, end-to-end runs."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hapstack import model_io
from hapstack.cli import main
from hapstack.wordpiece import build_ascii_vocab

from conftest import read_raw_bundle, write_raw_bundle

TINY_SPEC = "2,2,8,16,256,64"
SRC = str(Path(__file__).resolve().parents[1] / "src")
INVALID_UTF8 = b"a\n\xff\n"
NON_ASCII = "caf\u00e9 \u2014 na\u00efve.\n".encode()


@pytest.fixture
def bundle(tmp_path):
    path = tmp_path / "model.hap"
    assert main(["init-random", "--config", TINY_SPEC, "--seed", "0",
                 "--output", str(path)]) == 0
    return path


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
        env = dict(os.environ, LC_ALL="C", PYTHONPATH=os.pathsep.join(
            [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
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
        if data == INVALID_UTF8:
            assert from_stdin.returncode == 1 and from_stdin.stdout == b""
        else:
            assert from_stdin.returncode == 0
            expected = {"score": b"\t" + data, "heatmap": b"WORD na\xc3\xafve ",
                        "sample": b"1\t" + data.rstrip(b"\n") + b"\tna\xc3\xafve\n"}
            assert expected[command] in from_stdin.stdout

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
                                        "duplicate_token", "invalid_utf8", "truncated"])
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
        elif defect == "three_labels":
            config["num_labels"] = 3
            tensors["classifier_weight"] = np.zeros((8, 3), np.float32)
            tensors["classifier_bias"] = np.zeros(3, np.float32)
        write_raw_bundle(path, config, tokens, tensors)
        if defect == "truncated":
            path.write_bytes(path.read_bytes()[:-1])
        code, captured = run_cli(["score", "--model", str(path)], "a b c.\n",
                                 monkeypatch, capsys)
        assert code == 2
        assert captured.out == ""
        assert "cannot load model" in captured.err


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

    def test_workers_flag_has_no_effect(self, bundle, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text("d1\tOne fine day. Another one!\nd2\tShort.\n", encoding="utf-8")
        outputs = []
        for extra in ([], ["--workers", "3"]):
            dst = tmp_path / f"out{len(outputs)}.tsv"
            assert main(["filter", "--model", str(bundle), "--input", str(src),
                         "--output", str(dst), *extra]) == 0
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", [["--token-budget", "512"], ["--dynamic-batching"]],
                             ids=lambda flag: flag[0])
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

    def test_mine_mode(self, bundle, monkeypatch, capsys):
        code, captured = run_cli(
            ["sample", "--mine", "--model", str(bundle), "--min-hap", "0.0",
             "--limit", "2"],
            "one thing.\ntwo things.\nthree things.\n", monkeypatch, capsys)
        assert code == 0
        assert len(captured.out.splitlines()) == 2


class TestBench:
    def test_latency_self_comparison(self, capsys):
        code = main(["bench", "--mode", "latency", "--config", TINY_SPEC,
                     "--config-b", TINY_SPEC, "--runs", "10", "--seeds", "1",
                     "--seq-len", "8"])
        captured = capsys.readouterr()
        assert code == 0
        speedup = float([l for l in captured.out.splitlines()
                         if l.startswith("speedup=")][0].split("=")[1])
        assert 0.5 <= speedup <= 2.0  # loose: single-seed smoke run

    def test_latency_report_keys(self, capsys):
        code = main(["bench", "--mode", "latency", "--config", TINY_SPEC,
                     "--config-b", TINY_SPEC, "--runs", "10", "--seeds", "1",
                     "--seq-len", "8"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        side = ["model", "architecture", "mean_latency_ms", "stddev_ms", "seeds"]
        assert [line.split("=")[0] for line in lines] == side + side + ["speedup"]
        assert lines[0] == lines[5] == "model=2x2x8x16"
        assert lines[1] == lines[6] == "architecture=2,2,8,16"

    def test_throughput_requires_corpus(self, capsys):
        code = main(["bench", "--mode", "throughput", "--config", TINY_SPEC,
                     "--config-b", TINY_SPEC])
        assert code == 2


FILTER_FILES = ["--input", "in.tsv", "--output", "out.tsv"]


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("command, flag, value", [
        (["score"], "--max-length", "1"),
        (["score"], "--batch-size", "0"),
        (["filter", *FILTER_FILES], "--threshold", "2"),
        (["filter", *FILTER_FILES], "--max-flagged-fraction", "-0.5"),
        (["filter", *FILTER_FILES], "--workers", "0"),
        (["sample", "--mine"], "--min-hap", "2"),
        (["sample", "--mine"], "--limit", "-1"),
        (["rescore", "--input", "beam.tsv"], "--lambda", "-1"),
        (["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC], "--seeds", "0"),
        (["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC], "--seq-len", "0"),
        (["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC], "--batch-size", "0"),
        (["bench", "--config", TINY_SPEC, "--config-b", TINY_SPEC], "--runs", "5"),
        (["sample", "--lexicon", "lexicon.txt"], "--target-size", "1"),
        (["bench", "--mode", "throughput", "--config", TINY_SPEC, "--config-b", TINY_SPEC],
         "--seed", "-1"),
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
