"""Tokenizer unit tests: line reading, vocab loading, greedy matching, encoding."""

import io
import tempfile
import time
import unicodedata
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapstack.wordpiece import (
    CLS_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    DuplicateTokenError,
    MissingSpecialTokenError,
    Vocabulary,
    build_ascii_vocab,
    encode,
    iter_lines,
    load_vocab,
    pad_sequence,
    pre_tokenize,
    tokenize_word,
)

from conftest import TINY_TOKENS


class TestLoadVocab:
    def test_eight_line_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(TINY_TOKENS) + "\n", encoding="utf-8")
        vocab = load_vocab(path)
        assert len(vocab) == 8
        assert vocab.cls_id == 2
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.sep_id == 3

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(TINY_TOKENS), encoding="utf-8")
        assert len(load_vocab(path)) == 8

    def test_missing_unk(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[CLS]\n[SEP]\nword\n", encoding="utf-8")
        with pytest.raises(MissingSpecialTokenError):
            load_vocab(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"")
        with pytest.raises(MissingSpecialTokenError):
            load_vocab(path)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(TINY_TOKENS) + "\nbad\n", encoding="utf-8")
        with pytest.raises(DuplicateTokenError):
            load_vocab(path)

    def test_bit_exact_tokens(self, tmp_path):
        # Tokens keep surrounding whitespace except the line-ending LF.
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"[PAD]\n[UNK]\n[CLS]\n[SEP]\nword \n")
        vocab = load_vocab(path)
        assert vocab.tokens[4] == "word "


def read_both_ways(data: bytes) -> list[str]:
    """The texts ``iter_lines`` yields for ``data`` from a file and from
    stdin, checked to agree and to be numbered from 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_bytes(data)
        from_file = list(iter_lines(path))
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
        from_stdin = list(iter_lines(None))
    assert from_file == from_stdin
    assert [lineno for lineno, _ in from_file] == list(range(1, len(from_file) + 1))
    return [text for _, text in from_file]


class TestSplitLines:
    """The line rules of ``iter_lines``, the one reader of every text input."""

    @pytest.mark.parametrize("text, lines", [
        ("", []),
        ("\n", [""]),
        ("a", ["a"]),
        ("a\n", ["a"]),
        ("a\n\n", ["a", ""]),
        ("\na\nb", ["", "a", "b"]),
        ("a\r\nb\rc\n", ["a\r", "b\rc"]),
    ])
    def test_only_lf_ends_a_line_and_one_final_lf_is_dropped(self, text, lines):
        assert read_both_ways(text.encode("utf-8")) == lines

    @given(st.lists(st.text(alphabet="ab\r\t \u00e9", max_size=4), min_size=1, max_size=5))
    def test_joined_lines_round_trip(self, lines):
        assert read_both_ways(("\n".join(lines) + "\n").encode("utf-8")) == lines

    def test_invalid_line_raises_after_earlier_lines(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\nb\n\xff\nc\n")
        lines = iter_lines(path)
        assert [next(lines), next(lines)] == [(1, "a"), (2, "b")]
        with pytest.raises(UnicodeDecodeError):
            next(lines)

    def test_invalid_line_error_names_its_line(self):
        data = b"a\nb\n\xce\xbb \xff\nc\n"
        with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
            with pytest.raises(UnicodeDecodeError, match="on line 3$") as raised:
                list(iter_lines(None))
        assert (raised.value.start, raised.value.object) == (3, b"\xce\xbb \xff")


class TestTokenizeWord:
    def test_greedy_decomposition(self, tiny_vocab):
        assert tokenize_word("shamelessly", tiny_vocab) == [4, 5, 6]

    def test_exact_hit(self, tiny_vocab):
        assert tokenize_word("bad", tiny_vocab) == [7]

    def test_unk_fallback(self, tiny_vocab):
        assert tokenize_word("xyz", tiny_vocab) == [1]
        assert encode("BAD", tiny_vocab, 8, pad_to_max=False).ids == [2, 1, 3]  # case-sensitive

    def test_partial_match_falls_back_whole(self, tiny_vocab):
        # "shame" matches but "xx" does not, so the whole word is [UNK].
        assert tokenize_word("shamexx", tiny_vocab) == [1]

    def test_overlong_word(self, tiny_vocab):
        assert tokenize_word("a" * 101, tiny_vocab) == [1]

    def test_rejects_empty_and_whitespace(self, tiny_vocab):
        with pytest.raises(ValueError):
            tokenize_word("", tiny_vocab)
        with pytest.raises(ValueError):
            tokenize_word("two words", tiny_vocab)


class TestEncode:
    def test_padded_encode(self, tiny_vocab):
        seq = encode("shamelessly bad", tiny_vocab, 8, pad_to_max=True)
        assert seq.ids == [2, 4, 5, 6, 7, 3, 0, 0]
        assert seq.attention_mask == [1, 1, 1, 1, 1, 1, 0, 0]
        assert seq.word_spans == [(0, 1, 3), (1, 4, 1)]

    def test_empty_text(self, tiny_vocab):
        seq = encode("", tiny_vocab, 8, pad_to_max=False)
        assert seq.ids == [2, 3]
        assert seq.attention_mask == [1, 1]
        assert seq.word_spans == []

    def test_truncation(self, tiny_vocab):
        seq = encode("shamelessly bad", tiny_vocab, 4, pad_to_max=False)
        assert seq.ids == [2, 4, 5, 3]
        # Only the surviving pieces of the first word keep a span.
        assert seq.word_spans == [(0, 1, 2)]

    def test_max_length_too_small(self, tiny_vocab):
        with pytest.raises(ValueError):
            encode("bad", tiny_vocab, 1, pad_to_max=False)

    def test_cls_first_sep_last_unmasked(self, tiny_vocab):
        seq = encode("bad bad", tiny_vocab, 16, pad_to_max=True)
        decoded = tiny_vocab.decode(seq.ids)
        assert decoded[0] == CLS_TOKEN
        assert decoded[seq.length - 1] == SEP_TOKEN
        assert all(tok == PAD_TOKEN for tok in decoded[seq.length:])

    def test_manual_padding_equals_pad_to_max(self, tiny_vocab):
        unpadded = encode("shamelessly bad", tiny_vocab, 8, pad_to_max=False)
        padded = encode("shamelessly bad", tiny_vocab, 8, pad_to_max=True)
        manual = pad_sequence(unpadded, 8, tiny_vocab)
        assert manual.ids == padded.ids
        assert manual.attention_mask == padded.attention_mask
        assert manual.word_spans == padded.word_spans


class TestPreTokenize:
    def test_trailing_period_splits(self):
        assert pre_tokenize("indeed.") == ["indeed", "."]
        assert pre_tokenize("indeed .") == ["indeed", "."]

    def test_leading_and_trailing(self):
        assert pre_tokenize("'hello,'") == ["'", "hello", ",", "'"]

    def test_interior_punctuation_stays(self):
        assert pre_tokenize("f*cking") == ["f*cking"]

    def test_all_punctuation_chunk(self):
        assert pre_tokenize("...") == [".", ".", "."]

    def test_long_punctuation_run_is_linear(self):
        # Peeling one character at a time copied the chunk each time:
        # about 20 s for this input.
        start = time.perf_counter()
        words = pre_tokenize("a" + "!" * 1_000_000)
        elapsed = time.perf_counter() - start
        assert len(words) == 1_000_001 and words[:2] == ["a", "!"]
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    @settings(max_examples=300)
    @given(st.text(st.sampled_from("ab.,!'* \t\n\u00bf\u3001")))
    def test_matches_character_peeling(self, text):
        assert pre_tokenize(text) == _peeling_pre_tokenize(text)


def _peeling_pre_tokenize(text):
    """Reference: peel leading and trailing punctuation one character at a time."""
    words = []
    for chunk in text.split():
        head, tail, core = [], [], chunk
        while core and unicodedata.category(core[0]).startswith("P"):
            head.append(core[0])
            core = core[1:]
        while core and unicodedata.category(core[-1]).startswith("P"):
            tail.append(core[-1])
            core = core[:-1]
        words.extend(head + ([core] if core else []) + tail[::-1])
    return words


WORDS = st.text(alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
                min_size=1, max_size=12)


@settings(max_examples=100)
@given(st.lists(WORDS, min_size=0, max_size=8))
def test_greedy_pieces_reassemble_or_unk(words):
    vocab = build_ascii_vocab(256)
    text = " ".join(words)
    seq = encode(text, vocab, 128, pad_to_max=False)
    for word_index, first, count in seq.word_spans:
        pieces = seq.pieces[first:first + count]
        if pieces == ["[UNK]"]:
            continue
        rebuilt = pieces[0] + "".join(p.removeprefix("##") for p in pieces[1:])
        assert rebuilt == seq.words[word_index]


@settings(max_examples=100)
@given(st.lists(WORDS, min_size=0, max_size=8), st.booleans())
def test_mask_shape_invariants(words, pad):
    vocab = build_ascii_vocab(256)
    seq = encode(" ".join(words), vocab, 32, pad_to_max=pad)
    assert len(seq.ids) == len(seq.attention_mask)
    assert len(seq.ids) <= 32
    # mask is all ones then all zeros; zeros are exactly the pads
    first_zero = seq.attention_mask.index(0) if 0 in seq.attention_mask else len(seq.ids)
    assert all(m == 1 for m in seq.attention_mask[:first_zero])
    assert all(m == 0 for m in seq.attention_mask[first_zero:])
    assert all(i == vocab.pad_id for i in seq.ids[first_zero:])
    # spans partition the non-special, non-pad positions
    covered = []
    for _, first, count in seq.word_spans:
        covered.extend(range(first, first + count))
    assert sorted(covered) == list(range(1, seq.length - 1))
