"""WordPiece vocabulary and tokenization.

Greedy longest-match-first subword tokenization against a line-based
vocabulary file. Produces id sequences wrapped in [CLS]/[SEP], truncated
to a length budget, optionally padded, with spans mapping surviving
wordpieces back to the whitespace-level words they came from.
"""

from __future__ import annotations

import sys
import unicodedata
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)

CONTINUATION_PREFIX = "##"

# Words longer than this map straight to [UNK]; bounds the quadratic
# greedy matching cost on pathological inputs.
MAX_WORD_CHARS = 100


class VocabularyError(ValueError):
    """Invalid vocabulary contents."""


class DuplicateTokenError(VocabularyError):
    """The same token string appears on more than one line."""


class MissingSpecialTokenError(VocabularyError):
    """One of [PAD]/[UNK]/[CLS]/[SEP] is absent."""


@dataclass
class Vocabulary:
    """Ordered token list; a token's id is its position in the list."""

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False)
    pad_id: int = field(init=False)
    unk_id: int = field(init=False)
    cls_id: int = field(init=False)
    sep_id: int = field(init=False)

    def __post_init__(self) -> None:
        self.tokens = tuple(self.tokens)
        self.token_to_id = {}
        for idx, token in enumerate(self.tokens):
            if token in self.token_to_id:
                raise DuplicateTokenError(f"duplicate token {token!r} at ids "
                                          f"{self.token_to_id[token]} and {idx}")
            self.token_to_id[token] = idx
        for token in SPECIAL_TOKENS:
            if token not in self.token_to_id:
                raise MissingSpecialTokenError(f"vocabulary has no {token} token")
        self.pad_id = self.token_to_id[PAD_TOKEN]
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self.cls_id = self.token_to_id[CLS_TOKEN]
        self.sep_id = self.token_to_id[SEP_TOKEN]

    def __len__(self) -> int:
        return len(self.tokens)

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


@dataclass
class TokenizedSequence:
    """Model-ready id sequence with padding mask and word alignment.

    ``word_spans`` holds ``(word_index, first_piece, piece_count)`` triples
    covering exactly the non-special, non-pad positions of ``ids``; the
    indices refer into ``words``, the pre-tokenized words of the encoded
    text. ``pieces`` mirrors ``ids`` as token strings so downstream
    rendering never needs the vocabulary again.
    """

    ids: list[int]
    attention_mask: list[int]
    word_spans: list[tuple[int, int, int]]
    pieces: list[str]
    words: list[str]

    @property
    def length(self) -> int:
        """Number of real (unmasked) positions."""
        return sum(self.attention_mask)


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def pre_tokenize(text: str) -> list[str]:
    """Whitespace split, then peel leading/trailing punctuation into
    standalone single-character words. Interior punctuation stays put."""
    words: list[str] = []
    for chunk in text.split():
        # One scan from each end, then one slice per side: peeling a
        # character at a time would copy the chunk once per character.
        start, end = 0, len(chunk)
        while start < end and _is_punctuation(chunk[start]):
            start += 1
        while end > start and _is_punctuation(chunk[end - 1]):
            end -= 1
        words.extend(chunk[:start])
        if start < end:
            words.append(chunk[start:end])
        words.extend(chunk[end:])
    return words


def iter_lines(path: str | Path | None) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each line of the file at ``path``, or of
    stdin when None, read as bytes one line at a time and decoded as strict
    UTF-8 whatever the locale, so every text input accepts and refuses the
    same bytes in memory bounded by its longest line. Only LF ends a line (a
    CR stays in the text) and one final LF is dropped, so a lone LF is one
    empty line and empty input is no line. A line that is not UTF-8 raises
    ``UnicodeDecodeError``, naming its line number, after every earlier
    line is yielded."""
    with open(path, "rb") if path is not None else nullcontext(sys.stdin.buffer) as src:
        for lineno, raw in enumerate(src, start=1):
            try:
                text = raw.removesuffix(b"\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end,
                                         f"{exc.reason} on line {lineno}") from None
            yield lineno, text


def load_vocab(path: str | Path) -> Vocabulary:
    """Load a one-token-per-line vocabulary file (id = 0-based line number).

    The file is read bit-exactly (see ``iter_lines``): tokens keep any
    surrounding characters.
    """
    return Vocabulary(tuple(token for _, token in iter_lines(path)))


def tokenize_word(word: str, vocab: Vocabulary) -> list[int]:
    """Greedy longest-match-first decomposition of a single word.

    Non-initial pieces are matched with the ``##`` continuation prefix.
    If any position cannot be matched the whole word collapses to [UNK].
    """
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"tokenize_word expects a non-empty, whitespace-free word, got {word!r}")
    if len(word) > MAX_WORD_CHARS:
        return [vocab.unk_id]
    ids: list[int] = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            token_id = vocab.token_to_id.get(piece)
            if token_id is not None:
                match = token_id
                break
            end -= 1
        if match is None:
            return [vocab.unk_id]
        ids.append(match)
        start = end
    return ids


def encode(text: str, vocab: Vocabulary, max_length: int,
           pad_to_max: bool) -> TokenizedSequence:
    """Tokenize ``text`` into a [CLS] ... [SEP] id sequence.

    Pieces beyond ``max_length - 2`` are truncated; when ``pad_to_max``
    the sequence is padded with [PAD]/mask-0 up to ``max_length``.
    """
    if max_length < 2:
        raise ValueError("max_length must be >= 2 to fit [CLS] and [SEP]")
    words = pre_tokenize(text)
    budget = max_length - 2
    ids = [vocab.cls_id]
    spans: list[tuple[int, int, int]] = []
    used = 0
    for word_index, word in enumerate(words):
        if used >= budget:
            break
        piece_ids = tokenize_word(word, vocab)
        take = min(len(piece_ids), budget - used)
        if take > 0:
            spans.append((word_index, 1 + used, take))
            ids.extend(piece_ids[:take])
            used += take
    ids.append(vocab.sep_id)
    seq = TokenizedSequence(
        ids=ids,
        attention_mask=[1] * len(ids),
        word_spans=spans,
        pieces=vocab.decode(ids),
        words=words,
    )
    return pad_sequence(seq, max_length, vocab) if pad_to_max else seq


def pad_sequence(seq: TokenizedSequence, target_length: int, vocab: Vocabulary) -> TokenizedSequence:
    """Return a copy of ``seq`` padded with [PAD]/mask-0 to ``target_length``."""
    if target_length < len(seq.ids):
        raise ValueError(f"target_length {target_length} shorter than sequence {len(seq.ids)}")
    pad = target_length - len(seq.ids)
    return TokenizedSequence(
        ids=seq.ids + [vocab.pad_id] * pad,
        attention_mask=seq.attention_mask + [0] * pad,
        word_spans=list(seq.word_spans),
        pieces=seq.pieces + [PAD_TOKEN] * pad,
        words=list(seq.words),
    )


def build_ascii_vocab(vocab_size: int) -> Vocabulary:
    """Synthetic vocabulary: specials, printable-ASCII characters as both
    initial and continuation pieces, then unused filler up to ``vocab_size``.

    Lets randomly initialized models run end to end on arbitrary ASCII text
    without any external vocab asset.
    """
    if vocab_size < len(SPECIAL_TOKENS):
        raise ValueError(f"vocab_size must be >= {len(SPECIAL_TOKENS)}")
    tokens = list(SPECIAL_TOKENS)
    printable = [chr(c) for c in range(33, 127)]
    tokens.extend(printable)
    tokens.extend(CONTINUATION_PREFIX + ch for ch in printable)
    filler = 0
    while len(tokens) < vocab_size:
        tokens.append(f"<unused{filler}>")
        filler += 1
    return Vocabulary(tuple(tokens[:vocab_size]))
