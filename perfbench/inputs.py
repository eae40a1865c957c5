"""Seeded input generator for the benchmark.

Everything the benchmark feeds the program is made here from one seed:
a synthetic WordPiece vocab, the 4-layer ``HAP1`` bundle, the corpus
chunks of the two ``filter-*`` workloads and the request script of
``interactive``. The same seed always yields byte-identical files; the
sha256 of each is recorded in ``manifest.json`` next to them.

Text comes from a Zipf-distributed lexicon of syllable words, so that,
as with a BERT-like vocab, most words are single pieces and rare ones
split into a few syllable pieces.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

VOCAB_SIZE = 30000
MAX_POSITIONS = 512

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
CODAS = ("", "n", "r", "s", "l", "t")
LEXICON_SIZE = 150000
ZIPF_EXPONENT = 1.0
COMMA_RATE = 0.08
FOREIGN_CHARS = "éüñøçßåž"

# Lengths are drawn from fixed multisets in a seeded order, so that every
# seed has the same length distribution and only the words differ.

# filter-long: documents of 105 distinct sentences, five of each length
# from 5 to 25 words.
LONG_DOCS_PER_CHUNK = 1
LONG_CHUNKS = 48
LONG_WORDS = tuple(range(5, 26)) * 5

# filter-web: 32 lines per chunk. Exactly one malformed line, and one
# unterminated run-on sentence longer than max_length in a 3-sentence
# document, so every chunk carries the same amount of heavy work. That
# document comes first, so the two worker threads split each chunk alike.
# The other 30 documents have 1-5 sentences.
WEB_CHUNKS = 48
WEB_SENTENCES = tuple(range(1, 6)) * 6
WEB_MEDIAN_WORDS = 9.0
WEB_WORDS_SIGMA = 0.75
WEB_MAX_WORDS = 150
WEB_BOILERPLATE_POOL = 12
WEB_BOILERPLATE_SHARE = 0.25
WEB_UNK_WORD_RATE = 0.01
WEB_RUNON_WORDS = (480, 700)
WEB_RUNON_DOC_SENTENCES = 3

# interactive: a seeded interleaving of three request kinds.
REQUEST_KINDS = ("score", "rescore", "explain")
REQUESTS = 4000
REQUEST_WORDS = tuple(range(5, 26))
BEAM_SIZE = 8
BEAM_WORDS = tuple(range(5, 21))

WORKLOADS = ("filter-long", "filter-web", "interactive")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Lexicon:
    """Syllable words ranked by a Zipf law; rank 0 is the most frequent."""

    def __init__(self, rng: np.random.Generator):
        self.syllables = [c + v + coda for c in CONSONANTS for v in VOWELS for coda in CODAS]
        words: dict[str, None] = {}
        while len(words) < LEXICON_SIZE:
            counts = rng.choice(4, size=LEXICON_SIZE, p=(0.1, 0.4, 0.35, 0.15)) + 1
            picks = rng.integers(0, len(self.syllables), size=(LEXICON_SIZE, 4))
            for count, row in zip(counts.tolist(), picks.tolist()):
                words.setdefault("".join(self.syllables[i] for i in row[:count]))
        self.words = list(words)[:LEXICON_SIZE]
        weights = 1.0 / np.arange(1, LEXICON_SIZE + 1) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.words[min(int(r), LEXICON_SIZE - 1)] for r in ranks]

    def vocab_tokens(self, special: tuple[str, ...], prefix: str) -> list[str]:
        """Specials, every printable ASCII character and its ``##`` form,
        syllables (lower and capitalized) with their ``##`` forms, then
        whole words by rank until the vocab is full."""
        printable = [chr(c) for c in range(33, 127)]
        tokens = list(special) + printable + [prefix + ch for ch in printable]
        tokens += self.syllables + [s.capitalize() for s in self.syllables]
        tokens += [prefix + s for s in self.syllables]
        seen = set(tokens)
        for word in self.words:
            if len(tokens) >= VOCAB_SIZE:
                break
            if word not in seen:
                seen.add(word)
                tokens.append(word)
        return tokens


def sentence(rng: np.random.Generator, lexicon: Lexicon, n_words: int,
             terminated: bool = True, unk_rate: float = 0.0) -> str:
    words = lexicon.draw(rng, n_words)
    words[0] = words[0].capitalize()
    out = []
    for word in words:
        if unk_rate and rng.random() < unk_rate:
            pos = int(rng.integers(0, len(word) + 1))
            word = word[:pos] + FOREIGN_CHARS[int(rng.integers(len(FOREIGN_CHARS)))] + word[pos:]
        if rng.random() < COMMA_RATE:
            word += ","
        out.append(word)
    text = " ".join(out).rstrip(",")
    if terminated:
        text += str(rng.choice([".", "?", "!"], p=(0.8, 0.1, 0.1)))
    return text


def _escape(text: str) -> str:
    return text.replace("\n", "\\n")


def _long_chunks(rng: np.random.Generator, lexicon: Lexicon) -> list[dict]:
    seen: set[str] = set()
    chunks = []
    for c in range(LONG_CHUNKS):
        lines, ids, sentences = [], [], 0
        for d in range(LONG_DOCS_PER_CHUNK):
            doc = []
            for n_words in rng.permutation(LONG_WORDS).tolist():
                while True:
                    s = sentence(rng, lexicon, n_words)
                    if s not in seen:
                        break
                seen.add(s)
                doc.append(s)
            doc_id = f"long-{c:03d}-{d:02d}"
            ids.append(doc_id)
            sentences += len(doc)
            lines.append(f"{doc_id}\t{_escape(' '.join(doc))}")
        chunks.append({"lines": lines, "ids": ids, "malformed": 0, "sentences": sentences})
    return chunks


def _web_words(rng: np.random.Generator) -> int:
    n = rng.lognormal(np.log(WEB_MEDIAN_WORDS), WEB_WORDS_SIGMA)
    return int(min(WEB_MAX_WORDS, max(1, round(n))))


def _web_chunks(rng: np.random.Generator, lexicon: Lexicon) -> list[dict]:
    pool = [sentence(rng, lexicon, int(rng.integers(4, 13))) for _ in range(WEB_BOILERPLATE_POOL)]
    chunks = []
    for c in range(WEB_CHUNKS):
        # None marks the malformed line; a negative count, the run-on document.
        plan = [None] + list(WEB_SENTENCES)
        plan = [-WEB_RUNON_DOC_SENTENCES] + [plan[i] for i in rng.permutation(len(plan))]
        lines, ids, sentences = [], [], 0
        for d, n in enumerate(plan):
            if n is None:
                text = sentence(rng, lexicon, _web_words(rng))
                # A line with no tab, or one whose id is empty: both are skipped.
                lines.append(text if c % 2 == 0 else f"\t{text}")
                continue
            runon_at = int(rng.integers(0, -n)) if n < 0 else -1
            n = abs(n)
            text = ""
            for i in range(n):
                if i == runon_at:
                    words = int(rng.integers(WEB_RUNON_WORDS[0], WEB_RUNON_WORDS[1] + 1))
                    s = sentence(rng, lexicon, words, terminated=False,
                                 unk_rate=WEB_UNK_WORD_RATE)
                    # A newline ends the unterminated sentence.
                    text += s + "\n"
                    continue
                if rng.random() < WEB_BOILERPLATE_SHARE:
                    s = pool[int(rng.integers(len(pool)))]
                else:
                    s = sentence(rng, lexicon, _web_words(rng), unk_rate=WEB_UNK_WORD_RATE)
                text += s + " "
            doc_id = f"web-{c:03d}-{d:02d}"
            ids.append(doc_id)
            sentences += n
            lines.append(f"{doc_id}\t{_escape(text.rstrip())}")
        chunks.append({"lines": lines, "ids": ids, "malformed": 1, "sentences": sentences})
    return chunks


def _cycle(rng: np.random.Generator, values: tuple[int, ...]):
    """Endless stream of seeded permutations of ``values``."""
    while True:
        yield from rng.permutation(values).tolist()


def _requests(rng: np.random.Generator, lexicon: Lexicon) -> list[dict]:
    lengths = {kind: _cycle(rng, BEAM_WORDS if kind == "rescore" else REQUEST_WORDS)
               for kind in REQUEST_KINDS}
    kinds = _cycle(rng, tuple(range(len(REQUEST_KINDS))))
    requests = []
    for _ in range(REQUESTS):
        kind = REQUEST_KINDS[next(kinds)]
        if kind == "rescore":
            beam = []
            for _ in range(BEAM_SIZE):
                text = sentence(rng, lexicon, next(lengths[kind]))
                beam.append([round(-float(rng.exponential(2.0)), 4), text])
            requests.append({"kind": kind, "beam": beam})
        else:
            requests.append({"kind": kind, "text": sentence(rng, lexicon, next(lengths[kind]))})
    return requests


def generate(out_dir: Path, seed: int, workload: str) -> dict:
    """Write every input of ``workload`` under ``out_dir`` and return the
    manifest. Every workload gets the vocab, the bundle and the request
    script; the ``filter-*`` workloads also get their corpus chunks."""
    from hapstack.encoder import init_random, piccolo_config
    from hapstack.model_io import save_bundle
    from hapstack.wordpiece import CONTINUATION_PREFIX, SPECIAL_TOKENS, Vocabulary

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    lexicon = Lexicon(rng)
    tokens = lexicon.vocab_tokens(SPECIAL_TOKENS, CONTINUATION_PREFIX)
    vocab_path = out_dir / "vocab.txt"
    vocab_path.write_bytes(("\n".join(tokens) + "\n").encode("utf-8"))

    config = piccolo_config(VOCAB_SIZE, MAX_POSITIONS)
    bundle_path = out_dir / "model.hap"
    save_bundle(config, init_random(config, seed), Vocabulary(tuple(tokens)), bundle_path)

    requests_path = out_dir / "requests.json"
    requests = _requests(np.random.default_rng([seed, 1]), lexicon)
    requests_path.write_bytes(json.dumps(requests, separators=(",", ":")).encode("utf-8"))

    files = [vocab_path, bundle_path, requests_path]
    chunks = []
    if workload != "interactive":
        make = _long_chunks if workload == "filter-long" else _web_chunks
        stream = 2 if workload == "filter-long" else 3
        for i, chunk in enumerate(make(np.random.default_rng([seed, stream]), lexicon)):
            path = out_dir / f"chunk-{i:03d}.tsv"
            path.write_bytes("".join(line + "\n" for line in chunk["lines"]).encode("utf-8"))
            files.append(path)
            chunks.append({"path": path.name, "ids": chunk["ids"],
                           "malformed": chunk["malformed"], "sentences": chunk["sentences"]})

    manifest = {
        "seed": seed,
        "workload": workload,
        "bundle": bundle_path.name,
        "requests": requests_path.name,
        "chunks": chunks,
        "sha256": {path.name: sha256_file(path) for path in files},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                           encoding="utf-8")
    return manifest
