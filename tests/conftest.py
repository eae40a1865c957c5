"""Shared fixtures: tiny vocabularies, configs and models."""

import contextlib
import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from hapstack import model_io, pipeline
from hapstack.encoder import EncoderConfig, init_random, named_tensors, weights_from_tensors
from hapstack.model_io import LoadedModel
from hapstack.wordpiece import Vocabulary, build_ascii_vocab

# Every property draws the same examples on every run, and no example
# database carries a failure from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

TINY_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "shame", "##less", "##ly", "bad")


@pytest.fixture
def tiny_vocab():
    """The 8-token vocabulary used throughout the tokenizer examples."""
    return Vocabulary(TINY_TOKENS)


@pytest.fixture(scope="session")
def ascii_vocab():
    return build_ascii_vocab(256)


@pytest.fixture(scope="session")
def tiny_config(ascii_vocab):
    return EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                         intermediate_size=16, vocab_size=len(ascii_vocab),
                         max_positions=64)


@pytest.fixture(scope="session")
def tiny_model(tiny_config, ascii_vocab):
    return LoadedModel(config=tiny_config,
                       weights=init_random(tiny_config, 0),
                       vocab=ascii_vocab)


@pytest.fixture
def short_bench(monkeypatch):
    """A 0.2 s minimum per bench comparison, so bench tests stay quick."""
    monkeypatch.setattr(pipeline, "BENCH_MIN_S", 0.2)


def random_words(rng: np.random.Generator, n_words: int) -> str:
    """Random lowercase sentence; tokenizes piece-per-character under the
    ASCII vocabulary."""
    words = []
    for _ in range(n_words):
        length = int(rng.integers(1, 8))
        letters = rng.integers(ord("a"), ord("z") + 1, size=length)
        words.append("".join(chr(c) for c in letters))
    return " ".join(words)


@contextlib.contextmanager
def two_cpus(blas=None):
    """Two usable CPUs and ``blas`` as the OpenBLAS (set, get, park) triple,
    so that a streaming run takes the pooled path; without ``blas``, the
    OpenBLAS found in this process, or a no-op triple where there is none."""
    if blas is None:
        blas = pipeline._openblas() or (lambda n: None, lambda: 1, None)
    with (mock.patch.object(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, create=True),
          mock.patch.object(pipeline, "_openblas", lambda: blas)):
        yield


def write_spread_bundle(source, path):
    """Write the bundle at ``source`` to ``path`` with every weight but the
    layernorms' 30 times larger, so its scores spread over about [0.1, 0.5];
    a tiny random model scores every sentence within 1e-5 of 0.502, which
    would hide a misplaced row. Returns ``path``."""
    config, weights, vocab = model_io.load_bundle(source)
    tensors = ((name, arr if "_ln_" in name else arr * 30)
               for name, arr in named_tensors(weights, config).items())
    model_io.save_bundle(config, weights_from_tensors(tensors, config), vocab, path)
    return path


def read_raw_bundle(path):
    """(config dict, tokens, name -> float32 array) of a HAP1 file, parsed
    from the format description alone, without the library's checks."""
    data = path.read_bytes()
    pos = 4
    sections = []
    for _ in range(3):
        (length,) = struct.unpack("<I", data[pos:pos + 4])
        sections.append(data[pos + 4:pos + 4 + length])
        pos += 4 + length
    config = json.loads(sections[0])
    tokens = sections[1].decode("utf-8").split("\n")
    tensors = {name: np.frombuffer(data, "<f4", int(np.prod(dims)), pos + offset).reshape(dims)
               for name, _, dims, offset in json.loads(sections[2])}
    return config, tokens, tensors


def write_raw_bundle(path, config, tokens, tensors, order=None):
    """Write a HAP1 file from parts, without the library's checks. ``config``
    is a dict, or the config record's JSON text as a string. Tokens are
    encoded with ``surrogateescape``, so a lone surrogate such as ``"\\udcff"``
    writes the invalid UTF-8 byte 0xff. The table is name-sorted; the payload
    holds the tensors in ``order`` (default: name order), which the offsets
    follow."""
    entries, payload, offset = {}, b"", 0
    for name in order or sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        entries[name] = [name, arr.ndim, list(arr.shape), offset]
        payload += arr.tobytes()
        offset += arr.nbytes
    table = [entries[name] for name in sorted(entries)]
    if not isinstance(config, str):
        config = json.dumps(config, sort_keys=True)
    sections = [config.encode("utf-8"),
                "\n".join(tokens).encode("utf-8", "surrogateescape"),
                json.dumps(table).encode("utf-8")]
    path.write_bytes(b"HAP1" + b"".join(struct.pack("<I", len(s)) + s for s in sections)
                     + payload)
