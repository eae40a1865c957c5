"""Single-file model bundle serialization (HAP1 format).

Layout: ``magic(4) | config_len(u32 LE) | config bytes | vocab_len(u32 LE)
| vocab bytes | table_len(u32 LE) | table bytes | payload``. The config is
a key-sorted JSON record, the vocab an LF-joined UTF-8 token block, the
table a name-sorted JSON list of ``[name, rank, dims, offset]`` entries,
and the payload contiguous little-endian float32 data in table order.
Identical models always serialize to byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from math import prod
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoder import (EncoderConfig, ModelWeights, named_tensors, tensor_shapes,
                      weights_from_tensors)
from .wordpiece import Vocabulary, VocabularyError

MAGIC = b"HAP1"


class BundleError(Exception):
    """Malformed or inconsistent model bundle."""


class BadMagicError(BundleError):
    """File does not start with the HAP1 magic."""


class TruncatedBundleError(BundleError):
    """File ends before a declared section or tensor."""


class ShapeMismatchError(BundleError):
    """Tensor shapes disagree with the encoder configuration."""


class NonFiniteTensorError(BundleError):
    """Payload contains NaN or infinite values."""


class LoadedModel(NamedTuple):
    config: EncoderConfig
    weights: ModelWeights
    vocab: Vocabulary


def _check_vocab_size(vocab: Vocabulary, config: EncoderConfig) -> None:
    if len(vocab) != config.vocab_size:
        raise ShapeMismatchError(f"vocab holds {len(vocab)} tokens, "
                                 f"config declares vocab_size {config.vocab_size}")


def save_bundle(config: EncoderConfig, weights: ModelWeights, vocab: Vocabulary,
                path: str | Path) -> None:
    """Write a HAP1 bundle; saving the same model twice is byte-identical."""
    _check_vocab_size(vocab, config)
    for token in vocab.tokens:
        if "\n" in token:
            raise BundleError(f"vocab token {token!r} contains LF, the vocab block separator")
    if len(weights.layers) != config.num_layers:
        raise ShapeMismatchError(f"weights hold {len(weights.layers)} layers, "
                                 f"config declares {config.num_layers}")
    expected = tensor_shapes(config)
    tensors = named_tensors(weights, config)
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if tuple(arr.shape) != expected[name]:
            raise ShapeMismatchError(
                f"tensor {name} has shape {tuple(arr.shape)}, expected {expected[name]}")
        if not np.isfinite(arr).all():
            raise NonFiniteTensorError(f"tensor {name} contains non-finite values")

    config_bytes = json.dumps(dataclasses.asdict(config), sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    vocab_bytes = "\n".join(vocab.tokens).encode("utf-8")

    table = []
    payload_parts = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        table.append([name, arr.ndim, list(arr.shape), offset])
        payload_parts.append(arr.tobytes(order="C"))
        offset += arr.nbytes
    table_bytes = json.dumps(table, separators=(",", ":")).encode("utf-8")

    blob = b"".join([
        MAGIC,
        struct.pack("<I", len(config_bytes)), config_bytes,
        struct.pack("<I", len(vocab_bytes)), vocab_bytes,
        struct.pack("<I", len(table_bytes)), table_bytes,
        *payload_parts,
    ])
    Path(path).write_bytes(blob)


def _take(data: bytes, pos: int, count: int, what: str) -> tuple[bytes, int]:
    if pos + count > len(data):
        raise TruncatedBundleError(f"bundle truncated while reading {what}")
    return data[pos:pos + count], pos + count


def load_bundle(path: str | Path) -> LoadedModel:
    """Read and fully validate a HAP1 bundle."""
    data = Path(path).read_bytes()
    magic, pos = _take(data, 0, 4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")

    sections = {}
    for section in ("config", "vocab", "table"):
        raw_len, pos = _take(data, pos, 4, f"{section} length")
        (length,) = struct.unpack("<I", raw_len)
        sections[section], pos = _take(data, pos, length, section)
    payload = memoryview(data)[pos:]  # a view: slicing bytes would copy the payload

    try:
        config = EncoderConfig(**json.loads(sections["config"].decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise BundleError(f"invalid config record: {exc}") from exc

    try:
        vocab_text = sections["vocab"].decode("utf-8")
        vocab = Vocabulary(tuple(vocab_text.split("\n")) if vocab_text else ())
    except (UnicodeDecodeError, VocabularyError) as exc:
        raise BundleError(f"invalid vocab block: {exc}") from exc
    _check_vocab_size(vocab, config)

    try:
        table = json.loads(sections["table"].decode("utf-8"))
        entries = [(str(name), int(rank), tuple(int(d) for d in dims), int(offset))
                   for name, rank, dims, offset in table]
    except (ValueError, TypeError) as exc:
        raise BundleError(f"invalid tensor table: {exc}") from exc

    expected = tensor_shapes(config)
    names = [name for name, _, _, _ in entries]
    if sorted(names) != sorted(expected):
        raise ShapeMismatchError(
            f"tensor table names do not match config: got {len(names)} entries, "
            f"expected {len(expected)}")

    spans = []
    for name, rank, dims, offset in entries:
        if dims != expected[name] or rank != len(dims):
            raise ShapeMismatchError(
                f"tensor {name} declared {dims} (rank {rank}), expected {expected[name]}")
        nbytes = 4 * prod(dims)
        if offset < 0 or offset + nbytes > len(payload):
            raise TruncatedBundleError(f"tensor {name} extends past end of payload")
        spans.append((offset, offset + nbytes, name))
    spans.sort()
    for (_, prev_end, prev_name), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            raise BundleError(f"tensors {prev_name} and {name} overlap in payload")
    total = sum(end - start for start, end, _ in spans)
    if total != len(payload):
        raise BundleError(f"payload holds {len(payload)} bytes, table declares {total}")

    tensors: dict[str, np.ndarray] = {}
    for name, _, dims, offset in entries:
        # The copy is needed: a view would sit at an unaligned offset, which
        # makes numpy's matmul many times slower.
        arr = np.frombuffer(payload, dtype="<f4", count=prod(dims),
                            offset=offset).reshape(dims).astype(np.float32)
        if not np.isfinite(arr).all():
            raise NonFiniteTensorError(f"tensor {name} contains non-finite values")
        tensors[name] = arr

    return LoadedModel(config=config, weights=weights_from_tensors(tensors, config),
                       vocab=vocab)
