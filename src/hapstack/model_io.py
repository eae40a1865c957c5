"""Single-file model bundle serialization (HAP1 format).

Layout: ``magic(4) | config_len(u32 LE) | config bytes | vocab_len(u32 LE)
| vocab bytes | table_len(u32 LE) | table bytes | payload``. The config is
a key-sorted JSON record, the vocab an LF-joined UTF-8 token block, the
table a name-sorted JSON list of ``[name, rank, dims, offset]`` entries,
and the payload contiguous little-endian float32 data in table order.
``_layout`` states that table; the loader accepts no other. Identical
models always serialize to byte-identical files.

Loading refuses a path that is not a regular file before anything can
block, checks every section length against the file size before reading
it, parses the sections, then checks the exact file size the config
implies (``count_parameters``) and then the table, all before it
allocates a tensor; each tensor is then read straight into its own
aligned array and handed to ``weights_from_tensors``, which holds the
inner blocks' projection weights transposed in memory (one copy each).
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import struct
from itertools import zip_longest
from math import prod
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoder import (EncoderConfig, ModelWeights, count_parameters, named_tensors,
                      tensor_shapes, weights_from_tensors)
from .wordpiece import Vocabulary

MAGIC = b"HAP1"
# Largest weight magnitude a bundle may hold. init_random draws stay below
# 0.2, and a flip of a float32's top exponent bit multiplies a weight below
# 2 in magnitude by 2**128, so a bit-flipped weight fails to load instead of
# running as a different model or scoring NaN.
MAX_MAGNITUDE = 1e4


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


def _check_values(name: str, arr: np.ndarray) -> None:
    """Raise ``BundleError`` naming tensor ``name`` when ``arr`` holds a
    non-finite value or one beyond ``MAX_MAGNITUDE``."""
    if not np.isfinite(arr).all():
        raise NonFiniteTensorError(f"tensor {name} contains non-finite values")
    if max(-arr.min(), arr.max()) > MAX_MAGNITUDE:
        raise BundleError(f"tensor {name} holds a value beyond {MAX_MAGNITUDE:g} in magnitude")


class LoadedModel(NamedTuple):
    config: EncoderConfig
    weights: ModelWeights
    vocab: Vocabulary


def _check_vocab_size(vocab: Vocabulary, config: EncoderConfig) -> None:
    if len(vocab) != config.vocab_size:
        raise ShapeMismatchError(f"vocab holds {len(vocab)} tokens, "
                                 f"config declares vocab_size {config.vocab_size}")


def _layout(config: EncoderConfig) -> list[list]:
    """The tensor table: ``[name, rank, dims, offset]`` entries, name-sorted,
    each tensor's float32 data directly after the one before it."""
    table, offset = [], 0
    for name, shape in sorted(tensor_shapes(config).items()):
        table.append([name, len(shape), list(shape), offset])
        offset += 4 * prod(shape)
    return table


def save_bundle(config: EncoderConfig, weights: ModelWeights, vocab: Vocabulary,
                path: str | Path) -> None:
    """Write a HAP1 bundle; saving the same model twice is byte-identical.
    A model that fails validation leaves ``path`` untouched."""
    _check_vocab_size(vocab, config)
    for token in vocab.tokens:
        if "\n" in token:
            raise BundleError(f"vocab token {token!r} contains LF, the vocab block separator")
    if len(weights.layers) != config.num_layers:
        raise ShapeMismatchError(f"weights hold {len(weights.layers)} layers, "
                                 f"config declares {config.num_layers}")
    table = _layout(config)
    tensors = named_tensors(weights, config)
    for name, _, dims, _ in table:
        arr = np.asarray(tensors[name])
        if arr.shape != tuple(dims):
            raise ShapeMismatchError(
                f"tensor {name} has shape {arr.shape}, expected {tuple(dims)}")
        # Checked as stored: a finite value beyond float32's range casts to inf.
        with np.errstate(over="ignore"):
            _check_values(name, arr.astype("<f4", copy=False))

    sections = [text.encode("utf-8") for text in (  # encoding may fail, so before open
        json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":")),
        "\n".join(vocab.tokens), json.dumps(table, separators=(",", ":")))]
    with open(path, "wb") as dst:
        dst.write(MAGIC + b"".join(struct.pack("<I", len(s)) + s for s in sections))
        for name, _, _, _ in table:  # one row-major float32 copy alive at a time
            dst.write(np.ascontiguousarray(tensors[name], dtype="<f4"))


def load_bundle(path: str | Path) -> LoadedModel:
    """Read and fully validate a HAP1 bundle from a regular file."""
    # Opened without blocking, so a FIFO with no writer is refused, not waited on.
    flags = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags), "rb") as src:
        status = os.fstat(src.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise BundleError(f"{path} is not a regular file")

        def read(count: int, what: str) -> bytes:
            if src.tell() + count > status.st_size:
                raise TruncatedBundleError(f"bundle truncated while reading {what}")
            return src.read(count)

        magic = read(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        parsers = {"config": lambda text: EncoderConfig(**json.loads(text)),
                   "vocab": lambda text: Vocabulary(tuple(text.split("\n")) if text else ()),
                   "table": json.loads}
        parsed = []
        for section, parse in parsers.items():
            (length,) = struct.unpack("<I", read(4, f"{section} length"))
            raw = read(length, section)
            try:  # RecursionError: JSON nested too deep
                parsed.append(parse(raw.decode("utf-8")))
            except (ValueError, TypeError, RecursionError) as exc:
                raise BundleError(f"invalid {section}: {exc}") from exc
        config, vocab, table = parsed
        _check_vocab_size(vocab, config)

        # Checked before the table is built, which takes time in the layer count.
        end = src.tell() + 4 * count_parameters(config)
        if status.st_size != end:
            error = TruncatedBundleError if status.st_size < end else BundleError
            raise error(f"bundle holds {status.st_size} bytes, {config.num_layers} layers "
                        f"of its config need {end}")
        layout = _layout(config)
        if table != layout:
            entries = table if isinstance(table, list) else [table]
            index, got, want = next((i, got, want) for i, (got, want)
                                    in enumerate(zip_longest(entries, layout)) if got != want)
            raise ShapeMismatchError(f"tensor table entry {index} is {got}, expected {want}")

        def read_tensor(name: str, dims: list[int]) -> np.ndarray:
            arr = np.empty(dims, dtype="<f4")
            if src.readinto(arr) != arr.nbytes:
                raise TruncatedBundleError(f"bundle truncated while reading tensor {name}")
            _check_values(name, arr)
            return arr

        weights = weights_from_tensors(((name, read_tensor(name, dims))
                                        for name, _, dims, _ in layout), config)
    return LoadedModel(config=config, weights=weights, vocab=vocab)
