"""Bundle serialization: round-trips, canonical bytes, corruption handling."""

import dataclasses
import hashlib
import json
import struct
import tracemalloc
import warnings
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapstack.encoder import (
    INNER_PROJECTIONS,
    EncoderConfig,
    init_random,
    named_tensors,
    tensor_shapes,
    weights_from_tensors,
)
from hapstack.model_io import (
    MAGIC,
    BadMagicError,
    BundleError,
    NonFiniteTensorError,
    ShapeMismatchError,
    TruncatedBundleError,
    load_bundle,
    save_bundle,
)
from hapstack.wordpiece import Vocabulary, build_ascii_vocab

from conftest import TINY_TOKENS, read_raw_bundle, write_raw_bundle


def small_config(vocab_size):
    return EncoderConfig(num_layers=2, num_heads=2, hidden_size=8,
                         intermediate_size=16, vocab_size=vocab_size,
                         max_positions=16)


def assert_weights_equal(a, b):
    np.testing.assert_array_equal(a.token_embedding, b.token_embedding)
    np.testing.assert_array_equal(a.position_embedding, b.position_embedding)
    np.testing.assert_array_equal(a.embedding_ln_gamma, b.embedding_ln_gamma)
    np.testing.assert_array_equal(a.embedding_ln_beta, b.embedding_ln_beta)
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        for field in ("q_weight", "q_bias", "k_weight", "k_bias", "v_weight", "v_bias",
                      "out_weight", "out_bias", "attn_ln_gamma", "attn_ln_beta",
                      "ffn_up_weight", "ffn_up_bias", "ffn_down_weight", "ffn_down_bias",
                      "ffn_ln_gamma", "ffn_ln_beta"):
            np.testing.assert_array_equal(getattr(la, field), getattr(lb, field))
    np.testing.assert_array_equal(a.pooler_weight, b.pooler_weight)
    np.testing.assert_array_equal(a.pooler_bias, b.pooler_bias)
    np.testing.assert_array_equal(a.classifier_weight, b.classifier_weight)
    np.testing.assert_array_equal(a.classifier_bias, b.classifier_bias)


def test_round_trip_bitwise(tmp_path):
    vocab = Vocabulary(TINY_TOKENS)
    config = small_config(len(vocab))
    weights = init_random(config, 7)
    path = tmp_path / "model.hap"
    save_bundle(config, weights, vocab, path)
    loaded = load_bundle(path)
    assert loaded.config == config
    assert loaded.vocab.tokens == vocab.tokens
    assert_weights_equal(weights, loaded.weights)


def test_loaded_tensors_are_aligned_writable_float32(tmp_path):
    # The payload starts at an arbitrary byte offset; tensors must not be
    # unaligned views of it (numpy's matmul is many times slower on those).
    # The projection weights of every block but the last are held in F
    # order, every other tensor in C order, from a load and from init_random.
    vocab = Vocabulary(TINY_TOKENS)
    config = dataclasses.replace(small_config(len(vocab)), num_layers=3)
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 7), vocab, path)
    for weights in (load_bundle(path).weights, init_random(config, 7)):
        for name, arr in named_tensors(weights, config).items():
            index, field = name.split(".")[1:] if name.startswith("layer.") else (None, name)
            inner = index is not None and int(index) < 2 and field in INNER_PROJECTIONS
            assert arr.dtype == np.float32, name
            assert arr.flags.aligned and arr.flags.owndata and arr.flags.writeable, name
            assert arr.ndim == 1 or (arr.flags.f_contiguous, arr.flags.c_contiguous) == (
                inner, not inner), name


def test_saves_are_byte_identical(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    weights = init_random(config, 3)
    p1, p2, p3 = tmp_path / "a.hap", tmp_path / "b.hap", tmp_path / "float64.hap"
    save_bundle(config, weights, vocab, p1)
    save_bundle(config, weights, vocab, p2)
    wide = weights_from_tensors(((name, arr.astype(np.float64)) for name, arr
                                 in named_tensors(weights, config).items()), config)
    save_bundle(config, wide, vocab, p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_shape_mismatch_on_save(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    weights = init_random(config, 0)
    weights.pooler_weight = np.zeros((4, 4), dtype=np.float32)
    with pytest.raises(ShapeMismatchError):
        save_bundle(config, weights, vocab, tmp_path / "bad.hap")


def test_nan_rejected_on_save(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    weights = init_random(config, 0)
    weights.classifier_bias[0] = np.nan
    with pytest.raises(NonFiniteTensorError):
        save_bundle(config, weights, vocab, tmp_path / "bad.hap")


def test_bad_magic(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), vocab, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        load_bundle(path)


def test_truncated_payload(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), vocab, path)
    data = path.read_bytes()
    path.write_bytes(data[:-100])
    with pytest.raises(TruncatedBundleError):
        load_bundle(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "model.hap"
    path.write_bytes(MAGIC + struct.pack("<I", 1000))
    with pytest.raises(TruncatedBundleError):
        load_bundle(path)


def test_trailing_garbage_rejected(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), vocab, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(BundleError):
        load_bundle(path)


def test_nan_payload_rejected_on_load(tmp_path):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), vocab, path)
    data = bytearray(path.read_bytes())
    # Overwrite the last four payload bytes with a NaN pattern.
    data[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(data))
    with pytest.raises(NonFiniteTensorError):
        load_bundle(path)


@pytest.mark.parametrize("damage", ["top exponent bit flipped", "3e38"])
def test_out_of_range_weight_rejected_on_load(tmp_path, damage):
    # Pins: a loader that checks finiteness alone accepts both, and then the
    # flip (the weight times 2**128) scores every sentence alike and 3e38
    # scores every sentence NaN, so a filter keeps every document.
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), vocab, path)
    config_record, tokens, tensors = read_raw_bundle(path)
    q = tensors["layer.0.q_weight"].copy()
    if damage == "3e38":
        q[2, 5] = 3e38
    else:
        q.view(np.uint32)[2, 5] ^= 1 << 30
    write_raw_bundle(path, config_record, tokens, {**tensors, "layer.0.q_weight": q})
    with pytest.raises(BundleError, match=r"layer\.0\.q_weight"):
        load_bundle(path)


def test_config_survives_field_for_field(tmp_path):
    vocab = build_ascii_vocab(64)
    config = EncoderConfig(num_layers=3, num_heads=4, hidden_size=16,
                           intermediate_size=24, vocab_size=len(vocab),
                           max_positions=32, layernorm_epsilon=1e-10, num_labels=2)
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 1), vocab, path)
    assert load_bundle(path).config == config


def test_vocab_block_preserves_exotic_tokens(tmp_path):
    tokens = TINY_TOKENS + ("token with space", "émoji✓", "##ü")
    vocab = Vocabulary(tokens)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 2), vocab, path)
    assert load_bundle(path).vocab.tokens == tokens


def test_golden_bytes(tmp_path):
    # Pins the init_random draw order and the HAP1 layout byte for byte.
    path = tmp_path / "model.hap"
    config = EncoderConfig(2, 2, 8, 16, 64, 32)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "85df07a45c8dfc86c8767f1b014d020ed173cdf3f63365bb615904077e577425")


def test_vocab_size_mismatch_rejected_on_save(tmp_path):
    config = small_config(64)
    with pytest.raises(ShapeMismatchError):
        save_bundle(config, init_random(config, 0), build_ascii_vocab(256),
                    tmp_path / "bad.hap")


def test_vocab_size_mismatch_rejected_on_load(tmp_path):
    path = tmp_path / "model.hap"
    config = small_config(64)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    config_record, _, tensors = read_raw_bundle(path)
    write_raw_bundle(path, config_record, build_ascii_vocab(256).tokens, tensors)
    with pytest.raises(ShapeMismatchError):
        load_bundle(path)


def test_lf_in_token_rejected_on_save(tmp_path):
    tokens = build_ascii_vocab(16).tokens[:-1] + ("a\nb",)
    config = small_config(len(tokens))
    with pytest.raises(BundleError):
        save_bundle(config, init_random(config, 0), Vocabulary(tokens), tmp_path / "bad.hap")


@pytest.mark.parametrize("bad_token", ["[CLS]", "\udcff"], ids=["duplicate", "invalid_utf8"])
def test_bad_vocab_block_rejected_on_load(tmp_path, bad_token):
    path = tmp_path / "model.hap"
    config = small_config(64)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    config_record, tokens, tensors = read_raw_bundle(path)
    write_raw_bundle(path, config_record, tokens[:-1] + [bad_token], tensors)
    with pytest.raises(BundleError):
        load_bundle(path)


@pytest.mark.parametrize("field, value", [("num_layers", 2.0), ("num_heads", True),
                                          ("num_labels", 3)])
def test_bad_config_record_rejected_on_load(tmp_path, field, value):
    path = tmp_path / "model.hap"
    config = small_config(64)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    config_record, tokens, tensors = read_raw_bundle(path)
    config_record[field] = value
    if field == "num_labels":
        # A self-consistent three-label bundle: only the config rule rejects it.
        tensors["classifier_weight"] = np.zeros((config.hidden_size, value), np.float32)
        tensors["classifier_bias"] = np.zeros(value, np.float32)
    write_raw_bundle(path, config_record, tokens, tensors)
    with pytest.raises(BundleError):
        load_bundle(path)


@pytest.mark.parametrize("epsilon", ["Infinity", "1e400", "1e39", "1e-50"])
def test_epsilon_outside_float32_rejected_on_load(tmp_path, epsilon):
    # Each is inf or 0 once the forward casts it to float32: every layernorm
    # would divide by it, or a constant row would score NaN.
    path = tmp_path / "model.hap"
    config = small_config(64)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    config_record, tokens, tensors = read_raw_bundle(path)
    text = json.dumps(config_record, sort_keys=True)
    assert '"layernorm_epsilon": 1e-12' in text
    write_raw_bundle(path, text.replace("1e-12", epsilon), tokens, tensors)
    with pytest.raises(BundleError, match="layernorm_epsilon"):
        load_bundle(path)


@pytest.mark.parametrize("section", ["config", "table"])
def test_deeply_nested_json_rejected_on_load(tmp_path, section):
    # json raises RecursionError, not ValueError, past its nesting limit.
    path = tmp_path / "model.hap"
    config = small_config(64)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    blob = path.read_bytes()
    spans, pos = {}, 4
    for name in ("config", "vocab", "table"):
        (length,) = struct.unpack("<I", blob[pos:pos + 4])
        spans[name] = (pos, pos + 4 + length)
        pos += 4 + length
    start, end = spans[section]
    deep = b"[" * 100_000
    path.write_bytes(blob[:start] + struct.pack("<I", len(deep)) + deep + blob[end:])
    with pytest.raises(BundleError, match=f"invalid .*{section}"):
        load_bundle(path)


# --- Properties over random tiny models -------------------------------------

@st.composite
def tiny_bundles(draw):
    """(config, weights, vocab) of a random model small enough to sweep."""
    heads = draw(st.integers(1, 2))
    config = EncoderConfig(num_layers=draw(st.integers(1, 2)), num_heads=heads,
                           hidden_size=heads * draw(st.integers(1, 3)),
                           intermediate_size=draw(st.integers(1, 6)),
                           vocab_size=draw(st.integers(4, 12)),
                           max_positions=draw(st.integers(2, 6)))
    seed = draw(st.integers(0, 2**32 - 1))
    return config, init_random(config, seed), build_ascii_vocab(config.vocab_size)


def saved_bundle(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("bundle") / "model.hap"
    save_bundle(*model, path)
    return path


def tensor_owners(config):
    """Name of the tensor that holds each payload byte, in payload order."""
    return [name for name, shape in sorted(tensor_shapes(config).items())
            for _ in range(4 * prod(shape))]


@settings(max_examples=30, deadline=None)
@given(tiny_bundles())
def test_property_save_load_save_is_byte_identical(tmp_path_factory, model):
    path = saved_bundle(tmp_path_factory, model)
    loaded = load_bundle(path)
    again = path.with_name("again.hap")
    save_bundle(*loaded, again)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=30, deadline=None)
@given(tiny_bundles(), st.data())
def test_property_any_truncation_is_typed(tmp_path_factory, model, data):
    path = saved_bundle(tmp_path_factory, model)
    blob = path.read_bytes()
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="length")])
    with pytest.raises(TruncatedBundleError):
        load_bundle(path)


@settings(max_examples=200, deadline=None)
@given(tiny_bundles(), st.data())
def test_property_a_changed_byte_fails_typed_or_touches_only_its_tensor(
        tmp_path_factory, model, data):
    config = model[0]
    path = saved_bundle(tmp_path_factory, model)
    blob = bytearray(path.read_bytes())
    owners = tensor_owners(config)
    payload_start = len(blob) - len(owners)
    at = data.draw(st.integers(0, len(blob) - 1) | st.integers(payload_start, len(blob) - 1),
                   label="at")
    blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
    path.write_bytes(bytes(blob))
    try:
        loaded = load_bundle(path)
    except BundleError:
        return
    if at >= payload_start:
        before = named_tensors(model[1], config)
        after = named_tensors(loaded.weights, config)
        changed = {name for name in before if before[name].tobytes() != after[name].tobytes()}
        assert changed == {owners[at - payload_start]}


@settings(max_examples=30, deadline=None)
@given(tiny_bundles(), st.data())
def test_property_permuted_payload_order_rejected(tmp_path_factory, model, data):
    # Offsets that still tile the payload exactly, in another order than the
    # table's: the loader accepts only the layout save_bundle writes.
    path = saved_bundle(tmp_path_factory, model)
    config_record, tokens, tensors = read_raw_bundle(path)
    order = data.draw(st.permutations(sorted(tensors)).filter(lambda o: o != sorted(o)),
                      label="order")
    write_raw_bundle(path, config_record, tokens, tensors, order=order)
    with pytest.raises(ShapeMismatchError, match="tensor table entry"):
        load_bundle(path)


# --- Memory and failed saves -------------------------------------------------

def test_load_reads_tensors_in_place(tmp_path):
    # A whole-file read plus a copy of each tensor peaks at about twice the
    # bundle; reading each tensor into its own array leaves only the
    # finiteness check's boolean temporary.
    config = EncoderConfig(num_layers=1, num_heads=2, hidden_size=64, intermediate_size=128,
                           vocab_size=8192, max_positions=64)
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), build_ascii_vocab(8192), path)
    size = path.stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    try:
        loaded = load_bundle(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.config == config
    assert peak - kept < size / 2, f"load peak {peak - kept} B beyond the model, file {size} B"


def test_save_and_load_hold_one_extra_tensor_at_a_time(tmp_path):
    # Two inner blocks hold 4 MiB of F-ordered projections, each written
    # through a row-major copy and read through one, against a largest
    # tensor of 512 KiB: holding every copy at once would show.
    config = EncoderConfig(num_layers=3, num_heads=4, hidden_size=256, intermediate_size=512,
                           vocab_size=64, max_positions=16)
    weights = init_random(config, 0)
    tensors = named_tensors(weights, config).values()
    model = sum(arr.nbytes for arr in tensors)
    largest = max(arr.nbytes for arr in tensors)
    path = tmp_path / "model.hap"
    tracemalloc.start()
    try:
        save_bundle(config, weights, build_ascii_vocab(64), path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept_before = tracemalloc.get_traced_memory()[0]
        loaded = load_bundle(path)
        load_peak = tracemalloc.get_traced_memory()[1] - kept_before
    finally:
        tracemalloc.stop()
    assert_weights_equal(weights, loaded.weights)
    slack = 64 * 1024  # header sections, table and vocab
    assert save_peak <= largest + slack, f"save peak {save_peak} B, largest tensor {largest} B"
    # The finiteness check's temporary is one byte per value.
    bound = model + largest + largest // 4 + slack
    assert load_peak <= bound, f"load peak {load_peak} B, model {model} B, largest {largest} B"


def test_huge_section_length_allocates_nothing(tmp_path):
    path = tmp_path / "model.hap"
    # A 4 GiB config length in a 212-byte file must fail before any read.
    path.write_bytes(MAGIC + struct.pack("<I", 0xFFFFFFFF) + b"{}" * 100)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedBundleError):
            load_bundle(path)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_huge_layer_count_refused_before_the_table(tmp_path):
    # Only num_layers edited: the table of 10**4 layers would be built, at
    # about 51 MiB, before the size check refused it.
    path = tmp_path / "model.hap"
    config = small_config(64)
    save_bundle(config, init_random(config, 0), build_ascii_vocab(64), path)
    config_record, tokens, tensors = read_raw_bundle(path)
    write_raw_bundle(path, {**config_record, "num_layers": 10**4}, tokens, tensors)
    tracemalloc.start()
    try:
        with pytest.raises(BundleError) as refused:
            load_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert "10000 layers" in str(refused.value)


FAILED_SAVE_TENSOR = {"nan": "ffn_up_weight", "shape": "token_embedding",
                      "float32 overflow": "classifier_bias", "magnitude": "q_weight"}


@pytest.mark.parametrize("defect", FAILED_SAVE_TENSOR)
def test_failed_save_leaves_existing_file(tmp_path, defect):
    vocab = build_ascii_vocab(64)
    config = small_config(len(vocab))
    path = tmp_path / "model.hap"
    save_bundle(config, init_random(config, 0), vocab, path)
    before = path.read_bytes()
    weights = init_random(config, 1)
    if defect == "nan":
        weights.layers[0].ffn_up_weight[0, 0] = np.nan
    elif defect == "shape":
        weights.token_embedding = weights.token_embedding[:-1]
    elif defect == "magnitude":
        weights.layers[0].q_weight[2, 5] = 3e38
    else:
        weights.classifier_bias = np.array([0.0, 1e39])  # finite until stored as float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BundleError, match=FAILED_SAVE_TENSOR[defect]):
            save_bundle(config, weights, vocab, path)
    assert path.read_bytes() == before
