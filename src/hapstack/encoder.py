"""Encoder-only transformer forward pass in float32 numpy.

Post-layernorm residual blocks (multi-head self-attention then a gelu
feed-forward), learned absolute position embeddings, a tanh pooler over
the first position and a linear two-way classification head. The gelu
is the exact-erf form, with erf computed in this module by a float32
rational approximation, so the package needs numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from .wordpiece import TokenizedSequence

INIT_SCALE = 0.02
# Values per float64 draw in ``init_random``: bounds its transient memory
# to 8 MiB beside the float32 model.
INIT_DRAW_VALUES = 1 << 20
# Additive bias on pad columns; large enough that float32 softmax assigns
# them exactly zero mass.
ATTENTION_MASK_BIAS = -1.0e9

# The projection weights of every block but the last, held in F order
# (transposed in memory) by ``weights_from_tensors``; see ``_project``.
INNER_PROJECTIONS = ("q_weight", "k_weight", "v_weight", "out_weight",
                     "ffn_up_weight", "ffn_down_weight")
# Rows below which ``_project`` runs an F-ordered weight as (wᵀ·xᵀ)ᵀ. From
# a sweep of cold piccolo weights (576×576, 576×768, 768×576) at 1 and 2
# OpenBLAS threads: that form took 0.53-0.65x the time of x·w on the same
# weight at 4 rows and 0.64-0.70x at 17, broke even at 96-144 rows and
# was 1.3-1.7x slower at 512.
TRANSPOSED_ROWS = 128

ACTIVATIONS = ("gelu",)
# Rows per gelu tile: a [64, intermediate] float32 block and the erf's
# temporaries stay in cache across its ~20 elementwise passes.
GELU_ROWS = 64

# erf(x) ~= x * P(x^2) / Q(x^2) on x clipped to [-4, 4], where float32 erf
# is already +-1: the minimax rational used for float32 erf by Eigen and
# XLA, max abs error about 4.2e-7. Coefficients run from the highest power.
ERF_CLIP = np.float32(4.0)
ERF_NUMERATOR = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
ERF_DENOMINATOR = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02))


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int
    num_heads: int
    hidden_size: int
    intermediate_size: int
    vocab_size: int
    max_positions: int = 512
    activation: str = "gelu"
    layernorm_epsilon: float = 1e-12
    num_labels: int = 2

    def __post_init__(self) -> None:
        for name in ("num_layers", "num_heads", "hidden_size", "intermediate_size",
                     "vocab_size", "max_positions", "num_labels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_positions < 2:
            raise ValueError("max_positions must be >= 2")
        if self.num_labels != 2:
            raise ValueError(f"num_labels must be 2 (HAP scores are a two-way softmax), "
                             f"got {self.num_labels}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(f"hidden_size {self.hidden_size} not divisible by "
                             f"num_heads {self.num_heads}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")
        eps = self.layernorm_epsilon  # the forward adds it in float32
        if (isinstance(eps, bool) or not 0 < eps <= float(np.finfo(np.float32).max)
                or np.float32(eps) == 0):
            raise ValueError("layernorm_epsilon must be positive and finite in float32")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def architecture(self) -> tuple[int, int, int, int]:
        """(layers, heads, hidden, intermediate) summary tuple."""
        return (self.num_layers, self.num_heads, self.hidden_size, self.intermediate_size)


def piccolo_config(vocab_size: int, max_positions: int = 512) -> EncoderConfig:
    """The small 4-layer production configuration."""
    return EncoderConfig(num_layers=4, num_heads=12, hidden_size=576,
                         intermediate_size=768, vocab_size=vocab_size,
                         max_positions=max_positions)


def bert_base_config(vocab_size: int, max_positions: int = 512) -> EncoderConfig:
    """The 12-layer base-size reference configuration."""
    return EncoderConfig(num_layers=12, num_heads=12, hidden_size=768,
                         intermediate_size=3072, vocab_size=vocab_size,
                         max_positions=max_positions)


@dataclass
class LayerWeights:
    """One transformer block. Projection weights are logically [in, out]
    and applied as ``x @ w + b`` (``_project``), whatever their memory
    order."""

    q_weight: np.ndarray
    q_bias: np.ndarray
    k_weight: np.ndarray
    k_bias: np.ndarray
    v_weight: np.ndarray
    v_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray
    attn_ln_gamma: np.ndarray
    attn_ln_beta: np.ndarray
    ffn_up_weight: np.ndarray
    ffn_up_bias: np.ndarray
    ffn_down_weight: np.ndarray
    ffn_down_bias: np.ndarray
    ffn_ln_gamma: np.ndarray
    ffn_ln_beta: np.ndarray


@dataclass
class ModelWeights:
    token_embedding: np.ndarray
    position_embedding: np.ndarray
    embedding_ln_gamma: np.ndarray
    embedding_ln_beta: np.ndarray
    layers: list[LayerWeights]
    pooler_weight: np.ndarray
    pooler_bias: np.ndarray
    classifier_weight: np.ndarray
    classifier_bias: np.ndarray


# The packed layout, one (rows, cls_rows, t, bias) per run of sequences of
# length t: their token rows and their classification rows, as slices of
# the [N, hidden] and [B, hidden] arrays, and None or an additive
# [b, 1, 1, t] mask bias. Only _forward builds it.
Runs = list[tuple[slice, slice, int, np.ndarray | None]]


@dataclass
class ForwardOutput:
    """Per-sequence classifier logits and per-layer/head attention
    probabilities ([heads, T, T], rows sum to 1)."""

    logits: np.ndarray
    attentions: list[np.ndarray]


def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every bundle tensor name and its shape, in ``init_random`` draw
    order: each layer's block, then the embeddings, pooler and classifier.
    Layer tensors are named ``layer.{index}.{LayerWeights field}``."""
    h, i, labels = config.hidden_size, config.intermediate_size, config.num_labels
    layer = {
        "q_weight": (h, h), "q_bias": (h,),
        "k_weight": (h, h), "k_bias": (h,),
        "v_weight": (h, h), "v_bias": (h,),
        "out_weight": (h, h), "out_bias": (h,),
        "attn_ln_gamma": (h,), "attn_ln_beta": (h,),
        "ffn_up_weight": (h, i), "ffn_up_bias": (i,),
        "ffn_down_weight": (i, h), "ffn_down_bias": (h,),
        "ffn_ln_gamma": (h,), "ffn_ln_beta": (h,),
    }
    shapes = {f"layer.{index}.{field}": shape
              for index in range(config.num_layers) for field, shape in layer.items()}
    shapes.update({
        "token_embedding": (config.vocab_size, h),
        "position_embedding": (config.max_positions, h),
        "embedding_ln_gamma": (h,),
        "embedding_ln_beta": (h,),
        "pooler_weight": (h, h),
        "pooler_bias": (h,),
        "classifier_weight": (h, labels),
        "classifier_bias": (labels,),
    })
    return shapes


def _locate(name: str) -> tuple[int | None, str]:
    """(layer index, or None outside the layers; attribute) of tensor ``name``."""
    if name.startswith("layer."):
        _, index, field = name.split(".")
        return int(index), field
    return None, name


def named_tensors(weights: ModelWeights, config: EncoderConfig) -> dict[str, np.ndarray]:
    """``tensor_shapes`` names mapped to the tensors of ``weights``."""
    tensors = {}
    for name in tensor_shapes(config):
        index, field = _locate(name)
        tensors[name] = getattr(weights if index is None else weights.layers[index], field)
    return tensors


def weights_from_tensors(tensors: Iterable[tuple[str, np.ndarray]],
                         config: EncoderConfig) -> ModelWeights:
    """Inverse of ``named_tensors(...).items()``: ``tensors`` must yield
    every name once, in any order. The ``INNER_PROJECTIONS`` of every block
    but the last are held in F order, with the same logical [in, out]
    shape, so ``_project`` streams them in contiguous runs; every other
    tensor is kept as given. Each tensor is converted as it arrives, so a
    caller that yields its tensors one at a time holds one unconverted
    copy at a time."""
    top: dict[str, np.ndarray] = {}
    layers: list[dict[str, np.ndarray]] = [{} for _ in range(config.num_layers)]
    for name, tensor in tensors:
        index, field = _locate(name)
        if index is not None and index < config.num_layers - 1 and field in INNER_PROJECTIONS:
            tensor = np.asfortranarray(tensor)  # the original is freed here
        (top if index is None else layers[index])[field] = tensor
    return ModelWeights(layers=[LayerWeights(**layer) for layer in layers], **top)


def init_random(config: EncoderConfig, seed: int) -> ModelWeights:
    """Deterministic random weights: N(0, 0.02) everywhere, layernorm
    gamma=1 / beta=0. Same (config, seed) always yields identical tensors:
    each is ``rng.normal(0.0, INIT_SCALE, size=shape).astype(np.float32)``,
    drawn into its float32 array in chunks of the same stream, and passed
    to ``weights_from_tensors`` as soon as it is drawn."""
    rng = np.random.default_rng(seed)

    def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith("ln_gamma"):
            return np.ones(shape, dtype=np.float32)
        if name.endswith("ln_beta"):
            return np.zeros(shape, dtype=np.float32)
        drawn = np.empty(shape, dtype=np.float32)
        flat = drawn.reshape(-1)
        for start in range(0, flat.size, INIT_DRAW_VALUES):
            part = flat[start:start + INIT_DRAW_VALUES]
            part[...] = rng.normal(0.0, INIT_SCALE, size=part.size)
        return drawn

    return weights_from_tensors(((name, tensor(name, shape))
                                 for name, shape in tensor_shapes(config).items()), config)


def _layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Layernorm over the last axis into one new array: ``x`` is centred
    once, and that array is scaled and shifted in place."""
    out = x - x.mean(axis=-1, keepdims=True)
    var = np.square(out).mean(axis=-1, keepdims=True)
    var += np.float32(eps)
    out /= np.sqrt(var)
    out *= gamma
    out += beta
    return out


def _horner(x2: np.ndarray, coefficients: tuple[np.float32, ...]) -> np.ndarray:
    """The polynomial in ``x2``, evaluated in place in one new array."""
    acc = x2 * coefficients[0]
    acc += coefficients[1]
    for c in coefficients[2:]:
        acc *= x2
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """float32 erf of ``x`` (see ``ERF_NUMERATOR``); in-place updates keep
    the temporaries to four arrays of ``x``'s size."""
    x = np.clip(x, -ERF_CLIP, ERF_CLIP)
    x2 = x * x
    p = _horner(x2, ERF_NUMERATOR)
    p *= x
    p /= _horner(x2, ERF_DENOMINATOR)
    return p


def _gelu(x: np.ndarray) -> np.ndarray:
    # Exact erf form, not the tanh approximation: 0.5 * x * (1 + erf(x / sqrt 2)).
    out = _erf(x / np.float32(math.sqrt(2.0)))
    out += np.float32(1.0)
    out *= x
    out *= np.float32(0.5)
    return out


def _gelu_in_tiles(x: np.ndarray) -> np.ndarray:
    """``_gelu`` of ``x`` written back into ``x``, ``GELU_ROWS`` rows at a
    time; returns ``x``."""
    for start in range(0, len(x), GELU_ROWS):
        tile = x[start:start + GELU_ROWS]
        tile[...] = _gelu(tile)
    return x


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` as a new C-ordered array. An F-ordered ``w`` (see
    ``weights_from_tensors``) on 4 to ``TRANSPOSED_ROWS`` - 1 rows runs as
    (wᵀ·xᵀ)ᵀ, copied back to C order: then ``w`` is the operand OpenBLAS
    packs, and it streams in contiguous runs when it is not in cache. A
    C-ordered ``w`` always runs as ``x @ w``."""
    if not w.flags.c_contiguous and 4 <= len(x) < TRANSPOSED_ROWS:
        return np.ascontiguousarray((w.T @ x.T).T)
    return x @ w


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x``'s own buffer (the max
    is subtracted, then exp and divide in place); returns ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _probabilities(q: np.ndarray, k: np.ndarray, runs: Runs,
                   config: EncoderConfig) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield each run's rows and its attention probabilities [b, heads, t, t],
    from the queries ``q`` and keys ``k`` [N, hidden] of every row: each
    run's scores are scaled, biased and softmaxed in place."""
    heads, head_dim = config.num_heads, config.head_dim
    scale = np.float32(1.0 / math.sqrt(head_dim))
    for rows, _, t, bias in runs:
        scores = (q[rows].reshape(-1, t, heads, head_dim).transpose(0, 2, 1, 3)
                  @ k[rows].reshape(-1, t, heads, head_dim).transpose(0, 2, 3, 1))
        scores *= scale
        if bias is not None:
            scores += bias
        yield rows, _softmax(scores)
        del scores  # freed before the next run allocates its scores


def _attention(x: np.ndarray, runs: Runs, layer: LayerWeights, config: EncoderConfig,
               attentions: list[np.ndarray] | None) -> np.ndarray:
    """The attention context [N, hidden] of every row of ``x``. Q, K and V
    are one GEMM each over all rows, and each run's ``_probabilities``
    weight V. K carries no ``k_bias``: q·k_bias is the same for every key
    of a query row, so it cancels in the softmax. When ``attentions`` is a
    list, each run's probabilities are appended to it.
    """
    heads, head_dim = config.num_heads, config.head_dim
    q = _project(x, layer.q_weight)
    q += layer.q_bias
    k = _project(x, layer.k_weight)
    v = _project(x, layer.v_weight)
    v += layer.v_bias
    context = np.empty_like(v)
    for rows, probs in _probabilities(q, k, runs, config):
        if attentions is not None:
            attentions.append(probs)
        b, t = len(probs), probs.shape[-1]
        context[rows].reshape(b, t, heads, head_dim).transpose(0, 2, 1, 3)[...] = (
            probs @ v[rows].reshape(b, t, heads, head_dim).transpose(0, 2, 1, 3))
        del probs  # freed before the next run or block allocates its scores
    return context


def _cls_attention(x: np.ndarray, cls: np.ndarray, runs: Runs, layer: LayerWeights,
                   config: EncoderConfig) -> np.ndarray:
    """The attention context [B, hidden] of the classification rows ``cls``
    of ``x``, with no K or V projection of any row.

    Per head h, with q_h = (x_cls·W_q + b_q)_h/√d, the score of key row x_j
    is q_h·(x_j·W_k,h + b_k,h) = r_h·x_j + q_h·b_k,h, where r_h = q_h·W_k,hᵀ;
    the second term is the same for every key, so it cancels in the
    softmax. Each row of the probabilities p_h sums to 1, so the context
    p_h·(X·W_v,h + b_v,h) is (p_h·X)·W_v,h + b_v,h. A run's mask bias is
    added to its scores, as in ``_probabilities``.
    """
    heads, head_dim, hidden = config.num_heads, config.head_dim, config.hidden_size
    q = x[cls] @ layer.q_weight
    q += layer.q_bias
    q *= np.float32(1.0 / math.sqrt(head_dim))
    # [heads, B, d] @ [heads, d, hidden], viewed as [B, heads, hidden].
    r = (q.reshape(-1, heads, head_dim).transpose(1, 0, 2)
         @ layer.k_weight.reshape(hidden, heads, head_dim).transpose(1, 2, 0)).transpose(1, 0, 2)
    mixed = np.empty((len(cls), heads, hidden), dtype=np.float32)  # p_h·X, per head
    for rows, cls_rows, t, bias in runs:
        x_run = x[rows].reshape(-1, t, hidden)
        scores = r[cls_rows] @ x_run.transpose(0, 2, 1)
        if bias is not None:
            scores += bias.reshape(-1, 1, t)
        mixed[cls_rows] = _softmax(scores) @ x_run
    # [heads, B, hidden] @ [heads, hidden, d], back to [B, hidden].
    context = (mixed.transpose(1, 0, 2)
               @ layer.v_weight.reshape(hidden, heads, head_dim).transpose(1, 0, 2))
    context = context.transpose(1, 0, 2).reshape(len(cls), hidden)
    context += layer.v_bias
    return context


def _block(x: np.ndarray, context: np.ndarray, layer: LayerWeights, eps: float) -> np.ndarray:
    """The rest of a block, given its attention ``context``: the output
    projection, the FFN and both post-layernorms. Biases and residuals are
    added in place on the temporaries this function owns."""
    y = _project(context, layer.out_weight)
    y += layer.out_bias
    y += x
    x = _layernorm(y, layer.attn_ln_gamma, layer.attn_ln_beta, eps)
    y = _project(x, layer.ffn_up_weight)
    y += layer.ffn_up_bias
    y = _project(_gelu_in_tiles(y), layer.ffn_down_weight)
    y += layer.ffn_down_bias
    y += x
    return _layernorm(y, layer.ffn_ln_gamma, layer.ffn_ln_beta, eps)


def _blocks(x: np.ndarray, runs: Runs, weights: ModelWeights, config: EncoderConfig,
            attentions: list[np.ndarray] | None = None) -> np.ndarray:
    """Run every block over ``x``, the embedded rows [N, hidden] of
    sequences laid end to end as ``runs`` cuts them, and return the final
    block's output on each sequence's classification row (its first),
    [B, hidden].

    Projections, the FFN, gelu and layernorms run once per block over all
    rows (``_attention``, then ``_block``). Only the pooler reads
    the final block's output, so that block runs on the classification
    rows alone, from the context of ``_cls_attention``. When
    ``attentions`` is a list, every block's probabilities of every run are
    appended to it; the final block's come from ``_probabilities``.
    """
    eps = config.layernorm_epsilon
    cls = np.concatenate([np.arange(rows.start, rows.stop, t) for rows, _, t, _ in runs])
    *inner, final = weights.layers
    for layer in inner:
        x = _block(x, _attention(x, runs, layer, config, attentions), layer, eps)
    if attentions is not None:
        attentions.extend(probs for _, probs in _probabilities(
            x @ final.q_weight + final.q_bias, x @ final.k_weight, runs, config))
    return _block(x[cls], _cls_attention(x, cls, runs, final, config), final, eps)


def _head(x: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Logits [B, 2] of the final block's classification rows."""
    pooled = np.tanh(x @ weights.pooler_weight + weights.pooler_bias)
    return pooled @ weights.classifier_weight + weights.classifier_bias


def _forward(seqs: list[TokenizedSequence], weights: ModelWeights, config: EncoderConfig,
             attentions: list[np.ndarray] | None = None) -> np.ndarray:
    """Classifier logits [B, 2] of ``seqs`` in input order, the prologue of
    both entries: tokens laid end to end in order of length (stable), cut
    into the ``Runs`` of equal length that ``_blocks`` takes (with
    ``attentions``), with a pad-column mask bias only on a run that holds
    padding."""
    if not seqs:
        return np.empty((0, config.num_labels), dtype=np.float32)
    if any(len(seq.attention_mask) != len(seq.ids) for seq in seqs):
        raise ValueError("every attention_mask must match its ids in length")
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i].ids))
    lengths = [len(seqs[i].ids) for i in order]
    ids = np.fromiter(chain.from_iterable(seqs[i].ids for i in order), dtype=np.int64,
                      count=sum(lengths))
    if lengths[0] == 0:
        raise ValueError("cannot run the encoder on an empty sequence")
    if lengths[-1] > config.max_positions:
        raise ValueError(f"sequence length {lengths[-1]} exceeds max_positions "
                         f"{config.max_positions}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range for vocab_size "
                         f"{config.vocab_size}: [{ids.min()}, {ids.max()}]")
    runs: Runs = []
    begin = row = 0
    for t, group in groupby(order, key=lambda i: len(seqs[i].ids)):
        run = [seqs[i] for i in group]
        b = len(run)
        bias = None
        if any(0 in seq.attention_mask for seq in run):
            mask = np.asarray([seq.attention_mask for seq in run], dtype=np.float32)
            bias = (np.float32(1.0) - mask)[:, None, None, :] * np.float32(ATTENTION_MASK_BIAS)
        runs.append((slice(begin, begin + b * t), slice(row, row + b), t, bias))
        begin, row = begin + b * t, row + b
    positions = np.concatenate([np.tile(np.arange(t), cls_rows.stop - cls_rows.start)
                                for _, cls_rows, t, _ in runs])
    logits = np.empty((len(seqs), config.num_labels), dtype=np.float32)
    # The embedded rows go to _blocks unnamed, so they are freed after its
    # first block: the forward's speed depends on its allocation order.
    logits[order] = _head(_blocks(_layernorm(
        weights.token_embedding[ids] + weights.position_embedding[positions],
        weights.embedding_ln_gamma, weights.embedding_ln_beta, config.layernorm_epsilon),
        runs, weights, config, attentions), weights)
    return logits


def forward_batch(seqs: list[TokenizedSequence], weights: ModelWeights,
                  config: EncoderConfig) -> list[ForwardOutput]:
    """Run the encoder over a batch of equally padded sequences, keeping
    every layer's attention.

    A sequence's results do not depend on the rest of the batch or on its
    padding beyond float32 matmul noise (<< 1e-5 per logit); pad columns
    receive zero attention. Call it with ``[seq]`` to run one sequence.
    Each output's arrays are views into the shared batch arrays. To score
    without attention, use ``packed_logits``.
    """
    if any(len(seq.ids) != len(seqs[0].ids) for seq in seqs):
        raise ValueError("all sequences in a batch must share one padded length")
    attentions: list[np.ndarray] = []
    logits = _forward(seqs, weights, config, attentions)
    return [ForwardOutput(row, [layer_probs[b] for layer_probs in attentions])
            for b, row in enumerate(logits)]


def packed_logits(seqs: list[TokenizedSequence], weights: ModelWeights,
                  config: EncoderConfig) -> np.ndarray:
    """Classifier logits [B, 2] of unpadded sequences of any lengths, in
    input order, with no attention kept: each block's projections and FFN
    run as one GEMM over every real token, attention per run of
    equal-length sequences with no mask (``_forward``). A row agrees with
    ``forward_batch([seq])`` within float32 matmul noise whatever its
    batch-mates, and equals it alone."""
    if any(0 in seq.attention_mask for seq in seqs):
        raise ValueError("packed_logits takes unpadded sequences")
    return _forward(seqs, weights, config)


def count_parameters(config: EncoderConfig) -> int:
    """Exact learned-scalar count of the ``tensor_shapes`` tensors."""
    return sum(math.prod(shape) for shape in tensor_shapes(config).values())
