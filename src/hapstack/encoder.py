"""Encoder-only transformer forward pass in float32 numpy.

Post-layernorm residual blocks (multi-head self-attention then a gelu
feed-forward), learned absolute position embeddings, a tanh pooler over
the first position and a linear two-way classification head. Attention
probabilities for every layer and head are returned alongside the
logits, and padded positions are masked out of every attention column
before the row softmax. The pooler reads the classification row (position
0) alone, so past its attention probabilities the final block computes
that row only; every layer's full attention is still returned. The gelu
is the exact-erf form, with erf computed in this module by a float32
rational approximation, so the package needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wordpiece import TokenizedSequence

INIT_SCALE = 0.02
# Additive bias on pad columns; large enough that float32 softmax assigns
# them exactly zero mass.
ATTENTION_MASK_BIAS = -1.0e9

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
        if not self.layernorm_epsilon > 0:  # also rejects NaN
            raise ValueError("layernorm_epsilon must be positive")

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
    """One transformer block. Projection weights are laid out [in, out]
    and applied as ``x @ w + b``."""

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


def weights_from_tensors(tensors: dict[str, np.ndarray], config: EncoderConfig) -> ModelWeights:
    """Inverse of ``named_tensors``; ``tensors`` must hold every name."""
    top: dict[str, np.ndarray] = {}
    layers: list[dict[str, np.ndarray]] = [{} for _ in range(config.num_layers)]
    for name in tensor_shapes(config):
        index, field = _locate(name)
        (top if index is None else layers[index])[field] = tensors[name]
    return ModelWeights(layers=[LayerWeights(**layer) for layer in layers], **top)


def init_random(config: EncoderConfig, seed: int) -> ModelWeights:
    """Deterministic random weights: N(0, 0.02) everywhere, layernorm
    gamma=1 / beta=0. Same (config, seed) always yields identical tensors."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith("ln_gamma"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith("ln_beta"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            tensors[name] = rng.normal(0.0, INIT_SCALE, size=shape).astype(np.float32)
    return weights_from_tensors(tensors, config)


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


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``x``'s own buffer (the max
    is subtracted, then exp and divide in place); returns ``x``."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def forward_batch(seqs: list[TokenizedSequence], weights: ModelWeights,
                  config: EncoderConfig) -> list[ForwardOutput]:
    """Run the encoder over a batch of equally padded sequences.

    A sequence's results do not depend on the rest of the batch or on its
    padding beyond float32 matmul noise (<< 1e-5 per logit); pad columns
    receive zero attention. Call it with ``[seq]`` to run one sequence.
    Each output's arrays are views into the shared batch arrays.
    """
    if not seqs:
        return []
    t = len(seqs[0].ids)
    for seq in seqs:
        if len(seq.ids) != t or len(seq.attention_mask) != t:
            raise ValueError("all sequences in a batch must share one padded length")
    if t == 0:
        raise ValueError("cannot run the encoder on an empty sequence")
    if t > config.max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {config.max_positions}")

    ids = np.asarray([seq.ids for seq in seqs], dtype=np.int64)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range for vocab_size "
                         f"{config.vocab_size}: [{ids.min()}, {ids.max()}]")
    mask = np.asarray([seq.attention_mask for seq in seqs], dtype=np.float32)

    batch = ids.shape[0]
    heads, head_dim, hidden = config.num_heads, config.head_dim, config.hidden_size
    eps = config.layernorm_epsilon
    scale = np.float32(1.0 / math.sqrt(head_dim))
    # [B, 1, 1, T] additive bias hiding pad columns from every query row.
    attn_bias = (np.float32(1.0) - mask)[:, None, None, :] * np.float32(ATTENTION_MASK_BIAS)

    x = weights.token_embedding[ids] + weights.position_embedding[:t]
    # Kept flattened to [B*T, hidden] so projections and the FFN run as one
    # large GEMM instead of B stacked small ones.
    x = x.reshape(batch * t, hidden)
    x = _layernorm(x, weights.embedding_ln_gamma, weights.embedding_ln_beta, eps)

    def split_heads(proj: np.ndarray) -> np.ndarray:
        return proj.reshape(batch, t, heads, head_dim).transpose(0, 2, 1, 3)

    attention_stack: list[np.ndarray] = []
    final = len(weights.layers) - 1
    for index, layer in enumerate(weights.layers):
        q = split_heads(x @ layer.q_weight + layer.q_bias)
        k = split_heads(x @ layer.k_weight + layer.k_bias)
        v = split_heads(x @ layer.v_weight + layer.v_bias)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        scores += attn_bias
        probs = _softmax(scores)
        attention_stack.append(probs)
        if index == final:
            # Only the pooler reads the final block's output, and only its
            # row 0: run the rest of the block on the [B, hidden] CLS rows.
            context = (probs[:, :, :1] @ v).reshape(batch, hidden)
            x = x.reshape(batch, t, hidden)[:, 0]
        else:
            context = (probs @ v).transpose(0, 2, 1, 3).reshape(batch * t, hidden)
        attn_out = context @ layer.out_weight + layer.out_bias
        x = _layernorm(x + attn_out, layer.attn_ln_gamma, layer.attn_ln_beta, eps)
        up = _gelu_in_tiles(x @ layer.ffn_up_weight + layer.ffn_up_bias)
        down = up @ layer.ffn_down_weight + layer.ffn_down_bias
        x = _layernorm(x + down, layer.ffn_ln_gamma, layer.ffn_ln_beta, eps)

    pooled = np.tanh(x @ weights.pooler_weight + weights.pooler_bias)
    logits = pooled @ weights.classifier_weight + weights.classifier_bias

    return [
        ForwardOutput(
            logits=logits[b],
            attentions=[layer_probs[b] for layer_probs in attention_stack],
        )
        for b in range(batch)
    ]


def count_parameters(config: EncoderConfig) -> int:
    """Exact learned-scalar count of the ``tensor_shapes`` tensors."""
    return sum(math.prod(shape) for shape in tensor_shapes(config).values())
