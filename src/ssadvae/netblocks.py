"""MLP encoder/decoder construction, initialization, and reparameterization.

An encoder is a shared trunk followed by separate mean and log-variance
heads; the decoder mirrors the trunk in reverse. Each network holds its
parameters as one list of (weight, bias) layers in forward order.
Initialization uses a counter-based Philox stream so a single seed
reproduces every parameter bit-exactly, across ensemble members and
platforms.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import gradcore as gc
from .gradcore import Tensor

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0

FAMILIES = ("gaussian", "bernoulli")

_MAGIC = b"SSADVAE1"

# ``decoder_arrays`` spreads a bias at most this wide to the rows of a block.
# numpy adds a (d,) bias to a (rows, d) array one row per inner loop, so a
# narrow bias pays that loop's overhead on every row. In-place add at 1 024
# rows, (d,) bias against a spread (rows, d) copy, in us (best of 5 x 2 000,
# 1 BLAS thread): width 8 8.0/2.3, 16 11.6/4.7, 21 18.0/5.9, 32 18.3/8.1,
# 64 39.3/20.2, 128 80.9/52.6, 192 112/126, 274 174/200. Wider than 64 the
# gain shrinks, then turns into a loss, while each copy costs rows x d x 8 B.
SPREAD_BIAS_MAX_WIDTH = 64

# Philox is keyed by a seed modulo this, so seeds equal modulo it share
# every stream
SEED_MODULUS = 2 ** 64

# init/noise streams hanging off one member seed
STREAM_ENCODER = 1
STREAM_DECODER = 2
STREAM_SHUFFLE = 3
STREAM_NOISE = 4
STREAM_SCORE = 5


def philox_rng(seed: int, stream: int) -> np.random.Generator:
    """Deterministic counter-based generator for (seed, stream)."""
    key = np.array([np.uint64(seed % SEED_MODULUS), np.uint64(stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (hidden... , latent), activation tag and bias switch."""

    widths: tuple
    activation: str = "leaky-relu"
    leak: float = 0.1
    use_bias: bool = True

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("widths: need at least one hidden layer plus the "
                             f"latent width, got {self.widths}")
        if any(int(w) < 1 for w in self.widths):
            raise ValueError(f"widths: all widths must be >= 1, got {self.widths}")
        if self.activation not in ("leaky-relu", "relu", "sigmoid"):
            raise ValueError(f"activation: unsupported activation {self.activation!r}")
        if not 0.0 < self.leak <= 1.0:
            # leaky_relu is max(x, leak*x), which needs 0 < leak <= 1;
            # activation = relu is the leak-0 case
            raise ValueError(f"leak: leaky-relu's leak must be in (0, 1], got {self.leak!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def latent_dim(self) -> int:
        return self.widths[-1]

    @property
    def hidden(self) -> tuple:
        return self.widths[:-1]

    def to_dict(self) -> dict:
        return {"widths": list(self.widths), "activation": self.activation,
                "leak": self.leak, "use_bias": self.use_bias}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(widths=tuple(d["widths"]), activation=d["activation"],
                   leak=d["leak"], use_bias=d["use_bias"])


def _activate(spec: MlpSpec, h: Tensor) -> Tensor:
    if spec.activation == "leaky-relu":
        return gc.leaky_relu(h, spec.leak)
    if spec.activation == "relu":
        return gc.relu(h)
    return gc.sigmoid(h)


def _activate_array(spec: MlpSpec, h: np.ndarray) -> np.ndarray:
    if spec.activation == "leaky-relu":
        return gc.leaky_relu_of(h, spec.leak)
    if spec.activation == "relu":
        return gc.relu_of(h)
    return gc.sigmoid_of(h)


def _init_layers(rng: np.random.Generator, dims: list, use_bias: bool) -> list:
    """One (weight, bias) pair per (fan_in, fan_out) in ``dims``, drawn in
    that order; a weight is uniform in +-1/sqrt(fan_in), a bias zero, or
    None without ``use_bias``."""
    layers = []
    for fan_in, fan_out in dims:
        bound = 1.0 / np.sqrt(fan_in)
        w = gc.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        layers.append((w, gc.parameter(np.zeros(fan_out)) if use_bias else None))
    return layers


class _Layers:
    """A dense network's parameters as ``layers``, one (weight, bias) pair
    per layer in forward order; the bias is None without ``use_bias``."""

    @property
    def latent_dim(self) -> int:
        return self.spec.latent_dim

    def tensors(self) -> list:
        return [t for pair in self.layers for t in pair if t is not None]

    def member(self, k: int):
        """Member k of stacked parameters as constants sharing their
        buffers, so a forward pass through it builds no graph: a weight is
        ``data[k]``, a bias ``data[k, 0]``. The pair, not the shape, tells
        them apart: one input feature gives a (K, 1, width) first weight."""
        return replace(self, layers=[
            (gc.constant(w.data[k]), None if b is None else gc.constant(b.data[k, 0]))
            for w, b in self.layers])


@dataclass
class EncoderParams(_Layers):
    """The trunk layers, then the mean head, then the log-variance head."""

    spec: MlpSpec
    in_dim: int
    layers: list


@dataclass
class DecoderParams(_Layers):
    spec: MlpSpec
    out_dim: int
    layers: list
    family: str = "gaussian"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown likelihood family {self.family!r}")

    def detached(self) -> "DecoderParams":
        """Same buffers, no gradient flow: the frozen-decoder view."""
        return replace(self, layers=[
            (gc.constant(w.data), None if b is None else gc.constant(b.data))
            for w, b in self.layers])


@dataclass
class GaussianPosterior:
    """Per-sample mean and diagonal log-variance from the encoder, shaped
    (batch, d_z), or (members, batch, d_z) for stacked members. ``std`` is
    exp(logvar / 2), computed once and shared by every Monte-Carlo draw."""

    mu: Tensor
    logvar: Tensor
    std: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.std = np.exp(self.logvar.data * 0.5)

    @property
    def batch(self) -> int:
        return self.mu.shape[-2]

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


def _layer_dims(spec: MlpSpec, in_dim: int) -> tuple:
    """The (fan_in, fan_out) of every encoder layer and of every decoder
    layer, in forward order: the trunk, then the mean and log-variance
    heads; the decoder mirrors the trunk back to ``in_dim``."""
    trunk = (in_dim, *spec.hidden)
    widths = (spec.latent_dim, *reversed(spec.hidden), in_dim)
    return (list(zip(trunk, trunk[1:])) + [(trunk[-1], spec.latent_dim)] * 2,
            list(zip(widths, widths[1:])))


def init_encoder(spec: MlpSpec, in_dim: int, seed: int) -> EncoderParams:
    return EncoderParams(spec, in_dim, _init_layers(
        philox_rng(seed, STREAM_ENCODER), _layer_dims(spec, in_dim)[0],
        spec.use_bias))


def init_decoder(spec: MlpSpec, out_dim: int, seed: int,
                 family: str = "gaussian") -> DecoderParams:
    """Decoder mirroring the encoder: latent -> reversed hidden -> out_dim."""
    return DecoderParams(spec, out_dim, _init_layers(
        philox_rng(seed, STREAM_DECODER), _layer_dims(spec, out_dim)[1],
        spec.use_bias), family)


def _check_input(xt: Tensor, w: Tensor, width: int, who: str, what: str) -> None:
    """``xt`` must be (batch, width), or (K, batch, width) when the first
    layer's weight ``w`` stacks K members."""
    lead = w.shape[:-2]
    if (xt.data.ndim != w.data.ndim or xt.data.shape[:-2] != lead
            or xt.data.shape[-1] != width):
        want = ", ".join([str(k) for k in lead] + ["batch", str(width)])
        raise ValueError(f"{who} expects ({want}) {what}, got {xt.data.shape}")


def _hidden(spec: MlpSpec, layers: list, h: Tensor) -> Tensor:
    """Each layer's affine map, then the activation."""
    for w, b in layers:
        h = _activate(spec, gc.affine(h, w, b))
    return h


def encode(params: EncoderParams, x) -> GaussianPosterior:
    """Forward the encoder; log-variance is clamped to [-10, 10].

    Stacked parameters (leading members axis K) take (K, batch, in_dim)."""
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    _check_input(xt, params.layers[0][0], params.in_dim, "encoder", "input")
    if not np.isfinite(xt.data).all():
        raise ValueError("non-finite input row rejected before forward pass")
    h = _hidden(params.spec, params.layers[:-2], xt)
    mu_head, logvar_head = params.layers[-2:]
    mu = gc.affine(h, *mu_head)
    logvar = gc.clamp(gc.affine(h, *logvar_head), LOGVAR_MIN, LOGVAR_MAX)
    return GaussianPosterior(mu, logvar)


def reparameterize(post: GaussianPosterior, noise) -> Tensor:
    """z = mu + exp(logvar/2) * noise as one node; gradient reaches mu and
    logvar only. The value and both gradients have the bytes of
    ``add(mu, mul(exp(mul(logvar, 0.5)), noise))`` built from small
    gradcore ops."""
    eps = noise.data if isinstance(noise, Tensor) else np.asarray(noise, np.float64)
    mu, logvar, std = post.mu, post.logvar, post.std
    if eps.shape != mu.data.shape:
        raise ValueError(
            f"noise shape {eps.shape} != posterior shape {mu.data.shape}")
    z = reparameterize_array(post, eps)
    need_logvar = logvar.requires_grad
    return gc.make_node(z, "reparameterize", (mu, logvar), lambda g: (
        g, ((g * eps) * std) * 0.5 if need_logvar else None))


def reparameterize_array(post: GaussianPosterior, eps: np.ndarray) -> np.ndarray:
    """The value of ``reparameterize`` for a noise array of the posterior's
    shape: ``std * eps``, then ``mu`` added in place."""
    z = post.std * eps
    z += post.mu.data
    return z


def decode(params: DecoderParams, z) -> Tensor:
    """Forward the decoder; returns raw means (gaussian) or logits (bernoulli)."""
    zt = z if isinstance(z, Tensor) else gc.constant(z)
    _check_input(zt, params.layers[0][0], params.latent_dim, "decoder", "latents")
    return gc.affine(_hidden(params.spec, params.layers[:-1], zt), *params.layers[-1])


def decoder_arrays(params: DecoderParams, rows: int) -> list:
    """Unstacked decoder layers as (weight, bias) arrays for ``decode_array``
    on blocks of at most ``rows`` rows. A bias at most
    ``SPREAD_BIAS_MAX_WIDTH`` wide is spread to (rows, width) once, so each
    block adds it as a same-shape array."""
    layers = []
    for w, b in params.layers:
        if b is not None:
            b = b.data
            if b.shape[-1] <= SPREAD_BIAS_MAX_WIDTH:
                b = np.broadcast_to(b, (rows, b.shape[-1])).copy()
        layers.append((w.data, b))
    return layers


def decode_array(spec: MlpSpec, layers: list, z: np.ndarray) -> np.ndarray:
    """``decode`` on a plain (r, d_z) latent array with layers from
    ``decoder_arrays``: the same operations in the same order, so the same
    bytes, with no graph nodes."""
    h, rows = z, z.shape[0]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = gc.affine_of(h, w, b if b is None or b.ndim == 1 else b[:rows])
        if i != last:
            h = _activate_array(spec, h)
    return h


# ---------------------------------------------------------------------------
# serialization: one flat binary container per member; the architecture
# that reads it back is recorded by the caller (a run's manifest.json)

def write_arrays(path, arrays) -> None:
    """magic | u32 count | per array: u32 ndim, u32 dims..., f64 row-major."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            # tobytes() is row-major for any layout; ascontiguousarray
            # would turn a 0-d array into shape (1,)
            arr = np.asarray(arr, dtype="<f8")
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_arrays(path) -> list:
    """Inverse of write_arrays; a short file or bytes after the last array
    raise ValueError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = len(_MAGIC)

    def take(n: int, what: str) -> bytes:
        # a corrupt header can claim any size: check it against the file
        nonlocal pos
        if n > len(blob) - pos:
            raise ValueError(f"{path}: truncated {what}")
        pos += n
        return blob[pos - n:pos]

    if blob[:pos] != _MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:pos]!r}")
    (count,) = struct.unpack("<I", take(4, "array count"))
    arrays = []
    for _ in range(count):
        (ndim,) = struct.unpack("<I", take(4, "array header"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "array shape"))
        buf = take(8 * math.prod(shape), "array data")
        arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return arrays


def save_params(path, enc: EncoderParams, dec: DecoderParams) -> None:
    """Encoder then decoder buffers in declaration order."""
    write_arrays(path, [t.data for t in enc.tensors() + dec.tensors()])


def load_params(path, spec: MlpSpec, in_dim: int, family: str) -> tuple:
    """Inverse of save_params for the architecture its caller records; an
    array count or shape unlike that architecture's, or a non-finite value,
    is a ValueError naming the file. The layers are the file's arrays,
    checked against the shapes the spec gives before any is used, so a
    spec claiming huge widths allocates nothing."""
    enc_dims, dec_dims = _layer_dims(spec, in_dim)
    shapes = []
    for fan_in, fan_out in enc_dims + dec_dims:
        shapes += [(fan_in, fan_out), (fan_out,)] if spec.use_bias else [(fan_in, fan_out)]
    arrays = read_arrays(path)
    if len(arrays) != len(shapes):
        raise ValueError(
            f"{path}: expected {len(shapes)} arrays, found {len(arrays)}")
    for i, (shape, arr) in enumerate(zip(shapes, arrays)):
        if arr.shape != shape:
            raise ValueError(f"{path}: shape mismatch {arr.shape} vs {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {i} holds a non-finite value")
    tensors = map(gc.parameter, arrays)

    def layers(dims):
        return [(next(tensors), next(tensors) if spec.use_bias else None)
                for _ in dims]

    return (EncoderParams(spec, in_dim, layers(enc_dims)),
            DecoderParams(spec, in_dim, layers(dec_dims), family))
