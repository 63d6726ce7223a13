"""MLP encoder/decoder construction, initialization, and reparameterization.

An encoder is a shared trunk followed by separate mean and log-variance
heads; the decoder mirrors the trunk in reverse. Initialization uses a
counter-based Philox stream so a single seed reproduces every parameter
bit-exactly, across ensemble members and platforms.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Optional

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

# init/noise streams hanging off one member seed
STREAM_ENCODER = 1
STREAM_DECODER = 2
STREAM_SHUFFLE = 3
STREAM_NOISE = 4
STREAM_SCORE = 5


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator for (seed, stream)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)],
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
            raise ValueError("need at least one hidden layer plus the latent width")
        if any(int(w) < 1 for w in self.widths):
            raise ValueError(f"all widths must be >= 1, got {self.widths}")
        if self.activation not in ("leaky-relu", "relu", "sigmoid"):
            raise ValueError(f"unsupported activation {self.activation!r}")
        if not 0.0 < self.leak <= 1.0:
            # leaky_relu is max(x, leak*x), which needs 0 < leak <= 1;
            # activation = relu is the leak-0 case
            raise ValueError(f"leak must be in (0, 1], got {self.leak!r}")
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


def _init_layer(rng: np.random.Generator, fan_in: int, fan_out: int,
                use_bias: bool) -> tuple:
    bound = 1.0 / np.sqrt(fan_in)
    w = gc.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    b = gc.parameter(np.zeros(fan_out)) if use_bias else None
    return w, b


def _view(t: Optional[Tensor], k: int, bias: bool = False) -> Optional[Tensor]:
    """Member k of a stacked (K, fan_in, fan_out) weight or (K, 1, fan_out)
    bias, a constant sharing its buffer. Role, not shape, tells the two
    apart: one input feature gives a (K, 1, width) first weight."""
    return None if t is None else gc.constant(t.data[k, 0] if bias else t.data[k])


@dataclass
class EncoderParams:
    spec: MlpSpec
    in_dim: int
    trunk_w: list
    trunk_b: list
    mu_w: Tensor
    mu_b: Optional[Tensor]
    logvar_w: Tensor
    logvar_b: Optional[Tensor]

    @property
    def latent_dim(self) -> int:
        return self.spec.latent_dim

    def tensors(self) -> list:
        out = []
        for w, b in zip(self.trunk_w, self.trunk_b):
            out.append(w)
            if b is not None:
                out.append(b)
        out.append(self.mu_w)
        if self.mu_b is not None:
            out.append(self.mu_b)
        out.append(self.logvar_w)
        if self.logvar_b is not None:
            out.append(self.logvar_b)
        return out

    def member(self, k: int) -> "EncoderParams":
        """Member k of stacked parameters as constants sharing their
        buffers, so a forward pass through it builds no graph."""
        return EncoderParams(
            self.spec, self.in_dim, [_view(w, k) for w in self.trunk_w],
            [_view(b, k, True) for b in self.trunk_b], _view(self.mu_w, k),
            _view(self.mu_b, k, True), _view(self.logvar_w, k),
            _view(self.logvar_b, k, True))


@dataclass
class DecoderParams:
    spec: MlpSpec
    out_dim: int
    ws: list
    bs: list
    family: str = "gaussian"

    @property
    def latent_dim(self) -> int:
        return self.spec.latent_dim

    def tensors(self) -> list:
        out = []
        for w, b in zip(self.ws, self.bs):
            out.append(w)
            if b is not None:
                out.append(b)
        return out

    def detached(self) -> "DecoderParams":
        """Same buffers, no gradient flow: the frozen-decoder view."""
        return DecoderParams(
            spec=self.spec, out_dim=self.out_dim,
            ws=[w.detach() for w in self.ws],
            bs=[None if b is None else b.detach() for b in self.bs],
            family=self.family)

    def member(self, k: int) -> "DecoderParams":
        """Member k of stacked parameters as constants sharing their buffers."""
        return DecoderParams(self.spec, self.out_dim, [_view(w, k) for w in self.ws],
                             [_view(b, k, True) for b in self.bs], self.family)


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


def init_encoder(spec: MlpSpec, in_dim: int, seed: int) -> EncoderParams:
    rng = philox_rng(seed, STREAM_ENCODER)
    trunk_w, trunk_b = [], []
    prev = in_dim
    for width in spec.hidden:
        w, b = _init_layer(rng, prev, width, spec.use_bias)
        trunk_w.append(w)
        trunk_b.append(b)
        prev = width
    mu_w, mu_b = _init_layer(rng, prev, spec.latent_dim, spec.use_bias)
    logvar_w, logvar_b = _init_layer(rng, prev, spec.latent_dim, spec.use_bias)
    return EncoderParams(spec, in_dim, trunk_w, trunk_b,
                         mu_w, mu_b, logvar_w, logvar_b)


def init_decoder(spec: MlpSpec, out_dim: int, seed: int,
                 family: str = "gaussian") -> DecoderParams:
    """Decoder mirroring the encoder: latent -> reversed hidden -> out_dim."""
    if family not in FAMILIES:
        raise ValueError(f"unknown likelihood family {family!r}")
    rng = philox_rng(seed, STREAM_DECODER)
    widths = list(reversed(spec.hidden)) + [out_dim]
    ws, bs = [], []
    prev = spec.latent_dim
    for width in widths:
        w, b = _init_layer(rng, prev, width, spec.use_bias)
        ws.append(w)
        bs.append(b)
        prev = width
    return DecoderParams(spec, out_dim, ws, bs, family)


def _check_input(xt: Tensor, w: Tensor, width: int, who: str, what: str) -> None:
    """``xt`` must be (batch, width), or (K, batch, width) when the first
    layer's weight ``w`` stacks K members."""
    lead = w.shape[:-2]
    if (xt.data.ndim != w.data.ndim or xt.data.shape[:-2] != lead
            or xt.data.shape[-1] != width):
        want = ", ".join([str(k) for k in lead] + ["batch", str(width)])
        raise ValueError(f"{who} expects ({want}) {what}, got {xt.data.shape}")


def encode(params: EncoderParams, x) -> GaussianPosterior:
    """Forward the encoder; log-variance is clamped to [-10, 10].

    Stacked parameters (leading members axis K) take (K, batch, in_dim)."""
    xt = x if isinstance(x, Tensor) else gc.constant(x)
    _check_input(xt, params.trunk_w[0], params.in_dim, "encoder", "input")
    if not np.isfinite(xt.data).all():
        raise ValueError("non-finite input row rejected before forward pass")
    h = xt
    for w, b in zip(params.trunk_w, params.trunk_b):
        h = _activate(params.spec, gc.affine(h, w, b))
    mu = gc.affine(h, params.mu_w, params.mu_b)
    logvar = gc.clamp(gc.affine(h, params.logvar_w, params.logvar_b),
                      LOGVAR_MIN, LOGVAR_MAX)
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
    _check_input(zt, params.ws[0], params.latent_dim, "decoder", "latents")
    h = zt
    last = len(params.ws) - 1
    for i, (w, b) in enumerate(zip(params.ws, params.bs)):
        h = gc.affine(h, w, b)
        if i != last:
            h = _activate(params.spec, h)
    return h


def decoder_arrays(params: DecoderParams, rows: int) -> list:
    """Unstacked decoder layers as (weight, bias) arrays for ``decode_array``
    on blocks of at most ``rows`` rows. A bias at most
    ``SPREAD_BIAS_MAX_WIDTH`` wide is spread to (rows, width) once, so each
    block adds it as a same-shape array."""
    layers = []
    for w, b in zip(params.ws, params.bs):
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
# serialization: flat binary container + JSON sidecar

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


def save_params(path_bin, path_json, enc: EncoderParams, dec: DecoderParams) -> None:
    """Encoder then decoder buffers in declaration order, plus a JSON sidecar."""
    arrays = [t.data for t in enc.tensors()] + [t.data for t in dec.tensors()]
    write_arrays(path_bin, arrays)
    sidecar = {
        "spec": enc.spec.to_dict(),
        "in_dim": enc.in_dim,
        "out_dim": dec.out_dim,
        "family": dec.family,
        "n_encoder_arrays": len(enc.tensors()),
        "n_decoder_arrays": len(dec.tensors()),
    }
    with open(path_json, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path_bin, path_json) -> tuple:
    """Inverse of save_params. The sidecar's array counts must be the ones
    its spec implies, or ValueError names the sidecar; a non-finite value
    is a ValueError naming the binary file."""
    with open(path_json, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    spec = MlpSpec.from_dict(sidecar["spec"])
    enc = init_encoder(spec, sidecar["in_dim"], seed=0)
    dec = init_decoder(spec, sidecar["out_dim"], seed=0, family=sidecar["family"])
    for key, params in (("n_encoder_arrays", enc), ("n_decoder_arrays", dec)):
        if sidecar[key] != len(params.tensors()):
            raise ValueError(f"{path_json}: {key} is {sidecar[key]!r}, but its "
                             f"spec has {len(params.tensors())}")
    arrays = read_arrays(path_bin)
    slots = enc.tensors() + dec.tensors()
    if len(arrays) != len(slots):
        raise ValueError(
            f"{path_bin}: expected {len(slots)} arrays, found {len(arrays)}")
    for i, (slot, arr) in enumerate(zip(slots, arrays)):
        if slot.data.shape != arr.shape:
            raise ValueError(
                f"{path_bin}: shape mismatch {arr.shape} vs {slot.data.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path_bin}: array {i} holds a non-finite value")
        slot.data = arr
    return enc, dec
