"""Two-branch graph convolutional utility network with manual gradients.

Layer l maps X^(l-1) to sigma(X^(l-1) T0_l + L X^(l-1) T1_l), where L is the
symmetric normalized Laplacian of the conflict graph. Hidden layers use a
leaky ReLU; the final layer is linear and one-dimensional, so the network
emits one utility per link. Gradients are computed by hand-written reverse
accumulation, and parameters are updated with Adam under an exponentially
decaying learning rate.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import as_rng

logger = logging.getLogger(__name__)

LEAKY_SLOPE = 0.2

ADAM_DEFAULTS = {
    "base_lr": 1e-3,
    "decay": 0.999,
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-8,
}


@dataclass
class GcnParams:
    """Per-layer weight matrices for the two convolution branches."""

    layer_dims: tuple[int, ...]
    theta0: list[np.ndarray]
    theta1: list[np.ndarray]

    def __post_init__(self) -> None:
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        dims = self.layer_dims
        if len(dims) < 2:
            raise ValueError("need at least one layer")
        if any(d < 1 for d in dims):
            raise ValueError("layer dimensions must be positive")
        if dims[-1] != 1:
            raise ValueError("output dimension must be 1 (one utility per link)")
        if len(self.theta0) != len(dims) - 1 or len(self.theta1) != len(dims) - 1:
            raise ValueError("parameter list length must match layer count")
        for l, (t0, t1) in enumerate(zip(self.theta0, self.theta1), start=1):
            want = (dims[l - 1], dims[l])
            if t0.shape != want or t1.shape != want:
                raise ValueError(f"layer {l} parameters must have shape {want}")
            if not (np.isfinite(t0).all() and np.isfinite(t1).all()):
                raise ValueError(f"layer {l} has non-finite entries")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    def copy(self) -> "GcnParams":
        return GcnParams(self.layer_dims,
                         [t.copy() for t in self.theta0],
                         [t.copy() for t in self.theta1])


@dataclass
class Gradients:
    """Loss gradients, one matrix per parameter matrix."""

    theta0: list[np.ndarray]
    theta1: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: GcnParams) -> "Gradients":
        return cls([np.zeros_like(t) for t in params.theta0],
                   [np.zeros_like(t) for t in params.theta1])


@dataclass
class ForwardCache:
    """Intermediate values retained for the backward pass."""

    laplacian: np.ndarray
    slope: float
    activations: list[np.ndarray]     # X^0 .. X^L
    preactivations: list[np.ndarray]  # Z^1 .. Z^L
    lap_inputs: list[np.ndarray]      # L @ X^(l-1), per layer


def identity_params() -> GcnParams:
    """Single linear layer that passes the input feature straight through."""
    return GcnParams((1, 1), [np.array([[1.0]])], [np.array([[0.0]])])


def init_params(layer_dims,
                rng: np.random.Generator | int | None = None) -> GcnParams:
    """Glorot-uniform initialization: entries in +-sqrt(6 / (fan_in + fan_out))."""
    dims = tuple(int(d) for d in layer_dims)
    gen = as_rng(rng)
    theta0, theta1 = [], []
    for prev, cur in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (prev + cur))
        theta0.append(gen.uniform(-bound, bound, size=(prev, cur)))
        theta1.append(gen.uniform(-bound, bound, size=(prev, cur)))
    return GcnParams(dims, theta0, theta1)


def forward(params: GcnParams, laplacian, features,
            slope: float = LEAKY_SLOPE) -> tuple[np.ndarray, ForwardCache]:
    """Run the convolution stack and return (utility vector, cache).

    ``features`` must be (V, g_0); ``laplacian`` must be (V, V). Hidden
    layers apply a leaky ReLU with the given negative slope; the output
    layer is linear, so a one-layer network is fully linear.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ValueError(
            f"features must be (V, {params.layer_dims[0]}), got {x.shape}")
    lap = np.asarray(laplacian, dtype=np.float64)
    if lap.shape != (x.shape[0], x.shape[0]):
        raise ValueError(
            f"laplacian shape {lap.shape} does not match {x.shape[0]} nodes")
    acts = [x]
    pres: list[np.ndarray] = []
    lap_inputs: list[np.ndarray] = []
    last = params.num_layers - 1
    for l in range(params.num_layers):
        lx = lap @ acts[-1]
        z = acts[-1] @ params.theta0[l] + lx @ params.theta1[l]
        lap_inputs.append(lx)
        pres.append(z)
        acts.append(z if l == last else np.where(z >= 0, z, slope * z))
    utilities = acts[-1][:, 0].copy()
    return utilities, ForwardCache(lap, slope, acts, pres, lap_inputs)


def backward(params: GcnParams, cache: ForwardCache,
             output_grad) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss given dLoss/d(utility).

    The leaky-ReLU derivative is taken as 1 at exactly zero. The cache must
    come from a ``forward`` call with the same parameters.
    """
    n = cache.activations[0].shape[0]
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != (n,):
        raise ValueError(f"output gradient must have shape ({n},), got {g.shape}")
    layers = params.num_layers
    if len(cache.preactivations) != layers or any(
            cache.activations[l].shape[1] != params.layer_dims[l]
            for l in range(layers + 1)):
        raise ValueError("cache does not match these parameters")
    grad0: list[np.ndarray] = [None] * layers  # type: ignore[list-item]
    grad1: list[np.ndarray] = [None] * layers  # type: ignore[list-item]
    dz = g[:, None]
    for l in range(layers - 1, -1, -1):
        grad0[l] = cache.activations[l].T @ dz
        grad1[l] = cache.lap_inputs[l].T @ dz
        if l > 0:
            dx = dz @ params.theta0[l].T + cache.laplacian @ (dz @ params.theta1[l].T)
            z_prev = cache.preactivations[l - 1]
            dz = np.where(z_prev >= 0, 1.0, cache.slope) * dx
    return Gradients(grad0, grad1)


@dataclass
class AdamState:
    """Adam moment accumulators plus the decayed learning-rate schedule.

    The effective learning rate of step k (counting from 0) is
    base_lr * decay**k; with one optimizer step per training episode the
    exponent is the episode index.
    """

    m0: list[np.ndarray]
    v0: list[np.ndarray]
    m1: list[np.ndarray]
    v1: list[np.ndarray]
    step: int = 0
    base_lr: float = ADAM_DEFAULTS["base_lr"]
    decay: float = ADAM_DEFAULTS["decay"]
    beta1: float = ADAM_DEFAULTS["beta1"]
    beta2: float = ADAM_DEFAULTS["beta2"]
    eps: float = ADAM_DEFAULTS["eps"]

    @classmethod
    def for_params(cls, params: GcnParams, **hyper) -> "AdamState":
        return cls([np.zeros_like(t) for t in params.theta0],
                   [np.zeros_like(t) for t in params.theta0],
                   [np.zeros_like(t) for t in params.theta1],
                   [np.zeros_like(t) for t in params.theta1],
                   **hyper)


def adam_step(params: GcnParams, grads: Gradients,
              state: AdamState) -> tuple[GcnParams, AdamState]:
    """Apply one bias-corrected Adam update in place.

    Non-finite gradients skip the update entirely (logged as a warning);
    params and state are returned untouched in that case.
    """
    tensors = grads.theta0 + grads.theta1
    if len(grads.theta0) != len(params.theta0) or any(
            g.shape != p.shape for g, p in
            zip(tensors, params.theta0 + params.theta1)):
        raise ValueError("gradient shapes do not match parameters")
    if not all(np.isfinite(g).all() for g in tensors):
        logger.warning("skipping optimizer step: non-finite gradient")
        return params, state
    lr = state.base_lr * state.decay ** state.step
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    groups = ((params.theta0, grads.theta0, state.m0, state.v0),
              (params.theta1, grads.theta1, state.m1, state.v1))
    for ps, gs, ms, vs in groups:
        for p, g, m, v in zip(ps, gs, ms, vs):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params, state


# --- checkpoint serialization ------------------------------------------------
#
# Flat little-endian binary layout (documented contract):
#
#   offset 0   : 8-byte magic b"LNKSGCN1" (format version 1)
#   next       : int32 L = number of layers
#   next       : int32 * (L + 1) layer dimensions g_0 .. g_L
#   next       : float64 leaky-ReLU negative slope
#   next       : float64 * 5 Adam settings: base_lr, decay, beta1, beta2, eps
#   next       : for l = 1..L: theta0^l then theta1^l, row-major float64
#
# Total size: 8 + 4*(L+2) + 8*6 + 8*2*sum(g_(l-1)*g_l) bytes.

CHECKPOINT_MAGIC = b"LNKSGCN1"


@dataclass
class Checkpoint:
    """Parameters plus the hyperparameters they were trained with."""

    params: GcnParams
    slope: float = LEAKY_SLOPE
    base_lr: float = ADAM_DEFAULTS["base_lr"]
    decay: float = ADAM_DEFAULTS["decay"]
    beta1: float = ADAM_DEFAULTS["beta1"]
    beta2: float = ADAM_DEFAULTS["beta2"]
    eps: float = ADAM_DEFAULTS["eps"]


def save_checkpoint(path, params: GcnParams, *,
                    slope: float = LEAKY_SLOPE,
                    base_lr: float = ADAM_DEFAULTS["base_lr"],
                    decay: float = ADAM_DEFAULTS["decay"],
                    beta1: float = ADAM_DEFAULTS["beta1"],
                    beta2: float = ADAM_DEFAULTS["beta2"],
                    eps: float = ADAM_DEFAULTS["eps"]) -> None:
    """Write a checkpoint in the documented flat binary layout."""
    dims = params.layer_dims
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<i", len(dims) - 1),
             struct.pack(f"<{len(dims)}i", *dims),
             struct.pack("<6d", slope, base_lr, decay, beta1, beta2, eps)]
    for t0, t1 in zip(params.theta0, params.theta1):
        parts.append(np.ascontiguousarray(t0, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(t1, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`; a malformed,
    truncated or overlong file raises ValueError naming the path."""
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a scheduler checkpoint (bad magic)")
    off = 8

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes, which must all be present."""
        nonlocal off
        if off + size > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        off += size
        return off - size

    (layers,) = struct.unpack_from("<i", blob, take(4))
    if layers < 1:
        raise ValueError(f"{path}: invalid layer count {layers}")
    dims = struct.unpack_from(f"<{layers + 1}i", blob, take(4 * (layers + 1)))
    slope, base_lr, decay, beta1, beta2, eps = struct.unpack_from(
        "<6d", blob, take(48))
    theta0, theta1 = [], []
    for prev, cur in zip(dims[:-1], dims[1:]):
        count = prev * cur
        for dest in (theta0, theta1):
            mat = np.frombuffer(blob, dtype="<f8", count=count,
                                offset=take(8 * count))
            dest.append(mat.astype(np.float64).reshape(prev, cur))
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    params = GcnParams(dims, theta0, theta1)
    return Checkpoint(params, slope, base_lr, decay, beta1, beta2, eps)
