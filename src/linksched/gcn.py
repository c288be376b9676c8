"""Two-branch graph convolutional utility network with manual gradients.

Layer l maps X^(l-1) to sigma(X^(l-1) T0_l + L X^(l-1) T1_l), where L is the
symmetric normalized Laplacian of the conflict graph. Hidden layers use a
leaky ReLU; the final layer is linear and one-dimensional, so the network
emits one utility per link. Gradients are computed by hand-written reverse
accumulation, and parameters are updated with Adam under an exponentially
decaying learning rate and the ADAM_* defaults of Kingma & Ba (arXiv
1412.6980). A checkpoint holds only the network: dims, slope and weights.
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

BASE_LR = 1e-3
LR_DECAY = 0.999
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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

    laplacian: np.ndarray | list[np.ndarray]  # one, or one per stack row
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


def _convolve(laplacian, x) -> np.ndarray:
    """L @ X: one (V, V) Laplacian for every matrix of ``x``, or a list
    with one for each matrix of a (B, V, g) stack. The rows of a list that
    hold one Laplacian object run as one broadcast product ``lap @
    x[rows]``; each of its matrices goes through the same BLAS call as the
    2-D product on that matrix alone."""
    if isinstance(laplacian, np.ndarray):
        return laplacian @ x
    groups: dict[int, list[int]] = {}
    for row, lap in enumerate(laplacian):
        groups.setdefault(id(lap), []).append(row)
    out = np.empty(x.shape)
    for rows in groups.values():
        out[rows] = laplacian[rows[0]] @ x[rows]
    return out


def forward(params: GcnParams, laplacian, features,
            slope: float = LEAKY_SLOPE) -> tuple[np.ndarray, ForwardCache]:
    """Run the convolution stack and return (utilities, cache).

    ``features`` is (V, g_0), giving (V,) utilities, or a stack (B, V, g_0)
    of feature matrices, giving (B, V) utilities. ``laplacian`` is one
    (V, V) matrix, shared by every row of a stack, or a list of B of them,
    one per row, so that rows from different graphs of V nodes stack
    without a (B, V, V) array; the rows that hold one Laplacian object, as
    a run's star rows do, share one broadcast L @ X (:func:`_convolve`).
    Every product goes through ``np.matmul`` broadcasting, which runs each
    matrix through the same BLAS call as an unbatched forward, so every
    row is bitwise equal to the forward of that row alone. Hidden layers
    apply a leaky ReLU with the given negative slope; the output layer is
    linear, so a one-layer network is fully linear. The features and
    Laplacians are checked here, and the layers run in :func:`propagate`,
    which fills the returned cache.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.layer_dims[0]:
        raise ValueError(f"features must be (V, {params.layer_dims[0]}) or "
                         f"(B, V, {params.layer_dims[0]}), got {x.shape}")
    n = x.shape[-2]
    if isinstance(laplacian, (list, tuple)):
        if x.ndim != 3 or len(laplacian) != x.shape[0]:
            raise ValueError("a list of Laplacians needs a (B, V, g_0) stack "
                             "of features, one Laplacian per row")
        lap = [np.asarray(row, dtype=np.float64) for row in laplacian]
        shape = next((row.shape for row in lap if row.shape != (n, n)), None)
    else:
        lap = np.asarray(laplacian, dtype=np.float64)
        shape = None if lap.shape == (n, n) else lap.shape
    if shape is not None:
        raise ValueError(f"laplacian shape {shape} does not match {n} nodes")
    cache = ForwardCache(lap, slope, [x], [], [])
    utilities = propagate(params, lap, x, slope, cache)[..., 0].copy()
    return utilities, cache


def propagate(params: GcnParams, laplacian, features, slope: float,
              cache: ForwardCache | None = None) -> np.ndarray:
    """:func:`forward`'s layer loop, unchecked: the (..., V, 1) output of
    float64 ``features`` of matching shape under a ``laplacian`` of
    matching size, appending each layer's L @ X, preactivation and
    activation to ``cache`` when one is given. The one implementation of
    the network: :func:`forward` checks its input and calls it with its
    cache, and a policy, which needs no cache, calls it directly."""
    x = features
    last = params.num_layers - 1
    for l in range(params.num_layers):
        lx = _convolve(laplacian, x)
        z = x @ params.theta0[l] + lx @ params.theta1[l]
        x = z if l == last else np.where(z >= 0, z, slope * z)
        if cache is not None:
            cache.lap_inputs.append(lx)
            cache.preactivations.append(z)
            cache.activations.append(x)
    return x


def backward(params: GcnParams, cache: ForwardCache,
             output_grad) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss given dLoss/d(utility).

    ``output_grad`` has the shape of the forward's utilities. For a stacked
    forward it is (B, V), and each gradient matrix gets a leading batch
    axis, (B, g_(l-1), g_l): row b is bitwise the backward of row b alone,
    so summing the rows is left to the caller, in its own order. The
    leaky-ReLU derivative is taken as 1 at exactly zero. The cache must
    come from a ``forward`` call with the same parameters.
    """
    stack = cache.activations[0].shape[:-1]
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != stack:
        raise ValueError(f"output gradient must have shape {stack}, "
                         f"got {g.shape}")
    layers = params.num_layers
    if len(cache.preactivations) != layers or any(
            cache.activations[l].shape[-1] != params.layer_dims[l]
            for l in range(layers + 1)):
        raise ValueError("cache does not match these parameters")
    grad0: list[np.ndarray] = [None] * layers  # type: ignore[list-item]
    grad1: list[np.ndarray] = [None] * layers  # type: ignore[list-item]
    dz = g[..., None]
    for l in range(layers - 1, -1, -1):
        grad0[l] = np.swapaxes(cache.activations[l], -1, -2) @ dz
        grad1[l] = np.swapaxes(cache.lap_inputs[l], -1, -2) @ dz
        if l > 0:
            dx = dz @ params.theta0[l].T + _convolve(
                cache.laplacian, dz @ params.theta1[l].T)
            z_prev = cache.preactivations[l - 1]
            dz = np.where(z_prev >= 0, 1.0, cache.slope) * dx
    return Gradients(grad0, grad1)


@dataclass
class AdamState:
    """Adam moments and the decayed learning-rate schedule (ADAM_* fixed)."""

    m: Gradients
    v: Gradients
    step: int = 0
    base_lr: float = BASE_LR
    decay: float = LR_DECAY

    @classmethod
    def for_params(cls, params: GcnParams, **hyper) -> "AdamState":
        return cls(Gradients.zeros_like(params), Gradients.zeros_like(params),
                   **hyper)

    @property
    def lr(self) -> float:
        """Learning rate of the next step, base_lr * decay**step (step from
        0; one step per training episode makes it the episode index)."""
        return self.base_lr * self.decay ** self.step


def adam_step(params: GcnParams, grads: Gradients,
              state: AdamState) -> tuple[GcnParams, AdamState]:
    """Apply one bias-corrected Adam update in place.

    Non-finite gradients skip the update entirely (logged as a warning);
    params and state are returned untouched in that case. A step that
    would make a parameter non-finite is refused with ValueError, and
    leaves params and state untouched too: the step is computed aside,
    without numpy's warnings on the new parameters, and written back only
    when every new parameter is finite.
    """
    weights = params.theta0 + params.theta1
    tensors = grads.theta0 + grads.theta1
    if len(grads.theta0) != len(params.theta0) or any(
            g.shape != p.shape for g, p in zip(tensors, weights)):
        raise ValueError("gradient shapes do not match parameters")
    if not all(np.isfinite(g).all() for g in tensors):
        logger.warning("skipping optimizer step: non-finite gradient")
        return params, state
    lr, step = state.lr, state.step + 1
    b1c, b2c = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
    old_m = state.m.theta0 + state.m.theta1
    old_v = state.v.theta0 + state.v.theta1
    m = [a * ADAM_BETA1 + (1.0 - ADAM_BETA1) * g
         for a, g in zip(old_m, tensors)]
    v = [a * ADAM_BETA2 + (1.0 - ADAM_BETA2) * g * g
         for a, g in zip(old_v, tensors)]
    # an overflow here makes a parameter non-finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        p = [w - lr * (a / b1c) / (np.sqrt(b / b2c) + ADAM_EPS)
             for w, a, b in zip(weights, m, v)]
    if not all(np.isfinite(w).all() for w in p):
        raise ValueError("optimizer step would make a parameter non-finite")
    for old, new in zip(weights + old_m + old_v, p + m + v):
        old[...] = new
    state.step = step
    return params, state


# --- checkpoint serialization ------------------------------------------------
#
# Flat little-endian binary layout (documented contract):
#
#   offset 0   : 8-byte magic b"LNKSGCN2" (format version 2)
#   next       : int32 L = number of layers
#   next       : int32 * (L + 1) layer dimensions g_0 .. g_L
#   next       : float64 leaky-ReLU negative slope
#   next       : for l = 1..L: theta0^l then theta1^l, row-major float64
#
# Total size: 8 + 4*(L+2) + 8 + 8*2*sum(g_(l-1)*g_l) bytes.

CHECKPOINT_MAGIC = b"LNKSGCN2"


@dataclass
class Checkpoint:
    """A trained network: its parameters and leaky-ReLU slope."""

    params: GcnParams
    slope: float


def save_checkpoint(path, params: GcnParams, *,
                    slope: float = LEAKY_SLOPE) -> None:
    """Write a checkpoint in the documented flat binary layout."""
    dims = params.layer_dims
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<i", len(dims) - 1),
             struct.pack(f"<{len(dims)}i", *dims),
             struct.pack("<d", slope)]
    for t0, t1 in zip(params.theta0, params.theta1):
        parts.append(np.ascontiguousarray(t0, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(t1, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`; any other file
    (format 1, malformed, truncated, overlong) raises ValueError naming it."""
    blob = Path(path).read_bytes()
    if blob[:8] == b"LNKSGCN1":  # it held five Adam settings after the slope
        raise ValueError(f"{path}: checkpoint format 1 is no longer read; "
                         "retrain to write format 2")
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
    if min(dims) < 1:
        raise ValueError(f"{path}: invalid layer dimensions {dims}")
    (slope,) = struct.unpack_from("<d", blob, take(8))
    if not np.isfinite(slope):
        raise ValueError(f"{path}: non-finite slope {slope}")
    theta0, theta1 = [], []
    for prev, cur in zip(dims[:-1], dims[1:]):
        count = prev * cur
        for dest in (theta0, theta1):
            mat = np.frombuffer(blob, dtype="<f8", count=count,
                                offset=take(8 * count))
            dest.append(mat.astype(np.float64).reshape(prev, cur))
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    try:
        return Checkpoint(GcnParams(dims, theta0, theta1), slope)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
