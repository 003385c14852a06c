"""Dense differentiable building blocks with hand-written backward passes.

Every block follows the same protocol: ``forward(...)`` computes the output
and pushes the activations it will need onto an internal cache stack;
``backward(upstream)`` pops that cache, accumulates parameter gradients in
place and returns the gradient(s) with respect to the forward inputs.
Because caches form a stack, a block may be applied several times inside one
composite forward pass (e.g. the same attention parameters over K regions)
as long as the composite backward runs in exact reverse order.

There is no taping of arbitrary graphs: composite modules chain these
backwards by hand.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_DTYPE = np.float32

LAYERNORM_EPS = 1e-6
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1


class GradientStateError(RuntimeError):
    """Raised when backward is called without a matching forward."""


class Parameter:
    """A named tensor with a gradient slot of identical shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.ascontiguousarray(data)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Normal(0, std) redrawn until every entry lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    np.clip(out, -2.0 * std, 2.0 * std, out=out)
    return out.astype(dtype)


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name}")
    return arr


class Block:
    """Base class: parameter/child registration plus the cache stack."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_tape", [])

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Block):
            self._children[name] = value
        object.__setattr__(self, name, value)

    # -- parameter traversal ------------------------------------------------

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def zero_grad(self):
        for p in self.parameters():
            p.grad.fill(0.0)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- cache stack --------------------------------------------------------

    def _save(self, *values):
        self._tape.append(values)

    def _load(self):
        if not self._tape:
            raise GradientStateError(
                f"{type(self).__name__}.backward called before forward")
        return self._tape.pop()

    def clear_caches(self):
        """Drop saved activations (after inference-only forwards)."""
        self._tape.clear()
        for child in self._children.values():
            child.clear_caches()


class BlockList(Block):
    """Sequence container whose members register as children by index."""

    def __init__(self, blocks=()):
        super().__init__()
        self._items = []
        for b in blocks:
            self.append(b)

    def append(self, block: Block):
        self._children[str(len(self._items))] = block
        self._items.append(block)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


# ---------------------------------------------------------------------------
# stateless helpers
# ---------------------------------------------------------------------------


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-max-subtracted softmax; rows sum to one."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(out: np.ndarray, d_out: np.ndarray, axis: int = -1) -> np.ndarray:
    dot = np.sum(d_out * out, axis=axis, keepdims=True)
    return out * (d_out - dot)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu_with_cache(x: np.ndarray):
    """Smooth tanh-form gelu; returns (value, tanh term) for the backward."""
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), t


def gelu_backward(x: np.ndarray, d_out: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    if t is None:
        t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return d_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    return d_out * out * (1.0 - out)


# ---------------------------------------------------------------------------
# parameterised blocks
# ---------------------------------------------------------------------------


class Linear(Block):
    """y = x W + b over the last axis."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        self.weight = Parameter(trunc_normal(rng, (d_in, d_out), dtype=dtype))
        self.bias = Parameter(np.zeros(d_out, dtype=dtype)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.d_in:
            raise ValueError(f"linear expects last dim {self.d_in}, got {x.shape}")
        y = x @ self.weight.data
        if self.bias is not None:
            y = y + self.bias.data
        self._save(x)
        return y

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        (x,) = self._load()
        flat_x = x.reshape(-1, self.d_in)
        flat_d = d_out.reshape(-1, self.d_out)
        self.weight.grad += flat_x.T @ flat_d
        if self.bias is not None:
            self.bias.grad += flat_d.sum(axis=0)
        return (flat_d @ self.weight.data.T).reshape(x.shape)


class LayerNorm(Block):
    """Per-token normalisation over the channel axis with affine transform."""

    def __init__(self, dim: int, dtype=DEFAULT_DTYPE, eps: float = LAYERNORM_EPS):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.scale = Parameter(np.ones(dim, dtype=dtype))
        self.shift = Parameter(np.zeros(dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = np.mean(xc * xc, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * inv
        self._save(xhat, inv)
        return xhat * self.scale.data + self.shift.data

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        xhat, inv = self._load()
        red = tuple(range(d_out.ndim - 1))
        self.scale.grad += (d_out * xhat).sum(axis=red)
        self.shift.grad += d_out.sum(axis=red)
        d_xhat = d_out * self.scale.data
        return inv * (d_xhat
                      - d_xhat.mean(axis=-1, keepdims=True)
                      - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True))


class Attention(Block):
    """Multi-head scaled-dot-product attention.

    ``forward(q, kv)`` runs cross-attention; ``forward(x)`` self-attention.
    Inputs may be [T, C] or batched [B, T, C]; with ``heads=1`` this is the
    single-head cross-attention block.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = Parameter(trunc_normal(rng, (dim, dim), dtype=dtype))
        self.w_k = Parameter(trunc_normal(rng, (dim, dim), dtype=dtype))
        self.w_v = Parameter(trunc_normal(rng, (dim, dim), dtype=dtype))
        self.w_o = Parameter(trunc_normal(rng, (dim, dim), dtype=dtype))
        self.b_q = Parameter(np.zeros(dim, dtype=dtype))
        self.b_k = Parameter(np.zeros(dim, dtype=dtype))
        self.b_v = Parameter(np.zeros(dim, dtype=dtype))
        self.b_o = Parameter(np.zeros(dim, dtype=dtype))

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def forward(self, q_in: np.ndarray, kv_in: np.ndarray | None = None) -> np.ndarray:
        if kv_in is None:
            kv_in = q_in
        if q_in.shape[-1] != self.dim or kv_in.shape[-1] != self.dim:
            raise ValueError(
                f"attention dim {self.dim} does not match inputs "
                f"{q_in.shape} / {kv_in.shape}")
        squeeze = q_in.ndim == 2
        kv_2d = kv_in.ndim == 2
        q3 = q_in[None] if squeeze else q_in
        kv3 = kv_in[None] if kv_2d else kv_in
        q = self._split(q3 @ self.w_q.data + self.b_q.data)
        k = self._split(kv3 @ self.w_k.data + self.b_k.data)
        v = self._split(kv3 @ self.w_v.data + self.b_v.data)
        # a 2D kv alongside batched queries broadcasts as shared keys/values
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        ctx = probs @ v                       # [B, H, Tq, d]
        merged = self._merge(ctx)
        out = merged @ self.w_o.data + self.b_o.data
        self._save(q3, kv3, q, k, v, probs, merged, squeeze, kv_2d)
        return out[0] if squeeze else out

    def last_probs(self) -> np.ndarray:
        """Attention probabilities of the most recent forward (inspection)."""
        if not self._tape:
            raise GradientStateError("no recorded forward")
        probs, squeeze = self._tape[-1][5], self._tape[-1][7]
        return probs[0] if squeeze else probs

    def backward(self, d_out: np.ndarray):
        """Returns (d_q_in, d_kv_in); callers add them when q is kv."""
        q3, kv3, q, k, v, probs, merged, squeeze, kv_2d = self._load()
        d3 = d_out[None] if squeeze else d_out
        self.w_o.grad += merged.reshape(-1, self.dim).T @ d3.reshape(-1, self.dim)
        self.b_o.grad += d3.reshape(-1, self.dim).sum(axis=0)
        d_ctx = self._split(d3 @ self.w_o.data.T)
        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = probs.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = softmax_backward(probs, d_probs) / math.sqrt(self.head_dim)
        d_q = d_scores @ k
        d_k = d_scores.transpose(0, 1, 3, 2) @ q
        d_qf, d_kf, d_vf = self._merge(d_q), self._merge(d_k), self._merge(d_v)

        def flat(a):
            return a.reshape(-1, self.dim)

        self.w_q.grad += flat(q3).T @ flat(d_qf)
        self.b_q.grad += flat(d_qf).sum(axis=0)
        d_q_in = d_qf @ self.w_q.data.T
        if kv_2d:
            # shared keys/values: reduce the batch axis before the projections
            d_kf2 = d_kf.sum(axis=0)
            d_vf2 = d_vf.sum(axis=0)
            kv2 = kv3[0]
            self.w_k.grad += kv2.T @ d_kf2
            self.b_k.grad += d_kf2.sum(axis=0)
            self.w_v.grad += kv2.T @ d_vf2
            self.b_v.grad += d_vf2.sum(axis=0)
            d_kv_in = d_kf2 @ self.w_k.data.T + d_vf2 @ self.w_v.data.T
        else:
            self.w_k.grad += flat(kv3).T @ flat(d_kf)
            self.b_k.grad += flat(d_kf).sum(axis=0)
            self.w_v.grad += flat(kv3).T @ flat(d_vf)
            self.b_v.grad += flat(d_vf).sum(axis=0)
            d_kv_in = d_kf @ self.w_k.data.T + d_vf @ self.w_v.data.T
        if squeeze:
            return d_q_in[0], d_kv_in
        return d_q_in, d_kv_in


class FeedForward(Block):
    """Two linear maps with a gelu in between (hidden ratio 4 by default)."""

    def __init__(self, dim: int, rng: np.random.Generator, ratio: int = 4, dtype=DEFAULT_DTYPE):
        super().__init__()
        hidden = dim * ratio
        self.fc1 = Linear(dim, hidden, rng, dtype=dtype)
        self.fc2 = Linear(hidden, dim, rng, dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.fc1.forward(x)
        a, t = gelu_with_cache(h)
        self._save(h, t)
        return self.fc2.forward(a)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        h, t = self._load()
        d_a = self.fc2.backward(d_out)
        d_h = gelu_backward(h, d_a, t)
        return self.fc1.backward(d_h)


class ConvBNPReLU(Block):
    """1x1 convolution (per-token linear) + batch norm over tokens + PReLU.

    The first training batch seeds the running statistics exactly so that an
    eval pass immediately after one batch reproduces that batch's
    normalisation; later batches blend with momentum.
    """

    def __init__(self, dim: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.dim = dim
        self.conv = Linear(dim, dim, rng, dtype=dtype)
        self.bn_scale = Parameter(np.ones(dim, dtype=dtype))
        self.bn_shift = Parameter(np.zeros(dim, dtype=dtype))
        self.prelu_slope = Parameter(np.full(dim, 0.25, dtype=dtype))
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)
        self.num_batches = 0

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.conv.forward(x)
        if training:
            mu = y.mean(axis=0)
            var = y.var(axis=0)
            if self.num_batches == 0:
                self.running_mean = mu.astype(self.running_mean.dtype)
                self.running_var = var.astype(self.running_var.dtype)
            else:
                m = BATCHNORM_MOMENTUM
                self.running_mean = (1 - m) * self.running_mean + m * mu
                self.running_var = (1 - m) * self.running_var + m * var
            self.num_batches += 1
        else:
            if self.num_batches == 0:
                raise RuntimeError("eval mode before any statistics accumulated")
            mu = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + BATCHNORM_EPS)
        yhat = (y - mu) * inv
        z = yhat * self.bn_scale.data + self.bn_shift.data
        neg = z < 0
        out = np.where(neg, z * self.prelu_slope.data, z)
        self._save(yhat, inv, z, neg, training, y.shape[0])
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        yhat, inv, z, neg, training, n = self._load()
        d_z = np.where(neg, d_out * self.prelu_slope.data, d_out)
        self.prelu_slope.grad += np.where(neg, d_out * z, 0.0).sum(axis=0)
        self.bn_scale.grad += (d_z * yhat).sum(axis=0)
        self.bn_shift.grad += d_z.sum(axis=0)
        d_yhat = d_z * self.bn_scale.data
        if training:
            d_y = inv * (d_yhat
                         - d_yhat.mean(axis=0)
                         - yhat * (d_yhat * yhat).mean(axis=0))
        else:
            d_y = d_yhat * inv
        return self.conv.backward(d_y)
