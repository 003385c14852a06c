"""Dense differentiable building blocks with hand-written backward passes.

Every block follows the same protocol: ``forward(...)`` computes the output
and pushes the activations it will need onto an internal cache stack;
``backward(upstream)`` pops that cache, accumulates parameter gradients in
place and returns the gradient(s) with respect to the forward inputs.
Because caches form a stack, a block may be applied several times inside one
composite forward pass (e.g. the same attention parameters over K regions)
as long as the composite backward runs in exact reverse order.

Every input carries a leading sample axis S: ``[S, ..., C]``. Samples are
never merged into the rows of one matmul; a matmul over the sample axis runs
the same per-sample product a single sample would. A backward computes each
parameter's gradient per sample, ``[S, *shape]``, and ``Block._accumulate``
adds it in the order a loop of single-sample backwards would (see there).

There is no taping of arbitrary graphs: composite modules chain these
backwards by hand. Forwards run inside ``no_tape()`` record nothing, for
evaluation: they leave any tape already pushed as it was.

A parameter's ``data`` and ``grad`` may be views into one flat buffer shared
by the whole model (the optimizer packs them), so they are written in place
(``[...] =``, ``+=``) and never rebound.

Reductions call the ufunc reductions (``np.add.reduce``, ``np.maximum.reduce``)
and divide in place: that is what ``np.mean``/``np.var`` do, bit for bit,
without their Python wrappers.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32

LAYERNORM_EPS = 1e-6
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1


class GradientStateError(RuntimeError):
    """Raised when backward is called without a matching forward."""


class _Taping(threading.local):
    on = True


_taping = _Taping()


@contextmanager
def no_tape():
    """Forwards inside, in this thread, save no activations: nothing to run
    backward through, and any tape pushed before stays as it was."""
    previous, _taping.on = _taping.on, False
    try:
        yield
    finally:
        _taping.on = previous


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


class Buffer:
    """Marks non-trainable state that checkpoints carry (batch-norm statistics).

    Assigning ``Buffer(array)`` to a block attribute registers it, as a
    Parameter registers; the attribute then holds the array itself, and later
    assignments to that name write into it, so the registered array stays the
    attribute's storage.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.array(data)


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
    """Base class: parameter/buffer/child registration plus the cache stack."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_tape", [])
        object.__setattr__(self, "_pending", {})   # Parameter -> waiting grads

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Buffer):
            value = self._buffers[name] = value.data
        elif isinstance(value, Block):
            self._children[name] = value
        elif name in self._buffers:
            self._buffers[name][...] = value
            return
        object.__setattr__(self, name, value)

    # -- parameter traversal ------------------------------------------------

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        yield from self._params.values()
        for child in self._children.values():
            yield from child.parameters()

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield (prefix + name, b)
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def zero_grad(self):
        for p in self.parameters():
            p.grad.fill(0.0)

    # -- gradient accumulation ----------------------------------------------

    def _accumulate(self, p: Parameter, grads: np.ndarray) -> None:
        """Add per-sample gradients ``grads`` [S, *p.shape] into ``p.grad``.

        They are added in the order of a loop of single-sample backwards run
        from the last sample to the first: sample by sample, and within a
        sample in backward-call order. So while this block's tape still holds
        forwards to run backward through (a block applied several times per
        pass), a parameter's contributions wait; its last one folds them all
        in. One sample with nothing waiting is added at once.
        """
        if len(grads) == 1 and p not in self._pending:
            p.grad += grads[0]
            return
        self._pending.setdefault(p, []).append(grads)
        if not self._tape:
            self._fold(p, self._pending.pop(p))

    @staticmethod
    def _fold(p: Parameter, per_call: list[np.ndarray]) -> None:
        n_samples, n_calls = per_call[0].shape[0], len(per_call)
        rows = np.empty((1 + n_samples * n_calls,) + p.shape, dtype=p.grad.dtype)
        rows[0] = p.grad
        body = rows[1:].reshape((n_samples, n_calls) + p.shape)
        for j, grads in enumerate(per_call):
            body[:, j] = grads[::-1]
        if p.size > 1:
            # an axis-0 reduce adds the rows in order, like a += loop
            np.add.reduce(rows, axis=0, out=p.grad)
        else:
            # a single element would be summed pairwise, so add row by row
            for row in rows[1:]:
                p.grad += row

    # -- cache stack --------------------------------------------------------

    def _save(self, *values):
        if _taping.on:
            self._tape.append(values)

    def _load(self):
        if not self._tape:
            raise GradientStateError(
                f"{type(self).__name__}.backward called before forward")
        return self._tape.pop()

    def clear_caches(self):
        """Drop saved activations (after inference-only forwards)."""
        self._tape.clear()
        self._pending.clear()
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
    e = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def softmax_backward(out: np.ndarray, d_out: np.ndarray, axis: int = -1) -> np.ndarray:
    d_in = d_out - np.add.reduce(d_out * out, axis=axis, keepdims=True)
    d_in *= out
    return d_in


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, bit for bit."""
    out = np.add.reduce(x, axis=-1, keepdims=True)
    out /= x.shape[-1]
    return out


def _mean_tokens(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=1, keepdims=True)`` of [S, K, C], bit for bit."""
    out = np.add.reduce(x, axis=1, keepdims=True)
    out /= x.shape[1]
    return out


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
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    no exp overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid_backward(out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    return d_out * out * (1.0 - out)


# ---------------------------------------------------------------------------
# parameterised blocks
# ---------------------------------------------------------------------------


class Linear(Block):
    """y = x W + b over the last axis of [S, ..., d_in]."""

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
        n = x.shape[0]
        flat_x = x.reshape(n, -1, self.d_in)
        flat_d = d_out.reshape(n, -1, self.d_out)
        self._accumulate(self.weight, flat_x.transpose(0, 2, 1) @ flat_d)
        if self.bias is not None:
            self._accumulate(self.bias, np.add.reduce(flat_d, axis=1))
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
        xhat = x - _mean_last(x)
        inv = _mean_last(xhat * xhat)
        inv += self.eps
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xhat *= inv
        self._save(xhat, inv)
        out = xhat * self.scale.data
        out += self.shift.data
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        xhat, inv = self._load()
        red = tuple(range(1, d_out.ndim - 1))
        self._accumulate(self.scale, np.add.reduce(d_out * xhat, axis=red))
        self._accumulate(self.shift, np.add.reduce(d_out, axis=red))
        d_xhat = d_out * self.scale.data
        d_in = d_xhat - _mean_last(d_xhat)
        d_xhat *= xhat
        d_in -= xhat * _mean_last(d_xhat)
        d_in *= inv
        return d_in


class Attention(Block):
    """Multi-head scaled-dot-product attention.

    ``forward(q, kv)`` runs cross-attention; ``forward(x)`` self-attention.
    Queries are [S, T, C] or [S, G, T, C] (G regions per sample). Keys and
    values have the queries' rank, or one axis less, [S, T', C]: then every
    one of the G query sets reads the same keys and values. With ``heads=1``
    this is the single-head cross-attention block.
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
        """[..., T, C] -> [..., H, T, d]"""
        return x.reshape(x.shape[:-1] + (self.heads, self.head_dim)).swapaxes(-2, -3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        """[..., H, T, d] -> [..., T, C]"""
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (self.dim,))

    def forward(self, q_in: np.ndarray, kv_in: np.ndarray | None = None) -> np.ndarray:
        if kv_in is None:
            kv_in = q_in
        if q_in.shape[-1] != self.dim or kv_in.shape[-1] != self.dim:
            raise ValueError(
                f"attention dim {self.dim} does not match inputs "
                f"{q_in.shape} / {kv_in.shape}")
        shared = kv_in.ndim < q_in.ndim
        q = self._split(q_in @ self.w_q.data + self.b_q.data)
        k = self._split(kv_in @ self.w_k.data + self.b_k.data)
        v = self._split(kv_in @ self.w_v.data + self.b_v.data)
        if shared:   # one key/value set per sample, broadcast over the G axis
            k, v = k[:, None], v[:, None]
        scores = q @ k.swapaxes(-1, -2)
        scores /= math.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        merged = self._merge(probs @ v)       # [S, (G,) Tq, C]
        out = merged @ self.w_o.data + self.b_o.data
        self._save(q_in, kv_in, q, k, v, probs, merged, shared)
        return out

    def last_probs(self) -> np.ndarray:
        """Attention probabilities of the most recent forward (inspection)."""
        if not self._tape:
            raise GradientStateError("no recorded forward")
        return self._tape[-1][5]

    def backward(self, d_out: np.ndarray):
        """Returns (d_q_in, d_kv_in); callers add them when q is kv."""
        q_in, kv_in, q, k, v, probs, merged, shared = self._load()
        n, c = len(d_out), self.dim
        # [S, ..., C] -> [S, rows, C]: a sample's rows, never samples merged
        d_rows = d_out.reshape(n, -1, c)
        self._accumulate(self.w_o, merged.reshape(n, -1, c).transpose(0, 2, 1) @ d_rows)
        self._accumulate(self.b_o, np.add.reduce(d_rows, axis=1))
        d_ctx = self._split(d_out @ self.w_o.data.T)
        d_probs = d_ctx @ v.swapaxes(-1, -2)
        d_v = probs.swapaxes(-1, -2) @ d_ctx
        d_scores = softmax_backward(probs, d_probs)
        d_scores /= math.sqrt(self.head_dim)
        d_q = d_scores @ k
        d_k = d_scores.swapaxes(-1, -2) @ q
        d_qf, d_kf, d_vf = self._merge(d_q), self._merge(d_k), self._merge(d_v)

        d_rows = d_qf.reshape(n, -1, c)
        self._accumulate(self.w_q, q_in.reshape(n, -1, c).transpose(0, 2, 1) @ d_rows)
        self._accumulate(self.b_q, np.add.reduce(d_rows, axis=1))
        d_q_in = d_qf @ self.w_q.data.T
        if shared:
            # shared keys/values: reduce the G axis before the projections
            d_kf = np.add.reduce(d_kf, axis=1)
            d_vf = np.add.reduce(d_vf, axis=1)
        kv_t = kv_in.reshape(n, -1, c).transpose(0, 2, 1)
        d_rows = d_kf.reshape(n, -1, c)
        self._accumulate(self.w_k, kv_t @ d_rows)
        self._accumulate(self.b_k, np.add.reduce(d_rows, axis=1))
        d_rows = d_vf.reshape(n, -1, c)
        self._accumulate(self.w_v, kv_t @ d_rows)
        self._accumulate(self.b_v, np.add.reduce(d_rows, axis=1))
        d_kv_in = d_kf @ self.w_k.data.T + d_vf @ self.w_v.data.T
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

    Inputs are [S, K, C]; each sample is normalised over its own K tokens.
    The first training batch seeds the running statistics exactly so that an
    eval pass immediately after one batch reproduces that batch's
    normalisation; later batches blend with momentum. Each sample of each
    call is one batch. A training call leaves its statistics pending until
    ``update_statistics``, which folds them in sample by sample, in call
    order within a sample.
    """

    def __init__(self, dim: int, rng: np.random.Generator, dtype=DEFAULT_DTYPE):
        super().__init__()
        self.dim = dim
        self.conv = Linear(dim, dim, rng, dtype=dtype)
        self.bn_scale = Parameter(np.ones(dim, dtype=dtype))
        self.bn_shift = Parameter(np.zeros(dim, dtype=dtype))
        self.prelu_slope = Parameter(np.full(dim, 0.25, dtype=dtype))
        self.running_mean = Buffer(np.zeros(dim, dtype=dtype))
        self.running_var = Buffer(np.ones(dim, dtype=dtype))
        self.num_batches = Buffer(np.zeros((), dtype=np.int64))
        self._stats = []   # per training call: (mean, var), each [S, C]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.conv.forward(x)
        if training:
            mu = _mean_tokens(y)
            yc = y - mu
            var = _mean_tokens(yc * yc)
            self._stats.append((mu[:, 0], var[:, 0]))
        else:
            if self.num_batches == 0:
                raise RuntimeError("eval mode before any statistics accumulated")
            yc = y - self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + BATCHNORM_EPS)
        yhat = yc * inv
        z = yhat * self.bn_scale.data + self.bn_shift.data
        neg = z < 0
        out = np.where(neg, z * self.prelu_slope.data, z)
        self._save(yhat, inv, z, neg, training)
        return out

    def update_statistics(self) -> None:
        """Fold the pending batch statistics into the running ones."""
        calls, self._stats = self._stats, []
        m = BATCHNORM_MOMENTUM
        for sample in range(len(calls[0][0]) if calls else 0):
            for mu, var in calls:
                if self.num_batches == 0:
                    self.running_mean = mu[sample]
                    self.running_var = var[sample]
                else:
                    self.running_mean = (1 - m) * self.running_mean + m * mu[sample]
                    self.running_var = (1 - m) * self.running_var + m * var[sample]
                self.num_batches += 1

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        yhat, inv, z, neg, training = self._load()
        d_z = np.where(neg, d_out * self.prelu_slope.data, d_out)
        self._accumulate(self.prelu_slope,
                         np.add.reduce(np.where(neg, d_out * z, 0.0), axis=1))
        self._accumulate(self.bn_scale, np.add.reduce(d_z * yhat, axis=1))
        self._accumulate(self.bn_shift, np.add.reduce(d_z, axis=1))
        d_yhat = d_z * self.bn_scale.data
        if training:
            d_y = d_yhat - _mean_tokens(d_yhat)
            d_yhat *= yhat
            d_y -= yhat * _mean_tokens(d_yhat)
            d_y *= inv
        else:
            d_y = d_yhat * inv
        return self.conv.backward(d_y)
