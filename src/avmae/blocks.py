"""Dense differentiable building blocks with hand-written backward passes.

Every block follows the same protocol: ``forward(...)`` computes the output
and pushes the activations it will need onto an internal cache stack, less
those the backward rebuilds with the forward's own calls on the others and
the inputs its caller hands back (a LayerNorm's output, which
``LayerNorm.output`` rebuilds, or an array the caller tapes itself; a
``Linear`` tapes nothing, and the block that owns it hands its input back);
``backward(upstream, ...)`` pops that cache, adds the parameter gradients and
returns the gradient(s) with respect to the forward inputs.
Because caches form a stack, a block may be applied several times inside one
composite forward pass (e.g. the same attention parameters over K regions)
as long as the composite backward runs in exact reverse order.

Every input carries a leading sample axis S: ``[S, ..., C]``. Samples are
never merged into the rows of one matmul; a matmul over the sample axis runs
the same per-sample product a single sample would. A backward writes each
parameter's gradient per sample, ``[S, *shape]``, into its call's slot of the
block's gradient slab (``Block._grad_slots``). After the last backward call
of the pass, the block folds the slab into its gradients once
(``Block._fold_grads``), in the order a loop of single-sample backwards would
add them (see there).

There is no taping of arbitrary graphs: composite modules chain these
backwards by hand. Forwards run inside ``no_tape()`` record nothing, for
evaluation: they leave any tape already pushed as it was.

Blocks build in float32 (``DEFAULT_DTYPE``); ``Block.double`` widens a
block's tree in place into the float64 twin that checks and oracles run.
A parameter's ``data`` and ``grad`` may be views into one flat arena owned by
an enclosing block (``Block.pack``), so they are written in place
(``[...] =``, ``+=``) and never rebound; a packed block keeps its dtype.

Reductions call the ufunc reductions (``np.add.reduce``, ``np.maximum.reduce``)
and divide in place: that is what ``np.mean``/``np.var`` do, bit for bit,
without their Python wrappers. Softmax reduces many short rows from one copy
with the rows innermost (``_rows_innermost``); its sums there replay numpy's
pairwise order one step across all rows at a time (``_column_sums``), so they
keep the bits of one reduce per row. Attention writes its head products
straight into their merged [.., T, C] layout (``np.matmul(..., out=)``): a
BLAS output's stride is not part of its bits.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32

INIT_STD = 0.02  # of every truncated-normal weight initialisation
LAYERNORM_EPS = 1e-6
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1


class GradientStateError(RuntimeError):
    """Raised when backward is called without a matching forward, or a block
    runs a taped forward while its backward pass is open."""


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


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) redrawn until every entry lies within 2 INIT_STD.

    Each pass redraws the out-of-range entries in ascending order and
    rechecks only those; after 16 passes the ones still out are clipped.
    """
    limit = 2.0 * INIT_STD
    flat = rng.normal(0.0, INIT_STD, size=shape).reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > limit)
    for _ in range(16):
        if not bad.size:
            break
        flat[bad] = rng.normal(0.0, INIT_STD, size=bad.size)
        bad = bad[np.abs(flat[bad]) > limit]
    flat[bad] = np.clip(flat[bad], -limit, limit)
    return flat.reshape(shape).astype(DEFAULT_DTYPE)


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
        object.__setattr__(self, "_slots", [])       # (start, stop, shape) per own param
        object.__setattr__(self, "_slab", None)      # this pass's per-sample grads
        object.__setattr__(self, "_own_grad", None)  # own params' grad slice, once packed
        object.__setattr__(self, "_arena", None)     # (data, grad) once packed

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
            self._slots.clear()
            start = 0
            for p in self._params.values():
                self._slots.append((start, start + p.size, p.shape))
                start += p.size
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

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield (prefix + name, b)
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def _walk(self):
        """This block and its descendants, in ``named_parameters`` order."""
        yield self
        for child in self._children.values():
            yield from child._walk()

    def pack(self) -> tuple[np.ndarray, np.ndarray]:
        """Move the parameters into one flat ``data`` and one flat ``grad``
        array, in ``named_parameters`` order, with each ``Parameter.data`` and
        ``.grad`` a view of its slice; return ``(data, grad)``, the same two
        on every later call. Each block's own parameters are contiguous there,
        and the block keeps their grad slice. A parameter packs once: packing
        one that another block packed, or parameters of two dtypes, is a
        ValueError."""
        if self._arena is None:
            named = list(self.named_parameters())
            dtypes = {p.data.dtype for _, p in named}
            if len(dtypes) > 1:
                raise ValueError("packing needs parameters of one dtype, got "
                                 + ", ".join(sorted(str(d) for d in dtypes)))
            for name, p in named:
                # a Parameter allocates its own grad; only packing makes it a view
                if p.grad.base is not None:
                    raise ValueError(f"parameter {name} is already packed by another block")
            dtype = dtypes.pop() if dtypes else DEFAULT_DTYPE
            total = sum(p.size for _, p in named)
            data, grad = np.empty(total, dtype), np.empty(total, dtype)
            start = 0
            for block in self._walk():
                own_start = start
                for p in block._params.values():
                    stop = start + p.size
                    data[start:stop] = p.data.ravel()
                    grad[start:stop] = p.grad.ravel()
                    p.data = data[start:stop].reshape(p.shape)
                    p.grad = grad[start:stop].reshape(p.shape)
                    start = stop
                block._own_grad = grad[own_start:start]
            self._arena = data, grad
        return self._arena

    def zero_grad(self):
        self.pack()[1].fill(0.0)

    def double(self) -> Block:
        """Widen every parameter (data and grad) and every floating buffer of
        the tree to float64, in place, and return the block: the float64 twin
        that checks and oracles run, holding the float32 block's values.
        Integer buffers stay as they are. A packed block keeps its dtype:
        doubling one is a ValueError that converts nothing."""
        for name, p in self.named_parameters():
            if p.grad.base is not None:
                raise ValueError(f"parameter {name} is packed; a packed block keeps its dtype")
        for _, p in self.named_parameters():
            p.data, p.grad = p.data.astype(np.float64), p.grad.astype(np.float64)
        for block in self._walk():
            for name, b in block._buffers.items():
                if b.dtype.kind == "f":
                    wide = block._buffers[name] = b.astype(np.float64)
                    object.__setattr__(block, name, wide)
        return self

    # -- gradient slab --------------------------------------------------------

    def _grad_row(self, n_samples: int) -> np.ndarray:
        """This backward call's [S, own size] row of the pass's gradient slab,
        own parameters in registration order, for the call to write once
        before ``_fold_grads``. The pass's first call opens the slab
        [S, calls, own size], one call per taped forward, with samples stored
        last to first and calls in backward order."""
        slab = self._slab
        if slab is None:
            slab = np.empty((n_samples, len(self._tape) + 1, self._slots[-1][1]),
                            dtype=next(iter(self._params.values())).grad.dtype)
            object.__setattr__(self, "_slab", slab)
        return slab[::-1, slab.shape[1] - 1 - len(self._tape)]

    def _grad_slots(self, n_samples: int) -> list[np.ndarray]:
        """One [S, *shape] view of ``_grad_row`` per own parameter."""
        row = self._grad_row(n_samples)
        return [row[:, start:stop].reshape((n_samples,) + shape)
                for start, stop, shape in self._slots]

    def _fold_grads(self) -> None:
        """After the pass's last backward call (tape empty), add the slab to
        the own gradients in the order of single-sample backwards run last
        sample first: ``own_grad`` goes into the first row (IEEE addition
        commutes, signed zeros included), then an axis-0 reduce adds the rows
        in order, like a ``+=`` loop. One sample's rows, and a single
        element's (which a reduce sums pairwise), are added by ``+=``."""
        if self._tape:
            return
        slab = self._slab
        rows = slab.reshape(-1, slab.shape[-1])
        object.__setattr__(self, "_slab", None)
        own = self._own_grad
        if own is None:   # never packed: fold a copy, then write it back
            own = np.concatenate([p.grad.ravel() for p in self._params.values()])
        if len(slab) > 1 and own.size > 1:
            rows[0] += own
            np.add.reduce(rows, axis=0, out=own)
        else:
            for row in rows:
                own += row
        if self._own_grad is None:
            for p, (start, stop, shape) in zip(self._params.values(), self._slots):
                p.grad[...] = own[start:stop].reshape(shape)

    # -- cache stack --------------------------------------------------------

    def _save(self, *values):
        if _taping.on:
            if self._slab is not None:
                raise GradientStateError(
                    f"{type(self).__name__}.forward during its backward pass")
            self._tape.append(values)

    def _load(self):
        if not self._tape:
            raise GradientStateError(
                f"{type(self).__name__}.backward called before forward")
        return self._tape.pop()

    def clear_caches(self):
        """Drop saved activations (after inference-only forwards)."""
        self._tape.clear()
        object.__setattr__(self, "_slab", None)
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


# Softmax rows are reduced from one copy of the array with the rows innermost
# ([keys, rows], ``_rows_innermost``) where that was measured faster than one
# short reduce per row (see the README): rows along the last axis, of 2 to 16
# keys at any size and of up to 48 keys in arrays of up to 1 MiB, in arrays of
# at least 256 rows. Past 1 MiB numpy's transposed copy, which is not blocked,
# rereads the array about once per key; below 256 rows, or at more keys, the
# copy and the whole-row adds cost more than the per-row reduces save.
_COPY_MIN_ROWS = 256
_COPY_SHORT_KEYS = 16
_COPY_KEYS = 48
_COPY_BYTES = 1 << 20


def _rows_innermost(x: np.ndarray, axis: int) -> bool:
    """Whether softmax reduces x's rows along ``axis`` from a rows-innermost
    copy. Only array attributes are read: the test runs on every call."""
    keys = x.shape[axis]
    return (1 < keys <= _COPY_KEYS and x.size >= _COPY_MIN_ROWS * keys
            and axis in (-1, x.ndim - 1)
            and (keys <= _COPY_SHORT_KEYS or x.nbytes <= _COPY_BYTES))


def _columns(x: np.ndarray) -> np.ndarray:
    """A C-contiguous [keys, rows] copy of x's last-axis rows."""
    return x.reshape(-1, x.shape[-1]).T.copy()


def _column_sums(cols: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each column of a C-contiguous [keys, rows] array,
    bit for bit: numpy's pairwise order per row, each step one add across all
    rows. numpy sums a row of n entries as ``0 + pairwise(row)``: below 8
    entries in order; up to 128 into 8 accumulators over blocks of 8, then
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail in order; above
    128 as the sum of two halves split at a multiple of 8. A reduce along the
    leading axis adds in order starting from the identity 0, so it gives the
    short rows and the accumulators. Moving that 0 from the root to the
    leaves only changes the sign of zero partial sums, and a sum with a +0
    leaf is never -0, as ``0 + pairwise`` is not. Only NaN signs or payloads
    may differ, where two different NaNs meet (``verify`` checks all of it).
    """
    n = len(cols)
    if n > 128:
        half = n // 2 - n // 2 % 8
        sums = _column_sums(cols[:half])
        sums += _column_sums(cols[half:])
        return sums
    if n < 8:
        return np.add.reduce(cols, axis=0)
    blocks = n - n % 8
    acc = np.add.reduce(cols[:blocks].reshape(blocks // 8, 8, -1), axis=0)
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    sums = acc[0] + acc[1]
    for row in cols[blocks:]:
        sums += row
    return sums


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-max-subtracted softmax; rows sum to one. Where
    ``_rows_innermost`` holds, the maxima, the subtraction, the exp, the sums
    and the division all run on one rows-innermost copy, which is copied back
    (C-contiguous) at the end. A maximum is one of its entries in any order;
    only a zero maximum's sign, or a NaN maximum's bits, can change, and
    ``exp`` maps ``x - (±0)`` to the same value."""
    if _rows_innermost(x, axis):
        cols = _columns(x)
        cols -= np.maximum.reduce(cols, axis=0)
        np.exp(cols, out=cols)
        cols /= _column_sums(cols)
        return cols.T.copy().reshape(x.shape)
    e = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def softmax_backward(out: np.ndarray, d_out: np.ndarray, axis: int = -1) -> np.ndarray:
    d_in = d_out * out
    if _rows_innermost(d_in, axis):
        dots = _column_sums(_columns(d_in)).reshape(d_in.shape[:-1] + (1,))
    else:
        dots = np.add.reduce(d_in, axis=axis, keepdims=True)
    np.subtract(d_out, dots, out=d_in)
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
    """Smooth tanh-form gelu; returns (value, tanh term) for the backward.

    The tanh term is t = tanh(c * (x + a * x * x * x)) and the value
    0.5 * x * (1 + t)."""
    t = _GELU_A * x
    t *= x
    t *= x
    np.add(x, t, out=t)
    np.multiply(_GELU_C, t, out=t)
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def gelu_backward(x: np.ndarray, d_out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d_out * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du), where t is
    ``gelu_with_cache``'s tanh term and du = c * (1 + 3 * a * x * x),
    evaluated in that order in three arrays."""
    du = 3.0 * _GELU_A * x
    du *= x
    np.add(1.0, du, out=du)
    np.multiply(_GELU_C, du, out=du)
    slope = 0.5 * x
    d_in = t * t
    np.subtract(1.0, d_in, out=d_in)
    slope *= d_in
    slope *= du
    np.add(1.0, t, out=d_in)
    np.multiply(0.5, d_in, out=d_in)
    d_in += slope
    np.multiply(d_out, d_in, out=d_in)
    return d_in


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, with the bias added into the product."""
    y = x @ w
    y += b
    return y


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

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        self.weight = Parameter(trunc_normal(rng, (d_in, d_out)))
        self.bias = Parameter(np.zeros(d_out, dtype=DEFAULT_DTYPE))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Tapes no input: the block that owns the Linear hands it back."""
        if x.shape[-1] != self.d_in:
            raise ValueError(f"linear expects last dim {self.d_in}, got {x.shape}")
        self._save()
        return _affine(x, self.weight.data, self.bias.data)

    def backward(self, d_out: np.ndarray, x: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """x: the forward's input, handed back. Returns its gradient, or None
        with ``input_grad=False`` (for a caller that has no use for it)."""
        self._load()
        n = x.shape[0]
        flat_x = x.reshape(n, -1, self.d_in)
        flat_d = d_out.reshape(n, -1, self.d_out)
        g_weight, g_bias = self._grad_slots(n)
        np.matmul(flat_x.transpose(0, 2, 1), flat_d, out=g_weight)
        np.add.reduce(flat_d, axis=1, out=g_bias)
        self._fold_grads()
        return (flat_d @ self.weight.data.T).reshape(x.shape) if input_grad else None


class LayerNorm(Block):
    """Per-token normalisation over the channel axis with affine transform."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.scale = Parameter(np.ones(dim, dtype=DEFAULT_DTYPE))
        self.shift = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))

    def forward(self, x: np.ndarray) -> np.ndarray:
        xhat = x - _mean_last(x)
        inv = _mean_last(xhat * xhat)
        inv += LAYERNORM_EPS
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xhat *= inv
        self._save(xhat, inv)
        return self._scale_shift(xhat)

    def _scale_shift(self, xhat: np.ndarray) -> np.ndarray:
        out = xhat * self.scale.data
        out += self.shift.data
        return out

    def output(self) -> np.ndarray:
        """The output of the forward whose entry tops the tape, rebuilt bit
        for bit from its ``xhat`` with the forward's own ops, for a consumer
        that did not tape it; the entry stays for the backward."""
        if not self._tape:
            raise GradientStateError("LayerNorm.output called before forward")
        return self._scale_shift(self._tape[-1][0])

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        xhat, inv = self._load()
        red = tuple(range(1, d_out.ndim - 1))
        g_scale, g_shift = self._grad_slots(len(d_out))
        np.add.reduce(d_out * xhat, axis=red, out=g_scale)
        np.add.reduce(d_out, axis=red, out=g_shift)
        self._fold_grads()
        d_xhat = d_out * self.scale.data
        d_in = d_xhat - _mean_last(d_xhat)
        d_xhat *= xhat
        np.multiply(xhat, _mean_last(d_xhat), out=d_xhat)
        d_in -= d_xhat
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

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = Parameter(trunc_normal(rng, (dim, dim)))
        self.w_k = Parameter(trunc_normal(rng, (dim, dim)))
        self.w_v = Parameter(trunc_normal(rng, (dim, dim)))
        self.w_o = Parameter(trunc_normal(rng, (dim, dim)))
        self.b_q = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))
        self.b_k = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))
        self.b_v = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))
        self.b_o = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))

    def _split(self, x: np.ndarray) -> np.ndarray:
        """[..., T, C] -> [..., H, T, d]"""
        return x.reshape(x.shape[:-1] + (self.heads, self.head_dim)).swapaxes(-2, -3)

    def forward(self, q_in: np.ndarray, kv_in: np.ndarray | None = None) -> np.ndarray:
        """The tape keeps neither input: the caller hands them back to the
        backward."""
        if kv_in is None:
            kv_in = q_in
        if q_in.shape[-1] != self.dim or kv_in.shape[-1] != self.dim:
            raise ValueError(
                f"attention dim {self.dim} does not match inputs "
                f"{q_in.shape} / {kv_in.shape}")
        shared = kv_in.ndim < q_in.ndim
        q = self._split(_affine(q_in, self.w_q.data, self.b_q.data))
        k = self._split(_affine(kv_in, self.w_k.data, self.b_k.data))
        v = self._split(_affine(kv_in, self.w_v.data, self.b_v.data))
        if shared:   # one key/value set per sample, broadcast over the G axis
            k, v = k[:, None], v[:, None]
        scores = q @ k.swapaxes(-1, -2)
        scores /= math.sqrt(self.head_dim)
        probs = softmax(scores, axis=-1)
        merged = np.empty(q_in.shape, dtype=probs.dtype)   # [S, (G,) Tq, C]
        np.matmul(probs, v, out=self._split(merged))
        out = _affine(merged, self.w_o.data, self.b_o.data)
        self._save(q, k, v, probs, shared)
        return out

    def last_probs(self) -> np.ndarray:
        """Attention probabilities of the most recent forward (inspection)."""
        if not self._tape:
            raise GradientStateError("no recorded forward")
        return self._tape[-1][3]

    def backward(self, d_out: np.ndarray, q_in: np.ndarray,
                 kv_in: np.ndarray | None = None):
        """Returns (d_q_in, d_kv_in); callers add them when q is kv.

        ``q_in`` and ``kv_in`` are the forward's inputs, handed back; a
        self-attention hands back ``q_in`` only. The head products are
        written straight into their merged [.., T, C] layouts: d_q, d_k and
        d_v side by side in one [.., 3C] array when the queries and keys have
        the same rows, else d_k and d_v in one [.., 2C], so each set of bias
        gradients is one reduce. The merged head products are rebuilt by the
        forward's own call, not taped.
        """
        q, k, v, probs, shared = self._load()
        if kv_in is None:
            kv_in = q_in
        n, c = len(d_out), self.dim
        row = self._grad_row(n)
        g_w = row[:, :4 * c * c].reshape(n, 4, c, c)   # w_q, w_k, w_v, w_o
        g_b = row[:, 4 * c * c:]                       # b_q, b_k, b_v, b_o
        merged = np.empty(q_in.shape, dtype=probs.dtype)
        np.matmul(probs, v, out=self._split(merged))
        # [S, ..., C] -> [S, rows, C]: a sample's rows, never samples merged
        d_rows = d_out.reshape(n, -1, c)
        np.matmul(merged.reshape(n, -1, c).transpose(0, 2, 1), d_rows, out=g_w[:, 3])
        del merged
        np.add.reduce(d_rows, axis=1, out=g_b[:, 3 * c:])
        d_ctx = self._split(d_out @ self.w_o.data.T)
        d_probs = d_ctx @ v.swapaxes(-1, -2)
        lead, (t_q, t_k) = probs.shape[:-3], probs.shape[-2:]   # [S, (G,)]
        same_rows = not shared and t_q == t_k
        if same_rows:
            d_qkv = np.empty(lead + (t_q, 3 * c), dtype=probs.dtype)
            d_qf, d_kv = d_qkv[..., :c], d_qkv[..., c:]
        else:
            d_qf = np.empty(lead + (t_q, c), dtype=probs.dtype)
            d_kv = np.empty(lead + (t_k, 2 * c), dtype=probs.dtype)
        d_kf, d_vf = d_kv[..., :c], d_kv[..., c:]
        np.matmul(probs.swapaxes(-1, -2), d_ctx, out=self._split(d_vf))
        d_scores = softmax_backward(probs, d_probs)
        d_scores /= math.sqrt(self.head_dim)
        np.matmul(d_scores, k, out=self._split(d_qf))
        np.matmul(d_scores.swapaxes(-1, -2), q, out=self._split(d_kf))

        np.matmul(q_in.reshape(n, -1, c).transpose(0, 2, 1), d_qf.reshape(n, -1, c),
                  out=g_w[:, 0])
        d_q_in = d_qf @ self.w_q.data.T
        if same_rows:
            np.add.reduce(d_qkv.reshape(n, -1, 3 * c), axis=1, out=g_b[:, :3 * c])
        else:
            np.add.reduce(d_qf.reshape(n, -1, c), axis=1, out=g_b[:, :c])
            if shared:
                # shared keys/values: reduce the G axis before the projections
                d_kv = np.add.reduce(d_kv, axis=1)
                d_kf, d_vf = d_kv[..., :c], d_kv[..., c:]
            np.add.reduce(d_kv.reshape(n, -1, 2 * c), axis=1, out=g_b[:, c:3 * c])
        kv_t = kv_in.reshape(n, -1, c).transpose(0, 2, 1)
        np.matmul(kv_t, d_kf.reshape(n, -1, c), out=g_w[:, 1])
        np.matmul(kv_t, d_vf.reshape(n, -1, c), out=g_w[:, 2])
        self._fold_grads()
        d_kv_in = d_kf @ self.w_k.data.T
        d_kv_in += d_vf @ self.w_v.data.T
        return d_q_in, d_kv_in


class FeedForward(Block):
    """Two linear maps with a gelu in between; the hidden width is 4 * dim.
    The tape keeps the pre-activation h only: the backward rebuilds the gelu
    value, which ``fc2`` did not keep, and its tanh term from h, and takes
    the input, which ``fc1`` did not keep, back from the caller (every caller
    feeds a LayerNorm's output and rebuilds it with ``LayerNorm.output``)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        hidden = dim * 4
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.fc1.forward(x)
        self._save(h)
        return self.fc2.forward(gelu_with_cache(h)[0])

    def backward(self, d_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        """x: the forward's input, handed back."""
        (h,) = self._load()
        a, t = gelu_with_cache(h)
        d_a = self.fc2.backward(d_out, a)
        del a
        d_h = gelu_backward(h, d_a, t)
        return self.fc1.backward(d_h, x)


class ConvBNPReLU(Block):
    """1x1 convolution (per-token linear) + batch norm over tokens + PReLU.

    Inputs are [S, K, C]; each sample is normalised over its own K tokens.
    Each sample of each training call is one batch: the call blends the
    samples' statistics into the running ones as it computes them, in sample
    order. The first batch seeds them exactly, so that an eval pass right
    after one batch reproduces that batch's normalisation; later batches
    blend with momentum.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.conv = Linear(dim, dim, rng)
        self.bn_scale = Parameter(np.ones(dim, dtype=DEFAULT_DTYPE))
        self.bn_shift = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE))
        self.prelu_slope = Parameter(np.full(dim, 0.25, dtype=DEFAULT_DTYPE))
        self.running_mean = Buffer(np.zeros(dim, dtype=DEFAULT_DTYPE))
        self.running_var = Buffer(np.ones(dim, dtype=DEFAULT_DTYPE))
        self.num_batches = Buffer(np.zeros((), dtype=np.int64))

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        y = self.conv.forward(x)
        if training:
            mu = _mean_tokens(y)
            yc = y - mu
            var = _mean_tokens(yc * yc)
            self._fold_statistics(mu[:, 0], var[:, 0])
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
        self._save(x, yhat, inv, training)
        return out

    def _fold_statistics(self, mu: np.ndarray, var: np.ndarray) -> None:
        """Blend the per-sample statistics [S, C] in, one sample at a time,
        in place in the buffers; the batch count is written once."""
        m = BATCHNORM_MOMENTUM
        mean, run_var, count = self.running_mean, self.running_var, int(self.num_batches)
        for mu_s, var_s in zip(mu, var):
            if count == 0:
                mean[...] = mu_s
                run_var[...] = var_s
            else:
                mean[...] = (1 - m) * mean + m * mu_s
                run_var[...] = (1 - m) * run_var + m * var_s
            count += 1
        self.num_batches = count

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        x, yhat, inv, training = self._load()
        z = yhat * self.bn_scale.data + self.bn_shift.data   # the forward's own ops
        neg = z < 0
        d_z = np.where(neg, d_out * self.prelu_slope.data, d_out)
        g_scale, g_shift, g_slope = self._grad_slots(len(d_out))
        np.add.reduce(np.where(neg, d_out * z, 0.0), axis=1, out=g_slope)
        np.add.reduce(d_z * yhat, axis=1, out=g_scale)
        np.add.reduce(d_z, axis=1, out=g_shift)
        self._fold_grads()
        d_yhat = d_z * self.bn_scale.data
        if training:
            d_y = d_yhat - _mean_tokens(d_yhat)
            d_yhat *= yhat
            d_y -= yhat * _mean_tokens(d_yhat)
            d_y *= inv
        else:
            d_y = d_yhat * inv
        return self.conv.backward(d_y, x)
