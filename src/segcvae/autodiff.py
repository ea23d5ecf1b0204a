"""Reverse-mode differentiable tensors on top of numpy.

Every operation records one backward function of its output tensor;
calling ``backward()`` on a scalar result calls them in reverse
topological order and accumulates gradients into ``.grad`` of every
tensor that requires them.  All math is float64 by default so that the
finite-difference checker in :func:`grad_check` is meaningful.

A tensor's first gradient contribution is kept as given.  One that the
backward function allocated itself (a GEMM's result) becomes a buffer the
tensor owns; any other may alias another node's buffer, and the second
contribution then allocates the owned buffer (or, if it is a fresh one,
takes the sum).  Every later contribution adds into the owned buffer in
place, and row gathers scatter straight into it.  So a (V, D) weight
gradient with several GEMM contributions costs one buffer plus the
contribution in hand.  No backward function holds its own output, so a
graph dies with its output by reference counting.  A GEMM's backward reads
only its operands, so a softmax may overwrite the GEMM output it is taken
of: ``model`` does so through the in-place forms ``_gumbel_softmax`` and
``_log_softmax``, and ``_exp_matmul`` recomputes ``exp(logp)`` in its
backward instead of holding it.

``backward()`` frees the graph as it walks it: once a node's backward
function has run, the node drops that function and its parent links and
the walk lets go of it, so its values and gradient are freed unless the
caller holds the tensor.  A non-leaf gradient survives only on a tensor
the caller holds; leaves (the parameters) keep theirs until the caller
clears them, which ``training.train_step`` does once Adam has used them.

``linear(x, w, b)`` is ``add(matmul(x, w), b)`` as one node, the bias
added into the product in place.  The GRU recurrence is one node, input
projection included, that goes back through time in its backward: the
projection lives only while the forward loop reads it, and the node keeps
5*hidden values per row and step for its backward, whose projection part
is ``linear``'s own code, so the gradients have the two-node graph's bits.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateVector, DomainError, SegcvaeError, ShapeError

EPS_NORM = 1e-8

_mode = threading.local()  # a computation record is confined to one thread


def _grad_enabled() -> bool:
    return getattr(_mode, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference paths)."""
    prev = _grad_enabled()
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = prev


def _as_array(values):
    arr = np.asarray(values)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


def _freed(out):
    raise DomainError("backward() already ran through this graph; build it again "
                      "to differentiate it again")


class Tensor:
    """A dense nd-array plus an optional gradient accumulator."""

    __slots__ = ("values", "_grad", "_owns_grad", "requires_grad", "_parents",
                 "_backward", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_array(values)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise DomainError(f"item() needs a single element, shape is {self.values.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.values, requires_grad=False)

    @property
    def grad(self):
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad = g
        self._owns_grad = False  # an assigned array is never written in place

    # -- autograd ------------------------------------------------------
    def _accum(self, g, fresh: bool = False):
        """Add the contribution ``g``; ``fresh`` says the calling backward
        allocated ``g`` itself and holds no other reference to it, so the
        tensor may own it and add into it in place."""
        if self._grad is None:
            self._grad, self._owns_grad = g, fresh  # not fresh: may alias another node's buffer
        elif self._owns_grad:
            self._grad += g
        elif fresh:  # a + b == b + a bit for bit, so the sum may land in g
            g += self._grad
            self._grad, self._owns_grad = g, True
        else:
            self._grad = self._grad + g
            self._owns_grad = True

    def _owned_grad(self) -> np.ndarray:
        """The gradient as a buffer this tensor owns, for in-place adds."""
        if not self._owns_grad:
            self._grad = (np.zeros_like(self.values) if self._grad is None
                          else np.array(self._grad, dtype=self.values.dtype))
            self._owns_grad = True
        return self._grad

    def _accum_at(self, index, g):
        """Scatter-add ``g`` into ``index`` of the gradient, in place."""
        if _is_basic(index):
            self._owned_grad()[index] += g
        else:
            np.add.at(self._owned_grad(), index, g)

    def backward(self, grad=None):
        if grad is None:
            if self.values.size != 1:
                raise DomainError("backward() without gradient needs a scalar output")
            grad = np.ones_like(self.values)
        topo: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.asarray(grad, dtype=self.values.dtype))
        while topo:
            # popped, so the list no longer holds the node: once its backward
            # has run and its links are dropped, only the caller can keep it
            node = topo.pop()
            if node._backward is not None and node._grad is not None:
                node._backward(node)
            if node._backward is not None:
                # the backward function holds the parents: drop it and the
                # parent links so the intermediates die even while the loss lives
                node._backward = _freed
                node._parents = ()

    # -- indexing ------------------------------------------------------
    def __getitem__(self, index):
        return take(self, index)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values, parents: Iterable[Tensor], backward) -> Tensor:
    """Build an output tensor; record ``backward(out)`` only when grads can
    flow.  Only here is ``_backward`` recorded, always with ``requires_grad``."""
    out = Tensor(values)
    if _grad_enabled():
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
    return out


def _binary(a: Tensor, b: Tensor, values, grad_a, grad_b) -> Tensor:
    """A broadcasting two-operand node; ``grad_a``/``grad_b`` map the output
    gradient ``g`` to each operand's, before the broadcast is summed away."""
    def bw(out):
        if a.requires_grad:
            a._accum(_unbroadcast(grad_a(out.grad), a.values.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(grad_b(out.grad), b.values.shape))

    return _node(values, (a, b), bw)


def _unary(a: Tensor, values, grad) -> Tensor:
    """A one-operand node: ``grad(g, y)`` maps the output gradient ``g`` and
    the output values ``y`` to the operand's gradient."""
    return _node(values, (a,), lambda out: a._accum(grad(out.grad, out.values)))


def _is_basic(index) -> bool:
    """Whether ``index`` selects without integer arrays or is one boolean
    mask (so no position repeats and ``buf[index] += g`` is a correct scatter)."""
    if isinstance(index, np.ndarray) and index.dtype == bool:
        return True
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(i, (int, np.integer, slice)) or i is None or i is Ellipsis
               for i in parts)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.values + b.values, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.values - b.values, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.values * b.values,
                   lambda g: g * b.values, lambda g: g * a.values)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.values / b.values, lambda g: g / b.values,
                   lambda g: -g * a.values / (b.values * b.values))


def exp(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.exp(a.values), lambda g, y: g * y)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.sqrt(a.values), lambda g, y: g * 0.5 / y)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.abs(a.values), lambda g, y: g * np.sign(a.values))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    return _unary(a, np.clip(a.values, lo, hi),
                  lambda g, y: g * ((a.values >= lo) & (a.values <= hi)))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.values.sum(axis=axis), lambda g, y: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), a.values.shape).copy())


def tmean(a) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.values.mean(),
                  lambda g, y: np.broadcast_to(g, a.values.shape) / a.values.size)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.values.reshape(shape), lambda g, y: g.reshape(a.values.shape))


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    inverse = None if axes is None else np.argsort(axes)
    return _unary(a, a.values.transpose(axes), lambda g, y: g.transpose(inverse))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(out):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            index = [slice(None)] * out.grad.ndim
            index[axis] = slice(start, stop)
            t._accum(out.grad[tuple(index)])

    return _node(values, tensors, bw)


def take(a, index) -> Tensor:
    """``a[index]`` for any numpy index; an id array gathers rows (an
    embedding lookup), and the gradient is scattered into the touched
    entries only."""
    a = as_tensor(a)
    return _node(a.values[index], (a,), lambda out: a._accum_at(index, out.grad))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _check_matmul(a: Tensor, b: Tensor):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a, b)
    if a.ndim > 2 and b.ndim == 2:
        return _matmul_rows(a, b)
    values = np.matmul(a.values, b.values)

    def bw(out):  # b first, as in _matmul_rows
        if b.requires_grad:
            gb = np.matmul(a.values.swapaxes(-1, -2), out.grad)
            b._accum(_unbroadcast(gb, b.values.shape), fresh=True)
        if a.requires_grad:
            ga = np.matmul(out.grad, b.values.swapaxes(-1, -2))
            a._accum(_unbroadcast(ga, a.values.shape), fresh=True)

    return _node(values, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for a (..., K) ``x``, a (K, N) ``w`` and a bias that
    broadcasts over the (..., N) product, as one node: the product of
    :func:`matmul` with the bias added into it in place, so the values and
    gradients are those of ``add(matmul(x, w), b)``, bit for bit."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x, w)
    if w.ndim != 2:
        raise ShapeError(f"linear needs a 2-d weight, got {w.shape}")
    return _matmul_rows(x, w, b)


def _matmul_rows(a: Tensor, b: Tensor, bias: Tensor = None) -> Tensor:
    """A (..., K) stack times a (K, N) matrix as one GEMM over the flattened
    rows, forward and backward, plus ``bias`` added in place if one is given.
    (A stacked ``np.matmul`` re-reads ``b`` once per stack entry, and its
    weight gradient would be a (..., K, N) stack to sum.)  The backward makes
    the weight's gradient first: when the weight already owns one, the
    product is added into it and freed before the input's gradient exists."""
    values = _rows_product(a.values, b.values, None if bias is None else bias.values)
    return _node(values, (a, b) if bias is None else (a, b, bias),
                 lambda out: _rows_backward(out.grad, a, b, bias))


def _rows_product(a: np.ndarray, b: np.ndarray, bias: np.ndarray = None) -> np.ndarray:
    """The values of :func:`_matmul_rows`."""
    k, n = b.shape
    values = (a.reshape(-1, k) @ b).reshape(a.shape[:-1] + (n,))
    if bias is not None:
        values += bias
    return values


def _rows_backward(g: np.ndarray, a: Tensor, b: Tensor, bias: Tensor = None):
    """Accumulate the gradients of :func:`_rows_product` from its output's
    gradient ``g``: the bias's, then the weight's, then the input's."""
    if bias is not None and bias.requires_grad:
        bias._accum(_unbroadcast(g, bias.values.shape))
    k, n = b.shape
    g = g.reshape(-1, n)
    if b.requires_grad:
        b._accum(a.values.reshape(-1, k).T @ g, fresh=True)
    if a.requires_grad:
        a._accum((g @ b.values.T).reshape(a.shape[:-1] + (k,)), fresh=True)


def softmax_rows(a) -> Tensor:
    """Row softmax over the last axis: a Gumbel-softmax at temperature 1
    without noise."""
    return gumbel_softmax(a, 1.0)


def log_softmax(a) -> Tensor:
    """Row log-softmax over the last axis; ``a`` is left as it is."""
    return _log_softmax(as_tensor(a), in_place=False)


def _log_softmax(a: Tensor, in_place: bool) -> Tensor:
    """:func:`log_softmax`, written over ``a``'s own buffer when ``in_place``:
    for an ``a`` whose values nothing reads again, such as a GEMM's output
    (a GEMM's backward reads only its operands).  Both forms run the same
    operations, so they give the same bits."""
    z = np.subtract(a.values, a.values.max(axis=-1, keepdims=True),
                    out=a.values if in_place else None)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def grad(g, y):
        d = np.exp(y)
        d *= g.sum(axis=-1, keepdims=True)
        return np.subtract(g, d, out=d)

    return _unary(a, z, grad)


def gumbel_softmax(logits, tau: float, rng: "Rng" = None, noise: bool = False,
                   mask: np.ndarray = None) -> Tensor:
    """Temperature-scaled row softmax, optionally perturbed by Gumbel draws.

    With ``noise`` the logits receive i.i.d. Gumbel(0, 1) samples before the
    division by ``tau``; the relaxation is soft (no hard one-hot pass), so
    gradients flow through the softmax as usual.  ``mask``, an array that
    broadcasts to the logits and holds only 0 and -inf, is added to them
    first: a -inf column gets zero weight and zero gradient.  One node: the
    mask, the draws, the scaling and the max-shifted softmax run in place on
    one copy of the logits, which it keeps; ``logits`` is left as it is.
    """
    return _gumbel_softmax(as_tensor(logits), tau, rng, noise, mask, in_place=False)


def _gumbel_softmax(logits: Tensor, tau: float, rng: "Rng", noise: bool,
                    mask: np.ndarray, in_place: bool) -> Tensor:
    """:func:`gumbel_softmax`, run on ``logits``' own buffer when ``in_place``
    (for logits whose values nothing reads again, as in :func:`_log_softmax`)."""
    if tau <= 0:
        raise DomainError(f"temperature must be positive, got {tau}")
    if noise and rng is None:
        raise DomainError("noise=True needs an Rng")
    scale = 1.0 / tau
    z = logits.values if in_place else logits.values.copy()
    if noise:
        z += rng.gumbel(z.shape)
    if mask is not None:
        z += mask
    z *= scale
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)

    def grad(g, y):
        d = g * y
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= y
        d *= scale
        return d

    return _unary(logits, z, grad)


def _exp_matmul(logp: Tensor, w: Tensor) -> Tensor:
    """``matmul(exp(logp), w)`` for 2-d operands as one node whose backward
    recomputes ``exp(logp)`` instead of holding it: the values and gradients
    of the two-node chain, bit for bit, with no (rows, K) array held beside
    ``logp`` (an expected embedding under a log-softmax, K the vocabulary)."""
    values = np.matmul(np.exp(logp.values), w.values)

    def bw(out):  # w first, as in _matmul_rows
        p = np.exp(logp.values)
        if w.requires_grad:
            w._accum(np.matmul(p.swapaxes(-1, -2), out.grad), fresh=True)
        if logp.requires_grad:
            ga = np.matmul(out.grad, w.values.swapaxes(-1, -2))
            ga *= p
            logp._accum(ga, fresh=True)

    return _node(values, (logp, w), bw)


def conv_seq(c, kernel) -> Tensor:
    """Valid 1-d convolution over the sequence axis, full embedding width.

    ``c`` is (B, seq_len, emb) and ``kernel`` (width, emb, 1, channels); the
    result is (B, channels, seq_len - width + 1).
    """
    c, kernel = as_tensor(c), as_tensor(kernel)
    if kernel.ndim != 4 or kernel.shape[2] != 1:
        raise ShapeError(f"kernel must be (width, emb, 1, channels), got {kernel.shape}")
    if c.ndim != 3:
        raise ShapeError(f"input must be (batch, seq, emb), got {c.shape}")
    width, emb, _, channels = kernel.shape
    if c.shape[-1] != emb:
        raise ShapeError(f"embedding width mismatch: input {c.shape[-1]}, kernel {emb}")
    seq_len = c.shape[1]
    if seq_len < width:
        raise ShapeError(f"sequence length {seq_len} shorter than kernel width {width}")
    out_len = seq_len - width + 1
    cv, km = c.values, kernel.values[:, :, 0, :]
    acc = np.zeros((cv.shape[0], out_len, channels), dtype=cv.dtype)
    for i in range(width):
        acc += np.matmul(cv[:, i:i + out_len, :], km[i])

    def bw(out):
        gt = out.grad.swapaxes(-1, -2)  # (B, out_len, channels)
        if c.requires_grad:
            gc = np.zeros_like(cv)
            for i in range(width):
                gc[:, i:i + out_len, :] += np.matmul(gt, km[i].T)
            c._accum(gc)
        if kernel.requires_grad:
            gk = np.zeros_like(kernel.values)
            for i in range(width):
                gk[i, :, 0, :] = np.matmul(cv[:, i:i + out_len, :].swapaxes(-1, -2), gt).sum(axis=0)
            kernel._accum(gk)

    return _node(acc.swapaxes(-1, -2), (c, kernel), bw)


# ---------------------------------------------------------------------------
# recurrent cells
# ---------------------------------------------------------------------------

@dataclass
class GruParams:
    """Fused gate parameters of one gated recurrent cell.

    ``wx``/``wh`` are (in_dim, 3*hidden) and (hidden, 3*hidden); the three
    column blocks are the reset, update and candidate gates in that order.
    """
    wx: Tensor
    wh: Tensor
    bx: Tensor
    bh: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[0]


def gru_params(in_dim: int, hidden_dim: int, rng: "Rng") -> GruParams:
    return GruParams(
        wx=glorot((in_dim, 3 * hidden_dim), rng),
        wh=glorot((hidden_dim, 3 * hidden_dim), rng),
        bx=Tensor(np.zeros(3 * hidden_dim), requires_grad=True),
        bh=Tensor(np.zeros(3 * hidden_dim), requires_grad=True),
    )


def gru_scan(params: GruParams, seq: Tensor, h: Tensor) -> Tensor:
    """The (k*B, T, hidden) states after each step of the (B, T, in_dim)
    ``seq`` from the (k*B, hidden) ``h``: one node, input projection GEMM
    included, with a back-through-time backward.  With k > 1, ``h`` holds k
    branch-major copies of the batch that all read the same ``seq``: its
    projection is computed once and broadcast over the copies, and its
    gradient is the sum over them.  Every step updates the state; padding is
    a suffix, so a caller reads a row's state at its length (``gru_encode``).

    The projection lives only while the loop reads it.  The backward keeps
    5*hidden values per row and step: the reset and update gates, the
    candidate, the reset gate times the candidate's third of ``h @ wh + bh``,
    and the states.  Its arithmetic is that of a separate projection node
    (``linear``) feeding the recurrence, in the same order, so every bit is
    the same; the projection's gradients are accumulated last, bias first."""
    hd, wx, bx, wh, bh = params.hidden_dim, params.wx, params.bx, params.wh, params.bh
    batch, steps = seq.shape[:2]
    rows = h.shape[0] if h.ndim == 2 else -1
    k = rows // batch if batch else 1
    if k < 1 or rows != k * batch:
        raise ShapeError(f"state rows must be a positive multiple of the sequence rows: "
                         f"state {h.shape}, sequence {seq.shape}")
    _check_matmul(seq, wx)
    hs = np.empty((rows, steps + 1, hd))  # h, then the state after each step
    slots = steps if _grad_enabled() else 1  # only a backward reads earlier steps' gates
    ru, n, rg = (np.empty((rows, slots, w * hd)) for w in (2, 1, 1))
    r, u = ru[..., :hd], ru[..., hd:]  # reset and update gates
    # the projection comes after the buffers that outlive it, so that freeing
    # it leaves no hole under them (the process's peak memory is lower)
    gx = _rows_product(seq.values, wx.values, bx.values)
    # per-step scratch, so that the loop allocates nothing
    a, e, gh, tmp = (np.empty((rows, w * hd)) for w in (2, 2, 3, 1))
    nonneg, nxts = np.empty((rows, 2 * hd), dtype=bool), np.empty((2, rows, hd))
    # copy-major views, through which the (B, ...) projection broadcasts
    a_k, tmp_k, gh_k, rg_k = (x.reshape((k, batch) + x.shape[1:]) for x in (a, tmp, gh, rg))
    whv, bhv = wh.values, bh.values
    hs[:, 0] = state = h.values
    for t in range(steps):
        np.add(np.matmul(state, whv, out=gh), bhv, out=gh)
        np.add(gx[:, t, :2 * hd], gh_k[:, :, :2 * hd], out=a_k)
        np.exp(np.negative(np.abs(a, out=e), out=e), out=e)  # stable on both tails
        # the sigmoid is 1/(1+e) where a >= 0 and e/(1+e) elsewhere (NaN stays NaN)
        np.maximum(e, np.greater_equal(a, 0.0, out=nonneg), out=a)
        ru_t = np.divide(a, np.add(e, 1.0, out=e), out=ru[:, t % slots])
        np.multiply(ru_t[:, :hd], gh[:, 2 * hd:], out=rg[:, t % slots])
        np.add(gx[:, t, 2 * hd:], rg_k[:, :, t % slots], out=tmp_k)
        n_t = np.tanh(tmp, out=n[:, t % slots])
        nxt = np.multiply(np.subtract(1.0, ru_t[:, hd:], out=nxts[t % 2]), n_t, out=nxts[t % 2])
        np.add(nxt, np.multiply(ru_t[:, hd:], state, out=tmp), out=nxt)
        hs[:, t + 1] = state = nxt

    def bw(out):
        # the gradient of h @ wh + bh is filled step by step over the factors
        # that map the state's gradient to its reset and update thirds; the
        # candidate's factor, and then its gradient, overwrite the candidate
        d_pre, f_n = np.empty((rows, steps, 3 * hd)), n
        f_r, f_u = d_pre[..., :hd], d_pre[..., hd:2 * hd]
        np.multiply(rg, np.subtract(1.0, r, out=f_r), out=f_r)
        np.multiply(np.subtract(hs[:, :-1], f_n, out=f_u), u, out=f_u)
        np.multiply(f_u, np.subtract(1.0, u, out=rg), out=f_u)
        np.multiply(rg, np.subtract(1.0, np.multiply(f_n, f_n, out=f_n), out=f_n), out=f_n)
        carry = np.zeros((rows, hd))  # gradient of the state entering step t
        dh, d_g, du, dw = (np.empty((rows, w)) for w in (hd, 3 * hd, hd, hd))
        wh_t = wh.values.T
        for t in reversed(range(steps)):
            np.add(out.grad[:, t], carry, out=dh)
            carry.fill(0.0)
            d_an = np.multiply(dh, f_n[:, t], out=f_n[:, t])  # the candidate's pre-activation
            np.multiply(d_an, f_r[:, t], out=d_g[:, :hd])
            np.multiply(dh, f_u[:, t], out=d_g[:, hd:2 * hd])
            np.multiply(d_an, r[:, t], out=d_g[:, 2 * hd:])
            d_pre[:, t] = d_g
            np.add(carry, np.multiply(dh, u[:, t], out=du), out=carry)
            np.add(carry, np.matmul(d_g, wh_t, out=dw), out=carry)
        d_wh = hs[:, :-1].reshape(-1, hd).T @ d_pre.reshape(-1, 3 * hd)
        for p, g in ((h, carry), (wh, d_wh), (bh, d_pre.sum(axis=(0, 1)))):
            if p.requires_grad:
                p._accum(g)
        d_pre[..., 2 * hd:] = f_n  # now the gradient of the projection
        if k > 1:  # every copy read the same projection
            d_pre = d_pre.reshape((k, batch, steps, 3 * hd)).sum(axis=0)
        _rows_backward(d_pre, seq, wx, bx)

    return _node(hs[:, 1:], (seq, wx, bx, h, wh, bh), bw)


def gru_encode(params: GruParams, seq: Tensor, lengths: np.ndarray = None) -> Tensor:
    """Scan the (B, T, in_dim) ``seq`` (as in :func:`gru_scan`) from a zero
    state; return the final (B, hidden) state.  Padding is a suffix: with
    ``lengths``, (B,) counts in 1..T, each row's state is the one after its
    first ``lengths`` steps."""
    if seq.shape[1] == 0:
        raise DomainError("cannot encode an empty sequence")
    if lengths is not None:
        lengths = np.asarray(lengths)
        outside = lengths[(lengths < 1) | (lengths > seq.shape[1])]
        if outside.size:
            raise DomainError(f"length {outside[0]} is outside 1..{seq.shape[1]}")
    states = gru_scan(params, seq, Tensor(np.zeros((seq.shape[0], params.hidden_dim))))
    if lengths is None:
        return states[:, -1]
    return take(states, (np.arange(seq.shape[0]), lengths - 1))


# ---------------------------------------------------------------------------
# stochastic pieces
# ---------------------------------------------------------------------------

class Rng:
    """Deterministic counter-based generator (Philox) with exact state capture."""

    STATE_WORDS = 13  # counter(4) + key(2) + buffer(4) + buffer_pos + has_uint32 + uinteger

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(int(seed)))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def gumbel(self, shape=()) -> np.ndarray:
        return self._gen.gumbel(0.0, 1.0, shape)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def uniform_into(self, low: float, high: float, out: np.ndarray) -> np.ndarray:
        """Write ``uniform(low, high, out.shape)`` into the C-contiguous
        float64 ``out`` and return it: the same bytes and the same end state,
        as numpy draws ``low + (high - low) * U`` with two roundings."""
        self._gen.random(out=out)
        out *= high - low
        out += low
        return out

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def get_state(self) -> np.ndarray:
        s = self._gen.bit_generator.state
        flat = np.concatenate([
            np.asarray(s["state"]["counter"], dtype=np.uint64),
            np.asarray(s["state"]["key"], dtype=np.uint64),
            np.asarray(s["buffer"], dtype=np.uint64),
            np.asarray([s["buffer_pos"], s["has_uint32"], s["uinteger"]], dtype=np.uint64),
        ])
        if flat.size != self.STATE_WORDS:
            raise DomainError(f"rng state has {flat.size} words, want {self.STATE_WORDS}")
        return flat

    def set_state(self, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.uint64)
        if flat.size != self.STATE_WORDS:
            raise DomainError(f"rng state must have {self.STATE_WORDS} words, got {flat.size}")
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": flat[0:4], "key": flat[4:6]},
            "buffer": flat[6:10],
            "buffer_pos": int(flat[10]),
            "has_uint32": int(flat[11]),
            "uinteger": int(flat[12]),
        }


def glorot(shape: tuple[int, ...], rng: Rng) -> Tensor:
    """Fan-balanced uniform initialization for weight matrices."""
    return Tensor(glorot_into(np.empty(shape), rng), requires_grad=True)


def glorot_into(out: np.ndarray, rng: Rng) -> np.ndarray:
    """Draw ``glorot(out.shape, rng)``'s values into the C-contiguous ``out``."""
    fan_in = int(np.prod(out.shape[:-1]))
    fan_out = int(out.shape[-1])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_into(-bound, bound, out)


def reparameterize(mu: Tensor, logvar: Tensor, eps: np.ndarray) -> Tensor:
    """z = mu + exp(logvar/2) * eps for standard-normal draws ``eps`` of
    ``mu``'s shape (another shape is a ShapeError).

    The noise is a constant of the graph: gradients reach only mu and logvar.
    """
    if np.shape(eps) != mu.shape:
        raise ShapeError(f"noise has shape {np.shape(eps)}, want {mu.shape}")
    return add(mu, mul(exp(mul(logvar, 0.5)), eps))


def gaussian_kl(mu_q: Tensor, logvar_q: Tensor, mu_p: Tensor, logvar_p: Tensor) -> Tensor:
    """KL(N(mu_q, diag exp(logvar_q)) || N(mu_p, diag exp(logvar_p))), summed
    over the last axis.  Non-negative by construction."""
    diff = sub(mu_q, mu_p)
    ratio = exp(sub(logvar_q, logvar_p))
    term = add(ratio, mul(mul(diff, diff), exp(mul(logvar_p, -1.0))))
    per_dim = sub(add(term, sub(logvar_p, logvar_q)), 1.0)
    return mul(tsum(per_dim, axis=-1), 0.5)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """Cosine similarity over the last axis; rejects near-zero vectors."""
    u, v = as_tensor(u), as_tensor(v)
    nu = np.sqrt((u.values * u.values).sum(axis=-1))
    nv = np.sqrt((v.values * v.values).sum(axis=-1))
    if np.any(nu <= EPS_NORM) or np.any(nv <= EPS_NORM):
        raise DegenerateVector("cosine of a near-zero vector is undefined")
    dot = tsum(mul(u, v), axis=-1)
    denom = mul(sqrt(tsum(mul(u, u), axis=-1)), sqrt(tsum(mul(v, v), axis=-1)))
    return div(dot, denom)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, inputs: Sequence[Tensor], h: float = 1e-5,
               max_coords: int = None, rng: Rng = None) -> float:
    """Compare reverse-mode gradients of ``f(*inputs)`` against central
    differences; return the maximum elementwise relative error.

    ``f`` must be deterministic and return a scalar tensor.  With
    ``max_coords`` only a random subset of coordinates per input is probed
    (useful for large parameter sets).
    """
    inputs = list(inputs)
    for t in inputs:
        t.grad = None
    out = f(*inputs)
    out.backward()
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        coords = range(flat.size)
        if max_coords is not None and flat.size > max_coords:
            picker = rng if rng is not None else Rng(0)
            coords = sorted(set(int(i) for i in picker.integers(0, flat.size, max_coords)))
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                fp = f(*inputs).item()
            flat[i] = orig - h
            with no_grad():
                fm = f(*inputs).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            ref = a.reshape(-1)[i]
            rel = abs(ref - numeric) / (abs(ref) + abs(numeric) + 1e-12)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# parameter checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_TAG = "segcvae-ckpt-2"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict[str, str] = None):
    """Write named arrays as one flat binary container with a text index.

    Layout: the version tag line, ``meta <key> <value>`` lines, one
    ``array <name> <dtype> <shape> <offset>`` line per array, a blank line,
    then the concatenated raw bytes.  Entries are sorted so identical inputs
    produce identical bytes.  The file is written beside ``path`` and then
    renamed over it, so a write that fails midway leaves ``path`` as it was.
    Each array's own C-contiguous buffer is written as it is (a copy is
    made only of an array that is not C-contiguous), so the bytes equal
    ``arr.tobytes()`` and a save of contiguous arrays copies none of them.
    """
    lines = [CHECKPOINT_TAG]
    for key in sorted(meta or {}):
        lines.append(f"meta {key} {meta[key]}")
    entries = [(name, np.asarray(arrays[name])) for name in sorted(arrays)]
    offset = 0
    for name, arr in entries:
        shape = ",".join(str(d) for d in arr.shape) or "-"
        lines.append(f"array {name} {arr.dtype.name} {shape} {offset}")
        offset += arr.nbytes
    header = ("\n".join(lines) + "\n\n").encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for _, arr in entries:
                fh.write(np.ascontiguousarray(arr))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a ``save_checkpoint`` file, each array into a buffer of its own,
    so the file is never held whole.  An unreadable file, a malformed index
    line, an array name or meta key that repeats, an unknown dtype or an
    array reaching past the end of the body is a SegcvaeError naming the
    file."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(path, fh)
    except OSError as err:
        raise SegcvaeError(f"{path}: cannot read: {err.strerror}") from None


def _read_checkpoint(path, fh) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    index = []
    while (line := fh.readline()) != b"\n":  # the index ends at the first blank line
        if not line.endswith(b"\n"):
            raise SegcvaeError(f"{path}: missing checkpoint header terminator")
        index.append(line)
    try:
        header = b"".join(index).decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise SegcvaeError(f"{path}: checkpoint index is not UTF-8 text")
    body_start = fh.tell()
    body_len = os.fstat(fh.fileno()).st_size - body_start
    if not header or header[0] != CHECKPOINT_TAG:
        raise SegcvaeError(f"{path}: not a {CHECKPOINT_TAG} file")
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    for lineno, line in enumerate(header[1:], start=2):
        kind, _, rest = line.partition(" ")
        if kind == "meta" and " " in rest:
            key, value = rest.split(" ", 1)
            if key in meta:
                raise SegcvaeError(f"{path}:{lineno}: meta key '{key}' repeats")
            meta[key] = value
            continue
        if kind != "array" or rest.count(" ") != 3:
            raise SegcvaeError(f"{path}: malformed index line {lineno}: '{line}'")
        name, dtype_s, shape_s, offset_s = rest.split(" ")
        if name in arrays:
            raise SegcvaeError(f"{path}:{lineno}: array '{name}' repeats")
        try:
            dtype = np.dtype(dtype_s)
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in "biuf":
            raise SegcvaeError(f"{path}: array '{name}' has unknown dtype '{dtype_s}'")
        try:
            shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
            offset = int(offset_s)
        except ValueError:
            raise SegcvaeError(f"{path}: malformed index line {lineno}: '{line}'")
        count = math.prod(shape)
        if min(shape, default=0) < 0 or offset < 0 or offset + count * dtype.itemsize > body_len:
            raise SegcvaeError(f"{path}: array '{name}' reaches past the end of the "
                               f"{body_len}-byte body")
        try:  # a zero-stride view: numpy's shape limits, with nothing allocated
            np.broadcast_to(np.empty((), dtype=dtype), shape)
        except ValueError:  # too many or too large dimensions for numpy
            raise SegcvaeError(f"{path}: array '{name}' has an impossible shape '{shape_s}'")
        arrays[name] = np.empty(shape, dtype=dtype)
        fh.seek(body_start + offset)
        if fh.readinto(arrays[name]) != arrays[name].nbytes:
            raise SegcvaeError(f"{path}: array '{name}' was cut short while it was read")
    return arrays, meta
