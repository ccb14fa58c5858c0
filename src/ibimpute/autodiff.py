"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every model and loss in this package is built from the ops here.  Forward ops
compute with numpy and, when a :class:`Tape` is active, append one node per
call; :meth:`Tape.backward` walks the nodes once in reverse, so a chain of k
ops costs k backward visits and never re-runs the forward pass.  With no
active tape the same ops run in plain inference mode and record nothing.

:func:`matmul` with a 2-D right operand (every affine weight in the model) is
the shared-weight case: the left operand's leading dims fold into rows, so
the forward is one ``[rows, in] @ [in, out]`` GEMM and the backward is two,
``g @ w.T`` for the input and ``a.T @ g`` for the weight, with no
``[..., in, out]`` per-batch product to sum.  Only a batched right operand,
such as attention's ``q @ k.T``, takes numpy's broadcasting matmul and sums
its gradients back down to the operand shapes.

Large results (at least ``POOL_FLOOR`` elements, 256 KiB of float64) are
written with ``out=`` into views of buffers that a module-level pool keeps for
the life of the process, so a training step reuses the previous step's memory
instead of freeing it to the allocator and faulting it back in.  This covers
the matmul forward and both gradients, the forwards of the elementwise ops
and their backward products, ``tmean``'s backward and the gradient sums in
:meth:`Tape.backward`; smaller arrays take numpy's own allocation.  A buffer
is handed out again only when the pool holds its last reference (a CPython
refcount, calibrated at import), so while any tensor, view or gradient of it
is alive nothing else writes there, and every value is the one numpy would
compute without the pool.  Buffer sizes are rounded up to four significant
bits (classes 1/8 octave apart), and a request takes the smallest free buffer
that holds it and is less than twice its size, so a short last batch reuses
the full batches' buffers.  The pool never shrinks: after a fit it keeps
about one step's large buffers.

Tensors are immutable by convention while a tape that saw them is alive.  The
exception is a model's parameters: views of one flat buffer that the optimizer
updates in place once :meth:`Tape.backward` is done (:meth:`Gradients.flat`
lays their gradients out the same way).  The active tape is a module-level
slot: one tape per thread, no nesting.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands do not conform for the requested op."""


class DomainError(ValueError):
    """Input outside an op's mathematical domain (log of <= 0, etc.)."""


class TapeError(RuntimeError):
    """Misuse of the recording tape."""


_uid = itertools.count()

POOL_FLOOR = 32768  # elements: 256 KiB of float64


def _size_class(n: int) -> int:
    """``n`` rounded up to its four leading bits."""
    shift = max(n.bit_length() - 4, 0)
    return -(-n >> shift) << shift


def _scan_refs() -> int:
    """The refcount a buffer referenced only by its pool bucket shows inside
    :meth:`_BufferPool.take`'s scan (same loop shape, so the same count)."""
    for buf in [np.empty(1)]:
        return sys.getrefcount(buf)


_FREE_REFS = _scan_refs()


class _BufferPool:
    """Float64 buffers by capacity; a view of a free one serves a request."""

    def __init__(self):
        self._buckets: dict[int, list[np.ndarray]] = {}
        self._caps: list[int] = []  # sorted keys of _buckets
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def take(self, shape: tuple[int, ...], size: int) -> np.ndarray:
        with self._lock:
            for cap in self._caps[bisect.bisect_left(self._caps, size):]:
                if cap >= 2 * size:
                    break
                for buf in self._buckets[cap]:
                    if sys.getrefcount(buf) == _FREE_REFS:
                        return buf[:size].reshape(shape)
            cap = _size_class(size)
            if cap not in self._buckets:
                self._buckets[cap] = []
                bisect.insort(self._caps, cap)
            buf = np.empty(cap)
            self._buckets[cap].append(buf)
            return buf[:size].reshape(shape)


_POOL = _BufferPool()


def _buffer(shape: tuple[int, ...]) -> np.ndarray | None:
    """A pooled ``out=`` array for a large result, else None (numpy allocates)."""
    size = math.prod(shape)
    return _POOL.take(shape, size) if size >= POOL_FLOOR else None


class Tensor:
    """Contiguous row-major float64 array, optionally marked trainable."""

    __slots__ = ("data", "trainable", "uid")

    def __init__(self, data, trainable: bool = False):
        # asarray with order="C", not ascontiguousarray: the latter would
        # silently promote 0-d scalars to shape (1,)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.trainable = trainable
        self.uid = next(_uid)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Fresh constant sharing no graph history (stop-gradient)."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, trainable={self.trainable})"

    # arithmetic sugar; scalars and arrays are lifted to constants
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return negate(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, index):
        return take(self, index)

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self) -> "Tensor":
        return transpose(self)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class _Node:
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: "callable"  # out_grad -> tuple of grads aligned with inputs


_ACTIVE: "Tape | None" = None


class Tape:
    """Append-only record of ops; context manager setting the active tape."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._watched: set[int] = set()

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False

    def watch(self, *tensors: Tensor) -> None:
        """Register leaves so zero gradients can be reported for them."""
        for t in tensors:
            self._watched.add(t.uid)

    def _known_ids(self) -> set[int]:
        known = set(self._watched)
        for node in self.nodes:
            known.add(node.out.uid)
            for t in node.inputs:
                known.add(t.uid)
        return known

    def backward(self, loss: Tensor) -> "Gradients":
        """Accumulate d(loss)/d(tensor) for everything the tape saw.

        ``loss`` must be scalar.  Each node is visited exactly once, in
        reverse recording order (which is a topological order because the
        tape is append-only).
        """
        if loss.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if self.nodes and all(node.out is not loss for node in reversed(self.nodes)):
            raise TapeError("loss tensor was not recorded on this tape")
        grads: dict[int, np.ndarray] = {loss.uid: np.ones((), dtype=np.float64)}
        for node in reversed(self.nodes):
            g_out = grads.get(node.out.uid)
            if g_out is None:
                continue  # no path from this node's output to the loss
            for t, g in zip(node.inputs, node.backward(g_out)):
                acc = grads.get(t.uid)
                grads[t.uid] = g if acc is None else np.add(acc, g, out=_buffer(t.shape))
        return Gradients(grads, self)


class Gradients:
    """Gradient lookup from :meth:`Tape.backward`.

    Tensors the tape knows about but that do not influence the loss get a
    zero gradient of matching shape; unknown tensors raise.  The set of known
    tensors walks the whole tape, so it is built only on the first lookup
    that misses ``grads``.
    """

    def __init__(self, grads: dict[int, np.ndarray], tape: Tape):
        self._grads = grads
        self._tape = tape
        self._known: set[int] | None = None

    def of(self, t: Tensor) -> np.ndarray:
        g = self._grads.get(t.uid)
        if g is not None:
            return np.broadcast_to(g, t.shape).astype(np.float64, copy=False)
        if self._known is None:
            self._known = self._tape._known_ids()
        if t.uid in self._known:
            return np.zeros(t.shape, dtype=np.float64)
        raise TapeError("tensor was not recorded on the tape")

    def flat(self, tensors: list[Tensor]) -> np.ndarray:
        """The gradients of ``tensors``, raveled end to end into one array.

        A gradient that already has its tensor's shape is copied in as it is;
        only the others go through :meth:`of`.
        """
        parts = []
        for t in tensors:
            g = self._grads.get(t.uid)
            parts.append(g if g is not None and g.shape == t.shape else self.of(t))
        size = sum(t.data.size for t in tensors)
        return np.concatenate(parts, axis=None, out=_buffer((size,)))


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if _ACTIVE is not None:
        _ACTIVE.nodes.append(_Node(out, inputs, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary(op: str, ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    x, y = a.data, b.data
    try:
        if x.size < POOL_FLOOR and y.size < POOL_FLOOR:
            return ufunc(x, y)
        shape = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
        return ufunc(x, y, out=_buffer(shape))
    except ValueError:
        raise ShapeMismatchError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary("add", np.add, a, b))
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary("sub", np.subtract, a, b))

    def backward(g):
        gb = np.negative(g, out=_buffer(g.shape))
        return _unbroadcast(g, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary("mul", np.multiply, a, b))

    def backward(g):
        ga = np.multiply(g, b.data, out=_buffer(g.shape))
        gb = np.multiply(g, a.data, out=_buffer(g.shape))
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0.0):
        raise DomainError("div: zero divisor")
    out = Tensor(_binary("div", np.divide, a, b))

    def backward(g):
        ga = np.divide(g, b.data, out=_buffer(g.shape))
        buf = _buffer(g.shape)
        gb = np.negative(g, out=buf)
        gb = np.multiply(gb, a.data, out=buf)
        gb = np.divide(gb, np.multiply(b.data, b.data, out=_buffer(b.shape)), out=buf)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(
            f"matmul: operands must have ndim >= 2, got {a.shape} @ {b.shape}"
        )
    if b.ndim == 2:
        # shared weight: one GEMM each way (see the module docstring)
        n_in, n_out = b.shape
        if a.shape[-1] != n_in:
            raise ShapeMismatchError(
                f"matmul: shapes {a.shape} and {b.shape} do not conform"
            )
        a2 = a.data.reshape(-1, n_in)
        rows = a2.shape[0]
        out = np.matmul(a2, b.data, out=_buffer((rows, n_out)))
        out = Tensor(out.reshape(a.shape[:-1] + (n_out,)))

        def backward_shared(g):
            g2 = g.reshape(-1, n_out)
            ga = np.matmul(g2, b.data.T, out=_buffer((rows, n_in)))
            return ga.reshape(a.shape), np.matmul(a2.T, g2, out=_buffer((n_in, n_out)))

        return _record(out, (a, b), backward_shared)
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeMismatchError(
            f"matmul: shapes {a.shape} and {b.shape} do not conform"
        ) from None

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(out, (a, b), backward)


def negate(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data, out=_buffer(a.shape)))
    return _record(out, (a,), lambda g: (np.multiply(g, out.data, out=_buffer(g.shape)),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log: input must be strictly positive")
    out = Tensor(np.log(a.data, out=_buffer(a.shape)))
    return _record(out, (a,), lambda g: (np.divide(g, a.data, out=_buffer(g.shape)),))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: input must be non-negative")
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * 0.5 / out.data,))


def square(a: Tensor) -> Tensor:
    out = Tensor(np.multiply(a.data, a.data, out=_buffer(a.shape)))

    def backward(g):
        buf = _buffer(g.shape)
        return (np.multiply(np.multiply(g, 2.0, out=buf), a.data, out=buf),)

    return _record(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0, out=_buffer(a.shape)))
    return _record(out, (a,), lambda g: (np.multiply(g, a.data > 0.0, out=_buffer(g.shape)),))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes inside the interval (inclusive)."""
    out = Tensor(np.clip(a.data, lo, hi, out=_buffer(a.shape)))
    mask = (a.data >= lo) & (a.data <= hi)
    return _record(out, (a,), lambda g: (np.multiply(g, mask, out=_buffer(g.shape)),))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(np.float64, copy=False),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(np.float64, copy=False),)

    return _record(out, (a,), backward)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    if count == 0:
        raise ShapeMismatchError("mean: reduction over zero elements")
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            g_full = np.broadcast_to(g, a.shape)
        else:
            g_full = np.broadcast_to(g if keepdims else np.expand_dims(g, axis), a.shape)
        return (np.divide(g_full, count, out=_buffer(a.shape)),)

    return _record(out, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("concat: empty tensor list")
    try:
        out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    except ValueError:
        raise ShapeMismatchError(
            f"concat: shapes {[t.shape for t in tensors]} do not align on axis {axis}"
        ) from None
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        pieces = []
        start = 0
        for size in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + size)
            pieces.append(g[tuple(idx)])
            start += size
        return tuple(pieces)

    return _record(out, tuple(tensors), backward)


def take(a: Tensor, index) -> Tensor:
    """Basic slicing (ints, slices, tuples thereof); no fancy indexing."""
    out = Tensor(a.data[index])

    def backward(g):
        full = np.zeros(a.shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _record(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the trailing two dims."""
    if a.ndim < 2:
        raise ShapeMismatchError(f"transpose: needs ndim >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = Tensor(e / e.sum(axis=-1, keepdims=True))

    def backward(g):
        y = out.data
        return ((g - (g * y).sum(axis=-1, keepdims=True)) * y,)

    return _record(out, (a,), backward)


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    n_entries: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(f, at: Tensor, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare the taped gradient of scalar-valued ``f`` at ``at`` against
    central finite differences.

    Relative error uses denominator max(1, |analytic|, |numeric|) so
    near-zero gradients are judged absolutely.  ``f`` must be deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    with Tape() as tape:
        tape.watch(at)
        loss = f(at)
    if loss.shape != ():
        raise TapeError(f"grad_check: f must return a scalar, got shape {loss.shape}")
    analytic = tape.backward(loss).of(at)

    flat = at.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = f(Tensor(bumped.reshape(at.shape))).item()
        bumped[i] = flat[i] - eps
        lo = f(Tensor(bumped.reshape(at.shape))).item()
        numeric[i] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(at.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if at.data.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, tol=tol, n_entries=at.data.size)
