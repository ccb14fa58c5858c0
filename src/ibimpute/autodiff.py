"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every model and loss in this package is built from the ops here.  Forward ops
compute with numpy and, when a :class:`Tape` is active, append one node per
call that has an input needing a gradient; :meth:`Tape.backward` walks the
nodes once in reverse, so a chain of k ops costs k backward visits and never
re-runs the forward pass.  With no active tape the same ops run in plain
inference mode and record nothing.

A tensor needs a gradient if it is ``trainable``, if it was passed to
:meth:`Tape.watch` before its first use on the tape, or if it is the output
of a recorded op.  Everything else is a constant: an op on constants only
records no node, and a node returns None, computing nothing, in place of a
constant input's gradient (the masked data, the masks and the sampling noise
of a training step).  During backward each node's output gradient is freed
once the node has used it, so only the gradients of trainable and watched
tensors outlive :meth:`Tape.backward`; :meth:`Gradients.of` answers for
those and raises for any other tensor.

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

    def transpose(self) -> "Tensor":
        return transpose(self)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class _Node:
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: "callable"  # out_grad -> tuple of grads aligned with inputs (None: not needed)


_ACTIVE: "Tape | None" = None


class Tape:
    """Append-only record of ops; context manager setting the active tape."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._watched: set[int] = set()
        self._tracked: set[int] = set()  # watched, plus outputs of recorded ops

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
        """Ask for the gradients of ``tensors``.  Watch each before its first
        use: an op that ran on it earlier treated it as a constant."""
        for t in tensors:
            self._watched.add(t.uid)
            self._tracked.add(t.uid)

    def backward(self, loss: Tensor) -> "Gradients":
        """d(loss)/d(t) for every trainable or watched tensor ``t``.

        ``loss`` must be scalar.  Each node is visited exactly once, in
        reverse recording order (which is a topological order because the
        tape is append-only).  A node's output gradient is dropped once the
        node has used it, unless that output is watched, so at the end only
        the gradients of trainable and watched tensors are alive.
        """
        if loss.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if self.nodes and all(node.out is not loss for node in reversed(self.nodes)):
            raise TapeError("loss tensor was not recorded on this tape")
        grads: dict[int, np.ndarray] = {loss.uid: np.ones((), dtype=np.float64)}
        for node in reversed(self.nodes):
            uid = node.out.uid
            g_out = grads.get(uid) if uid in self._watched else grads.pop(uid, None)
            if g_out is None:
                continue  # no path from this node's output to the loss
            for t, g in zip(node.inputs, node.backward(g_out)):
                if g is None:
                    continue  # t needs no gradient
                acc = grads.get(t.uid)
                grads[t.uid] = g if acc is None else np.add(acc, g, out=_buffer(t.shape))
        return Gradients(grads, self._watched)


class Gradients:
    """Gradient lookup from :meth:`Tape.backward`.

    Trainable and watched tensors that do not influence the loss get a zero
    gradient of matching shape; any other tensor raises.
    """

    def __init__(self, grads: dict[int, np.ndarray], watched: set[int]):
        self._grads = grads
        self._watched = watched

    def of(self, t: Tensor) -> np.ndarray:
        if not (t.trainable or t.uid in self._watched):
            raise TapeError("gradient of a tensor that is neither trainable nor watched")
        g = self._grads.get(t.uid)
        if g is None:
            return np.zeros(t.shape, dtype=np.float64)
        return np.broadcast_to(g, t.shape).astype(np.float64, copy=False)

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


def _needs(inputs: tuple[Tensor, ...]) -> tuple[bool, ...]:
    """Which of ``inputs`` need a gradient on the active tape (none without one)."""
    tape = _ACTIVE
    if tape is None:
        return (False,) * len(inputs)
    tracked = tape._tracked
    return tuple([t.trainable or t.uid in tracked for t in inputs])


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward, need=None) -> Tensor:
    """Append a node for ``out`` if any input needs a gradient (``need``, from
    :func:`_needs` if not given); then ``out`` needs one too.  ``backward``
    returns None in place of the gradient of an input that needs none."""
    tape = _ACTIVE
    if tape is not None and any(_needs(inputs) if need is None else need):
        tape._tracked.add(out.uid)
        tape.nodes.append(_Node(out, inputs, backward))
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
    need_a, need_b = need = _needs((a, b))

    def backward(g):
        return (_unbroadcast(g, a.shape) if need_a else None,
                _unbroadcast(g, b.shape) if need_b else None)

    return _record(out, (a, b), backward, need)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary("sub", np.subtract, a, b))
    need_a, need_b = need = _needs((a, b))

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(g, a.shape)
        if need_b:
            gb = _unbroadcast(np.negative(g, out=_buffer(g.shape)), b.shape)
        return ga, gb

    return _record(out, (a, b), backward, need)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary("mul", np.multiply, a, b))
    need_a, need_b = need = _needs((a, b))

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.multiply(g, b.data, out=_buffer(g.shape)), a.shape)
        if need_b:
            gb = _unbroadcast(np.multiply(g, a.data, out=_buffer(g.shape)), b.shape)
        return ga, gb

    return _record(out, (a, b), backward, need)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0.0):
        raise DomainError("div: zero divisor")
    out = Tensor(_binary("div", np.divide, a, b))
    need_a, need_b = need = _needs((a, b))

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.divide(g, b.data, out=_buffer(g.shape)), a.shape)
        if need_b:
            buf = _buffer(g.shape)
            gb = np.negative(g, out=buf)
            gb = np.multiply(gb, a.data, out=buf)
            gb = np.divide(gb, np.multiply(b.data, b.data, out=_buffer(b.shape)), out=buf)
            gb = _unbroadcast(gb, b.shape)
        return ga, gb

    return _record(out, (a, b), backward, need)


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
        need_a, need_b = need = _needs((a, b))

        def backward_shared(g):
            g2 = g.reshape(-1, n_out)
            ga = gb = None
            if need_a:
                ga = np.matmul(g2, b.data.T, out=_buffer((rows, n_in))).reshape(a.shape)
            if need_b:
                gb = np.matmul(a2.T, g2, out=_buffer((n_in, n_out)))
            return ga, gb

        return _record(out, (a, b), backward_shared, need)
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeMismatchError(
            f"matmul: shapes {a.shape} and {b.shape} do not conform"
        ) from None

    need_a, need_b = need = _needs((a, b))

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if need_b:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(out, (a, b), backward, need)


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
