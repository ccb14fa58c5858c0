"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine holds only the ops the model uses: ``add``, ``mul``, ``matmul``,
``exp``, ``clip``, ``transpose`` and ``softmax``, plus :func:`custom_node` for
a composite with a hand-written backward, and :func:`grad_check`.  Forward ops
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
``[..., in, out]`` per-batch product to sum.  This path also takes an affine
layer's ``bias`` and ``relu=True``: the layer is then one node, holding one
output array, whose forward adds the bias and applies the ReLU in place in
the GEMM result, and whose backward masks the output gradient where the
output is not positive before the two GEMMs and the bias sum.  Only a batched
right operand, such as attention's ``q @ k.T``, takes numpy's broadcasting
matmul (no bias or ReLU) and sums its gradients back down to the operand
shapes.

A shared-weight product of at least ``_SPLIT_MACS`` multiply-adds (every one
at the default width, none at the acceptance shape) runs as two row blocks of
one result when the process may use two CPUs: the top block on a worker
thread, the bottom one on the caller, each one single-threaded BLAS call.  The
caller computes the top block too if the worker has not started it by then.
The cut is a multiple of ``_SPLIT_ROWS`` rows, where OpenBLAS groups rows as
in the whole product, so the bytes do not change.  The worker runs only numpy,
in the caller's context (so its ``np.errstate``); a forked child starts its own.

:func:`custom_node` records a composite computed with numpy as one node with
a hand-written backward; every loss term in :mod:`ibimpute.losses` is one.

Importing this module tells glibc's allocator to serve arrays up to 32 MiB
from its heap and to keep freed heap memory rather than hand it back to the
system.  A training step at the default width allocates and frees tens of
megabytes of large arrays, and without the setting every step would fault
those pages in afresh.  The setting applies to the whole importing process
and is never undone; :data:`GLIBC_KEEPS_FREED_MEMORY` records whether glibc
took it.  Other platforms keep their allocator's defaults.  Every op computes
the same numpy expression either way, so values do not depend on it.

Tensors are immutable by convention while a tape that saw them is alive.  The
exception is a model's parameters: views of one flat buffer that the optimizer
updates in place once :meth:`Tape.backward` is done (:meth:`Gradients.flat`
lays their gradients out the same way).  The active tape is one module-level
slot for the whole process, not one per thread: one tape at a time, no nesting.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands do not conform for the requested op."""


class TapeError(RuntimeError):
    """Misuse of the recording tape."""


_uid = itertools.count()

_M_TRIM_THRESHOLD = -1  # mallopt parameters from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """On glibc, serve allocations up to 32 MiB from the heap, and give heap
    memory back to the system only once 1 GiB is free at its top; True if
    both settings took."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    took = [mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 1 << 30)]
    return took == [1, 1]


GLIBC_KEEPS_FREED_MEMORY = _keep_freed_memory()

_SPLIT_MACS = 1 << 23  # products this large run as two row blocks
_SPLIT_ROWS = 24  # the cut between the blocks is a multiple of this many rows
_TWO_LANES = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
_lane = None  # (pid, ThreadPoolExecutor): the worker and the process that started it


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays, as two row blocks when large (module docstring)."""
    global _lane
    cut = len(a) // (2 * _SPLIT_ROWS) * _SPLIT_ROWS
    if not (_TWO_LANES and cut and a.size * b.shape[1] >= _SPLIT_MACS):
        return a @ b
    if _lane is None or _lane[0] != os.getpid():  # no worker yet, or a forked child
        from concurrent.futures import ThreadPoolExecutor  # only once a product splits

        _lane = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="ibimpute-gemm")
    out = np.empty((len(a), b.shape[1]))
    top = _lane[1].submit(contextvars.copy_context().run, np.matmul, a[:cut], b, out=out[:cut])
    try:
        np.matmul(a[cut:], b, out=out[cut:])
    finally:
        late = top.cancel()  # True if the worker has not started the top block
        if not late:
            top.exception()  # wait for it, even when this block raised
    if late:
        np.matmul(a[:cut], b, out=out[:cut])
    else:
        top.result()  # raises the top block's error, if any
    return out


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

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))


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
                grads[t.uid] = g if acc is None else acc + g
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
        return np.concatenate(parts, axis=None)


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


def custom_node(value, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """``value``, computed outside the tape from ``inputs``, as one op's output.

    On an active tape where an input needs a gradient this records one node;
    ``backward(g, need)`` then gets the output gradient ``g`` and which of
    ``inputs`` need a gradient, and returns one gradient per input, None for
    each input that needs none.
    """
    need = _needs(inputs)
    return _record(Tensor(value), inputs, lambda g: backward(g, need), need)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary(op: str, ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return ufunc(a.data, b.data)
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_binary("mul", np.multiply, a, b))
    need_a, need_b = need = _needs((a, b))

    def backward(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(g * b.data, a.shape)
        if need_b:
            gb = _unbroadcast(g * a.data, b.shape)
        return ga, gb

    return _record(out, (a, b), backward, need)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """``a @ b``; with a 2-D ``b``, optionally ``+ bias`` and then ReLU, as
    one node (see the module docstring)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(
            f"matmul: operands must have ndim >= 2, got {a.shape} @ {b.shape}"
        )
    if b.ndim == 2:
        n_in, n_out = b.shape
        if a.shape[-1] != n_in:
            raise ShapeMismatchError(
                f"matmul: shapes {a.shape} and {b.shape} do not conform"
            )
        if bias is not None and bias.shape != (n_out,):
            raise ShapeMismatchError(
                f"matmul: bias shape {bias.shape} does not match output width {n_out}"
            )
        a2 = a.data.reshape(-1, n_in)
        pre = _gemm(a2, b.data).reshape(a.shape[:-1] + (n_out,))
        if bias is not None:
            np.add(pre, bias.data, out=pre)
        if relu:
            np.maximum(pre, 0.0, out=pre)
        out = Tensor(pre)
        inputs = (a, b) if bias is None else (a, b, bias)
        need = _needs(inputs)

        def backward_shared(g):
            # out > 0 exactly where the pre-activation is > 0
            if relu:
                g = g * (out.data > 0.0)
            g2 = g.reshape(-1, n_out)
            grads = [None] * len(inputs)
            if need[0]:
                grads[0] = _gemm(g2, b.data.T).reshape(a.shape)
            if need[1]:
                grads[1] = _gemm(a2.T, g2)
            if bias is not None and need[2]:
                grads[2] = _unbroadcast(g, bias.shape)
            return grads

        return _record(out, inputs, backward_shared, need)
    if bias is not None or relu:
        raise ShapeMismatchError(
            f"matmul: bias and relu need a 2-D right operand, got {b.shape}"
        )
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


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes inside the interval (inclusive)."""
    out = Tensor(np.clip(a.data, lo, hi))
    mask = (a.data >= lo) & (a.data <= hi)
    return _record(out, (a,), lambda g: (g * mask,))


def transpose(a: Tensor) -> Tensor:
    """Swap the trailing two dims."""
    if a.ndim < 2:
        raise ShapeMismatchError(f"transpose: needs ndim >= 2, got shape {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


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
