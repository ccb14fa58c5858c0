"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine holds only the ops the model uses, ``matmul`` and ``transpose``,
plus :func:`custom_node` for a composite with a hand-written backward, and
:func:`grad_check`.  :func:`custom_node` is the one recorder: each op
computes with numpy and hands its value and backward to it, which, when a
:class:`Tape` is active, appends one node per call that has an input needing
a gradient; :meth:`Tape.backward` walks the nodes once in reverse, so a chain
of k ops costs k backward visits and never re-runs the forward pass.  With no
active tape the same ops run in plain inference mode and record nothing.

A tape is swept once: :meth:`Tape.backward` releases each node's output,
inputs and backward as soon as it has visited the node, so an activation dies
once the sweep no longer reads it, and a second sweep raises :class:`TapeError`.

A tensor needs a gradient if it is ``trainable``, if it was passed to
:meth:`Tape.watch` before its first use on the tape, or if it is the output
of a recorded op.  Everything else is a constant: an op on constants only
records no node, and a node returns None, computing nothing, in place of a
constant input's gradient (the masked data, the masks and the sampling noise
of a training step).  During backward each node's output gradient is freed
once the node has used it, so only the gradients of trainable and watched
tensors outlive :meth:`Tape.backward`; :meth:`Gradients.of` answers for
those and raises for any other tensor.

:func:`matmul` takes a 2-D right operand (every affine weight in the model)
shared across the left operand's leading dims, which fold into rows: the
forward is one ``[rows, in] @ [in, out]`` GEMM and the backward is two,
``g @ w.T`` for the input and ``a.T @ g`` for the weight, with no
``[..., in, out]`` per-batch product to sum.  It also takes an affine
layer's ``bias`` and ``relu=True``: the layer is then one node, holding one
output array, whose forward adds the bias and applies the ReLU in place in
the GEMM result, and whose backward masks the output gradient where the
output is not positive before the two GEMMs and the bias sum over the
leading axes.  ``exp_bound=B`` makes the epilogue ``exp(clip(., -B, B))``,
whose backward keeps a byte per cell for where the clip passed the value; a
non-finite pre-activation is returned unclipped, for the caller's check to
see.  A right operand of any other rank raises :class:`ShapeMismatchError`.

A shared-weight product of at least ``_SPLIT_MACS`` multiply-adds (every one
at the default width, none at the acceptance shape) runs as two row blocks of
one result when the caller may use two CPUs: the top block on a worker
thread, the bottom one on the caller, each one single-threaded BLAS call.  The
caller computes the top block too if the worker has not started it by then.
The cut is a multiple of ``_SPLIT_ROWS`` rows, where OpenBLAS groups rows as
in the whole product, so the bytes do not change.  The worker runs only numpy,
in the caller's context (so its ``np.errstate``); a forked child starts its own.

Each lane has a CPU of its own, since unpinned the scheduler woke the worker
on the caller's CPU and the blocks ran one after the other: the worker is
pinned to the highest CPU of the caller's mask when it starts, and each split
limits the caller to the rest of its mask, read at each product and restored
afterwards on every path.  A mask of one CPU, or without the worker's, makes
no split; a refused placement leaves that thread unpinned.  Nothing turns the
split or the placement off.

Every loss term in :mod:`ibimpute.losses`, and their weighted sum, is one
:func:`custom_node`.

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

import contextlib
import contextvars
import ctypes
import itertools
import os
import threading
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
_TWO_LANES = hasattr(os, "sched_setaffinity")  # threads can be placed on CPUs
_lane = None  # (pid, ThreadPoolExecutor, cpu): the worker, its process and its CPU


def _pin(tid: int, cpus: set[int]) -> None:
    """Limit thread ``tid`` (0: the caller) to ``cpus``, unless the system refuses."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(tid, cpus)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays, as two row blocks on two CPUs when large (module docstring)."""
    global _lane
    cut = len(a) // (2 * _SPLIT_ROWS) * _SPLIT_ROWS
    large = _TWO_LANES and cut and a.size * b.shape[1] >= _SPLIT_MACS
    if not (large and len(mask := os.sched_getaffinity(0)) >= 2):
        return a @ b
    if _lane is None or _lane[0] != os.getpid():  # no worker yet, or a forked child
        from concurrent.futures import ThreadPoolExecutor  # only once a product splits

        _lane = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="ibimpute-gemm"), max(mask)
        _pin(_lane[1].submit(threading.get_native_id).result(), {_lane[2]})
    if _lane[2] not in mask:
        return a @ b
    _pin(0, mask - {_lane[2]})  # the caller leaves the lane's CPU
    try:
        return _two_blocks(a, b, cut)
    finally:
        _pin(0, mask)


def _two_blocks(a: np.ndarray, b: np.ndarray, cut: int) -> np.ndarray:
    """``a @ b``: rows up to ``cut`` on the worker, the rest on the caller."""
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
        tape is append-only), and then released.  A node's output gradient is
        dropped once the node has used it, unless that output is watched, so
        at the end only the gradients of trainable and watched tensors are alive.
        """
        if loss.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if self.nodes and self.nodes[-1].backward is None:
            raise TapeError("this tape was already swept; a tape is swept once")
        if self.nodes and all(node.out is not loss for node in reversed(self.nodes)):
            raise TapeError("loss tensor was not recorded on this tape")
        grads: dict[int, np.ndarray] = {loss.uid: np.ones((), dtype=np.float64)}
        for node in reversed(self.nodes):
            uid, inputs, backward = node.out.uid, node.inputs, node.backward
            node.out = node.inputs = node.backward = None  # drop the tape's references
            g_out = grads.get(uid) if uid in self._watched else grads.pop(uid, None)
            if g_out is None:
                continue  # no path from this node's output to the loss
            for t, g in zip(inputs, backward(g_out)):
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


def custom_node(value, inputs: tuple[Tensor, ...], backward) -> Tensor:
    """``value``, computed outside the tape from ``inputs``, as one op's output.

    The only code that appends to a tape.  On an active tape where an input
    needs a gradient this records one node, and the output then needs one
    too; ``backward(g, need)`` gets the output gradient ``g`` and which of
    ``inputs`` need a gradient, and returns one gradient per input, None for
    each input that needs none.
    """
    out = Tensor(value)
    tape = _ACTIVE
    if tape is not None:
        tracked = tape._tracked
        need = tuple([t.trainable or t.uid in tracked for t in inputs])
        if any(need):
            tracked.add(out.uid)
            tape.nodes.append(_Node(out, inputs, lambda g: backward(g, need)))
    return out


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, relu: bool = False,
           exp_bound: float | None = None) -> Tensor:
    """``a @ b`` for a 2-D ``b``, optionally ``+ bias`` and then ReLU or exp of
    the clip to ``±exp_bound``, as one node (see the module docstring)."""
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeMismatchError(
            f"matmul: needs a left operand of ndim >= 2 and a 2-D right operand, "
            f"got {a.shape} @ {b.shape}"
        )
    n_in, n_out = b.shape
    if a.shape[-1] != n_in:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
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
    if exp_bound is not None and not np.isfinite(pre).all():
        exp_bound = None  # returned unclipped, for the caller's finiteness check
    if exp_bound is not None:
        inside = np.abs(pre) <= exp_bound
        np.exp(np.clip(pre, -exp_bound, exp_bound, out=pre), out=pre)

    def backward(g, need):
        # pre now holds the output: > 0 exactly where the pre-activation is
        if relu:
            g = g * (pre > 0.0)
        if exp_bound is not None:
            g = (g * pre) * inside
        g2 = g.reshape(-1, n_out)
        grads = [None] * len(need)
        if need[0]:
            grads[0] = _gemm(g2, b.data.T).reshape(a.shape)
        if need[1]:
            grads[1] = _gemm(a2.T, g2)
        if bias is not None and need[2]:
            while g.ndim > 1:
                g = g.sum(axis=0)
            grads[2] = g
        return grads

    return custom_node(pre, (a, b) if bias is None else (a, b, bias), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the trailing two dims."""
    if a.ndim < 2:
        raise ShapeMismatchError(f"transpose: needs ndim >= 2, got shape {a.shape}")
    return custom_node(np.swapaxes(a.data, -1, -2), (a,),
                       lambda g, need: (np.swapaxes(g, -1, -2),))


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
