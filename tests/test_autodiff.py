import errno
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ibimpute
from ibimpute import autodiff
from ibimpute.autodiff import (
    GLIBC_KEEPS_FREED_MEMORY,
    Gradients,
    ShapeMismatchError,
    Tape,
    TapeError,
    Tensor,
    custom_node,
    grad_check,
    matmul,
    transpose,
)

N_GRAD_POINTS = 20


@pytest.fixture(scope="session")
def sq(mul):
    """Elementwise square as one node, ``mul(t, t)``."""
    return lambda t: mul(t, t)


def _exp(t):
    """Elementwise exp as one node whose backward is ``g * exp(t)``."""
    out = np.exp(t.data)
    return custom_node(out, (t,), lambda g, need: (g * out,))


def _assert_op_grads(f, seed, shape=(3, 3)):
    rng = np.random.default_rng(seed)
    for _ in range(N_GRAD_POINTS):
        report = grad_check(f, Tensor(rng.uniform(-2.0, 2.0, size=shape)), eps=1e-5, tol=1e-4)
        assert report.passed, f"max rel err {report.max_rel_err}"


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ibimpute.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )


class TestForwardExamples:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(matmul(a, eye).data, a.data)

    def test_add_broadcasting_leading_and_trailing(self):
        # an affine layer's bias is added across every leading dim
        a = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.arange(4.0))
        out = matmul(a, Tensor(np.eye(4)), bias=b)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.data, 1.0 + np.broadcast_to(np.arange(4.0), (2, 3, 4)))

    def test_batched_matmul(self):
        a = np.random.default_rng(0).normal(size=(5, 2, 3))
        w = np.random.default_rng(1).normal(size=(3, 4))
        out = matmul(Tensor(a), Tensor(w))
        assert out.shape == (5, 2, 4)
        assert np.allclose(out.data, a @ w)

    def test_transpose_swaps_trailing(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert transpose(a).shape == (2, 4, 3)


class TestForwardErrors:
    def test_matmul_mismatch_names_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_matmul_requires_2d(self):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("right", [(2, 5, 3), (1, 5, 3), (5,)])
    def test_matmul_refuses_a_right_operand_that_is_not_2d(self, right):
        with pytest.raises(ShapeMismatchError, match=r"2-D right operand, got \(2, 4, 5\) @"):
            matmul(Tensor(np.ones((2, 4, 5))), Tensor(np.ones(right)))


class TestBackwardExamples:
    def test_grad_of_sum_square(self, sum_all, sq):
        w = Tensor([3.0], trainable=True)
        with Tape() as tape:
            loss = sum_all(sq(w))
        assert np.array_equal(tape.backward(loss).of(w), [6.0])

    def test_grad_of_sum_is_ones(self, sum_all):
        w = Tensor(np.arange(5.0), trainable=True)
        with Tape() as tape:
            loss = sum_all(w)
        assert np.array_equal(tape.backward(loss).of(w), np.ones(5))

    def test_unused_watched_leaf_gets_zeros(self, sum_all):
        w = Tensor(np.ones((2, 2)))
        u = Tensor(np.ones(3))
        with Tape() as tape:
            tape.watch(u)
            loss = sum_all(w)
        grads = tape.backward(loss)
        assert np.array_equal(grads.of(u), np.zeros(3))

    def test_gradient_accumulates_over_reuse(self, sum_all, add, mul):
        w = Tensor([2.0])
        with Tape() as tape:
            tape.watch(w)
            loss = sum_all(add(mul(w, w), w))
        assert np.array_equal(tape.backward(loss).of(w), [5.0])


class TestBackwardErrors:
    def test_non_scalar_loss(self, sq):
        w = Tensor(np.ones(3))
        with Tape() as tape:
            out = sq(w)
        with pytest.raises(TapeError):
            tape.backward(out)

    def test_loss_not_on_tape(self, sum_all, sq):
        w = Tensor(np.ones(3))
        with Tape() as tape:
            tape.watch(w)
            sum_all(sq(w))
        stranger = Tensor(1.0)
        with pytest.raises(TapeError):
            tape.backward(stranger)

    def test_unknown_tensor_lookup(self, sum_all):
        w = Tensor([1.0])
        with Tape() as tape:
            loss = sum_all(w)
        grads = tape.backward(loss)
        with pytest.raises(TapeError):
            grads.of(Tensor([1.0]))

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(TapeError):
                with Tape():
                    pass

    def test_one_active_tape_per_process(self):
        raised = []

        def other_thread():
            try:
                with Tape():
                    pass
            except TapeError as exc:
                raised.append(exc)

        with Tape():
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert len(raised) == 1


class TestPerOpGradients:
    def test_matmul_left_and_right(self, sum_all):
        c = Tensor(np.random.default_rng(6).normal(size=(3, 3)))
        _assert_op_grads(lambda x: sum_all(matmul(x, c)), seed=17)
        _assert_op_grads(lambda x: sum_all(matmul(c, x)), seed=18)

    def test_matmul_batched(self, sum_all):
        c = Tensor(np.random.default_rng(7).normal(size=(3, 2)))
        _assert_op_grads(lambda x: sum_all(matmul(x, c)), seed=19, shape=(4, 2, 3))

    @pytest.mark.parametrize("lead", [(4,), (2, 3)])
    def test_matmul_shared_weight(self, lead, sum_all, sq):
        x = Tensor(np.random.default_rng(36).normal(size=lead + (2, 3)))
        _assert_op_grads(lambda w: sum_all(sq(matmul(x, w))), seed=37, shape=(3, 2))

    @pytest.mark.parametrize("relu_on", [False, True])
    def test_matmul_bias_relu(self, relu_on, sum_all, sq):
        rng = np.random.default_rng(47)
        x = Tensor(rng.normal(size=(2, 4, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(2,)))

        def loss(x, w, b):
            return sum_all(sq(matmul(x, w, bias=b, relu=relu_on)))

        _assert_op_grads(lambda t: loss(x, t, b), seed=48, shape=(3, 2))
        _assert_op_grads(lambda t: loss(x, w, t), seed=49, shape=(2,))
        _assert_op_grads(lambda t: loss(t, w, b), seed=50, shape=(2, 4, 3))

    def test_transpose(self, sum_all):
        c = Tensor(np.random.default_rng(9).normal(size=(3, 3)))
        _assert_op_grads(lambda x: sum_all(matmul(transpose(x), c)), seed=32)

    def test_broadcast_bias_gradient(self, sum_all, sq):
        x = Tensor(np.random.default_rng(11).normal(size=(4, 2, 3)))
        eye = Tensor(np.eye(3))
        _assert_op_grads(lambda b: sum_all(sq(matmul(x, eye, bias=b))), seed=35, shape=(3,))


class TestSharedWeightMatmul:
    """A 2-D right operand folds the left operand's leading dims into rows."""

    @staticmethod
    def _taped(a, b, g, sum_all, mul):
        """Forward of ``a @ b`` and the gradients of ``sum((a @ b) * g)``."""
        ta, tb = Tensor(a), Tensor(b)
        with Tape() as tape:
            tape.watch(ta, tb)
            out = matmul(ta, tb)
            loss = sum_all(mul(out, Tensor(g)))
        grads = tape.backward(loss)
        return out.data, grads.of(ta), grads.of(tb)

    @pytest.mark.parametrize("lead", [(5,), (2, 3), (1,)])
    def test_matches_batched_then_summed_reference(self, lead, sum_all, mul):
        rng = np.random.default_rng(38)
        a = rng.normal(size=lead + (4, 6))
        w = rng.normal(size=(6, 3))
        g = rng.normal(size=lead + (4, 3))
        out, ga, gw = self._taped(a, w, g, sum_all, mul)
        gw_ref = np.matmul(np.swapaxes(a, -1, -2), g).reshape(-1, 6, 3).sum(axis=0)
        np.testing.assert_allclose(out, np.matmul(a, w), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ga, np.matmul(g, w.T), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-12, atol=1e-12)

    def test_zero_length_leading_dim(self, sum_all, mul):
        out, ga, gw = self._taped(
            np.ones((0, 3, 4)), np.ones((4, 5)), np.ones((0, 3, 5)), sum_all, mul
        )
        assert out.shape == (0, 3, 5)
        assert ga.shape == (0, 3, 4)
        assert np.array_equal(gw, np.zeros((4, 5)))

    def test_inner_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3, 4\) and \(5, 6\)"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((5, 6))))

    def test_two_d_is_bytes_of_np_matmul(self, sum_all, mul):
        rng = np.random.default_rng(39)
        a, w, g = rng.normal(size=(7, 5)), rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        out, ga, gw = self._taped(a, w, g, sum_all, mul)
        assert np.array_equal(out, np.matmul(a, w))
        assert np.array_equal(ga, np.matmul(g, w.T))
        assert np.array_equal(gw, np.matmul(a.T, g))

    def test_constant_left_operand_gets_no_gradient(self):
        rng = np.random.default_rng(45)
        a = rng.normal(size=(4, 5, 6))
        w = Tensor(rng.normal(size=(6, 3)), trainable=True)
        g = rng.normal(size=(4, 5, 3))
        with Tape() as tape:
            matmul(Tensor(a), w)
        (node,) = tape.nodes
        ga, gw = node.backward(g)
        assert ga is None
        assert np.array_equal(gw, a.reshape(-1, 6).T @ g.reshape(-1, 3))

    def test_constant_factor_gets_no_gradient(self, mul):
        x = Tensor(np.ones(3), trainable=True)
        eps = Tensor(np.arange(3.0))
        with Tape() as tape:
            mul(x, eps)
        (node,) = tape.nodes
        gx, geps = node.backward(np.full(3, 2.0))
        assert geps is None
        assert np.array_equal(gx, 2.0 * eps.data)

    def test_backward_builds_no_per_batch_weight_stack(self, sum_all):
        # the [64, 256, 256] stack a batched weight gradient would sum is 33.5 MB
        rng = np.random.default_rng(41)
        a = Tensor(rng.normal(size=(64, 21, 256)))
        w = Tensor(rng.normal(size=(256, 256)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                tape.watch(a, w)
                loss = sum_all(matmul(a, w))
            grads = tape.backward(loss)
            grads.of(a), grads.of(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 2
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


@pytest.fixture(scope="session")
def composite_affine(add, mul):
    """The affine layer as separate matmul and add nodes, then the ReLU as a
    product with the constant mask of the positive entries, whose gradient is
    ``g * (pre > 0)``."""
    def affine(a, w, b, relu_on):
        out = add(matmul(a, w), b)
        return mul(out, Tensor(out.data > 0.0)) if relu_on else out
    return affine


def _run_taped(f, inputs, watch, sum_all, mul):
    """``f(*inputs)``'s value and, for each watched input, the gradient of
    ``sum(f(*inputs) * G)`` with a fixed random ``G``."""
    tensors = [Tensor(x) for x in inputs]
    with Tape() as tape:
        tape.watch(*[t for t, w in zip(tensors, watch) if w])
        out = f(*tensors)
        g = np.random.default_rng(0).normal(size=out.shape)
        loss = sum_all(mul(out, Tensor(g)))
    grads = tape.backward(loss)
    return out.data, [grads.of(t) for t, w in zip(tensors, watch) if w], len(tape.nodes)


class TestFusedAffine:
    """``matmul(a, w, bias=, relu=)`` is one node with the values and
    gradients of separate matmul and add nodes and a ReLU mask."""

    @pytest.mark.parametrize("lead", [(3, 5), (2, 3, 5)])
    @pytest.mark.parametrize("relu_on", [False, True])
    @pytest.mark.parametrize("watch_a", [True, False])
    def test_bytes_of_matmul_add_relu(
        self, lead, relu_on, watch_a, sum_all, mul, composite_affine
    ):
        rng = np.random.default_rng(51)
        inputs = (rng.normal(size=lead + (6,)), rng.normal(size=(6, 4)), rng.normal(size=4))
        watch = (watch_a, True, True)
        out, grads, nodes = _run_taped(
            lambda a, w, b: matmul(a, w, bias=b, relu=relu_on), inputs, watch, sum_all, mul
        )
        ref_out, ref_grads, ref_nodes = _run_taped(
            lambda a, w, b: composite_affine(a, w, b, relu_on), inputs, watch, sum_all, mul
        )
        assert (nodes, ref_nodes) == (3, 4 + relu_on)  # then mul and sum_all
        assert np.array_equal(out, ref_out)
        if relu_on:
            assert (out == 0.0).any() and (out > 0.0).any()
        assert len(grads) == len(ref_grads) == 2 + watch_a
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    def test_hidden_feeding_two_heads_is_bytes_of_composite(
        self, sum_all, add, mul, composite_affine
    ):
        # the encoder's mu and log_std heads: their input gradients add up
        rng = np.random.default_rng(52)
        inputs = (rng.normal(size=(2, 3, 6)), rng.normal(size=(6, 6)), rng.normal(size=6),
                  rng.normal(size=(6, 4)), rng.normal(size=4),
                  rng.normal(size=(6, 4)), rng.normal(size=4))

        def heads(affine):
            def f(x, w, b, w_mu, b_mu, w_ls, b_ls):
                h = affine(x, w, b, True)
                return add(mul(affine(h, w_mu, b_mu, False), Tensor(2.0)),
                           _exp(affine(h, w_ls, b_ls, False)))
            return f

        def fused(a, w, b, relu_on):
            return matmul(a, w, bias=b, relu=relu_on)

        out, grads, _ = _run_taped(heads(fused), inputs, (True,) * 7, sum_all, mul)
        ref_out, ref_grads, _ = _run_taped(
            heads(composite_affine), inputs, (True,) * 7, sum_all, mul
        )
        assert np.array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    def test_one_node_holding_one_array(self):
        a = Tensor(np.ones((2, 3, 4)))
        w = Tensor(np.ones((4, 5)), trainable=True)
        b = Tensor(np.ones(5), trainable=True)
        with Tape() as tape:
            y = matmul(a, w, bias=b, relu=True)
        (node,) = tape.nodes
        assert node.out is y and node.inputs == (a, w, b)
        ga, gw, gb = node.backward(np.ones((2, 3, 5)))
        assert ga is None
        assert np.array_equal(gw, np.full((4, 5), 6.0))
        assert np.array_equal(gb, np.full(5, 6.0))

    @pytest.mark.parametrize("shape", [(4,), (1, 5), (5, 1), ()])
    def test_bias_not_of_output_width_rejected(self, shape):
        with pytest.raises(ShapeMismatchError, match="bias shape"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))),
                   bias=Tensor(np.ones(shape)))

    @pytest.mark.parametrize("kwargs", [{"bias": Tensor(np.ones(3))}, {"relu": True}])
    def test_bias_or_relu_with_batched_right_operand_rejected(self, kwargs):
        with pytest.raises(ShapeMismatchError, match="2-D right operand"):
            matmul(Tensor(np.ones((2, 4, 5))), Tensor(np.ones((2, 5, 3))), **kwargs)


class TestBufferPool:
    """Arrays come from numpy's own allocations, served from a glibc heap
    that keeps freed memory (the setting :mod:`ibimpute.autodiff` makes on
    import): a live result shares memory with no later one, and a warm
    training step reuses freed memory instead of faulting in new pages."""

    @staticmethod
    def _step(a, w, sum_all, mul):
        """Taped forward and backward of ``sum(exp(a @ w) * a @ w)``; returns
        every large array it made: outputs, views of them and gradients."""
        with Tape() as tape:
            tape.watch(a, w)
            y = matmul(a, w)
            z = mul(_exp(y), y)
            loss = sum_all(z)
        grads = tape.backward(loss)
        return [y.data, z.data, transpose(z).data, grads.of(a), grads.of(w)]

    @pytest.mark.parametrize("held", ["output", "reshape", "transpose", "gradient"])
    def test_live_array_is_never_handed_out_again(self, held, sum_all, mul, sq):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(8, 21, 256)) * 0.1)
        w = Tensor(rng.normal(size=(256, 256)) * 0.1)
        with Tape() as tape:
            tape.watch(a, w)
            y = _exp(matmul(a, w))
            loss = sum_all(sq(y))
        keep = {
            "output": lambda: y.data,
            "reshape": lambda: y.data.reshape(-1, 256),
            "transpose": lambda: transpose(y).data,
            "gradient": lambda: tape.backward(loss).of(a),
        }[held]()
        assert keep.size >= 32768  # 256 KiB of float64
        before = keep.copy()
        del y, loss, tape
        for _ in range(3):
            for later in self._step(a, w, sum_all, mul):
                assert not np.shares_memory(keep, later)
        assert np.array_equal(keep, before)

    def test_step_keeps_only_the_parameter_gradients(self, monkeypatch):
        from ibimpute.data import Window
        from ibimpute.losses import LossWeights
        from ibimpute.model import ImputationModel, ModelConfig
        from ibimpute.training import Adam, train_step

        rng = np.random.default_rng(46)
        model = ImputationModel(ModelConfig(window_len=96, n_vars=21), seed=1)
        batch = [
            Window(x=rng.normal(size=(96, 21)), m_obs=np.ones((96, 21)),
                   m_art=(rng.uniform(size=(96, 21)) > 0.5).astype(float), index=i)
            for i in range(64)
        ]
        returned = []
        backward = Tape.backward

        def spy(tape, loss):
            returned.append(backward(tape, loss))
            return returned[-1]

        monkeypatch.setattr(Tape, "backward", spy)
        _, applied = train_step(model, batch, LossWeights(), Adam(lr=1e-3), 0)
        assert applied
        held = returned[0]._grads
        params = model.params.values()
        assert sorted(held) == sorted(t.uid for t in params) and len(held) == 14
        assert sum(g.nbytes for g in held.values()) == model.flat.nbytes  # about 2.9 MiB

    @staticmethod
    def _skip_off_glibc():
        """Skip off glibc, where the allocator keeps its defaults."""
        try:
            glibc = os.confstr("CS_GNU_LIBC_VERSION")
        except (AttributeError, ValueError, OSError):
            glibc = None
        if not glibc:
            pytest.skip("the allocator setting applies to glibc only")
        assert GLIBC_KEEPS_FREED_MEMORY

    def _minor_faults(self, run):
        """Minor page faults each call of ``run`` takes (off glibc, skips)."""
        self._skip_off_glibc()
        import resource

        def faults(*args):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run(*args)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        return faults

    def test_repeated_step_allocates_no_new_buffer(self, sum_all):
        rng = np.random.default_rng(43)
        a = Tensor(rng.normal(size=(64, 21, 256)))
        w = Tensor(rng.normal(size=(256, 256)))

        def step():
            with Tape() as tape:
                tape.watch(a, w)
                loss = sum_all(matmul(a, w))
            assert len(tape.nodes) == 2
            tape.backward(loss).of(w)

        faults = self._minor_faults(step)
        counts = [faults() for _ in range(3)]
        # about 1.4k faults a step when freed memory goes back to the system
        assert max(counts[1:]) < 256, counts

    def test_short_last_batch_reuses_full_batch_buffers(self):
        # in a fresh interpreter: what earlier tests leave on the heap can
        # fragment it enough that a warm step has to grow it
        self._skip_off_glibc()
        proc = _run_fresh(_SHORT_BATCH_PROBE)
        assert proc.returncode == 0, proc.stderr
        counts = [int(n) for n in proc.stdout.split()]
        # about 2.5k faults a step when freed memory goes back to the system
        assert len(counts) == 4 and max(counts[2:]) < 256, counts


# the minor page faults of four training steps at the default width, the
# last one on a short batch, printed on one line
_SHORT_BATCH_PROBE = """
import resource

import numpy as np

from ibimpute.data import Window
from ibimpute.losses import LossWeights
from ibimpute.model import ImputationModel, ModelConfig
from ibimpute.training import Adam, train_step

rng = np.random.default_rng(44)
model = ImputationModel(ModelConfig(window_len=96, n_vars=21), seed=1)
batch = [
    Window(x=rng.normal(size=(96, 21)), m_obs=np.ones((96, 21)),
           m_art=(rng.uniform(size=(96, 21)) > 0.5).astype(float), index=i)
    for i in range(64)
]
optimizer = Adam(lr=1e-3)
counts = []
for index, size in enumerate((64, 64, 64, 60)):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, applied = train_step(model, batch[:size], LossWeights(), optimizer, index)
    assert applied
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts)
"""


class TestGradCheckHarness:
    def test_constant_function_passes(self):
        report = grad_check(lambda x: Tensor(2.5), Tensor(np.ones((2, 2))))
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_masked_mse_style_function(self, sum_all, add, mul, sq):
        rng = np.random.default_rng(12)
        target = Tensor(rng.normal(size=(4, 3)))
        mask = Tensor((rng.uniform(size=(4, 3)) > 0.4).astype(float))
        count = float(mask.data.sum())

        def f(x):
            return mul(sum_all(mul(sq(add(x, Tensor(-target.data))), mask)),
                       Tensor(1.0 / count))

        report = grad_check(f, Tensor(rng.normal(size=(4, 3))))
        assert report.passed

    def test_rejects_nonpositive_eps(self, sum_all):
        with pytest.raises(ValueError):
            grad_check(sum_all, Tensor([1.0]), eps=0.0)

    def test_rejects_nonscalar_f(self, sq):
        with pytest.raises(TapeError):
            grad_check(sq, Tensor([1.0, 2.0]))


# every op that records, each called on two [2, 2] tensors
_BINARY_OPS = {
    "matmul": matmul,
    "transpose": lambda a, b: transpose(a),
    "custom_node": lambda a, b: custom_node(a.data * b.data, (a, b), None),
}


class TestTapeMechanics:
    def test_node_count_linear_in_chain_length(self, sum_all, add):
        x = Tensor(np.ones(4))
        for k in (5, 50):
            with Tape() as tape:
                tape.watch(x)
                out = x
                for _ in range(k):
                    out = add(out, x)
                loss = sum_all(out)
            assert len(tape.nodes) == k + 1  # k adds + final sum
            tape.backward(loss)

    def test_backward_visits_each_node_once(self, sum_all, mul):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            tape.watch(x)
            out = x
            for _ in range(10):
                out = mul(out, x)
            loss = sum_all(out)
        assert len(tape.nodes) == 11
        calls = []
        for node in tape.nodes:
            original = node.backward
            node.backward = (lambda orig, n: lambda g: calls.append(n) or orig(g))(
                original, node
            )
        tape.backward(loss)
        assert len(calls) == len(tape.nodes)
        assert len(set(id(c) for c in calls)) == len(tape.nodes)

    def test_tape_is_swept_once(self, sum_all, sq):
        x = Tensor(np.ones(3), trainable=True)
        with Tape() as tape:
            loss = sum_all(sq(sq(x)))
        assert np.array_equal(tape.backward(loss).of(x), np.full(3, 4.0))
        assert len(tape.nodes) == 3  # the nodes stay, released
        assert all(n.out is n.inputs is n.backward is None for n in tape.nodes)
        with pytest.raises(TapeError, match="swept once"):
            tape.backward(loss)

    def test_lookup_rule(self, sum_all, mul, sq):
        w = Tensor(np.ones(3), trainable=True)
        u = Tensor(np.ones(2), trainable=True)
        v = Tensor(np.ones(2))
        c = Tensor(np.full(3, 2.0))
        with Tape() as tape:
            tape.watch(v)
            loss = sum_all(mul(sq(w), c))
        grads = tape.backward(loss)
        assert np.array_equal(grads.of(w), [4.0, 4.0, 4.0])
        assert np.array_equal(grads.of(u), np.zeros(2))  # trainable, unused
        assert np.array_equal(grads.of(v), np.zeros(2))  # watched, unused
        with pytest.raises(TapeError):
            grads.of(c)  # a constant the tape saw

    def test_watched_intermediate_keeps_its_gradient(self, sum_all, sq):
        x = Tensor([0.5, -1.0], trainable=True)
        with Tape() as tape:
            y = _exp(x)
            tape.watch(y)
            z = sq(y)
            loss = sum_all(z)
        grads = tape.backward(loss)
        assert np.array_equal(grads.of(y), 2.0 * y.data)
        assert np.array_equal(grads.of(x), 2.0 * y.data * y.data)
        with pytest.raises(TapeError):
            grads.of(z)  # not watched: freed once its node used it

    @pytest.mark.parametrize("op", sorted(_BINARY_OPS))
    def test_op_on_constants_records_no_node(self, op, sum_all, sq):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.full((2, 2), 2.0))
        with Tape() as tape:
            sum_all(sq(_BINARY_OPS[op](a, b)))
        assert tape.nodes == []

    def test_op_with_one_tracked_input_records_a_node(self, sum_all, sq):
        a, w = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)), trainable=True)
        with Tape() as tape:
            y = matmul(a, w)
            loss = sum_all(sq(y))
        assert len(tape.nodes) == 3
        assert tape.nodes[0].out is y and tape.nodes[-1].out is loss

    def test_no_recording_without_tape(self):
        before = Tensor(np.ones((2, 2)), trainable=True)
        with Tape() as tape:
            pass
        matmul(before, before)  # outside the with block: nothing recorded
        assert tape.nodes == []

    def test_detach_blocks_gradient(self, sum_all, mul, sq):
        w = Tensor([2.0])
        with Tape() as tape:
            tape.watch(w)
            frozen = sq(w).detach()
            loss = sum_all(mul(w, frozen))
        # d/dw of w * const(w^2) is just w^2 = 4, not 3w^2 = 12
        assert np.array_equal(tape.backward(loss).of(w), [4.0])

    def test_forward_determinism(self, sum_all, sq):
        x = np.random.default_rng(13).normal(size=(5, 5))

        def run():
            with Tape() as tape:
                t = Tensor(x, trainable=True)
                tape.watch(t)
                loss = sum_all(sq(matmul(t, t)))
            return loss.item(), tape.backward(loss).of(t)

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


def _stop_lane() -> None:
    if autodiff._lane is not None:
        autodiff._lane[1].shutdown(wait=True)
    autodiff._lane = None


def _cpus(tid: int = 0) -> set[int]:
    return os.sched_getaffinity(tid) if hasattr(os, "sched_getaffinity") else set()


# read once, so a split that leaves the caller narrowed fails the next test
_MAY_SPLIT = len(_cpus()) >= 2


@pytest.fixture
def fresh_lane():
    """No worker yet; the worker the test starts is stopped after it, and
    the caller's CPU mask must then be the one it had before.  A process
    that may use fewer than two CPUs splits no product, so the test is
    skipped there."""
    if not _MAY_SPLIT:
        pytest.skip("products split only where the process may use two CPUs")
    _stop_lane()
    before = _cpus()
    yield
    _stop_lane()
    assert _cpus() == before, "a split left the caller's CPU mask narrowed"


@pytest.fixture
def worker_starts_first(fresh_lane, monkeypatch):
    """As ``fresh_lane``, and each split waits until the worker has started
    its top block, so the caller never takes one back."""
    submit = ThreadPoolExecutor.submit

    def submit_started(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        deadline = time.monotonic() + 5.0
        while not (future.running() or future.done()):
            assert time.monotonic() < deadline, "the worker did not start its block"
            time.sleep(1e-4)
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit_started)


def _spy_on_submit(monkeypatch, wrap=lambda fn: fn) -> list:
    """The futures the worker is handed from here on; ``wrap`` replaces the
    function each runs."""
    futures = []
    executor = autodiff._lane[1]
    submit = executor.submit

    def spy(fn, *args, **kwargs):
        futures.append(submit(wrap(fn), *args, **kwargs))
        return futures[-1]

    monkeypatch.setattr(executor, "submit", spy)
    return futures


def _default_width_step(split: bool, monkeypatch) -> np.ndarray:
    """The parameters after one train_step at the default width (d = h = 256,
    64 windows of 96 steps over 21 variables)."""
    from ibimpute.data import Window
    from ibimpute.losses import LossWeights
    from ibimpute.model import ImputationModel, ModelConfig
    from ibimpute.training import Adam, train_step

    monkeypatch.setattr(autodiff, "_TWO_LANES", split)
    rng = np.random.default_rng(47)
    model = ImputationModel(ModelConfig(window_len=96, n_vars=21), seed=2)
    batch = [
        Window(x=rng.normal(size=(96, 21)), m_obs=np.ones((96, 21)),
               m_art=(rng.uniform(size=(96, 21)) > 0.5).astype(float), index=i)
        for i in range(64)
    ]
    _, applied = train_step(model, batch, LossWeights(), Adam(lr=1e-3), 0)
    assert applied
    return model.flat


class TestTwoLaneProduct:
    """Large shared-weight products run as two row blocks on two threads and
    keep every byte of the one-call product."""

    @pytest.mark.parametrize("a_shape, w_shape", [
        ((64, 21, 96), (96, 256)),   # the embedding layer at the default width
        ((1344, 256), (256, 256)),   # a hidden layer
        ((61, 21, 255), (255, 97)),  # odd rows, inner and output widths
        ((1343, 97), (97, 255)),
    ])
    def test_products_are_bytes_of_plain_matmul(self, a_shape, w_shape, worker_starts_first):
        rng = np.random.default_rng(48)
        a, w = rng.normal(size=a_shape), rng.normal(size=w_shape)
        g = rng.normal(size=a_shape[:-1] + w_shape[1:])
        a2, g2 = a.reshape(-1, w_shape[0]), g.reshape(-1, w_shape[1])
        # all three products take rows * in * out multiply-adds
        assert len(a2) * w.size >= autodiff._SPLIT_MACS
        # computed first and kept alive, so no split result lands in their memory
        refs = ((a2 @ w).reshape(g.shape), (g2 @ w.T).reshape(a.shape), a2.T @ g2)
        ta, tw = Tensor(a), Tensor(w)
        with Tape() as tape:
            tape.watch(ta, tw)
            out = matmul(ta, tw)
            loss = custom_node(0.0, (out,), lambda _, need: (g,))
        grads = tape.backward(loss)
        assert autodiff._lane is not None  # the products were split
        for got, ref in zip((out.data, grads.of(ta), grads.of(tw)), refs):
            assert got.tobytes() == ref.tobytes()

    def test_default_width_step_is_bytes_of_one_lane(self, worker_starts_first, monkeypatch):
        one_lane = _default_width_step(False, monkeypatch)
        assert autodiff._lane is None
        two_lanes = _default_width_step(True, monkeypatch)
        assert autodiff._lane is not None
        assert two_lanes.tobytes() == one_lane.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self, worker_starts_first):
        rng = np.random.default_rng(49)
        a, w = Tensor(rng.normal(size=(64, 21, 256))), Tensor(rng.normal(size=(256, 256)))
        ref = matmul(a, w).data
        assert autodiff._lane is not None
        with warnings.catch_warnings():
            # forking with the worker alive is the case under test
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(10)  # a child waiting on the parent's worker dies here
                code = 0 if np.array_equal(matmul(a, w).data, ref) else 3
                code = code or (4 if autodiff._lane[0] != os.getpid() else 0)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @staticmethod
    def _overflowing(top: bool) -> tuple[Tensor, Tensor]:
        """A product above the floor that overflows in its top block (the
        worker's) or its bottom block (the caller's) only."""
        a = np.ones((1344, 256))
        a[slice(0, 24) if top else slice(-24, None)] = 1e200
        return Tensor(a), Tensor(np.full((256, 256), 1e200))

    def test_callers_errstate_reaches_the_worker(self, worker_starts_first):
        a, w = self._overflowing(top=True)
        with np.errstate(over="ignore"):
            out = matmul(a, w).data  # a warning would be an error in this suite
        assert autodiff._lane is not None
        assert np.isinf(out[:24]).all()

    @pytest.mark.parametrize("top", [True, False])
    def test_overflow_warns_as_the_one_lane_product_does(
        self, top, worker_starts_first, monkeypatch
    ):
        a, w = self._overflowing(top)
        for split in (False, True):
            monkeypatch.setattr(autodiff, "_TWO_LANES", split)
            with pytest.raises(RuntimeWarning, match="^overflow encountered in matmul$"):
                matmul(a, w)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                matmul(a, w)
            assert [(c.category, str(c.message)) for c in caught] == [
                (RuntimeWarning, "overflow encountered in matmul")
            ]
        assert autodiff._lane is not None

    def test_worker_is_joined_before_an_error_returns(self, worker_starts_first, monkeypatch):
        rng = np.random.default_rng(50)
        matmul(Tensor(rng.normal(size=(1344, 256))), Tensor(rng.normal(size=(256, 256))))

        def late(fn):
            def run(*args, **kwargs):
                time.sleep(0.2)
                return fn(*args, **kwargs)
            return run

        futures = _spy_on_submit(monkeypatch, late)
        with pytest.raises(RuntimeWarning):
            matmul(*self._overflowing(top=False))  # the caller's block raises
        assert len(futures) == 1 and futures[0].done() and not futures[0].cancelled()

    def test_caller_takes_back_a_block_the_worker_has_not_started(self, fresh_lane, monkeypatch):
        rng = np.random.default_rng(51)
        a, w = rng.normal(size=(1344, 256)), rng.normal(size=(256, 256))
        ref = a @ w
        matmul(Tensor(a), Tensor(w))
        busy = autodiff._lane[1].submit(time.sleep, 0.5)
        futures = _spy_on_submit(monkeypatch)
        out = matmul(Tensor(a), Tensor(w)).data
        assert not busy.done()  # the product did not wait for the worker
        assert len(futures) == 1 and futures[0].cancelled()
        assert out.tobytes() == ref.tobytes()

    def test_worker_enters_no_package_code(self, worker_starts_first, monkeypatch):
        package = os.path.dirname(autodiff.__file__)
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_filename)

        threading.setprofile(profile)  # only threads started from here on
        try:
            _default_width_step(True, monkeypatch)
        finally:
            threading.setprofile(None)
        assert autodiff._lane is not None and called  # the worker ran products
        assert not [f for f in called if f.startswith(package)]

    def test_acceptance_shape_starts_no_worker(self, fresh_lane, tmp_path):
        from ibimpute.cli import main

        threads = threading.active_count()
        data = tmp_path / "data.csv"
        assert main(["synth", "--vars", "7", "--steps", "1200", "--seed", "3",
                     "--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data.source = {data}\nwindow.length = 96\nmodel.d_model = 32\n"
            "model.hidden_dim = 64\ntrain.batch_size = 8\ntrain.epochs = 1\n"
            f"eval.patterns = point,block\noutput_dir = {tmp_path / 'run'}\n"
        )
        assert main(["train", "--config", str(cfg), "--quiet"]) == 0
        assert main(["eval", "--config", str(cfg), "--quiet"]) == 0
        rows = data.read_text().splitlines()
        holes = [rows[0]] + [",".join(["", *r.split(",")[1:]]) if i % 9 == 0 else r
                             for i, r in enumerate(rows[1:300])]
        holed = tmp_path / "holes.csv"
        holed.write_text("\n".join(holes) + "\n")
        assert main(["impute", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                     "--input", str(holed), "--output", str(tmp_path / "filled.csv")]) == 0
        assert autodiff._lane is None
        assert threading.active_count() == threads

    @staticmethod
    def _worker_cpus() -> set[int]:
        return _cpus(autodiff._lane[1].submit(threading.get_native_id).result())

    def test_worker_runs_on_one_cpu_of_the_callers(self, fresh_lane):
        rng = np.random.default_rng(52)
        matmul(Tensor(rng.normal(size=(1344, 256))), Tensor(rng.normal(size=(256, 256))))
        worker = self._worker_cpus()
        assert len(worker) == 1 and worker < _cpus()

    @pytest.mark.parametrize("raises", [None, "caller", "worker"])
    def test_caller_leaves_the_lane_cpu_for_the_split_only(
        self, raises, worker_starts_first, monkeypatch
    ):
        rng = np.random.default_rng(53)
        a, w = Tensor(rng.normal(size=(1344, 256))), Tensor(rng.normal(size=(256, 256)))
        matmul(a, w)
        before, lane, caller = _cpus(), self._worker_cpus(), threading.get_native_id()
        during = []

        def seen(fn):
            def run(*args, **kwargs):
                during.append(_cpus(caller))
                return fn(*args, **kwargs)
            return run

        _spy_on_submit(monkeypatch, seen)
        if raises is None:
            matmul(a, w)
        else:
            with pytest.raises(RuntimeWarning):
                matmul(*self._overflowing(top=raises == "worker"))
        assert during == [before - lane]
        assert _cpus() == before

    def test_refused_placement_keeps_the_bytes(self, fresh_lane, monkeypatch):
        rng = np.random.default_rng(54)
        a, w = rng.normal(size=(1344, 256)), rng.normal(size=(256, 256))
        ref, before, tried = a @ w, _cpus(), []

        def refuse(tid, cpus):
            tried.append(tid)
            raise OSError(errno.EPERM, "refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        out = matmul(Tensor(a), Tensor(w)).data
        worker = autodiff._lane[1].submit(threading.get_native_id).result()
        assert set(tried) == {0, worker}  # both threads were to be placed
        assert out.tobytes() == ref.tobytes()
        assert _cpus() == before and _cpus(worker) == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU masks")
    def test_one_cpu_mask_makes_no_split(self):
        # in a fresh interpreter, whose mask is narrowed after the import
        proc = _run_fresh(_ONE_CPU_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "None", "1"]


# a default-width product after the process is narrowed to one CPU: whether
# its bytes are the one-call product's, the lane, and the thread count
_ONE_CPU_PROBE = """
import os
import threading

import numpy as np

from ibimpute import autodiff

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
rng = np.random.default_rng(55)
a, w = rng.normal(size=(1344, 256)), rng.normal(size=(256, 256))
out = autodiff.matmul(autodiff.Tensor(a), autodiff.Tensor(w)).data
print(out.tobytes() == (a @ w).tobytes(), autodiff._lane, threading.active_count())
"""
