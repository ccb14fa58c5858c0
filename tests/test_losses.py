import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibimpute.autodiff import Tape, Tensor, custom_node, grad_check, matmul
from ibimpute.losses import (
    COSINE_BLOCK_ROWS,
    DomainError,
    GLO_COSINE,
    GLO_INFONCE,
    LossWeights,
    cosine_align_loss,
    infonce_loss,
    loc_loss,
    reg_loss,
    total_objective,
)
from ibimpute.model import LatentDistribution


def _dist(mu, sigma):
    return LatentDistribution(mu=Tensor(np.asarray(mu, dtype=float)),
                              sigma=Tensor(np.asarray(sigma, dtype=float)))


def _mc_kl(mu, sigma, n=1_000_000, seed=0):
    """Monte-Carlo KL[N(mu, sigma^2) || N(0,1)] summed over dims.

    Average of log q(z) - log p(z) under z ~ q, with q the diagonal
    Gaussian and p the standard normal.
    """
    rng = np.random.default_rng(seed)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    z = mu + sigma * rng.standard_normal((n,) + mu.shape)
    log_q = -0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * math.log(2 * math.pi)
    log_p = -0.5 * z**2 - 0.5 * math.log(2 * math.pi)
    return float((log_q - log_p).sum(axis=-1).mean())


def _brute_infonce(a, b, tau):
    """Per-anchor softmax cross-entropy with explicit loops."""
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    losses = []
    for i in range(a.shape[0]):
        scores = np.array([a[i] @ b[j] / tau for j in range(b.shape[0])])
        p = np.exp(scores - scores.max())
        p /= p.sum()
        losses.append(-math.log(p[i]))
    return float(np.mean(losses))


class TestRegLoss:
    def test_standard_normal_is_zero(self):
        val = reg_loss(_dist(np.zeros((3, 4)), np.ones((3, 4)))).data
        assert val == 0.0

    def test_unit_mean_example(self):
        assert abs(reg_loss(_dist([1.0, 0.0], [1.0, 1.0])).data - 0.5) < 1e-12

    def test_wide_sigma_example(self):
        expected = 0.5 * (math.e**2 - 2.0 - 1.0)
        got = reg_loss(_dist([0.0, 0.0], [math.e, 1.0])).data
        assert abs(got - expected) < 1e-12

    def test_batch_averaging(self):
        # two identical batch elements average to the single-element value
        one = reg_loss(_dist([1.0, 0.0], [1.0, 1.0])).data
        mu = np.array([[1.0, 0.0], [1.0, 0.0]])
        two = reg_loss(_dist(mu, np.ones_like(mu))).data
        assert abs(float(two) - float(one)) < 1e-12

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            reg_loss(_dist([0.0], [0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_monte_carlo_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        mu = rng.uniform(-2.0, 2.0, size=4)
        sigma = rng.uniform(0.3, 2.5, size=4)
        closed = float(reg_loss(_dist(mu, sigma)).data)
        assert abs(closed - _mc_kl(mu, sigma, seed=seed)) < 0.01

    def test_gradient(self, rand):
        sigma = np.abs(rand((2, 3), seed=1)) + 0.3

        def f(at):
            return reg_loss(LatentDistribution(mu=at, sigma=Tensor(sigma)))

        report = grad_check(f, Tensor(rand((2, 3), seed=2)), tol=1e-4)
        assert report.passed, report.max_rel_err

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_property(self, seed):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-3.0, 3.0, size=(2, 5))
        sigma = np.exp(rng.uniform(-2.0, 2.0, size=(2, 5)))
        assert reg_loss(_dist(mu, sigma)).data >= 0.0


class TestLocLoss:
    def test_perfect_reconstruction(self):
        x = Tensor([1.0, -1.0, 2.0])
        assert loc_loss(x, Tensor(x.data.copy()), Tensor(np.ones(3))).data == 0.0

    def test_two_point_example(self):
        got = loc_loss(Tensor([1.0, 2.0]), Tensor([2.0, 4.0]), Tensor([1.0, 1.0]))
        assert abs(got.data - 2.5) < 1e-12

    def test_mask_restricts_positions(self):
        got = loc_loss(Tensor([1.0, 2.0]), Tensor([2.0, 4.0]), Tensor([1.0, 0.0]))
        assert abs(got.data - 1.0) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty target"):
            loc_loss(Tensor([1.0]), Tensor([2.0]), Tensor([0.0]))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError, match="0 and 1"):
            loc_loss(Tensor([1.0]), Tensor([2.0]), Tensor([0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            loc_loss(Tensor([1.0, 2.0]), Tensor([2.0]), Tensor([1.0]))

    def test_gradient(self, rand):
        x = rand((3, 4), seed=3)
        mask = (np.arange(12).reshape(3, 4) % 3 == 0).astype(float)

        def f(at):
            return loc_loss(Tensor(x), at, Tensor(mask))

        report = grad_check(f, Tensor(rand((3, 4), seed=4)), tol=1e-4)
        assert report.passed, report.max_rel_err


class TestInfoNce:
    def test_identical_rows_log_r(self):
        for r in (4, 8, 16):
            rows = Tensor(np.tile([0.3, -0.7, 0.2], (r, 1)))
            got = infonce_loss(rows, Tensor(rows.data.copy()), temperature=0.1)
            assert abs(got.data - math.log(r)) < 1e-12

    def test_strong_positive_limit(self):
        # two orthogonal rows with a tiny temperature push the positive
        # probability to 1, so the loss collapses toward 0
        z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        got = infonce_loss(z, Tensor(z.data.copy()), temperature=0.01)
        assert got.data < 1e-12

    @pytest.mark.parametrize("rows", [4, 8, 16])
    def test_brute_force_oracle(self, rows, rand):
        a = rand((rows, 6), seed=50 + rows)
        b = rand((rows, 6), seed=60 + rows)
        got = float(infonce_loss(Tensor(a), Tensor(b), temperature=0.1).data)
        assert abs(got - _brute_infonce(a, b, 0.1)) < 1e-10

    def test_flattens_batch_and_variable_axes(self, rand):
        a = rand((2, 3, 5), seed=5)
        b = rand((2, 3, 5), seed=6)
        nested = infonce_loss(Tensor(a), Tensor(b)).data
        flat = infonce_loss(Tensor(a.reshape(6, 5)), Tensor(b.reshape(6, 5))).data
        assert abs(float(nested) - float(flat)) < 1e-15

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            infonce_loss(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))

    def test_zero_norm_row_rejected(self):
        z = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero-norm"):
            infonce_loss(z, Tensor(np.ones((2, 2))))

    def test_bad_temperature_rejected(self, rand):
        z = Tensor(rand((3, 2), seed=7))
        with pytest.raises(ValueError, match="temperature"):
            infonce_loss(z, z, temperature=0.0)

    def test_gradient(self, rand):
        b = rand((5, 4), seed=8)

        def f(at):
            return infonce_loss(at, Tensor(b), temperature=0.1)

        report = grad_check(f, Tensor(rand((5, 4), seed=9)), tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_target_carries_no_gradient(self, rand):
        x = Tensor(rand((4, 3), seed=10))
        w = Tensor(rand((3, 3), seed=11), trainable=True)
        with Tape() as tape:
            tape.watch(w)
            z = matmul(x, w)
            loss_live = infonce_loss(z, matmul(x, w), temperature=0.1)
        g_live = tape.backward(loss_live).of(w)
        with Tape() as tape:
            tape.watch(w)
            z = matmul(x, w)
            loss_const = infonce_loss(z, Tensor(matmul(x, w).data.copy()), temperature=0.1)
        g_const = tape.backward(loss_const).of(w)
        assert np.array_equal(g_live, g_const)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        assert infonce_loss(Tensor(a), Tensor(b)).data >= 0.0


def _whole_array_cosine(z_proj, z_target):
    """The float ops of :func:`cosine_align_loss` as it was before it worked
    in row blocks: every step on whole [rows, dim] arrays."""
    a = z_proj.data.reshape(-1, z_proj.shape[-1])
    b = z_target.data.reshape(-1, z_target.shape[-1])
    r = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    na, nb = a / r, b / np.sqrt((b * b).sum(axis=-1, keepdims=True))
    count = a.shape[0]

    def backward(g, need):
        c = (-g) / count
        g_na = c * nb
        g_r = (((-g_na) * a) / (r * r)).sum(axis=-1, keepdims=True)
        g_norms_sq = (g_r * 0.5) / r
        g_a = g_na / r + (g_norms_sq * 2.0) * a
        return (g_a.reshape(z_proj.shape),)

    return custom_node(-(na * nb).sum(axis=-1).mean(), (z_proj,), backward)


class TestCosineAlign:
    @pytest.mark.parametrize(
        "rows", [1, COSINE_BLOCK_ROWS - 1, COSINE_BLOCK_ROWS, COSINE_BLOCK_ROWS + 1, 1344]
    )
    def test_row_blocks_are_bytes_of_the_whole_array_formula(self, rows):
        # 1344 rows: a default-width batch, 64 windows of 21 variables
        rng = np.random.default_rng([64, rows])
        inputs = (rng.normal(size=(rows, 256)), rng.normal(size=(rows, 256)))
        value, grads, _ = _weighted(cosine_align_loss, inputs, 0.1)
        ref_value, ref_grads, _ = _weighted(_whole_array_cosine, inputs, 0.1)
        assert value.tobytes() == ref_value.tobytes()
        assert grads[0].tobytes() == ref_grads[0].tobytes()

    def test_identical_rows(self, rand):
        z = Tensor(rand((4, 3), seed=12))
        assert abs(cosine_align_loss(z, Tensor(z.data.copy())).data - (-1.0)) < 1e-12

    def test_orthogonal_rows(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        b = Tensor(np.array([[0.0, 3.0], [4.0, 0.0]]))
        assert abs(cosine_align_loss(a, b).data) < 1e-12

    def test_antiparallel_rows(self, rand):
        z = rand((3, 5), seed=13)
        got = cosine_align_loss(Tensor(z), Tensor(-z)).data
        assert abs(got - 1.0) < 1e-12

    def test_rescaling_invariance(self, rand):
        a = rand((4, 3), seed=14)
        b = rand((4, 3), seed=15)
        base = cosine_align_loss(Tensor(a), Tensor(b)).data
        scaled = cosine_align_loss(Tensor(7.5 * a), Tensor(0.01 * b)).data
        assert abs(float(base) - float(scaled)) < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_align_loss(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))))

    def test_range_bounds(self, rand):
        a = rand((10, 4), seed=16)
        b = rand((10, 4), seed=17)
        v = float(cosine_align_loss(Tensor(a), Tensor(b)).data)
        assert -1.0 <= v <= 1.0

    def test_gradient(self, rand):
        b = rand((4, 3), seed=18)

        def f(at):
            return cosine_align_loss(at, Tensor(b))

        report = grad_check(f, Tensor(rand((4, 3), seed=19)), tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_target_carries_no_gradient(self, rand):
        x = Tensor(rand((4, 3), seed=20))
        w = Tensor(rand((3, 3), seed=21), trainable=True)
        with Tape() as tape:
            tape.watch(w)
            loss_live = cosine_align_loss(matmul(x, w), matmul(x, w))
        g_live = tape.backward(loss_live).of(w)
        with Tape() as tape:
            tape.watch(w)
            loss_const = cosine_align_loss(matmul(x, w), Tensor(matmul(x, w).data.copy()))
        g_const = tape.backward(loss_const).of(w)
        assert np.array_equal(g_live, g_const)


def _weighted(term, inputs, weight):
    """``term(*inputs) * weight``, summed by :func:`total_objective` as its
    only term, every input watched: the value, each input's gradient and the
    node count."""
    tensors = [Tensor(x) for x in inputs]
    weights = LossWeights(reg=0.0, loc=weight, glo=0.0)
    with Tape() as tape:
        tape.watch(*tensors)
        loss, _ = total_objective(weights, loc=term(*tensors))
    grads = tape.backward(loss)
    return loss.data, [grads.of(t) for t in tensors], len(tape.nodes)


INFONCE_CASES = {"2d": (9, 16), "3d": (8, 7, 32), "4d": (2, 3, 5, 4), "near_duplicate": (12, 8)}


def _infonce_inputs(case, seed):
    """``z_proj`` and ``z_target`` of :data:`INFONCE_CASES` ``case``; the
    near-duplicate targets are one row plus noise of 1e-6."""
    rng = np.random.default_rng([63, seed])
    shape = INFONCE_CASES[case]
    z_proj = rng.normal(size=shape)
    if case == "near_duplicate":
        return z_proj, rng.normal(size=shape[-1]) + 1e-6 * rng.normal(size=shape)
    return z_proj, rng.normal(size=shape)


class TestOneNodeTerms:
    """Each loss term is one node, with the value and gradient bytes of the
    chain of autodiff ops (square, tsum, sqrt, div, log, tmean, ...) it was
    built from before.  Those ops are gone, so :data:`ONE_NODE_DIGESTS` pins
    the sha256 of the bytes each chain gave for the same inputs."""

    @staticmethod
    def _assert_pinned(key, term, inputs):
        value, grads, nodes = _weighted(term, inputs, key[2])
        assert nodes == 2  # the term, then the weighted sum
        digest = hashlib.sha256(value.tobytes())
        for g in grads:
            digest.update(np.ascontiguousarray(g).tobytes())
        assert digest.hexdigest() == ONE_NODE_DIGESTS[key]

    @pytest.mark.parametrize("shape", [(5,), (7, 32), (8, 7, 32)])
    @pytest.mark.parametrize("weight", [1.0, 0.01, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_reg_is_bytes_of_composite(self, shape, weight, seed):
        rng = np.random.default_rng([60, seed])
        inputs = (rng.normal(size=shape), np.exp(rng.normal(size=shape)))

        def term(mu, sigma):
            return reg_loss(LatentDistribution(mu=mu, sigma=sigma))

        self._assert_pinned(("reg", shape, weight, seed), term, inputs)

    @pytest.mark.parametrize("shape", [(12,), (8, 96, 7)])
    @pytest.mark.parametrize("weight", [1.0, 0.3, 0.7])
    @pytest.mark.parametrize("seed", range(3))
    def test_loc_is_bytes_of_composite(self, shape, weight, seed):
        rng = np.random.default_rng([61, seed])
        mask = (rng.uniform(size=shape) > 0.3).astype(float)
        inputs = (rng.normal(size=shape), rng.normal(size=shape), mask)
        self._assert_pinned(("loc", shape, weight, seed), loc_loss, inputs)

    @pytest.mark.parametrize("shape", [(9, 16), (8, 7, 32), (2, 3, 5, 4)])
    @pytest.mark.parametrize("weight", [1.0, 0.1, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_is_bytes_of_composite(self, shape, weight, seed):
        rng = np.random.default_rng([62, seed])
        inputs = (rng.normal(size=shape), rng.normal(size=shape))
        self._assert_pinned(("cosine", shape, weight, seed), cosine_align_loss, inputs)

    @pytest.mark.parametrize("case", sorted(INFONCE_CASES))
    @pytest.mark.parametrize("weight", [1.0, 0.1, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_infonce_is_bytes_of_composite(self, case, weight, seed):
        inputs = _infonce_inputs(case, seed)
        self._assert_pinned(("infonce", case, weight, seed), infonce_loss, inputs)

    def test_tiny_sigma_is_a_domain_error_as_before(self):
        # sigma**2 underflows to 0, whose log the chain's log op refused
        with pytest.raises(DomainError, match="strictly positive"):
            reg_loss(_dist([0.0], [1e-170]))


class TestTotalObjective:
    def test_all_zero_weights(self):
        w = LossWeights(reg=0.0, loc=0.0, glo=0.0)
        total, bd = total_objective(w, reg=Tensor(2.0), loc=Tensor(0.5), glo=Tensor(-0.8))
        assert total.data == 0.0
        assert bd.total == 0.0

    def test_default_weight_example(self):
        w = LossWeights(reg=0.01, loc=1.0, glo=0.1)
        total, bd = total_objective(w, reg=Tensor(2.0), loc=Tensor(0.5), glo=Tensor(-0.8))
        assert abs(bd.total - 0.44) < 1e-12
        assert abs(float(total.data) - 0.44) < 1e-12

    def test_zero_weight_still_reported(self):
        w = LossWeights(reg=0.0, loc=1.0, glo=0.1)
        total, bd = total_objective(w, reg=Tensor(2.0), loc=Tensor(0.5), glo=Tensor(-0.8))
        assert bd.reg == 2.0
        assert abs(bd.total - 0.42) < 1e-12

    def test_glo_none_ignores_glo(self):
        w = LossWeights(glo=0.0)
        total, bd = total_objective(w, reg=Tensor(1.0), loc=Tensor(1.0), glo=Tensor(5.0))
        assert bd.glo == 0.0
        assert abs(bd.total - (0.01 + 1.0)) < 1e-12

    def test_missing_terms_contribute_nothing(self):
        total, bd = total_objective(LossWeights(), loc=Tensor(3.0))
        assert bd.reg == 0.0 and bd.glo == 0.0
        assert abs(bd.total - 3.0) < 1e-12

    def test_zero_weight_term_off_gradient(self, rand, sum_all, add, mul):
        # a zero-weight term never enters the summed tensor, so its
        # gradient path is dead even while its value is logged
        w = LossWeights(reg=0.0, loc=1.0, glo=0.0)
        t = Tensor(rand((2, 2), seed=22), trainable=True)

        with Tape() as tape:
            tape.watch(t)
            shifted = add(t, Tensor(-1.0))
            inv_size = Tensor(1.0 / t.data.size)
            reg_term = mul(sum_all(mul(t, t)), inv_size)
            loc_term = mul(sum_all(mul(shifted, shifted)), inv_size)
            total, _ = total_objective(w, reg=reg_term, loc=loc_term)
        g = tape.backward(total).of(t)
        expected = 2.0 * (t.data - 1.0) / t.data.size
        assert np.max(np.abs(g - expected)) < 1e-12

    def test_sum_is_one_node_whose_gradients_are_the_weights(self):
        w = LossWeights(reg=0.01, loc=1.0, glo=0.3)
        terms = [Tensor(v) for v in (2.0, 0.5, -0.8)]
        with Tape() as tape:
            tape.watch(*terms)
            total, bd = total_objective(w, *terms)
        assert len(tape.nodes) == 1
        assert bd.total == total.item() == (2.0 * 0.01 + 0.5 * 1.0) + -0.8 * 0.3
        grads = tape.backward(total)
        assert [grads.of(t).item() for t in terms] == [0.01, 1.0, 0.3]

    def test_constant_term_gets_no_gradient(self):
        loc = Tensor(2.0, trainable=True)
        with Tape() as tape:
            total_objective(LossWeights(), reg=Tensor(1.0), loc=loc)
        (node,) = tape.nodes
        assert node.inputs[1] is loc
        assert node.backward(np.ones(())) == [None, 1.0]

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_sum_invariant(self, a, b1, b2):
        w = LossWeights(reg=a, loc=b1, glo=b2)
        total, bd = total_objective(
            w, reg=Tensor(1.25), loc=Tensor(-0.5), glo=Tensor(0.75)
        )
        assert abs(bd.total - (a * 1.25 + b1 * -0.5 + b2 * 0.75)) < 1e-12


class TestLossWeightsValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(reg=-0.1).validate()

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(glo_variant="contrastive").validate()

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(temperature=0.0).validate()

    def test_training_needs_data_term(self):
        w = LossWeights(reg=0.5, loc=0.0, glo=0.0)
        w.validate()  # fine for evaluation
        with pytest.raises(ValueError):
            w.validate(for_training=True)

    def test_glo_only_trains(self):
        LossWeights(reg=0.0, loc=0.0, glo=0.1, glo_variant=GLO_COSINE).validate(
            for_training=True
        )

    def test_defaults_are_valid(self):
        w = LossWeights()
        w.validate(for_training=True)
        assert (w.reg, w.loc, w.glo) == (0.01, 1.0, 0.1)
        assert w.glo_variant == GLO_COSINE
        assert w.temperature == 0.1


# (term, shape or INFONCE_CASES case, weight, seed) -> sha256 of the value
# bytes of ``term(*inputs) * weight``, then of each input's gradient bytes,
# as the autodiff-op chain each term was built from gave them
ONE_NODE_DIGESTS = {
    ("reg", (5,), 1.0, 0):
        "dbe5756401137e15e0d1405c222b080e6b9e99d4b39f664e66b0d9817c19bd43",
    ("reg", (5,), 1.0, 1):
        "66e301debab6179a634a9aedaec09d72f29c0ec4c10df55ac6f68893dc2bf402",
    ("reg", (5,), 1.0, 2):
        "9e8ef37db029af500bae0fa5079ee3c953db7f9cc78199a4bf7e9b5f945be360",
    ("reg", (5,), 0.01, 0):
        "d444ca4a88a5ae45b574a7b741af402e7c71e50e8c948ecac6bb827e28d77e25",
    ("reg", (5,), 0.01, 1):
        "3cc12d9fa9e9541f6f12dc7646ed0e56229826e8b9a256ef9aa1a7a8825df917",
    ("reg", (5,), 0.01, 2):
        "89d6986e20568ae5e1bf734a4e930028b1664afa6a47a90b2ed07e5d4764cb88",
    ("reg", (5,), 0.3, 0):
        "c36487d11b2756b86d9a1b50c609e12b7f598af1df9c440fe555f399206c1e7b",
    ("reg", (5,), 0.3, 1):
        "9961b02b652b0ab8fa43d13a2cce01dc88120258399222014c7e882c4e03aafa",
    ("reg", (5,), 0.3, 2):
        "40b7bfdfaadb2082f5688829c353dc1f2563e97dd162fdad2a17680b903916fb",
    ("reg", (7, 32), 1.0, 0):
        "782c4993f7628d5e5003ed35a387a3b505a10f4d318e953ad314b58df60df4c5",
    ("reg", (7, 32), 1.0, 1):
        "c44490d2f638457636616c5e7f7cdb2be28cd22c37ea49a436808208aa35b00a",
    ("reg", (7, 32), 1.0, 2):
        "4232255721d4dde6f11322f4fbf8ca692c5f38fb74da2600d7009440e607b476",
    ("reg", (7, 32), 0.01, 0):
        "009830adc569da5125863b9ee4b4c8b1b606b0f35f26dd494f9e1591edfee1c3",
    ("reg", (7, 32), 0.01, 1):
        "a29202e94bffba19ad93eacb76f25b0dce2950f831fb66f8e1f283f632314d2c",
    ("reg", (7, 32), 0.01, 2):
        "5f844ddc152fc5a99120b8bc58313fa6f92a9b9aec0a9a6bd218b9891787cba0",
    ("reg", (7, 32), 0.3, 0):
        "c88a1c32128519df9c5d1314a6fd1d6f7b0df6b249b047135af9d84eca967009",
    ("reg", (7, 32), 0.3, 1):
        "07088caf331d955498d183fc14a0c3e81d3df873b765379d7c9a9d36b7fb352f",
    ("reg", (7, 32), 0.3, 2):
        "af60b7552d00060e4ae695cb6eff5a6e2c444b21087bba6db8bc8bffa6e66d6e",
    ("reg", (8, 7, 32), 1.0, 0):
        "f6ad660fae16c4930d1315d600ad5e76e52a1a0ff7f66837e664cc240baa355b",
    ("reg", (8, 7, 32), 1.0, 1):
        "e6f85b7d88f3574cd2197d9f90cdbb95f1fce21d8fd26013148357b0aa2045a0",
    ("reg", (8, 7, 32), 1.0, 2):
        "8143cd159dae825c9944c0ca251baca05186038fa40be48b16dd31755110ad10",
    ("reg", (8, 7, 32), 0.01, 0):
        "47fda98d713ff1b282527d183849b73d42ed4f1f5de6eadf270642e03c85fa54",
    ("reg", (8, 7, 32), 0.01, 1):
        "8553f785de1ceb1e6ca6945e914fb7b396c2bbbdf6c5f11bdab79fb9dfd8f8f0",
    ("reg", (8, 7, 32), 0.01, 2):
        "9d77528cdd81681f33737de1c85bb17038124fd913eb1d1574e3071fb8f92c99",
    ("reg", (8, 7, 32), 0.3, 0):
        "2c7b09cdb5365944276bb2b4ffd2d724bbb1037a2e4efef1945286a3416391fb",
    ("reg", (8, 7, 32), 0.3, 1):
        "93950dda1809a75c67dc66fce4323b480a53596ed2c6b01695a36007c1d608f3",
    ("reg", (8, 7, 32), 0.3, 2):
        "dee7c5e12336e419234e237d5e87bd6b40a030fef4973b617e450b41d2e3af69",
    ("loc", (12,), 1.0, 0):
        "6e858bd83784ae4034b58be854769b45716a53898c3a4698a5a25fa53e83419f",
    ("loc", (12,), 1.0, 1):
        "6b04205e1781df55d3aafdcc2a710bc8acef8137a2d9863ba5908531be49c0b5",
    ("loc", (12,), 1.0, 2):
        "fe9efc679da8666eba961cfba7157567593185389fc01b3d3273c95398d8ac36",
    ("loc", (12,), 0.3, 0):
        "a71ddfe9b7fb96c6ba089e67844ee2f0f7ac8be705d81ecb6a08a9090de2ee13",
    ("loc", (12,), 0.3, 1):
        "dac277ee7f18a863b32b9f85a9d50b2e69c58c3b8eec8be91ca2651dfb4c2665",
    ("loc", (12,), 0.3, 2):
        "f0d07c310f9ad0cac87737d2e2ff65ee5a37f1a4be61d12049495aa63bab9486",
    ("loc", (12,), 0.7, 0):
        "910e910f878fea352841fde4ec4fd57560492c6bf1d1c79b689261fdec75ad8a",
    ("loc", (12,), 0.7, 1):
        "eba02e1a5cb81c3391fd0a136522c224b8e7066aa9dae2c1712a0abf1e389a89",
    ("loc", (12,), 0.7, 2):
        "279d3a123a0d68ebf28edd57bb01a0e8a93ee2830ab5a9cddea8dabbc097e2b8",
    ("loc", (8, 96, 7), 1.0, 0):
        "1f200fdc890950533d58ff744b7cb621a7de2fd8f4b8fdb2e3d3253e1704e305",
    ("loc", (8, 96, 7), 1.0, 1):
        "b88d6395841927574ab15d41e71b864bd3fd02a960e507f2b02dac85629407aa",
    ("loc", (8, 96, 7), 1.0, 2):
        "b5992f7923a13157705f958972736f3e7ca59b5f2799d430bfa3b8dc1eeb1a89",
    ("loc", (8, 96, 7), 0.3, 0):
        "7a9334ca8f54e4836b9e05a33c565b2261cbb6ac07d0c8b720fd4cd20c929870",
    ("loc", (8, 96, 7), 0.3, 1):
        "dc46a1aa88cfab9f8568a7579a5a26b41b890cc5e8e12011495e79c298c0ea5e",
    ("loc", (8, 96, 7), 0.3, 2):
        "31196f0e44a3d5d3b08c2d16b8b7274ae629e74828043a484a8b1c4af9dda0e4",
    ("loc", (8, 96, 7), 0.7, 0):
        "0450ac9b28e14c3787607304688e9f1feeb2efeed1d25ab0523c75f3743f2d21",
    ("loc", (8, 96, 7), 0.7, 1):
        "e677c16aec20c1e540dbc21fc711de1a8fd88ab218440810e8a8ba2db3fa7e4c",
    ("loc", (8, 96, 7), 0.7, 2):
        "b4e0a2a4b7088ff67bfc2ce534f7089b67228a78e47737618f63ec8544574f81",
    ("cosine", (9, 16), 1.0, 0):
        "768e3ad6ab209cbc264be579c1644ac4c5487a835aa4eb888d81ae91589be6c1",
    ("cosine", (9, 16), 1.0, 1):
        "e0bc7daa7b091577612965cdd90455b5e9b8da8fd037587a9d2a8017680ff3cc",
    ("cosine", (9, 16), 1.0, 2):
        "9f9d71187d21033b9cefc230251f4438ff5b47b057240443d5a44c9b60a05e81",
    ("cosine", (9, 16), 0.1, 0):
        "df56c0def5e1e39bf2c1b9803a08be4ccf9544594fa6195d7f6d87fd0e700575",
    ("cosine", (9, 16), 0.1, 1):
        "b5b9db336203b9832a28db599ee442136278b01ce9e76464cce7c87e2c7568ee",
    ("cosine", (9, 16), 0.1, 2):
        "0345f03df501fe6046c2b4b9c425288763ec2665a010bb212fdea81555296bea",
    ("cosine", (9, 16), 0.3, 0):
        "362b4c623e995b858015c0867b49cfbb041954dde30c663b6a0a4ed082fc5381",
    ("cosine", (9, 16), 0.3, 1):
        "07f295c03b7cdc0fd5bb7841b22a735a7778b2a292ef6ba6bba31e3b143f353c",
    ("cosine", (9, 16), 0.3, 2):
        "f743cc71eddf2f0d563949f578df5bdf819a2398c3b97d9187d881f5bd278f38",
    ("cosine", (8, 7, 32), 1.0, 0):
        "f7590c8267b7c05e5fd0d4c98d38e9aea3dcc0bd0366c953d6181c53c1db65c6",
    ("cosine", (8, 7, 32), 1.0, 1):
        "1f0ae398e0d9db6aca936be5e50943ae2dd55f8bd9b85ab49d2baa64b31b35cf",
    ("cosine", (8, 7, 32), 1.0, 2):
        "2deb01e1bc69672dfc12b5520721e01ffb31d8cdc9a2b378bd336755e9c348c8",
    ("cosine", (8, 7, 32), 0.1, 0):
        "39cf00e9fed872749d0ea90a976fc6a2b1c9c1d9dae0cd61f36a1d6d4236e00d",
    ("cosine", (8, 7, 32), 0.1, 1):
        "5fa91848240efbf1d123e45ae4c4c4bb448e6050259c6ab56c6acd0051ccd37e",
    ("cosine", (8, 7, 32), 0.1, 2):
        "4c640f0656a332b3949e41be54708b732b5a341a87d5b3460be599f0bb88400d",
    ("cosine", (8, 7, 32), 0.3, 0):
        "c63ef7052cc95ea9f34a20a10075b7650ec58438c99e963329d37d5a1f576525",
    ("cosine", (8, 7, 32), 0.3, 1):
        "148974b40dae9f62ee160baf0883092c07389e013cd59f1172a7e39133ae763e",
    ("cosine", (8, 7, 32), 0.3, 2):
        "839280e3d91f13b1a2962377c611df39211a85c4b8b976fea3726d7635bfe73a",
    ("cosine", (2, 3, 5, 4), 1.0, 0):
        "62989d1da61059859ce7a3a82b768e1fdd64235c64dbc323f2df0653e4750dff",
    ("cosine", (2, 3, 5, 4), 1.0, 1):
        "84fe9ef7f3a84a51b2e96a1e2208d95c5e9fde2148309627118fc24f01746389",
    ("cosine", (2, 3, 5, 4), 1.0, 2):
        "868edb7a899dbebcc42646cb217ac01d71e7c28fdaf31aa73e8e8ed513142775",
    ("cosine", (2, 3, 5, 4), 0.1, 0):
        "ebc15773699b92707226248840fc0ae102d3b6cfd9b2b7b62fdaefb0d6134711",
    ("cosine", (2, 3, 5, 4), 0.1, 1):
        "a1bbdd5b104bd9be61f5dc4861f2d53090b40c32a6d16504516fb6bb7147646e",
    ("cosine", (2, 3, 5, 4), 0.1, 2):
        "7541711f7677b92029b3d2639e4a88250b01827b27da5ee0585e7c8ced6f0891",
    ("cosine", (2, 3, 5, 4), 0.3, 0):
        "235f5375a5129040e1da034a2c06140605fd44e9023c8ea5aedc79ce0a5bde12",
    ("cosine", (2, 3, 5, 4), 0.3, 1):
        "1e4fa8465575de593d8ff25e847b68d58cd6c45df5b04830f6a045e8639dfb52",
    ("cosine", (2, 3, 5, 4), 0.3, 2):
        "464eb80d8ac957650ff8dd9c9b9ac6da287e0f86120158f5c3d4f4f608a78087",
    ("infonce", "2d", 1.0, 0):
        "8ff4c47092fdd9091e191e5706a598631a3be906cae06f7c45adb1036dbabe19",
    ("infonce", "2d", 1.0, 1):
        "8eb44ed14a9e695724313618c1c1f873153ebce61c06fb70c53ae137c3ab5904",
    ("infonce", "2d", 1.0, 2):
        "cbf830546be9726d5f6c9b6b1cb92835e3a5a702426b36965d67f2fe15391ea5",
    ("infonce", "2d", 0.1, 0):
        "0ccc670971c63386b55534996823eb0b410c4647f6c17f6433d94f975c383d6d",
    ("infonce", "2d", 0.1, 1):
        "6c7df16de208c73854ba35f2fdf64599567b71cc5b6b3af5f42d4043842684dd",
    ("infonce", "2d", 0.1, 2):
        "2f0a447067f62cfff3ba079cf02e70e42b40cfcf273f786926bebd52fab99554",
    ("infonce", "2d", 0.3, 0):
        "4937d02f1652256bdb04e45c2ab0d7b538e0dec864b157bded5a258952a9d431",
    ("infonce", "2d", 0.3, 1):
        "915bdfffe1e4fa1f3bbbaff271b72222c2c6ff51c91ef27c0cdb39efa1d176bc",
    ("infonce", "2d", 0.3, 2):
        "3b66a1f1444daea1e21e0135d3c9da79dd3ba4a0af0f25b0e57f8253c6d70a12",
    ("infonce", "3d", 1.0, 0):
        "e2ee066335177f089cb16f7aed81c1b5b5b8f673981983a713c519992f6523f8",
    ("infonce", "3d", 1.0, 1):
        "f60c197c64b03ebddc88f98de48e306914850efcd128441efe8d5670d4787011",
    ("infonce", "3d", 1.0, 2):
        "77f7a2f50708850ecdde13bc508ae4302046268daa2c9fb527a2bcde249cd161",
    ("infonce", "3d", 0.1, 0):
        "fa458a0437b3431a5afbd779a3ea865c85a12e36e7b468289ac3fbecff402f58",
    ("infonce", "3d", 0.1, 1):
        "d9f11f4e8fe574f97fc22f192ff42019dd3e9515e0ed1e16ac47ac50b6eb0878",
    ("infonce", "3d", 0.1, 2):
        "ddccf32d05d00ca62aacc66a93bcac2dc668ee87af428228c0175b4880767e0d",
    ("infonce", "3d", 0.3, 0):
        "77fc2def74d3953763d14cb318c1fef332a3325a62b243efafdb5b8dfe7bc442",
    ("infonce", "3d", 0.3, 1):
        "71fa641815bc7f5b8d3b3c071b3367b8789ccd0ad54aed26f7ff16ee93f43013",
    ("infonce", "3d", 0.3, 2):
        "55c8a97ae327845872a8f283a5e07afb80fd825328a559efa53299ed4c80b7ee",
    ("infonce", "4d", 1.0, 0):
        "49337de9741576588fe9d7237094f98cf5d13d2ed6bf66cb8fb5c616b2a99e13",
    ("infonce", "4d", 1.0, 1):
        "b59baacbc073a52249d5460c0ce4557b8bbeee5fb1a5fc55a934d681639ec80e",
    ("infonce", "4d", 1.0, 2):
        "bc1bf700e001cd0d8ba935c1e4a8b5040ca4475bd55935e2d3ac38f8ebb71bca",
    ("infonce", "4d", 0.1, 0):
        "9c88de73af526af715e5537846acd5e3dd6acd1976adaf2e8a4109ab764563a4",
    ("infonce", "4d", 0.1, 1):
        "eed5e36e7539a050a589513156913fa8da1d8c4ad807bf22b778a21d811273aa",
    ("infonce", "4d", 0.1, 2):
        "de4896d2c609b49c2fb39bdb8d12adfb135845673816ff152bd51ad5653b6a4e",
    ("infonce", "4d", 0.3, 0):
        "79b65039cf45705f478556e8af7e3cbff8bb106de48ef23799ea257c6ba418ce",
    ("infonce", "4d", 0.3, 1):
        "6807ae71d4c94ed4d570e45a21451a455d5d0851aa6103fbea991222d8e4b0e2",
    ("infonce", "4d", 0.3, 2):
        "8abd374c25cc1ae8e9f8c32735811d382ad1c01a5072df689c94b5247ac6e777",
    ("infonce", "near_duplicate", 1.0, 0):
        "90f75964238e20678e8e80d7c1188a8415614a05f5d3e10b0a9ff08007c55249",
    ("infonce", "near_duplicate", 1.0, 1):
        "10fdfa82deb09313fa074d2a1f3a84136b60b738c4687a1f37386731829b4c5d",
    ("infonce", "near_duplicate", 1.0, 2):
        "4c4e1a00d3053e64787ba8a0be2a38a6fc8edaedd87ece8a19b2262676fb0f5d",
    ("infonce", "near_duplicate", 0.1, 0):
        "603afd5c26a6ef062349676173df190216ef4005bb1b7d8ba033b286da17b931",
    ("infonce", "near_duplicate", 0.1, 1):
        "875f2fe0facf299774085935e0ac97a7c10e678beb74483c02c2c96db2d0ca0a",
    ("infonce", "near_duplicate", 0.1, 2):
        "c8e23cd6d15f5cd33dc894314cbec510fe94f68308e1d35be6f883b10fbcdb84",
    ("infonce", "near_duplicate", 0.3, 0):
        "effbec77bdee5c2222ef0a25f4ccea95152ae10c02ce72a2b7dfa4dad3128014",
    ("infonce", "near_duplicate", 0.3, 1):
        "ef02754133791bb5cad1078733dd9e9d24924344fa3545d71e4232b769a84415",
    ("infonce", "near_duplicate", 0.3, 2):
        "19ae7041711f3b31322785469717566f587d55ff9da9b80aa1b6c3819a9bcf04",
}
