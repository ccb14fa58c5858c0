import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibimpute.autodiff import (
    DomainError,
    Tape,
    Tensor,
    exp,
    grad_check,
    log,
    negate,
    reshape,
    sqrt,
    square,
    tmean,
    tsum,
)
from ibimpute.losses import (
    GLO_COSINE,
    GLO_INFONCE,
    GLO_NONE,
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
            z = x @ w
            loss_live = infonce_loss(z, x @ w, temperature=0.1)
        g_live = tape.backward(loss_live).of(w)
        with Tape() as tape:
            tape.watch(w)
            z = x @ w
            loss_const = infonce_loss(z, Tensor((x @ w).data.copy()), temperature=0.1)
        g_const = tape.backward(loss_const).of(w)
        assert np.array_equal(g_live, g_const)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_property(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        assert infonce_loss(Tensor(a), Tensor(b)).data >= 0.0


class TestCosineAlign:
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
            loss_live = cosine_align_loss(x @ w, x @ w)
        g_live = tape.backward(loss_live).of(w)
        with Tape() as tape:
            tape.watch(w)
            loss_const = cosine_align_loss(x @ w, Tensor((x @ w).data.copy()))
        g_const = tape.backward(loss_const).of(w)
        assert np.array_equal(g_live, g_const)


def _composite_reg(dist):
    """reg_loss as it was built from autodiff ops before it was one node."""
    mu, sigma = dist.mu, dist.sigma
    per = square(mu) + square(sigma) - log(square(sigma)) - 1.0
    kl = tsum(per, axis=-1) * 0.5
    return tmean(kl) if kl.ndim > 0 else kl


def _composite_loc(x, x_hat, target_mask):
    """loc_loss as it was built from autodiff ops before it was one node."""
    count = float(target_mask.data.sum())
    sq = square(x - x_hat) * target_mask
    return tsum(sq) * (1.0 / count)


def _composite_cosine(z_proj, z_target):
    """cosine_align_loss as it was built from autodiff ops before it was one
    node."""

    def rows(t):
        return t if t.ndim == 2 else reshape(t, (-1, t.shape[-1]))

    def normalize(t):
        return t / sqrt(tsum(square(t), axis=-1, keepdims=True))

    cos = tsum(normalize(rows(z_proj)) * normalize(rows(z_target).detach()), axis=-1)
    return negate(tmean(cos))


def _weighted(term, inputs, weight):
    """``term(*inputs) * weight``, every input watched: the value, each
    input's gradient and the node count."""
    tensors = [Tensor(x) for x in inputs]
    with Tape() as tape:
        tape.watch(*tensors)
        loss = term(*tensors) * weight
    grads = tape.backward(loss)
    return loss.data, [grads.of(t) for t in tensors], len(tape.nodes)


class TestOneNodeTerms:
    """reg, loc and cosine are one node each, with the bytes of the
    autodiff-op chains they replace."""

    @staticmethod
    def _assert_bytes_of(term, composite, inputs, weight):
        value, grads, nodes = _weighted(term, inputs, weight)
        ref_value, ref_grads, ref_nodes = _weighted(composite, inputs, weight)
        assert nodes == 2 < ref_nodes  # the term, then the weight
        assert np.array_equal(value, ref_value)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    @pytest.mark.parametrize("shape", [(5,), (7, 32), (8, 7, 32)])
    @pytest.mark.parametrize("weight", [1.0, 0.01, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_reg_is_bytes_of_composite(self, shape, weight, seed):
        rng = np.random.default_rng([60, seed])
        inputs = (rng.normal(size=shape), np.exp(rng.normal(size=shape)))

        def term(mu, sigma):
            return reg_loss(LatentDistribution(mu=mu, sigma=sigma))

        def composite(mu, sigma):
            return _composite_reg(LatentDistribution(mu=mu, sigma=sigma))

        self._assert_bytes_of(term, composite, inputs, weight)

    @pytest.mark.parametrize("shape", [(12,), (8, 96, 7)])
    @pytest.mark.parametrize("weight", [1.0, 0.3, 0.7])
    @pytest.mark.parametrize("seed", range(3))
    def test_loc_is_bytes_of_composite(self, shape, weight, seed):
        rng = np.random.default_rng([61, seed])
        mask = (rng.uniform(size=shape) > 0.3).astype(float)
        inputs = (rng.normal(size=shape), rng.normal(size=shape), mask)
        self._assert_bytes_of(loc_loss, _composite_loc, inputs, weight)

    @pytest.mark.parametrize("shape", [(9, 16), (8, 7, 32), (2, 3, 5, 4)])
    @pytest.mark.parametrize("weight", [1.0, 0.1, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_cosine_is_bytes_of_composite(self, shape, weight, seed):
        rng = np.random.default_rng([62, seed])
        inputs = (rng.normal(size=shape), rng.normal(size=shape))
        self._assert_bytes_of(cosine_align_loss, _composite_cosine, inputs, weight)

    def test_tiny_sigma_is_a_domain_error_as_before(self):
        with pytest.raises(DomainError, match="strictly positive"):
            reg_loss(_dist([0.0], [1e-170]))
        with pytest.raises(DomainError, match="strictly positive"):
            _composite_reg(_dist([0.0], [1e-170]))


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
        w = LossWeights(glo_variant=GLO_NONE)
        total, bd = total_objective(w, reg=Tensor(1.0), loc=Tensor(1.0), glo=Tensor(5.0))
        assert bd.glo == 0.0
        assert abs(bd.total - (0.01 + 1.0)) < 1e-12

    def test_missing_terms_contribute_nothing(self):
        total, bd = total_objective(LossWeights(), loc=Tensor(3.0))
        assert bd.reg == 0.0 and bd.glo == 0.0
        assert abs(bd.total - 3.0) < 1e-12

    def test_zero_weight_term_off_gradient(self, rand):
        # a zero-weight term never enters the summed tensor, so its
        # gradient path is dead even while its value is logged
        w = LossWeights(reg=0.0, loc=1.0, glo=0.0)
        t = Tensor(rand((2, 2), seed=22), trainable=True)
        from ibimpute.autodiff import square, tmean

        with Tape() as tape:
            tape.watch(t)
            reg_term = tmean(square(t))
            loc_term = tmean(square(t - 1.0))
            total, _ = total_objective(w, reg=reg_term, loc=loc_term)
        g = tape.backward(total).of(t)
        expected = 2.0 * (t.data - 1.0) / t.data.size
        assert np.max(np.abs(g - expected)) < 1e-12

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
