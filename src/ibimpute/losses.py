"""Training objectives: latent regularizer, masked local fit, global terms.

Three ingredients combine into the training objective:

* ``reg_loss``: closed-form KL from the encoder's diagonal Gaussian to the
  standard normal, averaged over variables and batch;
* ``loc_loss``: mean squared error over a {0,1} target mask;
* a global representation term, either ``infonce_loss`` (softmax contrast
  against in-batch negatives) or ``cosine_align_loss`` (negative cosine to a
  target embedding).  Both treat the target branch as a constant: gradients
  never flow into ``z_target``.

``total_objective`` forms the weighted sum and a float breakdown for logs.
A term with weight 0 is off: ``LossWeights.glo = 0`` is the one switch for
the global term, and ``glo_variant`` only picks which global term runs.

Each term, and the weighted sum, is one tape node
(:func:`~ibimpute.autodiff.custom_node`): the forward computes with numpy
and the backward is written by hand.  Both do the float ops of the chain of
elementwise ops these terms used to be built from, in its order, so values
and gradients are the same to the bit: each backward uses the one scalar
that chain broadcast, and adds a tensor's two gradient branches in the order
:meth:`~ibimpute.autodiff.Tape.backward` added them (sigma's log branch,
then its square branch; a row's ``g / norm``, then its norm branch; the
InfoNCE scores' logsumexp branch plus their matching-pair branch), not the
closed forms, which differ by an ulp or two.

``cosine_align_loss`` works ``COSINE_BLOCK_ROWS`` rows at a time, in place,
keeping only the unit target rows and the norms for its backward; each float
op reads one row, so the bytes do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, custom_node
from .model import LatentDistribution


class DomainError(ValueError):
    """Input outside a computation's mathematical domain (the log of a value
    <= 0, as in :func:`reg_loss`)."""


GLO_INFONCE = "infonce"
GLO_COSINE = "cosine"
GLO_VARIANTS = (GLO_INFONCE, GLO_COSINE)
COSINE_BLOCK_ROWS = 64  # rows per block of cosine_align_loss: 128 KiB at d_model 256


@dataclass(frozen=True)
class LossWeights:
    """Weights of the objective terms plus the global-term configuration.

    A term with weight 0 is off; so ``glo = 0`` alone turns the global term
    off, as the paper's ablations do.
    """

    reg: float = 0.01
    loc: float = 1.0
    glo: float = 0.1
    glo_variant: str = GLO_COSINE
    temperature: float = 0.1

    def validate(self, for_training: bool = False, key=lambda field: field) -> None:
        """Raise ValueError for an invalid setting, named by ``key(field)``."""
        for name in ("reg", "loc", "glo"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"loss weight {key(name)} must be >= 0")
        if self.glo_variant not in GLO_VARIANTS:
            raise ValueError(
                f"{key('glo_variant')} must be one of {GLO_VARIANTS}, got {self.glo_variant!r}; "
                f"set {key('glo')} = 0 to turn the global term off"
            )
        if self.temperature <= 0.0:
            raise ValueError(f"{key('temperature')} must be > 0, got {self.temperature}")
        if for_training and self.loc == 0.0 and self.glo == 0.0:
            raise ValueError(
                f"training needs a data-fit term: loss weight {key('loc')} or "
                f"{key('glo')} must be positive"
            )


@dataclass(frozen=True)
class LossBreakdown:
    """Float snapshot of one objective evaluation, for logging."""

    reg: float
    loc: float
    glo: float
    total: float


def reg_loss(dist: LatentDistribution) -> Tensor:
    """KL[N(mu, diag sigma^2) || N(0, I)], summed over the latent axis.

    0.5 * sum_j (mu_j^2 + sigma_j^2 - log sigma_j^2 - 1), then averaged over
    every remaining axis (variables, batch).  Nonnegative; zero only at
    mu = 0, sigma = 1.
    """
    mu, sigma = dist.mu, dist.sigma
    if np.any(sigma.data <= 0.0):
        raise ValueError("reg_loss: sigma must be strictly positive")
    var = sigma.data * sigma.data
    if np.any(var <= 0.0):
        raise DomainError("log: input must be strictly positive")
    terms = mu.data * mu.data  # ((mu^2 + var) - log var) - 1, built in place
    terms += var
    terms -= np.log(var, out=var)
    kl = np.subtract(terms, 1.0, out=terms).sum(axis=-1) * 0.5
    count = kl.size if kl.ndim > 0 else None

    def backward(g, need):
        c = (g if count is None else g / count) * 0.5
        g_mu = g_sigma = None
        if need[0]:
            g_mu = (c * 2.0) * mu.data
        if need[1]:
            s = sigma.data
            g_sigma = (((-c) / (s * s)) * 2.0) * s + (c * 2.0) * s
        return g_mu, g_sigma

    return custom_node(kl if count is None else kl.mean(), (mu, sigma), backward)


def loc_loss(x: Tensor, x_hat: Tensor, target_mask: Tensor) -> Tensor:
    """Mean squared error over positions where ``target_mask`` is 1."""
    if x.shape != x_hat.shape or x.shape != target_mask.shape:
        raise ValueError(
            f"loc_loss: shapes differ: x {x.shape}, x_hat {x_hat.shape}, "
            f"mask {target_mask.shape}"
        )
    m = target_mask.data
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("loc_loss: target_mask must contain only 0 and 1")
    count = float(m.sum())
    if count == 0.0:
        raise ValueError("loc_loss: empty target mask")
    inv = 1.0 / count
    diff = x.data - x_hat.data
    total = (diff * diff * m).sum() * inv

    def backward(g, need):
        c = g * inv
        g_sq = c * m
        g_diff = (g_sq * 2.0) * diff
        return (
            g_diff if need[0] else None,
            -g_diff if need[1] else None,
            c * (diff * diff) if need[2] else None,
        )

    return custom_node(total, (x, x_hat, target_mask), backward)


def _rows(name: str, t: Tensor) -> np.ndarray:
    """The data of ``t``, [.., rows, dim], as [rows, dim]."""
    if t.ndim < 2:
        raise ValueError(f"{name}: expected [.., rows, dim], got shape {t.shape}")
    return t.data.reshape(-1, t.shape[-1])


def _unit_rows(name: str, rows: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` scaled to unit L2 norm (into ``out``, if given), and their
    norms [rows, 1]: each row divided by the square root of its sum of squares."""
    unit = np.multiply(rows, rows, out=out)  # the squares, then the unit rows
    norms_sq = unit.sum(axis=-1, keepdims=True)
    if np.any(norms_sq == 0.0):
        raise ValueError(f"{name}: zero-norm row cannot be normalized")
    norms = np.sqrt(norms_sq)
    return np.divide(rows, norms, out=unit), norms


def infonce_loss(z_proj: Tensor, z_target: Tensor, temperature: float = 0.1) -> Tensor:
    """Softmax contrast: each row of ``z_proj`` must identify its own row of
    ``z_target`` among all rows of the batch.

    Rows are L2-normalized, scores are scaled by 1/temperature, and the
    per-anchor loss is logsumexp minus the matching-pair score.  ``z_target``
    is treated as a constant.  With R identical rows the loss is exactly
    log(R).
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    name = "infonce_loss"
    a = _rows(name, z_proj)
    b = _rows(name, z_target)
    if a.shape != b.shape:
        raise ValueError(f"{name}: row shapes differ: {a.shape} vs {b.shape}")
    n_rows = a.shape[0]
    if n_rows < 2:
        raise ValueError(f"{name}: need at least 2 rows to form negatives")
    na, r = _unit_rows(name, a)
    # a C-contiguous transpose: the GEMMs' last bits depend on the layout
    nb_t = np.ascontiguousarray(_unit_rows(name, b)[0].T)
    inv_t = 1.0 / temperature
    scores = na @ nb_t  # [R, R], scaled, shifted and exp'd in place
    scores *= inv_t
    # the chain's (scores * eye).sum(-1): adding the zeros changes no bit
    matching = scores.diagonal()[:, None].copy()
    # the row max keeps exp bounded and takes no gradient
    row_max = scores.max(axis=-1, keepdims=True)
    shifted = np.exp(np.subtract(scores, row_max, out=scores), out=scores)
    sums = shifted.sum(axis=-1, keepdims=True)

    def backward(g, need):
        g_row = np.broadcast_to(g, (n_rows, 1)) / n_rows
        # the logsumexp branch, plus the matching-pair branch on the diagonal;
        # off it, that branch is (-g_row) * 0.0 = -0.0 (g > 0), and adding
        # -0.0 changes no bit, so the [R, R] identity is never built
        g_scores = np.multiply(shifted, g_row / sums, out=shifted)  # x * y is y * x
        g_scores[np.diag_indices(n_rows)] += -g_row[:, 0]
        g_scores *= inv_t
        g_na = g_scores @ nb_t.T
        g_r = (((-g_na) * a) / (r * r)).sum(axis=-1, keepdims=True)
        g_a = g_na / r + (((g_r * 0.5) / r) * 2.0) * a
        return (g_a.reshape(z_proj.shape),)

    return custom_node(((np.log(sums) + row_max) - matching).mean(), (z_proj,), backward)


def cosine_align_loss(z_proj: Tensor, z_target: Tensor) -> Tensor:
    """Mean negative cosine similarity between matching rows.

    Minimal at -1 (parallel), 0 for orthogonal rows, +1 anti-parallel.
    ``z_target`` is treated as a constant.
    """
    name = "cosine_align_loss"
    a = _rows(name, z_proj)
    b = _rows(name, z_target)
    if a.shape != b.shape:
        raise ValueError(f"{name}: row shapes differ: {a.shape} vs {b.shape}")
    count = a.shape[0]
    blocks = [slice(lo, lo + COSINE_BLOCK_ROWS) for lo in range(0, count, COSINE_BLOCK_ROWS)]
    scratch = np.empty((min(COSINE_BLOCK_ROWS, count), a.shape[1]))  # one block
    nb, r, cos = np.empty_like(b), np.empty((count, 1)), np.empty(count)
    for rows in blocks:
        na, r[rows] = _unit_rows(name, a[rows], out=scratch[: len(a[rows])])
        nb_k, _ = _unit_rows(name, b[rows], out=nb[rows])
        cos[rows] = np.multiply(na, nb_k, out=na).sum(axis=-1)

    def backward(g, need):
        c = (-g) / count
        g_a = np.empty_like(a)
        for rows in blocks:
            g_na, a_k, r_k = g_a[rows], a[rows], r[rows]
            t = scratch[: len(a_k)]
            np.multiply(c, nb[rows], out=g_na)
            np.negative(g_na, out=t)
            t *= a_k
            t /= r_k * r_k
            g_norms_sq = (t.sum(axis=-1, keepdims=True) * 0.5) / r_k
            g_na /= r_k  # g_na / r + (g_norms_sq * 2) * a
            g_na += np.multiply(g_norms_sq * 2.0, a_k, out=t)
        return (g_a.reshape(z_proj.shape),)

    return custom_node(-cos.mean(), (z_proj,), backward)


def total_objective(
    weights: LossWeights,
    reg: Tensor | None = None,
    loc: Tensor | None = None,
    glo: Tensor | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the supplied terms, as one node.

    Terms may be omitted (None); a missing term contributes nothing and is
    logged as 0.  Zero-weight terms are skipped in the sum, so they never
    touch the gradient; a zero-weight regularizer or local term still logs
    its value, but the global term at weight 0 is off and logs 0.  The sum
    runs left to right, reg, loc, glo, and each term's gradient is the
    output gradient times its weight.
    """
    weights.validate()
    pairs = ((weights.reg, reg), (weights.loc, loc), (weights.glo, glo))
    kept = [(w, term) for w, term in pairs if term is not None and w != 0.0]
    pieces = [term.data * w for w, term in kept]
    total = custom_node(
        sum(pieces[1:], pieces[0]) if pieces else 0.0,
        tuple(term for _, term in kept),
        lambda g, need: [g * w if n else None for (w, _), n in zip(kept, need)],
    )
    breakdown = LossBreakdown(
        reg=float(reg.data) if reg is not None else 0.0,
        loc=float(loc.data) if loc is not None else 0.0,
        glo=float(glo.data) if glo is not None and weights.glo > 0.0 else 0.0,
        total=float(total.data),
    )
    return total, breakdown
