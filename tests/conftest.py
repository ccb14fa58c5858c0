import os

# byte-level checks hold under the determinism contract: single-threaded BLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS setting, which numpy reads on import)
import pytest

from ibimpute.autodiff import Tensor, custom_node
from ibimpute.data import MaskSpec, make_synthetic
from ibimpute.losses import LossWeights
from ibimpute.model import ImputationModel, ModelConfig
from ibimpute.training import TrainConfig


@pytest.fixture
def tiny_model_cfg() -> ModelConfig:
    return ModelConfig(window_len=8, n_vars=2, d_model=4, hidden_dim=6)


@pytest.fixture
def tiny_model(tiny_model_cfg) -> ImputationModel:
    return ImputationModel(tiny_model_cfg, seed=7)


@pytest.fixture
def small_dataset():
    return make_synthetic(3, 400, seed=5)


@pytest.fixture
def small_train_cfg() -> TrainConfig:
    return TrainConfig(
        epochs=2,
        batch_size=4,
        seed=9,
        weights=LossWeights(),
        mask_spec=MaskSpec(pattern="point", rate=0.5),
        train_stride=6,
    )


def _rand(shape, seed, low=-2.0, high=2.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=shape)


@pytest.fixture
def rand():
    """Seeded uniform array factory for test inputs."""
    return _rand


def _sum_all(t: Tensor) -> Tensor:
    """The sum of every entry of ``t`` as one taped scalar, whose backward
    hands each entry the output gradient."""
    return custom_node(t.data.sum(), (t,), lambda g, need: (np.broadcast_to(g, t.shape),))


@pytest.fixture(scope="session")
def sum_all():
    """A scalar loss for tape tests: the sum of every entry, as one node."""
    return _sum_all


def _sum_leading(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``g`` summed over its leading axes, one at a time, down to ``shape``'s rank."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b``, broadcast over leading axes, as one node: each input's
    gradient is the output gradient summed down to its shape."""
    return custom_node(a.data + b.data, (a, b), lambda g, need: (
        _sum_leading(g, a.shape) if need[0] else None,
        _sum_leading(g, b.shape) if need[1] else None,
    ))


def _mul(a: Tensor, b: Tensor) -> Tensor:
    """``a * b``, broadcast over leading axes, as one node: each input's
    gradient is the output gradient times the other input, summed down to
    its shape."""
    return custom_node(a.data * b.data, (a, b), lambda g, need: (
        _sum_leading(g * b.data, a.shape) if need[0] else None,
        _sum_leading(g * a.data, b.shape) if need[1] else None,
    ))


@pytest.fixture(scope="session")
def add():
    """Elementwise sum of two tensors, as one node, for reference composites."""
    return _add


@pytest.fixture(scope="session")
def mul():
    """Elementwise product of two tensors, as one node, for reference composites."""
    return _mul
