"""Seeded pseudo-random streams.

The generator is splitmix64: the state advances by a fixed odd increment and
every output is a strong 64-bit finalizer of the state.  Because the state is
an affine function of the draw index, a run of draws can be produced in one
vectorized pass that is bit-identical to repeated single draws.  Independent
child streams (mask generation, shuffling, latent noise, ...) are derived by
hashing a parent seed with integer tags, so an entire experiment replays from
the two top-level seeds recorded in run provenance.

:meth:`SplitMix64.u64s` is that vectorized pass: ``n`` raw outputs at once,
bit-identical to ``n`` calls of ``next_u64``.  Uniform doubles are
``(u64 >> 11) * 2**-53`` in ``[0, 1)``; normals come from the Box-Muller
transform on pairs of uniforms.  Integers in ``[0, bound)`` are ``u64 % bound``,
one raw output each, whether drawn singly (``below``) or from a ``u64s`` batch.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 state increment (odd, golden-ratio based)
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags used when deriving child seeds.  The values are arbitrary but
# frozen: changing one silently changes every downstream random draw.
STREAM_INIT = 1        # model weight initialization
STREAM_MASK = 2        # per-epoch training masks
STREAM_SHUFFLE = 3     # per-epoch window order
STREAM_NOISE = 4       # per-step latent sampling noise
STREAM_VAL_MASK = 5    # fixed validation masks
STREAM_SYNTH = 6       # synthetic data generation
STREAM_EVAL_MASK = 7   # fixed evaluation masks


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive(seed: int, *keys: int) -> int:
    """Derive a child seed from ``seed`` and a sequence of integer tags.

    Deterministic, order-sensitive, and well-spread even for small
    consecutive tags (epoch or window indices).
    """
    s = seed & _MASK64
    for k in keys:
        s = mix64(((s + _GAMMA) & _MASK64) ^ mix64(k & _MASK64))
    return s


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


class SplitMix64:
    """Sequential splitmix64 stream with bit-compatible bulk generation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def u64s(self, n: int) -> np.ndarray:
        """``n`` raw outputs as uint64; bit-identical to ``n`` next_u64() calls."""
        idx = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        idx += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return _mix64_array(idx)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1); bit-identical to ``n`` uniform() calls."""
        return (self.u64s(n) >> np.uint64(11)) * 2.0**-53

    def normals(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2*ceil(n/2) uniforms."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        half = (n + 1) // 2
        u = self.uniforms(2 * half)
        # r = sqrt(-2 log(1 - u1)) and theta = 2 pi u2, in place in u;
        # 1 - u1 is in (0, 1], so log never sees zero
        r, theta = u[:half], u[half:]
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        np.multiply(-2.0, r, out=r)
        np.sqrt(r, out=r)
        np.multiply(2.0 * np.pi, theta, out=theta)
        out = np.empty(2 * half, dtype=np.float64)
        trig = np.cos(theta)
        np.multiply(r, trig, out=out[0::2])
        np.multiply(r, np.sin(theta, out=trig), out=out[1::2])
        return out[:n].reshape(shape)

    def below(self, bound: int) -> int:
        """Integer in [0, bound). Modulo reduction; bias is negligible for
        bound << 2**64 and keeps the draw count fixed."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n); swap ``i`` takes the draw
        ``below(i + 1)`` would, all ``n - 1`` of them from one ``u64s``."""
        perm = list(range(n))
        for i, u in zip(range(n - 1, 0, -1), self.u64s(max(n - 1, 0)).tolist()):
            j = u % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=int)
