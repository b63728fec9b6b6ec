"""Fixed-width binding operators behind one interface.

Four variants are compared by the capacity benchmarks:

* ``hrr``       naive circular-convolution binding on Gaussian vectors
* ``hrr-proj``  the same binding on spectrally projected (unitary) vectors
* ``map-c``     continuous multiply-add-permute; elementwise product binding
                on uniform [-1, 1] vectors, self-inverse unbinding
* ``vtb``       vector-derived transformation binding; the key is reshaped
                into an m x m block replicated down a block diagonal
                (requires d to be a perfect square), unbinding applies the
                transpose

MAP-C clipping is not applied here; superpositions are clipped where they
are formed (see capacity.build_statement) so binding itself stays linear.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import core

__all__ = ["VsaKind", "vsa_bind", "vsa_sample", "vsa_unbind"]


class VsaKind(enum.Enum):
    HRR_NAIVE = "hrr"
    HRR_PROJECTED = "hrr-proj"
    MAP_C = "map-c"
    VTB = "vtb"


def _vtb_side(d):
    m = math.isqrt(int(d))
    if m * m != d:
        raise ValueError(f"vtb requires a perfect-square dimension, got {d}")
    return m


def _check_dim(kind, d):
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if kind is VsaKind.VTB:
        _vtb_side(d)


def vsa_sample(kind, d, seed, count=None):
    """Draw one symbol vector the way the given VSA initializes its symbols.

    With `count`, a (count, d) batch of i.i.d. rows from one generator.
    """
    kind = VsaKind(kind)
    d = int(d)
    _check_dim(kind, d)
    if kind is VsaKind.HRR_PROJECTED:
        return core.sample_unitary(d, seed, count)
    if kind is VsaKind.MAP_C:
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.uniform(-1.0, 1.0, size=d if count is None else (int(count), d))
    return core.sample_standard(d, seed, count)


def _vtb_apply(x, y, transpose):
    # Block-diagonal product d**0.25 * blockdiag(Y, ..., Y) @ x without
    # materializing the d x d matrix: each length-m chunk of x is hit by Y.
    d = x.shape[-1]
    m = _vtb_side(d)
    xb = x.reshape(x.shape[:-1] + (m, m))
    yb = y.reshape(y.shape[:-1] + (m, m))
    op = yb if transpose else np.swapaxes(yb, -1, -2)
    out = d**0.25 * (xb @ op)
    return out.reshape(out.shape[:-2] + (d,))


def _as_pair(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return x, y


def vsa_bind(kind, x, y):
    """Bind value x with key y under the given VSA."""
    kind = VsaKind(kind)
    x, y = _as_pair(x, y)
    if kind in (VsaKind.HRR_NAIVE, VsaKind.HRR_PROJECTED):
        return core.bind(x, y)
    if kind is VsaKind.MAP_C:
        return x * y
    return _vtb_apply(x, y, transpose=False)


def vsa_unbind(kind, s, y):
    """Recover the value bound with key y from s (approximately, in general)."""
    kind = VsaKind(kind)
    s, y = _as_pair(s, y)
    if kind is VsaKind.HRR_PROJECTED:
        return core.unbind(s, y)
    if kind is VsaKind.HRR_NAIVE:
        # The naive variant inverts the key spectrum exactly. This is the
        # numerically unstable path whose noise the projected variant
        # removes, and it is what gives naive HRR its poor capacity.
        return core.bind(s, core.exact_inverse(y))
    if kind is VsaKind.MAP_C:
        # Uniform [-1, 1] keys are approximately self-inverse under the
        # elementwise product; exact when entries are +-1.
        return s * y
    return _vtb_apply(s, y, transpose=True)

