"""Core algebra for holographic reduced representations.

Symbols live in R^d as float64 vectors. Binding is circular convolution,
computed through real FFTs of length d (any d, odd or even); unbinding
convolves with an inverse. Two inverses are provided: the exact spectral
reciprocal and the cheap index-permutation approximation, which coincide
for unitary vectors (unit-magnitude spectrum).
The spectral projection produces such unitary vectors and is the stability
fix everything else in this package leans on.

Batched work that can stay in the frequency domain (the capacity trials)
uses the half-spectrum primitives: `sample_spectra` draws symbols as half
spectra, `unbind_spectra` unbinds there, and `parseval_rows` turns half
spectra into real rows whose dot products are the time-domain ones.

All functions are pure and accept arrays with extra leading axes, operating
on the last axis, so callers can batch rows through a single FFT. This is
the only module that calls np.fft.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SpectralInverseError",
    "bind",
    "bind_sum",
    "cosine_similarity",
    "delta",
    "exact_inverse",
    "parseval_rows",
    "project",
    "pseudo_inverse",
    "sample_spectra",
    "sample_standard",
    "sample_unitary",
    "unbind",
    "unbind_spectra",
]

PROJECT_EPS = 1e-5  # guard added to spectral magnitudes in project()
INVERSE_FLOOR = 1e-5  # minimum spectral magnitude accepted by exact_inverse()
COSINE_EPS = 1e-8  # guard added to the norm product in cosine_similarity()


class SpectralInverseError(ValueError):
    """Raised when a spectrum has a bin too close to zero to invert."""


def _check_vector(x, name="vector"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError(f"{name} must have length >= 2, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _check_pair(a, b):
    a, b = _check_vector(a, "a"), _check_vector(b, "b")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return a, b


def _irfft(spec, d):
    # The inverse of a half spectrum is real by construction; n=d restores
    # odd lengths, which the half spectrum alone cannot tell apart.
    return np.fft.irfft(spec, n=d, axis=-1)


def _spectral_product(a, b):
    a, b = _check_pair(a, b)
    # Multiply into the larger spectrum when it already has the broadcast
    # shape, so no third spectrum-sized array is allocated.
    fa, fb = sorted((np.fft.rfft(a), np.fft.rfft(b)), key=np.size, reverse=True)
    shape = np.broadcast_shapes(fa.shape, fb.shape)
    return np.multiply(fa, fb, out=fa if fa.shape == shape else None)


def delta(d):
    """Convolution identity: 1 in slot 0, zeros elsewhere."""
    out = np.zeros(int(d), dtype=np.float64)
    out[0] = 1.0
    return out


def bind(a, b):
    """Circular convolution of a and b via real FFTs.

    Equivalent to c_k = sum_i a_i * b_{(k-i) mod d}. Commutative,
    associative, and distributive over addition.
    """
    return _irfft(_spectral_product(a, b), np.shape(a)[-1])


def bind_sum(a, b):
    """Superposition sum_i bind(a[i], b[i]) over the leading axis.

    The spectral products are summed before one inverse transform,
    irfft(sum_i F(a_i) F(b_i)), so the bound pairs are never formed. Equal
    to bind(a, b).sum(axis=0) up to rounding; a and b broadcast as in bind.
    """
    if max(np.ndim(a), np.ndim(b)) < 2:
        raise ValueError("bind_sum needs a leading axis to sum over")
    return _irfft(_spectral_product(a, b).sum(axis=0), np.shape(a)[-1])


def exact_inverse(a):
    """Exact convolution inverse: reciprocal of each spectral coefficient.

    Works row by row on batches. Numerically unstable whenever a spectrum
    has small bins, so any bin with magnitude <= INVERSE_FLOOR raises
    SpectralInverseError naming the bin (j, whose mirror d - j has the same
    magnitude) and, for a batch, the row of the smallest such bin. For
    unitary vectors this equals pseudo_inverse().
    """
    a = _check_vector(a, "a")
    spec = np.fft.rfft(a)
    mags = np.abs(spec)
    if mags.size and mags.min() <= INVERSE_FLOOR:
        *row, j = (int(i) for i in np.unravel_index(np.argmin(mags), mags.shape))
        where = f" of row {row[0] if len(row) == 1 else tuple(row)}" if row else ""
        raise SpectralInverseError(
            f"spectral bin {j}{where} has magnitude {mags.min():.3e} <= "
            f"{INVERSE_FLOOR:g}; exact inverse is unstable"
        )
    return _irfft(1.0 / spec, a.shape[-1])


def pseudo_inverse(a):
    """Involutive index permutation [a_1, a_d, a_{d-1}, ..., a_2].

    Conjugates the spectrum's phase while keeping its magnitude, so it
    approximates exact_inverse() and matches it exactly on unitary vectors.
    O(d), no transform.
    """
    a = _check_vector(a, "a")
    return np.roll(a[..., ::-1], 1, axis=-1)


def unbind(s, y):
    """Recover the partner bound with y inside s: bind(s, pseudo_inverse(y)).

    This is circular correlation with y, the adjoint of the linear map
    a -> bind(a, y): <bind(a, y), s> == <a, unbind(s, y)>, which makes it
    the building block for backpropagating through binding.
    """
    return bind(s, pseudo_inverse(y))


def unbind_spectra(s, y, exact=False):
    """unbind() on half spectra: s * conj(y), or s / y with `exact`.

    s and y are half spectra (as from sample_spectra) and broadcast against
    each other. With `exact` the statement is divided through by the key,
    as naive HRR unbinds (Plate 1995), with no floor: a tiny key bin makes
    a large response in that bin, which a capacity trial counts as noise.
    exact_inverse(), which takes caller-supplied vectors, refuses such keys.
    """
    if exact:
        return s / y
    # Multiply into conj(y) when it has the result's shape and type, so no
    # second spectrum-sized array is allocated.
    conj = np.conj(y)
    fits = conj.shape == np.broadcast_shapes(np.shape(s), conj.shape)
    fits = fits and conj.dtype == np.result_type(s, conj)
    return np.multiply(s, conj, out=conj if fits else None)


def project(x, eps=PROJECT_EPS):
    """Normalize every spectral coefficient to (near) unit magnitude.

    Returns the inverse transform of F(x)_j / (|F(x)_j| + eps). The guard
    eps keeps zero bins from dividing by zero at the cost of leaving output
    magnitudes eps-shy of one; pass eps=0.0 for an exactly unit spectrum
    when the input is known to have no vanishing bins.
    """
    x = _check_vector(x, "x")
    spec = np.fft.rfft(x)
    spec /= np.abs(spec) + eps
    return _irfft(spec, x.shape[-1])


def _gaussian_rows(rng, shape, d):
    # N(0, 1/d) entries, scaled in place: the same values as draw / sqrt(d).
    rows = rng.standard_normal(shape)
    rows /= np.sqrt(d)
    return rows


def _generator(d, seed):
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return np.random.Generator(np.random.PCG64(seed))


def sample_standard(d, seed, count=None):
    """Gaussian symbol vector with i.i.d. N(0, 1/d) entries.

    With `count`, a (count, d) batch of such rows from one generator; its
    first row equals the single draw for the same seed.
    """
    d = int(d)
    rng = _generator(d, seed)
    return _gaussian_rows(rng, d if count is None else (int(count), d), d)


def sample_spectra(d, seed, count, unitary=False, block=None):
    """Half spectra of the rows of sample_standard(d, seed, count), in blocks.

    Yields rfft() of consecutive blocks of at most `block` rows (one block
    of all rows by default). The blocks come from one generator and
    together are exactly the rows of the single batch draw. With `unitary`
    every bin is divided by its magnitude: the spectra of sample_unitary()'s
    rows, never taken back to the time domain.
    """
    d, count = int(d), int(count)
    rng = _generator(d, seed)
    block = count if block is None else int(block)
    for start in range(0, count, block):
        spec = np.fft.rfft(_gaussian_rows(rng, (min(block, count - start), d), d))
        if unitary:
            spec /= np.abs(spec)
        yield spec


def parseval_rows(spec, d):
    """Real rows whose dot products equal those of the signals irfft(spec, d).

    Each half-spectrum bin becomes its (re, im) pair scaled by sqrt(w / d),
    with w = 2 for bins that stand for a conjugate pair and w = 1 for the DC
    bin and, when d is even, the Nyquist bin; the imaginary parts of those
    two bins get weight 0, as irfft discards them. Rows have width
    2 * (d // 2 + 1), which is d + 2 for even d and d + 1 for odd d.
    """
    spec = np.ascontiguousarray(spec, dtype=np.complex128)
    if spec.shape[-1] != d // 2 + 1:
        raise ValueError(f"half spectrum of length {spec.shape[-1]} does not fit d={d}")
    weight = np.full((spec.shape[-1], 2), 2.0 / d)
    weight[0] = (1.0 / d, 0.0)
    if d % 2 == 0:
        weight[-1] = (1.0 / d, 0.0)
    return spec.view(np.float64) * np.sqrt(weight).ravel()


def sample_unitary(d, seed, count=None):
    """Projected Gaussian symbol vector with an exactly unit spectrum.

    Uses eps=0 in the projection: a continuous Gaussian draw has no zero
    spectral bins, and the exact normalization is what makes the pseudo
    inverse agree with the exact inverse to rounding error.
    """
    return project(sample_standard(d, seed, count), eps=0.0)


def cosine_similarity(a, b):
    """Cosine of the angle between a and b, guarded against zero norms.

    Returns dot(a, b) / (|a| * |b| + 1e-8); a zero vector therefore maps
    to similarity 0 rather than NaN.
    """
    a, b = _check_pair(a, b)
    num = np.sum(a * b, axis=-1)
    den = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1) + COSINE_EPS
    return num / den
