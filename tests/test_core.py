"""Algebra tests for circular-convolution binding and its inverses."""

import numpy as np
import pytest

from hrrkit import core


def conv_direct(a, b):
    """O(d^2) circular convolution, the independent reference for bind()."""
    d = len(a)
    out = np.zeros(d)
    for k in range(d):
        for i in range(d):
            out[k] += a[i] * b[(k - i) % d]
    return out


def _gauss(d, seed):
    return core.sample_standard(d, seed)


class TestBind:
    def test_delta_is_identity(self):
        x = _gauss(16, 0)
        np.testing.assert_allclose(core.bind(core.delta(16), x), x, atol=1e-12)

    def test_small_example_against_direct_sum(self):
        got = core.bind([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        np.testing.assert_allclose(got, [31.0, 31.0, 28.0], atol=1e-12)

    @pytest.mark.parametrize("d", [3, 16, 64])
    def test_matches_direct_oracle(self, d):
        for seed in range(3):
            a, b = _gauss(d, seed), _gauss(d, 100 + seed)
            np.testing.assert_allclose(core.bind(a, b), conv_direct(a, b), atol=1e-10)

    @pytest.mark.parametrize("d", [3, 16, 64])
    def test_commutative(self, d):
        a, b = _gauss(d, 1), _gauss(d, 2)
        np.testing.assert_allclose(core.bind(a, b), core.bind(b, a), atol=1e-12)

    def test_associative(self):
        a, b, c = (_gauss(32, s) for s in (3, 4, 5))
        np.testing.assert_allclose(
            core.bind(core.bind(a, b), c), core.bind(a, core.bind(b, c)), atol=1e-10
        )

    def test_distributes_over_addition(self):
        a, x, y = (_gauss(32, s) for s in (6, 7, 8))
        np.testing.assert_allclose(
            core.bind(a, x + y), core.bind(a, x) + core.bind(a, y), atol=1e-10
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            core.bind(_gauss(8, 0), _gauss(9, 0))

    def test_non_finite_raises(self):
        bad = np.array([1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            core.bind(bad, core.delta(4))

    def test_length_one_vectors_rejected(self):
        with pytest.raises(ValueError, match="length >= 2"):
            core.bind(np.array([1.0]), np.array([2.0]))


class TestInverses:
    def test_delta_is_self_inverse(self):
        np.testing.assert_allclose(
            core.exact_inverse(core.delta(4)), core.delta(4), atol=1e-12
        )

    def test_exact_inverse_cancels_unitary(self):
        a = core.sample_unitary(32, 9)
        np.testing.assert_allclose(
            core.bind(a, core.exact_inverse(a)), core.delta(32), atol=1e-10
        )

    def test_zero_spectral_bin_raises_with_bin_index(self):
        # fft([1, 0, -1, 0]) has zero bins; the error names one of them.
        with pytest.raises(core.SpectralInverseError, match="spectral bin"):
            core.exact_inverse(np.array([1.0, 0.0, -1.0, 0.0]))

    def test_pseudo_inverse_is_index_reversal_with_roll(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(core.pseudo_inverse(a), [1.0, 4.0, 3.0, 2.0])

    def test_pseudo_inverse_fixes_delta(self):
        np.testing.assert_array_equal(core.pseudo_inverse(core.delta(4)), core.delta(4))

    def test_pseudo_inverse_is_involution(self):
        a = _gauss(33, 10)
        np.testing.assert_array_equal(core.pseudo_inverse(core.pseudo_inverse(a)), a)

    @pytest.mark.parametrize("d", [32, 128])
    def test_exact_equals_pseudo_for_unitary(self, d):
        v = core.sample_unitary(d, 11)
        np.testing.assert_allclose(
            core.exact_inverse(v), core.pseudo_inverse(v), atol=1e-10
        )

    def test_noisy_recovery_with_exact_inverse_gaussian(self):
        # Unbinding a single bound pair with the exact inverse recovers the
        # value; averaged cosine stays essentially at one.
        d = 512
        rng_seeds = range(1000)
        cosines = []
        for s in rng_seeds:
            c = _gauss(d, 2 * s)
            x = _gauss(d, 2 * s + 1)
            xhat = core.bind(core.bind(c, x), core.exact_inverse(c))
            cosines.append(core.cosine_similarity(xhat, x))
        assert np.mean(cosines) >= 0.95


class TestUnbind:
    def test_unitary_key_cancels_exactly(self):
        a = _gauss(64, 12)
        b = core.sample_unitary(64, 13)
        np.testing.assert_allclose(core.unbind(core.bind(a, b), b), a, atol=1e-8)

    def test_unbind_by_delta_is_identity(self):
        s = _gauss(16, 14)
        np.testing.assert_allclose(core.unbind(s, core.delta(16)), s, atol=1e-12)

    def test_superposed_pair_recovery_mean_cosine(self):
        # One distractor pair superposed; recovery should stay well above
        # chance (measured mean cosine is ~0.707 for unitary vectors).
        d = 512
        cosines = []
        for s in range(100):
            a, b, u, v = (core.sample_unitary(d, 4 * s + k) for k in range(4))
            noisy = core.bind(a, b) + core.bind(u, v)
            cosines.append(core.cosine_similarity(core.unbind(noisy, b), a))
        assert np.mean(cosines) > 0.7


class TestProject:
    def test_scaled_delta_projects_to_delta(self):
        np.testing.assert_allclose(
            core.project(np.array([2.0, 0.0, 0.0, 0.0])), core.delta(4), atol=1e-4
        )

    def test_idempotent_up_to_guard(self):
        # Each guarded pass shifts every spectral magnitude by about eps,
        # so the fixed-point drift sits at the 1e-5 scale by construction.
        x = _gauss(64, 15)
        once = core.project(x)
        np.testing.assert_allclose(core.project(once), once, atol=1e-5)

    def test_exact_projection_is_idempotent(self):
        x = _gauss(64, 15)
        once = core.project(x, eps=0.0)
        np.testing.assert_allclose(core.project(once, eps=0.0), once, atol=1e-12)

    def test_output_spectrum_is_unit_magnitude(self):
        x = _gauss(256, 16)
        mags = np.abs(np.fft.fft(core.project(x)))
        assert np.all(mags >= 1 - 1e-3) and np.all(mags <= 1 + 1e-3)


class TestSampling:
    def test_standard_norm_concentrates_at_one(self):
        v = core.sample_standard(10000, 17)
        assert abs(v @ v - 1.0) < 0.05

    def test_standard_is_deterministic(self):
        np.testing.assert_array_equal(
            core.sample_standard(64, 18), core.sample_standard(64, 18)
        )

    def test_different_seeds_are_nearly_orthogonal(self):
        a = core.sample_standard(1024, 19)
        b = core.sample_standard(1024, 20)
        assert abs(core.cosine_similarity(a, b)) < 0.15

    def test_unitary_norm_is_one(self):
        v = core.sample_unitary(300, 21)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_unitary_inverse_agreement(self):
        v = core.sample_unitary(128, 22)
        np.testing.assert_allclose(
            core.exact_inverse(v), core.pseudo_inverse(v), atol=1e-8
        )

    def test_unitary_unbind_roundtrip(self):
        v = core.sample_unitary(96, 23)
        w = core.sample_unitary(96, 24)
        np.testing.assert_allclose(core.unbind(core.bind(v, w), w), v, atol=1e-8)


class TestCosine:
    def test_self_similarity(self):
        a = _gauss(32, 25)
        assert core.cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-6)

    def test_antipodal(self):
        a = _gauss(32, 26)
        assert core.cosine_similarity(a, -a) == pytest.approx(-1.0, abs=1e-6)

    def test_zero_vector_maps_to_zero(self):
        a = _gauss(32, 27)
        assert core.cosine_similarity(np.zeros(32), a) == 0.0

    def test_result_in_unit_interval(self):
        for s in range(20):
            val = core.cosine_similarity(_gauss(16, s), _gauss(16, 50 + s))
            assert -1.0 - 1e-8 <= val <= 1.0 + 1e-8


class TestBindAdjoint:
    def test_adjoint_identity(self):
        a, b, g = (_gauss(32, s) for s in (28, 29, 30))
        lhs = core.bind(a, b) @ g
        rhs = a @ core.unbind(g, b)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_delta_key_is_identity(self):
        g = _gauss(16, 31)
        np.testing.assert_allclose(core.unbind(g, core.delta(16)), g, atol=1e-12)

    def test_matches_finite_differences_of_energy(self):
        # grad_a ||bind(a, b)||^2 == 2 * unbind(bind(a, b), b)
        d = 16
        a, b = _gauss(d, 32), _gauss(d, 33)
        analytic = 2.0 * core.unbind(core.bind(a, b), b)
        h = 1e-6
        fd = np.zeros(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            hi = core.bind(a + e, b)
            lo = core.bind(a - e, b)
            fd[j] = (hi @ hi - lo @ lo) / (2 * h)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-5


def fft_reference(spec_fn, *vectors):
    """Complex-FFT reference: ifft(spec_fn(fft(v), ...)) with its real part kept."""
    spectra = [np.fft.fft(v, axis=-1) for v in vectors]
    return np.fft.ifft(spec_fn(*spectra), axis=-1).real


class TestRealFftAgainstReferences:
    """The real-FFT core against the O(d^2) sum and a complex-FFT reference."""

    @pytest.mark.parametrize("d", [3, 121, 128])
    def test_bind_matches_direct_sum_and_complex_fft(self, d):
        a = np.stack([_gauss(d, 200 + r) for r in range(3)])
        b = np.stack([_gauss(d, 300 + r) for r in range(3)])
        got = core.bind(a, b)
        direct = np.stack([conv_direct(x, y) for x, y in zip(a, b)])
        np.testing.assert_allclose(got, direct, atol=1e-12)
        np.testing.assert_allclose(got, fft_reference(np.multiply, a, b), atol=1e-14)
        # one key broadcast against a batch of values
        np.testing.assert_allclose(
            core.bind(a, b[0]), fft_reference(np.multiply, a, b[0]), atol=1e-14
        )

    @pytest.mark.parametrize("d", [3, 121, 128])
    @pytest.mark.parametrize("eps", [core.PROJECT_EPS, 0.0])
    def test_project_matches_complex_fft(self, d, eps):
        x = np.stack([_gauss(d, 400 + r) for r in range(3)])
        want = fft_reference(lambda f: f / (np.abs(f) + eps), x)
        np.testing.assert_allclose(core.project(x, eps=eps), want, atol=1e-14)

    @pytest.mark.parametrize("d", [3, 121, 128])
    def test_exact_inverse_matches_complex_fft_and_cancels(self, d):
        a = _gauss(d, 500)
        inv = core.exact_inverse(a)
        np.testing.assert_allclose(inv, fft_reference(lambda f: 1.0 / f, a), atol=1e-10)
        np.testing.assert_allclose(core.bind(a, inv), core.delta(d), atol=1e-10)
        np.testing.assert_allclose(conv_direct(a, inv), core.delta(d), atol=1e-10)

    @pytest.mark.parametrize("d", [3, 121, 128])
    def test_batched_exact_inverse_matches_row_loop(self, d):
        rows = np.stack([_gauss(d, 600 + r) for r in range(5)])
        batched = core.exact_inverse(rows)
        for row, got in zip(rows, batched):
            np.testing.assert_allclose(got, core.exact_inverse(row), atol=1e-12)
        three_d = core.exact_inverse(rows.reshape(5, 1, d))
        np.testing.assert_allclose(three_d.reshape(5, d), batched, atol=1e-12)

    def test_batched_exact_inverse_names_row_and_bin(self):
        d = 8
        rows = np.stack([_gauss(d, 700 + r) for r in range(4)])
        spec = np.fft.rfft(rows[2])
        spec[3] = 0.0  # bin 3 (and its mirror 5) of row 2 vanishes
        rows[2] = np.fft.irfft(spec, n=d)
        with pytest.raises(core.SpectralInverseError, match=r"spectral bin 3 of row 2 "):
            core.exact_inverse(rows)
        with pytest.raises(core.SpectralInverseError, match=r"spectral bin 3 of row \(1, 0\)"):
            core.exact_inverse(rows.reshape(2, 2, d))
        with pytest.raises(core.SpectralInverseError, match=r"spectral bin 3 has"):
            core.exact_inverse(rows[2])

    @pytest.mark.parametrize("d", [3, 121, 128])
    def test_bind_sum_matches_sum_of_pair_binds(self, d):
        xs = np.stack([_gauss(d, 800 + r) for r in range(50)])
        ys = np.stack([core.sample_unitary(d, 900 + r) for r in range(50)])
        want = sum(core.bind(x, y) for x, y in zip(xs, ys))
        np.testing.assert_allclose(core.bind_sum(xs, ys), want, atol=1e-12)

    def test_bind_sum_broadcasts_like_bind(self):
        d = 16
        roles = np.stack([_gauss(d, 1000), _gauss(d, 1001)])
        g = np.stack([np.stack([_gauss(d, 1010 + 4 * k + r) for r in range(4)]) for k in range(2)])
        want = core.bind(roles[0], g[0]) + core.bind(roles[1], g[1])
        np.testing.assert_allclose(core.bind_sum(roles[:, None], g), want, atol=1e-12)
        np.testing.assert_allclose(core.bind_sum(g, roles[:, None]), want, atol=1e-12)

    def test_bind_sum_needs_a_leading_axis(self):
        with pytest.raises(ValueError, match="leading axis"):
            core.bind_sum(_gauss(8, 1), _gauss(8, 2))


class TestHalfSpectra:
    @pytest.mark.parametrize("count", [1, 5, 40])
    def test_standard_draw_is_scaled_in_place_with_the_same_values(self, count):
        # The batch equals draw / sqrt(d) bit for bit.
        d = 64
        rng = np.random.Generator(np.random.PCG64(21))
        want = rng.standard_normal((count, d)) / np.sqrt(d)
        np.testing.assert_array_equal(core.sample_standard(d, 21, count), want)

    @pytest.mark.parametrize("d", [2, 121, 256])
    @pytest.mark.parametrize("block", [None, 1, 3, 40, 45])
    def test_blocks_are_the_spectra_of_one_batch_draw(self, d, block):
        blocks = list(core.sample_spectra(d, 8, 40, block=block))
        assert [len(b) for b in blocks][:-1] == [block or 40] * (len(blocks) - 1)
        np.testing.assert_allclose(
            np.concatenate(blocks), np.fft.rfft(core.sample_standard(d, 8, 40)), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("d", [121, 256])
    def test_unitary_blocks_are_the_spectra_of_sample_unitary(self, d):
        spec = np.concatenate(list(core.sample_spectra(d, 8, 30, unitary=True, block=7)))
        np.testing.assert_allclose(np.abs(spec), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.fft.irfft(spec, n=d), core.sample_unitary(d, 8, 30), atol=1e-14)

    def test_spectra_reject_small_dimensions(self):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            next(core.sample_spectra(1, 0, 4))

    @pytest.mark.parametrize("d", [2, 3, 121, 256])
    def test_parseval_rows_give_time_domain_dot_products(self, d):
        a, b = core.sample_standard(d, 1, 6), core.sample_standard(d, 2, 6)
        pa, pb = (core.parseval_rows(np.fft.rfft(v), d) for v in (a, b))
        assert pa.shape == (6, 2 * (d // 2 + 1))
        np.testing.assert_allclose(pa @ pb.T, a @ b.T, atol=1e-13)

    def test_parseval_rows_ignore_what_irfft_discards(self):
        # Imaginary DC and Nyquist parts are dropped by irfft, and weigh 0 here.
        d = 8
        spec = np.fft.rfft(core.sample_standard(d, 3, 2))
        spec[:, 0] += 0.5j
        spec[:, -1] -= 0.25j
        rows = np.fft.irfft(spec, n=d)
        p = core.parseval_rows(spec, d)
        np.testing.assert_allclose(p @ p.T, rows @ rows.T, atol=1e-14)

    def test_parseval_rows_check_the_spectrum_length(self):
        with pytest.raises(ValueError, match="does not fit d=10"):
            core.parseval_rows(np.zeros(5, dtype=complex), 10)

    @pytest.mark.parametrize("d", [121, 256])
    def test_unbind_spectra_match_time_domain_unbinding(self, d):
        s, y = core.sample_standard(d, 4), core.sample_standard(d, 5, 3)
        fs, fy = np.fft.rfft(s), np.fft.rfft(y)
        np.testing.assert_allclose(
            np.fft.irfft(core.unbind_spectra(fs, fy), n=d), core.unbind(s, y), atol=1e-13
        )
        np.testing.assert_allclose(
            np.fft.irfft(core.unbind_spectra(fs, fy, exact=True), n=d),
            core.bind(s, core.exact_inverse(y)),
            atol=1e-10,
        )

    def test_unbind_spectra_product_is_s_times_conj_y_and_leaves_y_alone(self):
        # the product goes into conj(y)'s buffer only when it has the result's shape and type
        fy = np.fft.rfft(core.sample_standard(64, 7, 3))
        for s, y in [
            (np.fft.rfft(core.sample_standard(64, 8)), fy),  # (33,) with (3, 33)
            (np.fft.rfft(core.sample_standard(64, 9, 3)), fy[0]),  # (3, 33) with (33,)
            (np.fft.rfft(core.sample_standard(64, 10)), fy.real.copy()),  # real y
        ]:
            kept = y.copy()
            got = core.unbind_spectra(s, y)
            assert np.array_equal(got.view(np.float64), (s * np.conj(y)).view(np.float64))
            assert np.array_equal(y, kept)

    def test_exact_unbind_spectra_divide_through_a_bin_that_exact_inverse_refuses(self):
        d = 16
        y = core.sample_standard(d, 6, 4)
        spec = np.fft.rfft(y)
        spec[2, 3] = 1e-9
        y = np.fft.irfft(spec, n=d)
        with pytest.raises(core.SpectralInverseError, match=r"^spectral bin 3 of row 2 has magnitude"):
            core.exact_inverse(y)
        fs, fy = np.fft.rfft(core.sample_standard(d, 7)), np.fft.rfft(y)
        got = core.unbind_spectra(fs, fy, exact=True)
        assert np.array_equal(got.view(np.float64), (fs / fy).view(np.float64))
        assert abs(got[2, 3]) > 1e7 * abs(fs[3])
