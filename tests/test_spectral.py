import cmath
import math

import pytest

from ratroot.core import IllConditioned, Params
from ratroot.engine import apply_power, companion_matrix
from ratroot import spectral
from ratroot.spectral import convergence_rate, decompose, eigenvector_scale, spectrum

from _helpers import mat_apply


def charpoly(params, lam):
    return (1 - lam) ** params.n + (-1) ** (params.n + 1) * params.k


def test_eigenvalues_square_root_case():
    _, values, _ = spectrum(Params(2, 2))
    got = sorted((v.real for v in values), reverse=True)
    assert got == pytest.approx([1 + math.sqrt(2), 1 - math.sqrt(2)], abs=1e-12)
    assert all(abs(v.imag) < 1e-12 for v in values)
    dom = decompose(Params(2, 2), (1, 1)).vectors[0]
    assert dom[-1] == 1
    assert dom[0].real == pytest.approx(math.sqrt(2), abs=1e-12)


def test_eigenvalues_quartic_perfect_power():
    _, values, _ = spectrum(Params(4, 16))
    got = sorted(((v.real, v.imag) for v in values))
    assert got == [(-1.0, 0.0), (1.0, -2.0), (1.0, 2.0), (3.0, 0.0)]


@pytest.mark.parametrize("k", [2, 3, 7, 1000, 10**6, 2**1024 + 1])
def test_convergence_rate_matches_the_eigen_decomposition(k):
    # the rate is the largest subdominant modulus over the dominant
    # eigenvalue, bit for bit; the dominant eigenvalue is exactly the float 1 + r
    for n in range(2, 65):
        _, values, spectral_rate = spectrum(Params(n, k))
        rate = max(abs(v) for v in values[1:]) / values[0].real
        assert spectral_rate == rate
        assert convergence_rate(Params(n, k)) == (rate, -math.log10(rate)), (n, k)


def test_eigenvalues_degenerate_case_is_exact():
    _, values, rate = spectrum(Params(2, 1))
    assert sorted(v.real for v in values) == [0.0, 2.0]
    assert all(v.imag == 0.0 for v in values)
    assert rate == 0.0


def test_dominant_pair_and_rate_fields():
    for n in range(2, 7):
        for k in (1, 2, 7, 20):
            _, values, rate = spectrum(Params(n, k))
            dom = values[0]
            assert abs(dom - (1 + k ** (1 / n))) <= 1e-12 * abs(dom)
            assert 0 <= rate < 1


def test_eigen_residual_bound():
    for n in range(2, 9):
        for k in (1, 2, 10, 100):
            params = Params(n, k)
            m = companion_matrix(params)
            dec = decompose(params, (1,) * n)
            for value, vector in zip(dec.values, dec.vectors):
                image = mat_apply(m, vector)
                residual = max(
                    abs(image[i] - value * vector[i]) for i in range(n)
                )
                assert residual < 1e-9, (n, k, value)


def test_charpoly_residual():
    for n in range(2, 9):
        for k in (1, 2, 10, 100):
            params = Params(n, k)
            for value in spectrum(params)[1]:
                assert abs(charpoly(params, value)) < 1e-9


def test_eigenvalues_match_alternating_angle_convention():
    # the same root set written as 1 - k**(1/n) * exp(i*J*pi/n), with J even
    # for even n and odd for odd n
    for n in (2, 3, 4, 5, 6, 7):
        for k in (2, 5, 17):
            params = Params(n, k)
            r = k ** (1 / n)
            if n % 2 == 0:
                alt = [1 - r * cmath.exp(1j * (2 * j) * math.pi / n) for j in range(1, n + 1)]
            else:
                alt = [1 - r * cmath.exp(1j * (2 * j + 1) * math.pi / n) for j in range(1, n + 1)]
            ours = sorted(
                spectrum(params)[1],
                key=lambda z: (round(z.real, 9), round(z.imag, 9)),
            )
            alt = sorted(alt, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
            for a, b in zip(ours, alt):
                assert abs(a - b) < 1e-9


def test_eigenvalues_distinct():
    for n in range(2, 9):
        for k in (2, 3, 20, 100):
            _, values, _ = spectrum(Params(n, k))
            gaps = [
                abs(values[i] - values[j])
                for i in range(n)
                for j in range(i + 1, n)
            ]
            assert min(gaps) > 1e-9


def test_dominant_vector_successive_ratios():
    for n in range(2, 9):
        for k in (2, 7, 100):
            vec = decompose(Params(n, k), (1,) * n).vectors[0]
            root = k ** (1 / n)
            for i in range(n - 1):
                q = vec[i] / vec[i + 1]
                assert abs(q - root) <= 1e-12 * root


def test_convergence_rate_square_root_of_two():
    rho, digits_per_step = convergence_rate(Params(2, 2))
    assert rho == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
    assert digits_per_step == pytest.approx(0.765551370675726, abs=1e-9)


def test_convergence_rate_degenerate():
    # rho = 0 at (2, 1): convergence is a single exact step
    assert convergence_rate(Params(2, 1)) == (0.0, math.inf)


def test_decompose_unit_start():
    dec = decompose(Params(2, 2), (1, 1))
    c = dec.coefficients
    assert c[0].real == pytest.approx(0.8535533905932737, abs=1e-9)
    assert c[1].real == pytest.approx(0.1464466094067262, abs=1e-9)
    assert abs(c[0].imag) < 1e-12 and abs(c[1].imag) < 1e-12


def test_decompose_near_dominant_eigenvector():
    # an integer state proportional to the dominant eigenvector (to 1e-8)
    # decomposes into essentially that eigenvector alone
    params = Params(2, 2)
    scale = 10**8
    r0 = (round(math.sqrt(2) * scale), scale)
    c = decompose(params, r0).coefficients
    assert abs(c[1]) / abs(c[0]) < 1e-6


def test_decompose_reconstruction_residual():
    for n in range(2, 7):
        for k in (1, 2, 11, 20):
            params = Params(n, k)
            r0 = tuple(range(1, n + 1))
            dec = decompose(params, r0)
            rec = dec.predict(0)
            residual = max(abs(rec[i] - r0[i]) for i in range(n))
            assert residual < 1e-9


def test_decompose_needs_its_refinement_step():
    # the docstring's case: the closed-form solve alone leaves a residual of
    # 1.4e-9, past the 1e-9 bound, and raises IllConditioned; the refinement
    # step brings it to 6e-11
    decompose(Params(9, 10**6), tuple(range(1, 10)))


def test_decompose_validates_length():
    with pytest.raises(ValueError):
        decompose(Params(3, 2), (1, 1))


def test_decompose_residual_gate_can_trip(monkeypatch):
    monkeypatch.setattr(spectral, "RESIDUAL_BOUND", 1e-22)
    with pytest.raises(IllConditioned) as exc:
        decompose(Params(6, 19), (1, 1, 1, 1, 1, 1))
    # cond_2(V) = r**(n-1), r = 19**(1/6)
    assert exc.value.cond == pytest.approx(19 ** (5 / 6))


def test_prediction_matches_exact_trajectory():
    # float forecast of the exact integer states, relative error < 1e-6
    for n, k in [(2, 2), (2, 20), (3, 2), (4, 7), (5, 20)]:
        params = Params(n, k)
        dec = decompose(params, (1,) * n)
        for t in (1, 5, 17, 30):
            exact = apply_power(params, t, (1,) * n)
            predicted = dec.predict(t)
            for i in range(n):
                rel = abs(predicted[i].real - exact[i]) / abs(exact[i])
                assert rel < 1e-6, (n, k, t, i)


def test_prediction_of_opening_table_row():
    dec = decompose(Params(2, 2), (1, 1))
    predicted = dec.predict(5)
    assert abs(predicted[0].real - 99) / 99 < 1e-6
    assert abs(predicted[1].real - 70) / 70 < 1e-6


def test_decompose_past_float_range_of_eigenvectors():
    # the eigenvalues need only r = k**(1/n), but the largest eigenvector
    # entry r**(n-1) is past the float range: decompose refuses, spectrum not
    params = Params(300, 2**1100)
    with pytest.raises(OverflowError) as exc:
        decompose(params, (1,) * 300)
    assert str(exc.value) == (
        "k**((n-1)/n) is past the floating-point range (n=300, k of 1101 bits)"
    )
    assert len(spectrum(params)[1]) == 300


def test_convergence_rate_past_float_range_of_eigenvectors():
    # the rate needs only r, so it answers where eigenvector_scale refuses,
    # with decompose's message
    params = Params(300, 2**1100)
    rho, digits_per_step = convergence_rate(params)
    assert 0 < rho < 1 and digits_per_step == -math.log10(rho)
    with pytest.raises(OverflowError) as scale_exc:
        eigenvector_scale(params)
    with pytest.raises(OverflowError) as decompose_exc:
        decompose(params, (1,) * 300)
    assert str(scale_exc.value) == str(decompose_exc.value)

