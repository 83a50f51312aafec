"""Mode census, dispersion relation, genericity checks.

The independent oracle for the growth rate is direct RK4 integration of
the linearized single-harmonic system
    dv/dt = M v,   v = (u_1, conj(u_{-1})),
    M = [[-i(K - 2Q a^2), 2iQ a^2], [-2iQ a^2, i(K - 2Q a^2)]],
K = k_x^2 - k_y^2, Q = K / k^2, which is the DS2 linearization restricted
to one Fourier pair.
"""

import cmath
import math

import numpy as np
import pytest

from ds2aw.errors import ConfigError
from ds2aw.modes import (
    check_genericity,
    enumerate_modes,
    growth_rate,
    min_search_radius,
    unstable_classes,
)

from conftest import (
    COLLIDE_LY, FOURMODE_LX, FOURMODE_LY, SINGLE_LX, SINGLE_LY, harmonic_matrix
)


def signed_rate(k_x, k_y, a):
    """Dispersion value with the sign of the (k_x^2 - k_y^2) prefactor
    kept, antisymmetric under the axis swap; growth_rate returns the
    growing branch."""
    k2 = k_x * k_x + k_y * k_y
    pref = (k_x * k_x - k_y * k_y) / math.sqrt(k2)
    return pref * cmath.sqrt(complex(4.0 * a * a - k2, 0.0))


def rk4_rate(k_x, k_y, a=1.0, t_end=1.0, dt=1e-3):
    """Fitted exponential rate of the linearized harmonic, seeded on the
    numerically computed leading eigenvector (oracle, no closed form)."""
    M = harmonic_matrix(k_x, k_y, a)
    evals, evecs = np.linalg.eig(M)
    order = np.argsort(evals.real - 1e-9 * evals.imag)
    lam = evals[order[-1]]
    v = evecs[:, order[-1]].astype(complex)
    n = max(1, round(t_end / dt))
    h = t_end / n
    for _ in range(n):
        k1 = M @ v
        k2 = M @ (v + 0.5 * h * k1)
        k3 = M @ (v + 0.5 * h * k2)
        k4 = M @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    growth = np.log(np.linalg.norm(v)) / t_end
    return growth, lam


def test_four_mode_census():
    modes = enumerate_modes(FOURMODE_LX, FOURMODE_LY, 1.0)
    classes = {(m.n_x, m.n_y) for m in unstable_classes(modes)}
    assert classes == {(1, 0), (0, 1), (1, 1), (1, -1)}
    # both signs are present in the full census
    assert sum(1 for m in modes if m.unstable) == 8


def brute_force_unstable(L_x, L_y, a, radius):
    hits = set()
    for n_x in range(-radius, radius + 1):
        for n_y in range(-radius, radius + 1):
            if (n_x, n_y) == (0, 0):
                continue
            k_x, k_y = n_x * 2 * math.pi / L_x, n_y * 2 * math.pi / L_y
            k2 = k_x**2 + k_y**2
            if 0 < k2 < 4 * a * a and abs(k_x**2 - k_y**2) > 1e-12 * 4 * a * a:
                hits.add((n_x, n_y))
    return hits


def test_single_mode_census_against_brute_force():
    modes = enumerate_modes(SINGLE_LX, SINGLE_LY, 1.0)
    got = {(m.n_x, m.n_y) for m in modes if m.unstable}
    assert got == brute_force_unstable(SINGLE_LX, SINGLE_LY, 1.0, 4) == {(1, 0), (-1, 0)}


@pytest.mark.parametrize(
    "L_x,L_y,a",
    [
        (FOURMODE_LX, FOURMODE_LY, 1.0),
        (SINGLE_LX, SINGLE_LY, 1.0),
        (2 * math.pi / 0.7, 2 * math.pi / 0.9, 1.0),
        (4.1, 5.3, 1.3),
    ],
)
def test_unstable_set_equals_brute_force(L_x, L_y, a):
    # the census radius covers the disk: a wider brute-force box adds nothing
    radius = min_search_radius(L_x, L_y, a) + 3
    got = {(m.n_x, m.n_y) for m in enumerate_modes(L_x, L_y, a) if m.unstable}
    assert got == brute_force_unstable(L_x, L_y, a, radius)


def test_marginal_mode_pi_pi():
    modes = enumerate_modes(math.pi, math.pi, 1.0)
    m = next(m for m in modes if (m.n_x, m.n_y) == (1, 1))
    # k = (2, 2): the (k_x^2 - k_y^2) factor kills sigma; outside the disk too
    assert m.sigma == 0
    assert not m.unstable


def test_modes_sorted_lexicographically():
    modes = enumerate_modes(FOURMODE_LX, FOURMODE_LY, 1.0)
    keys = [(m.n_x, m.n_y) for m in modes]
    assert keys == sorted(keys)


def test_growth_rate_example_value():
    # oracle first: the fitted rate of the linearized system
    fitted, lam = rk4_rate(1.2, 0.0)
    assert abs(fitted - 1.92) < 1e-6
    sigma = growth_rate(1.2, 0.0, 1.0)
    assert sigma == pytest.approx(1.92, abs=1e-12)
    assert sigma.imag == 0.0


def test_growth_rate_marginal_zero():
    for k in (0.3, 0.9):
        assert growth_rate(k, k, 1.0) == 0.0


def test_growth_rate_stable_is_imaginary():
    s = growth_rate(3.0, 0.0, 1.0)
    assert s.real == 0.0
    assert s.imag > 0.0


def test_growth_rate_zero_wavevector():
    with pytest.raises(ConfigError) as err:
        growth_rate(0.0, 0.0, 1.0)
    assert err.value.code == "zero-wavevector"


def test_invalid_period():
    with pytest.raises(ConfigError) as err:
        enumerate_modes(-1.0, 2.0, 1.0)
    assert err.value.code == "invalid-period"


@pytest.mark.parametrize("census", [enumerate_modes, check_genericity])
@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_invalid_background(census, a):
    # a background that is not finite and positive has no instability disk,
    # so the census refuses it with a code
    with pytest.raises(ConfigError) as err:
        census(SINGLE_LX, SINGLE_LY, a)
    assert err.value.code == "invalid-background"


def test_sign_symmetry():
    modes = enumerate_modes(FOURMODE_LX, FOURMODE_LY, 1.0)
    by_key = {(m.n_x, m.n_y): m for m in modes}
    for m in modes:
        mirror = by_key[(-m.n_x, -m.n_y)]
        assert abs(abs(m.sigma) - abs(mirror.sigma)) < 1e-14
        assert m.unstable == mirror.unstable


def test_axis_swap_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k_x, k_y = rng.uniform(0.1, 1.9, size=2)
        if abs(k_x**2 - k_y**2) < 1e-3 or k_x**2 + k_y**2 >= 4:
            continue
        assert abs(abs(growth_rate(k_x, k_y, 1.0)) - abs(growth_rate(k_y, k_x, 1.0))) < 1e-13
        assert signed_rate(k_x, k_y, 1.0) == pytest.approx(-signed_rate(k_y, k_x, 1.0), abs=1e-13)


def test_every_unstable_mode_matches_ode_oracle():
    for m in enumerate_modes(FOURMODE_LX, FOURMODE_LY, 1.0):
        if not m.unstable:
            continue
        fitted, _ = rk4_rate(m.k_x, m.k_y)
        assert abs(fitted - abs(m.sigma)) <= 1e-6 * abs(m.sigma)


def test_genericity_four_mode_ok():
    assert check_genericity(FOURMODE_LX, FOURMODE_LY, 1.0).ok


def test_genericity_circle_hit():
    # L_x = pi gives k_x = 2 n_x: the (1, 0) harmonic sits on the circle
    report = check_genericity(math.pi, 2 * math.pi, 1.0)
    assert not report.ok
    assert any((m.n_x, m.n_y) == (1, 0) for m in report.on_circle_violations)


def test_genericity_pi_pi():
    report = check_genericity(math.pi, math.pi, 1.0)
    assert report.on_circle_violations  # (1,0) and (0,1) at k^2 = 4
    assert report.marginal_modes == []  # (1,1) lies outside the disk


def test_genericity_collision():
    report = check_genericity(4.0, COLLIDE_LY, 1.0)
    assert report.on_circle_violations == [] and report.marginal_modes == []
    assert len(report.multiplicity_violations) == 6
    shared = {tuple(sorted((tuple(v["mode_a"]), tuple(v["mode_b"]))))
              for v in report.multiplicity_violations}
    assert shared == {((0, 2), (1, -1)), ((0, 2), (1, 1)), ((1, -1), (1, 1))}
    assert check_genericity(4.0, COLLIDE_LY * (1 + 1e-6), 1.0).ok


def test_genericity_marginal_square_torus():
    report = check_genericity(2 * math.pi, 2 * math.pi, 1.0)
    assert any((m.n_x, m.n_y) == (1, 1) for m in report.marginal_modes)
    assert not report.ok
