"""Spectral-curve construction: resonant pairs, matrix elements, periods.

Two independent oracles are used here.  The matrix elements alpha/beta are
checked against grid quadrature of the perturbation operator between the
explicit Bloch eigenfunctions f^+ = (1, -i tau) e^{i(px+qy)} and their
duals (the restricted two-level block of the perturbed Dirac operator).
The background rescaling is checked by integrating the a != 1 problem
directly and through its unit-background twin with the reference solver.
"""

import cmath
import math

import numpy as np
import pytest

from ds2aw.curve import (
    build_spectral_data,
    order_pairs,
    perturbation_coefficients,
    regime,
    resonant_pair,
)
from ds2aw.errors import (
    ConfigError, DegenerateSpectrumError, DS2Error, GenericityError, NumericError,
)
from ds2aw.fieldio import Field
from ds2aw.modes import Mode, growth_rate
from ds2aw.refsolver import evolve
from ds2aw.theta import ThetaParams

from conftest import (
    COLLIDE_LY, FOURMODE_LX, FOURMODE_LY, FOURMODE_TERMS, SINGLE_LX, SINGLE_LY, cosine_grid,
    count_censuses, harmonic_grid, reality_residual,
)


def lattice_mode(L_x, L_y, n_x, n_y, a=1.0):
    """The harmonic (n_x, n_y) of the torus, also outside the census radius."""
    k_x = n_x * (2.0 * math.pi / L_x)
    k_y = n_y * (2.0 * math.pi / L_y)
    unstable = k_x * k_x + k_y * k_y < 4.0 * a * a and k_x * k_x != k_y * k_y
    return Mode(n_x, n_y, k_x, k_y, growth_rate(k_x, k_y, a), unstable)


def fresh_pair(c_plus=0.5, c_minus=0.5):
    coeff = np.zeros((8, 8), dtype=complex)
    coeff[0, 1], coeff[0, -1] = c_plus, c_minus
    return resonant_pair(lattice_mode(SINGLE_LX, SINGLE_LY, 1, 0), coeff, 1.0)


def stable_resonant_pair(mode):
    """Resonant pair of a stable mode outside the instability disk; it lies
    off the unit circle and opens no handle."""
    if mode.unstable:
        raise ConfigError("wrong-class", f"mode ({mode.n_x}, {mode.n_y}) is unstable")
    k2 = mode.k_squared
    assert k2 > 4.0, "mode is not outside the instability disk"
    k = complex(mode.k_x, mode.k_y)
    tau_1 = 0.5 * k * (-1.0 + math.sqrt((k2 - 4.0) / k2))
    tau_2 = -1.0 / tau_1.conjugate()
    return tau_1, tau_2


def branch_points(pair, eps):
    """Leading-order branch points (E_{4j-3}, ..., E_{4j}) of the pair's
    handle: tau_1 +/- 2 tau_1 q_2 eps sqrt(ab) / (i Im(tau_2 conj tau_1))
    and the q-swapped displacement around tau_2."""
    denom = 1j * pair.im_cross
    d1 = 2.0 * pair.tau_1 * pair.q_2 * eps * pair.sqrt_alpha_beta / denom
    d2 = 2.0 * pair.tau_2 * pair.q_1 * eps * pair.sqrt_alpha_beta / denom
    return pair.tau_1 + d1, pair.tau_1 - d1, pair.tau_2 + d2, pair.tau_2 - d2


# ----------------------------------------------------------------- pairs


def test_resonant_pair_example_values():
    coeff = perturbation_coefficients(cosine_grid(32, 32))
    p = resonant_pair(lattice_mode(SINGLE_LX, SINGLE_LY, 1, 0), coeff, 1.0)
    n = resonant_pair(lattice_mode(SINGLE_LX, SINGLE_LY, -1, 0), coeff, 1.0)
    assert p.tau_1 == pytest.approx(-0.6 + 0.8j, abs=1e-12)
    assert p.tau_2 == pytest.approx(0.6 + 0.8j, abs=1e-12)
    assert n.tau_1 == pytest.approx(0.6 - 0.8j, abs=1e-12)
    assert n.tau_2 == pytest.approx(-0.6 - 0.8j, abs=1e-12)


def test_resonance_system_residuals(four_mode_sd, single_mode_sd):
    # tau_2 - tau_1 = k by construction, and 1/tau_2 - 1/tau_1 = conj(k)
    # because |tau| = 1
    for p in four_mode_sd.pairs + single_mode_sd.pairs:
        k = complex(p.mode.k_x, p.mode.k_y)
        assert abs((p.tau_2 - p.tau_1) - k) < 1e-12
        assert abs((1 / p.tau_2 - 1 / p.tau_1) - k.conjugate()) < 1e-12
        assert abs(abs(p.tau_1) - 1.0) < 1e-12
        assert abs(abs(p.tau_2) - 1.0) < 1e-12
        assert (p.tau_1 / p.tau_2).imag > 0.0


def test_degenerate_pair_rejected():
    # theta = phi puts tau_1 = -1 on the real axis
    phi = 0.5
    k_x = 2 * math.cos(phi) * math.cos(phi)
    k_y = 2 * math.cos(phi) * math.sin(phi)
    mode = Mode(1, 1, k_x, k_y, growth_rate(k_x, k_y, 1.0), True)
    with pytest.raises(DegenerateSpectrumError) as err:
        resonant_pair(mode, np.zeros((8, 8)), 1.0)
    assert err.value.code == "degenerate-pair"


def test_wrong_class_errors():
    stable = lattice_mode(SINGLE_LX, SINGLE_LY, 2, 0)
    with pytest.raises(ConfigError) as err:
        resonant_pair(stable, np.zeros((8, 8)), 1.0)
    assert err.value.code == "wrong-class"
    unstable = lattice_mode(SINGLE_LX, SINGLE_LY, 1, 0)
    with pytest.raises(ConfigError):
        stable_resonant_pair(unstable)


def test_stable_pair_example():
    mode = Mode(1, 0, 3.0, 0.0, growth_rate(3.0, 0.0, 1.0), False)
    t1, t2 = stable_resonant_pair(mode)
    assert t1 == pytest.approx(1.5 * (-1 + math.sqrt(5.0 / 9.0)), abs=1e-12)
    assert abs((t2 - t1) - 3.0) < 1e-12
    assert abs((1 / t2 - 1 / t1) - 3.0) < 1e-12
    assert t2 * t1.conjugate() == pytest.approx(-1.0, abs=1e-14)


def test_stable_pairs_off_circle():
    for n_x, n_y in [(2, 0), (0, 2), (2, 1), (1, 2), (3, 0)]:
        mode = lattice_mode(SINGLE_LX, SINGLE_LY, n_x, n_y)
        if mode.k_squared <= 4.0:
            continue
        t1, t2 = stable_resonant_pair(mode)
        assert abs(abs(t1) - 1.0) > 1e-3
        assert abs((t2 - t1) - complex(mode.k_x, mode.k_y)) < 1e-12


# ------------------------------------------------------------- ordering


def test_order_pairs_single_mode():
    coeff = perturbation_coefficients(cosine_grid(32, 32))
    ordered = order_pairs([resonant_pair(lattice_mode(SINGLE_LX, SINGLE_LY, n_x, 0), coeff, 1.0)
                           for n_x in (1, -1)])
    assert [p.j for p in ordered] == [1, 2]
    assert ordered[1].tau_1 == pytest.approx(-ordered[0].tau_1, abs=1e-14)
    assert ordered[1].tau_2 == pytest.approx(-ordered[0].tau_2, abs=1e-14)


def test_order_pairs_clockwise_and_mirror(four_mode_sd):
    phases = [cmath.phase(p.tau_1) for p in four_mode_sd.pairs]
    # strictly decreasing sweep: clockwise from just below pi
    assert all(a > b for a, b in zip(phases, phases[1:]))
    n = four_mode_sd.g // 2
    for j in range(n):
        assert four_mode_sd.pairs[j + n].tau_1 == pytest.approx(
            -four_mode_sd.pairs[j].tau_1, abs=1e-12
        )


# ------------------------------------------------- Fourier coefficients


def test_coefficients_cosine():
    coeff = perturbation_coefficients(cosine_grid(32, 32))
    assert coeff[0, 1] == pytest.approx(0.5, abs=1e-14)
    assert coeff[0, -1] == pytest.approx(0.5, abs=1e-14)
    for n_x, n_y in [(2, 0), (1, 1), (0, 1)]:
        cp, cm = coeff[n_y, n_x], coeff[-n_y, -n_x]
        assert abs(cp) < 1e-14 and abs(cm) < 1e-14


def test_coefficients_single_exponential():
    coeff = perturbation_coefficients(harmonic_grid(32, 32, [(1, 1, 1.0)]))
    c_plus, c_minus = coeff[1, 1], coeff[-1, -1]
    assert c_plus == pytest.approx(1.0, abs=1e-14)
    assert abs(c_minus) < 1e-14


def test_coefficients_round_trip():
    rng = np.random.default_rng(11)
    terms = [
        (n_x, n_y, complex(rng.normal(), rng.normal()))
        for n_x in range(-3, 4)
        for n_y in range(-3, 4)
        if (n_x, n_y) != (0, 0)
    ]
    v0 = harmonic_grid(32, 32, terms)
    coeff = perturbation_coefficients(v0)
    rebuilt = np.zeros_like(v0)
    ix, iy = np.meshgrid(np.arange(32), np.arange(32), indexing="xy")
    for n_x, n_y, _ in terms:
        c_plus = coeff[n_y, n_x]
        rebuilt += c_plus * np.exp(2j * np.pi * (n_x * ix + n_y * iy) / 32)
    assert np.abs(rebuilt - v0).max() < 1e-12


def test_coefficients_nonzero_mean():
    v0 = cosine_grid(32, 32) + 1e-6
    with pytest.raises(ConfigError) as err:
        perturbation_coefficients(v0)
    assert err.value.code == "nonzero-mean"


def test_coefficients_aliasing():
    # the census radius of the single-mode torus is 2: grids need >= 8 points
    build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, cosine_grid(8, 8))
    for nx, ny in [(6, 8), (8, 7)]:
        with pytest.raises(ConfigError) as err:
            build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, cosine_grid(nx, ny))
        assert err.value.code == "aliasing"


def test_aliasing_refused_before_the_census(monkeypatch):
    # a grid too coarse for the census radius is refused before any mode is
    # enumerated: at L_x = 3000 the census would hold 3.6e6 modes.  A torus
    # that is non-generic as well reports aliasing, not genericity
    def no_census(*args):
        raise AssertionError("census taken")

    monkeypatch.setattr("ds2aw.modes.enumerate_modes", no_census)
    for L, n in [((3000.0, 2.99), 64), ((math.pi, 2 * math.pi), 6)]:
        with pytest.raises(ConfigError) as err:
            build_spectral_data(*L, 1e-2, cosine_grid(n, n))
        assert err.value.code == "aliasing"


# --------------------------------------------------------- alpha / beta


def quadrature_block(L_x, L_y, pair, v_grid):
    """2x2 block of the perturbation between the pair's Bloch functions,
    via trapezoidal quadrature on the periodic grid (independent oracle)."""
    ny, nx = v_grid.shape
    x = np.arange(nx) * (L_x / nx)
    y = np.arange(ny) * (L_y / ny)
    X, Y = np.meshgrid(x, y, indexing="xy")

    def element(bra, ket):
        # bra, ket are resonant points tau = p + i q
        pb, qb = bra.real, bra.imag
        pk, qk = ket.real, ket.imag
        phase = np.exp(1j * ((pk - pb) * X + (qk - qb) * Y))
        integrand = (bra.conjugate() * ket * v_grid + np.conjugate(v_grid)) * phase
        return complex(integrand.mean()) / (2.0 * qb)

    m12 = element(pair.tau_1, pair.tau_2)  # = -alpha
    m21 = element(pair.tau_2, pair.tau_1)  # = +beta
    return m12, m21


def test_alpha_beta_against_quadrature_oracle():
    v0 = cosine_grid(64, 64)
    coeff = perturbation_coefficients(v0)
    for n_x in (1, -1):
        filled = resonant_pair(lattice_mode(SINGLE_LX, SINGLE_LY, n_x, 0), coeff, 1.0)
        m12, m21 = quadrature_block(SINGLE_LX, SINGLE_LY, filled, v0)
        assert filled.alpha == pytest.approx(-m12, abs=1e-12)
        assert filled.beta == pytest.approx(m21, abs=1e-12)


def test_alpha_beta_oracle_complex_perturbation():
    terms = [(1, 0, 0.3 - 0.2j), (-1, 0, 0.1 + 0.4j)]
    v0 = harmonic_grid(64, 64, terms)
    coeff = perturbation_coefficients(v0)
    for n_x in (1, -1):
        filled = resonant_pair(lattice_mode(SINGLE_LX, SINGLE_LY, n_x, 0), coeff, 1.0)
        m12, m21 = quadrature_block(SINGLE_LX, SINGLE_LY, filled, v0)
        assert filled.alpha == pytest.approx(-m12, abs=1e-12)
        assert filled.beta == pytest.approx(m21, abs=1e-12)


def test_dual_basis_is_biorthogonal():
    # <f*_k, f^(+-)_l> quadrature: identity on (+), zero on (-)
    L_x, L_y = SINGLE_LX, SINGLE_LY
    pair = fresh_pair()
    nx = ny = 64
    x = np.arange(nx) * (L_x / nx)
    y = np.arange(ny) * (L_y / ny)
    X, Y = np.meshgrid(x, y, indexing="xy")
    for bra in (pair.tau_1, pair.tau_2):
        for ket in (pair.tau_1, pair.tau_2):
            pb, qb = bra.real, bra.imag
            pk, qk = ket.real, ket.imag
            phase = np.exp(1j * ((pk - pb) * X + (qk - qb) * Y))
            plus = np.array([1.0, -1j * ket])
            minus = np.array([1.0, -1j * pk - qk])
            dual = np.array([1j * bra.conjugate(), 1.0]) / (2.0 * qb)
            ip_plus = complex((dual @ plus) * phase.mean())
            ip_minus = complex((dual @ minus) * phase.mean())
            expect = 1.0 if bra == ket else 0.0
            assert ip_plus == pytest.approx(expect, abs=1e-12)
            assert abs(ip_minus) < 1e-12


def test_alpha_beta_conjugation_symmetry(four_mode_sd):
    n = four_mode_sd.g // 2
    for j in range(n):
        p, m = four_mode_sd.pairs[j], four_mode_sd.pairs[j + n]
        lhs = m.alpha * m.beta
        rhs = (p.alpha * p.beta).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_alpha_beta_degenerate():
    with pytest.raises(DegenerateSpectrumError) as err:
        fresh_pair(0.0, 0.0)
    assert err.value.code == "degenerate-mode"


def test_sqrt_branch_fixed():
    p = fresh_pair()
    s = p.sqrt_alpha_beta
    assert s.real > 0.0 or (s.real == 0.0 and s.imag >= 0.0)
    assert s * s == pytest.approx(p.alpha * p.beta, rel=1e-13)


# ------------------------------------------------------- branch points


def test_branch_point_symmetry_and_scaling():
    p = fresh_pair()
    eps = 1e-3
    E1, E2, E3, E4 = branch_points(p, eps)
    assert (E1 - p.tau_1) == pytest.approx(-(E2 - p.tau_1), abs=1e-15)
    assert (E3 - p.tau_2) == pytest.approx(-(E4 - p.tau_2), abs=1e-15)
    bp2 = branch_points(p, 2 * eps)
    assert (bp2[0] - p.tau_1) == pytest.approx(2 * (E1 - p.tau_1), rel=1e-12)
    # eps -> 0 limit: linear collapse onto the resonant points
    assert abs(E1 - p.tau_1) < 1e-2 * abs(p.tau_1)


def test_branch_point_displacement_magnitude():
    p = fresh_pair()
    eps = 1e-2
    bp = branch_points(p, eps)
    expect = eps * abs(2.0 * p.q_2 / p.im_cross) * abs(p.sqrt_alpha_beta)
    assert abs(bp[0] - p.tau_1) == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------- period matrix


def test_period_matrix_structure(four_mode_sd):
    B = four_mode_sd.B
    assert np.array_equal(B, B.T)
    diag = np.diag(B)
    assert np.all(np.real(diag) < 0.0)
    off = B[~np.eye(four_mode_sd.g, dtype=bool)]
    im = np.imag(off)
    assert np.all((np.abs(im) < 1e-10) | (np.abs(im - np.pi) < 1e-10))


def test_cross_ratio_is_real(four_mode_sd):
    pairs = four_mode_sd.pairs
    for j in range(len(pairs)):
        for k in range(j + 1, len(pairs)):
            pj, pk = pairs[j], pairs[k]
            r = ((pj.tau_2 - pk.tau_2) * (pj.tau_1 - pk.tau_1)) / (
                (pj.tau_2 - pk.tau_1) * (pj.tau_1 - pk.tau_2)
            )
            assert abs(r.imag) < 1e-10 * abs(r)
            expect = complex(math.log(abs(r.real)), math.pi if r.real < 0 else 0.0)
            assert four_mode_sd.B[j, k] == pytest.approx(expect, abs=1e-12)


def test_diagonal_eps_scaling():
    v0 = cosine_grid(32, 32)
    sd1 = build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, v0)
    sd2 = build_spectral_data(SINGLE_LX, SINGLE_LY, 2e-2, v0)
    for j in range(sd1.g):
        delta = sd2.B[j, j] - sd1.B[j, j]
        assert delta == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_diagonal_value_single_mode(single_mode_sd):
    # hand-evaluated: tau1 tau2 = -1, q1 q2 = 0.64, alpha beta = -0.25,
    # Im^2 = 0.9216, (tau1-tau2)^2 = 1.44 -> b = 2 log eps + log 0.120563...
    expect = 2 * math.log(1e-2) + math.log(0.64 * 0.25 / (0.9216 * 1.44))
    assert single_mode_sd.B[0, 0] == pytest.approx(expect, abs=1e-12)
    assert single_mode_sd.B[0, 0].imag == 0.0


# -------------------------------------------------- frequency vectors


def test_frequency_vectors_example(single_mode_sd):
    assert single_mode_sd.W_t[0] == pytest.approx(-1.92, abs=1e-12)
    assert single_mode_sd.W_zbar[0] == pytest.approx(0.5j * 1.2, abs=1e-12)
    assert single_mode_sd.W_z[0] == pytest.approx(0.5j * 1.2, abs=1e-12)


def test_wt_matches_growth_rate(four_mode_sd):
    for idx, p in enumerate(four_mode_sd.pairs):
        sigma = abs(growth_rate(p.mode.k_x, p.mode.k_y, 1.0))
        assert abs(abs(four_mode_sd.W_t[idx]) - sigma) <= 1e-10 * sigma
        assert four_mode_sd.W_t[idx].imag == 0.0


def test_spatial_phase_identity(four_mode_sd):
    rng = np.random.default_rng(13)
    for idx, p in enumerate(four_mode_sd.pairs):
        for _ in range(5):
            x, y = rng.uniform(-3, 3, size=2)
            z = complex(x, y)
            lhs = four_mode_sd.W_z[idx] * z + four_mode_sd.W_zbar[idx] * z.conjugate()
            rhs = 1j * (p.mode.k_x * x + p.mode.k_y * y)
            assert abs(lhs - rhs) < 1e-12


# ------------------------------------------------------ Abel transform


def test_abel_infinity_values(single_mode_sd):
    A = single_mode_sd.A_inf2
    assert np.all(np.abs(np.real(A)) < 1e-12)  # unit-circle points
    expect = 1j * math.atan2(0.96, 0.28)
    assert A[0] == pytest.approx(expect, abs=1e-12)
    # a pair and its negative give the same component
    assert A[1] == pytest.approx(A[0], abs=1e-12)


@pytest.mark.parametrize("curve", ["single_mode_sd", "four_mode_sd"])
def test_abel_infinity_real_part_exactly_zero(request, curve):
    # paired theta arguments d and A + d then share their real part exactly
    sd = request.getfixturevalue(curve)
    assert np.all(sd.A_inf2.real == 0.0)
    assert np.array_equal((sd.A_inf2 + sd.d).real, sd.d.real)


def test_divisor_modulus(single_mode_sd):
    for idx, p in enumerate(single_mode_sd.pairs):
        expect = math.sqrt(abs(p.alpha) / abs(p.beta))
        assert abs(np.exp(single_mode_sd.A_div[idx])) == pytest.approx(expect, rel=1e-12)


def test_theta_offset_eps_independent():
    # the log(eps) in b_jj/2 cancels exactly against A_j(E_{4j-3}) inside K,
    # so the offset d carries no eps dependence at all
    v0 = cosine_grid(32, 32)
    sd1 = build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, v0)
    sd2 = build_spectral_data(SINGLE_LX, SINGLE_LY, 5e-3, v0)
    assert np.abs(sd1.d - sd2.d).max() < 1e-10


def test_reality_condition(four_mode_sd, single_mode_sd):
    assert reality_residual(four_mode_sd) <= 1e-8
    assert reality_residual(single_mode_sd) <= 1e-8


def test_regime_eps_max(four_mode_sd):
    # Re B(eps) = Re B_0 + 2 log(eps) I: eps_max does not depend on the eps
    # it is computed at (measured 0.62044691775109 at both, 4e-15 apart),
    # lambda_min(P) moves by exactly 2 log 10 per decade, and B stops being a
    # period matrix at eps_max
    v0 = harmonic_grid(32, 32, FOURMODE_TERMS)
    eps_max, lam = regime(four_mode_sd)
    eps_max3, lam3 = regime(build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-3, v0))
    assert eps_max3 == pytest.approx(eps_max, rel=1e-12)
    assert lam == pytest.approx(8.2557, abs=1e-4)
    assert lam3 - lam == pytest.approx(2.0 * math.log(10.0), abs=1e-12)
    ThetaParams(build_spectral_data(FOURMODE_LX, FOURMODE_LY, 0.99 * eps_max, v0).B)
    with pytest.raises(NumericError) as err:
        ThetaParams(build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1.01 * eps_max, v0).B)
    assert err.value.code == "not-negative-definite"


def test_riemann_constants_composition(single_mode_sd):
    sd = single_mode_sd
    eps_scaled = sd.eps / sd.a
    for idx, p in enumerate(sd.pairs):
        a_e = -cmath.log(
            p.tau_2 * p.q_2 * eps_scaled * p.sqrt_alpha_beta
            / (1j * p.im_cross * (p.tau_1 - p.tau_2))
        )
        expect_K = 0.5 * sd.B[idx, idx] - 1j * math.pi + a_e
        assert sd.K[idx] == pytest.approx(expect_K, abs=1e-12)
        assert sd.d[idx] == pytest.approx(-sd.A_div[idx] - sd.K[idx], abs=1e-14)


# ------------------------------------------------------------ rescaling


def test_rescale_refsolver_oracle():
    # background a = 2: integrate directly and through the unit twin
    a = 2.0
    nx = ny = 32
    L_x, L_y = SINGLE_LX / a, SINGLE_LY / a
    eps = 1e-2
    v0 = cosine_grid(nx, ny)
    T = 0.2
    u0 = Field(L_x, L_y, 0.0, a + eps * v0)
    [direct] = evolve(u0, [T], 2.5e-4)

    # unit twin: periods L a, perturbation eps / a, time t a^2, field a u
    u0_s = Field(L_x * a, L_y * a, 0.0, 1.0 + (eps / a) * v0)
    [twin] = evolve(u0_s, [T * a * a], 1e-3)
    mapped = a * twin.u
    rel = np.abs(direct.u - mapped).max() / np.abs(direct.u).max()
    assert rel <= 1e-6


# ------------------------------------------------------------ assembly


def test_build_four_mode_genus(four_mode_sd):
    assert four_mode_sd.g == 8
    assert len(four_mode_sd.pairs) == 8


def test_build_single_mode_genus(single_mode_sd):
    assert single_mode_sd.g == 2


def test_build_rejects_collision():
    # classes (0, 2), (1, 1) and (1, -1) share resonant points
    with pytest.raises(GenericityError) as err:
        build_spectral_data(4.0, COLLIDE_LY, 1e-2, cosine_grid(32, 32))
    assert err.value.code == "genericity"
    assert "6 collisions" in err.value.message


def test_build_eps_zero_degenerate():
    with pytest.raises(DegenerateSpectrumError) as err:
        build_spectral_data(SINGLE_LX, SINGLE_LY, 0.0, cosine_grid(32, 32))
    assert err.value.code == "degenerate-mode"


def test_build_attaches_mode_to_error():
    # v0 excites only (1,0); the other handles of the four-mode torus stay closed
    v0 = cosine_grid(32, 32)
    with pytest.raises(DegenerateSpectrumError) as err:
        build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-2, v0)
    assert "(0, 1)" in err.value.message or "(1, 1)" in err.value.message


def test_build_transforms_datum_once(monkeypatch):
    # every handle reads its c_k and c_{-k} from one coefficient array
    calls = []
    fft2 = np.fft.fft2
    monkeypatch.setattr(np.fft, "fft2", lambda *a, **kw: calls.append(1) or fft2(*a, **kw))
    sd = build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-2, harmonic_grid(32, 32, FOURMODE_TERMS))
    assert sd.g == 8
    assert len(calls) == 1


def test_build_takes_one_census(monkeypatch):
    # the handles are read from the census check_genericity judged
    calls = count_censuses(monkeypatch)
    sd = build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-2, harmonic_grid(32, 32, FOURMODE_TERMS))
    assert sd.g == 8
    assert len(calls) == 1


def with_sample(v0, value):
    """v0 with its sample (3, 4) set to ``value``."""
    v0 = v0.copy()
    v0[3, 4] = value
    return v0


SINGLE = (SINGLE_LX, SINGLE_LY)


@pytest.mark.parametrize(
    "L, a, eps, v0, code, exit_code",
    [
        (SINGLE, 0.0, 1e-2, cosine_grid(32, 32), "invalid-background", 2),
        ((2.0, 2.0), 1.0, 1e-2, cosine_grid(16, 16), "no-unstable-modes", 4),
        (SINGLE, 1.0, 1e-2, np.zeros(64), "invalid-grid", 2),
        (SINGLE, 1.0, 1e-2, np.complex128(0), "invalid-grid", 2),
        (SINGLE, 1.0, 1e-2, with_sample(cosine_grid(16, 16), math.nan), "config-parse", 2),
        (SINGLE, 1.0, 1e-2, with_sample(cosine_grid(16, 16), math.inf), "config-parse", 2),
        ((math.nan, SINGLE_LY), 1.0, 1e-2, cosine_grid(16, 16), "invalid-period", 2),
        ((SINGLE_LX, math.inf), 1.0, 1e-2, cosine_grid(16, 16), "invalid-period", 2),
        (SINGLE, math.nan, 1e-2, cosine_grid(16, 16), "invalid-background", 2),
        (SINGLE, math.inf, 1e-2, cosine_grid(16, 16), "invalid-background", 2),
        (SINGLE, 1.0, math.nan, cosine_grid(16, 16), "invalid-argument", 2),
        (SINGLE, 1.0, math.inf, cosine_grid(16, 16), "invalid-argument", 2),
        (SINGLE, 1.0, -1e-2, cosine_grid(16, 16), "invalid-argument", 2),
    ],
    ids=["background", "no-unstable-modes", "v0-not-2d", "v0-0d", "v0-nan", "v0-inf", "period-nan",
         "period-inf", "background-nan", "background-inf", "eps-nan", "eps-inf",
         "eps-negative"],
)
def test_build_coded_failures(L, a, eps, v0, code, exit_code):
    # on the 2 x 2 torus the smallest wave number, pi, lies outside the
    # instability disk |k| < 2; a non-finite input is bad input, not a NaN
    # period matrix or an exception without a code, and so is a negative eps
    with pytest.raises(DS2Error) as err:
        build_spectral_data(*L, eps, v0, a=a)
    assert (err.value.code, err.value.exit_code) == (code, exit_code)
