"""Finite-gap field evaluation: background scale, covariance, periodicity,
growth."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ds2aw.curve import build_spectral_data, regime
from ds2aw.errors import DS2Error, NumericError
from ds2aw.fieldgen import _ratio, evaluate_grid, first_appearance_estimate
from ds2aw.fieldio import Field
from ds2aw.modes import enumerate_modes, unstable_classes
from ds2aw.refsolver import evolve
from ds2aw.theta import ThetaParams, theta

from conftest import (
    FOURMODE_LX,
    FOURMODE_LY,
    FOURMODE_TERMS,
    SINGLE_LX,
    SINGLE_LY,
    cosine_grid,
    harmonic_grid,
    linear_field,
)


def evaluate_batch(sd, z, t, params=None):
    """u at complex positions z = x + i y (flat array) and one time, by
    direct lattice sums: the oracle for evaluate_grid.

    u = a theta(A + w + d') / theta(w + d') with d' = d + B m0 the cell
    representative of d, m0 = rint(P^-1 Re d).  Late in a run the theta
    values themselves overflow, so the offset c = d + W_t t is first
    shifted by B m with the oracle's own m = floor(P^-1 Re c), not the
    grid's rounding; theta() reduces each argument again from there, and
    the ratio gains exp((m - m0).A)."""
    z = np.asarray(z, dtype=complex).ravel()
    if params is None:
        params = ThetaParams(sd.B)
    m0 = np.rint(np.linalg.solve(-sd.B.real, sd.d.real))
    c = sd.d + t * sd.W_t
    m = np.floor(np.linalg.solve(-sd.B.real, c.real))
    c = c + m @ sd.B
    w = z[:, None] * sd.W_z + np.conjugate(z)[:, None] * sd.W_zbar
    try:
        num, den = theta(np.stack([sd.A_inf2 + w + c, w + c]), params)
        return _ratio(num, den, sd.a * np.exp((m - m0) @ sd.A_inf2))
    except NumericError as err:
        if err.index is None:
            raise
        zi = z[err.index % len(z)]
        raise NumericError(
            err.code, f"{err.message} at (x, y, t) = ({zi.real:.6g}, {zi.imag:.6g}, {t:.6g})"
        ) from err


def evaluate_u(x, y, t, sd, params=None):
    """The finite-gap field at one space-time point, by direct lattice sums."""
    return complex(evaluate_batch(sd, np.array([complex(x, y)]), t, params)[0])


def grid_xy(field):
    """Coordinates (X, Y) of the field's samples: X[iy, ix] = ix L_x / nx."""
    x = np.arange(field.nx) * (field.L_x / field.nx)
    y = np.arange(field.ny) * (field.L_y / field.ny)
    return np.meshgrid(x, y, indexing="xy")


# Stable harmonics on both fixture tori (|k| > 2a): they open no handle, so
# the leading-order field carries none of them
STABLE_TERMS = [(3, 0, 0.2), (-3, 0, 0.2), (0, 3, 0.1j)]
FIXTURES = {
    "genus2": ((SINGLE_LX, SINGLE_LY), [(1, 0, 0.5), (-1, 0, 0.5)]),
    "genus8": ((FOURMODE_LX, FOURMODE_LY), FOURMODE_TERMS),
}


@pytest.mark.parametrize("stable", [False, True], ids=["unstable", "with-stable"])
@pytest.mark.parametrize("case", ["genus2", "genus8"])
def test_field_covariant_under_grid_shift_of_datum(case, stable):
    # the field's scale is the background a, which samples no point of v0,
    # so moving v0 by whole grid cells moves the field with it at every t
    # (measured 1.7e-15 at genus 2, 9.5e-14 at genus 8)
    L, terms = FIXTURES[case]
    v0 = harmonic_grid(32, 32, terms + (STABLE_TERMS if stable else []))
    sd = build_spectral_data(*L, 1e-2, v0)
    moved = build_spectral_data(*L, 1e-2, np.roll(v0, (2, 5), axis=(0, 1)))
    times = [0.0, first_appearance_estimate(sd)]
    for f, g in zip(evaluate_grid(times, 32, 32, sd), evaluate_grid(times, 32, 32, moved)):
        want = np.roll(f.u, (2, 5), axis=(0, 1))
        assert np.abs(g.u - want).max() <= 1e-11 * np.abs(f.u).max()


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("case", ["genus2", "genus8"])
def test_field_covariant_under_axis_swap(case, eps):
    # DS2 is invariant under (x, y, t, u) -> (y, x, t, conj u), so the torus
    # L_y x L_x with datum conj(v0^T) carries conj(u^T), though its resonant
    # points, alpha_j and beta_j differ; the solver is held to the same
    # symmetry.  Measured on 32 x 24: <= 1.7e-13 finite gap, <= 4.3e-13 solver
    (L_x, L_y), terms = FIXTURES[case]
    v0 = harmonic_grid(32, 24, terms)
    swapped = np.conj(v0.T)
    sd = build_spectral_data(L_x, L_y, eps, v0)
    T1 = first_appearance_estimate(sd)
    times = [0.0, T1 / 2, T1, 1.1 * T1]
    pairs = list(zip(evaluate_grid(times, 32, 24, sd),
                     evaluate_grid(times, 24, 32, build_spectral_data(L_y, L_x, eps, swapped))))
    pairs += zip(evolve(Field(L_x, L_y, 0.0, 1.0 + eps * v0), [T1 / 2], 1e-3),
                 evolve(Field(L_y, L_x, 0.0, 1.0 + eps * swapped), [T1 / 2], 1e-3))
    for f, g in pairs:
        assert np.abs(g.u - np.conj(f.u.T)).max() <= 1e-11 * np.abs(f.u).max(), f.t


@st.composite
def generic_tori(draw):
    """(L_x, L_y, a, eps, v0 on 32 x 24) for a drawn torus inside the
    regime: L in [2, 6.5]/a, a = 1 or in [0.5, 2], a random datum on every
    unstable class and eps = 0.05 eps_max.  Tori that build_spectral_data
    refuses with a code (no unstable mode, non-generic) are skipped."""
    a = draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    L_x, L_y = draw(st.floats(2.0, 6.5)) / a, draw(st.floats(2.0, 6.5)) / a
    part = st.floats(-1.0, 1.0)
    terms = [(s * m.n_x, s * m.n_y, complex(draw(part), draw(part)))
             for m in unstable_classes(enumerate_modes(L_x, L_y, a)) for s in (1, -1)]
    v0 = harmonic_grid(32, 24, terms)
    try:
        eps = 0.05 * regime(build_spectral_data(L_x, L_y, 1e-2, v0, a=a))[0]
    except DS2Error:
        assume(False)
    return L_x, L_y, a, eps, v0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(case=generic_tori())
def test_field_covariant_under_axis_swap_on_drawn_tori(case):
    # the axis swap of test_field_covariant_under_axis_swap, on tori and
    # data the fixtures do not reach, at t = 0 and T1/4 (measured <= 5.7e-15
    # over the 15 examples, genus 2 to 10)
    L_x, L_y, a, eps, v0 = case
    sd = build_spectral_data(L_x, L_y, eps, v0, a=a)
    swapped = build_spectral_data(L_y, L_x, eps, np.conj(v0.T), a=a)
    times = [0.0, first_appearance_estimate(sd) / 4]
    for f, g in zip(evaluate_grid(times, 32, 24, sd), evaluate_grid(times, 24, 32, swapped)):
        assert np.abs(g.u - np.conj(f.u.T)).max() <= 1e-11 * np.abs(f.u).max(), (sd.g, f.t)


@pytest.mark.parametrize("a", [0.9, 2.0])
@pytest.mark.parametrize("case", ["genus2", "genus8"])
def test_field_covariant_under_background_scaling(case, a):
    # DS2 maps u(x, y, t) on background 1 to a u(a x, a y, a^2 t) on
    # background a: the field on the (L_x/a, L_y/a) torus at eps and t/a^2
    # is a times the background-1 field at eps/a and t.  The curve divides
    # k by a in resonant_points and scales W back by a and a^2, so this
    # checks those steps (measured <= 1.6e-15)
    (L_x, L_y), terms = FIXTURES[case]
    v0 = harmonic_grid(32, 32, terms)
    unit = build_spectral_data(L_x, L_y, 1e-2 / a, v0)
    T1 = first_appearance_estimate(unit)
    times = [0.0, T1 / 2, T1, 1.1 * T1]
    scaled = build_spectral_data(L_x / a, L_y / a, 1e-2, v0, a=a)
    pairs = zip(evaluate_grid(times, 32, 32, unit),
                evaluate_grid([t / (a * a) for t in times], 32, 32, scaled))
    for f, g in pairs:
        assert np.abs(g.u - a * f.u).max() <= 1e-12 * a * np.abs(f.u).max(), f.t


def flip(a):
    """a(-x, -y) on the grid: sample (iy, ix) is a's sample (-iy, -ix)."""
    return np.roll(a[::-1, ::-1], 1, axis=(0, 1))


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("case", ["genus2", "genus8"])
def test_field_covariant_under_parity_and_time_reversal(case, eps):
    # DS2 is invariant under parity (x, y) -> (-x, -y) and time reversal
    # (t, u) -> (-t, conj u), so the datum v0(-x, -y) carries u(-x, -y, t)
    # and conj(v0) at -t carries conj(u(t)); each handle then reads other
    # coefficients (c_{-k}, or conj(c_{-k})), and the solver runs backward
    # for the reversal.  Measured on 32 x 24: <= 5.0e-15 (parity) and
    # <= 1.6e-13 (reversal) finite gap, <= 4.7e-14 and <= 5.3e-14 solver
    (L_x, L_y), terms = FIXTURES[case]
    v0 = harmonic_grid(32, 24, terms)
    sd = build_spectral_data(L_x, L_y, eps, v0)
    T1 = first_appearance_estimate(sd)
    times = [0.0, T1 / 2, T1, 1.1 * T1]
    fields = evaluate_grid(times, 32, 24, sd)
    parity = build_spectral_data(L_x, L_y, eps, flip(v0))
    reversal = build_spectral_data(L_x, L_y, eps, np.conj(v0))
    checks = [(f.t, "parity", g.u, flip(f.u))
              for f, g in zip(fields, evaluate_grid(times, 32, 24, parity))]
    checks += [(f.t, "reversal", g.u, np.conj(f.u))
               for f, g in zip(fields, evaluate_grid([-t for t in times], 32, 24, reversal))]
    [u] = evolve(Field(L_x, L_y, 0.0, 1.0 + eps * v0), [T1 / 2], 1e-3)
    [p] = evolve(Field(L_x, L_y, 0.0, 1.0 + eps * flip(v0)), [T1 / 2], 1e-3)
    [r] = evolve(Field(L_x, L_y, 0.0, 1.0 + eps * np.conj(v0)), [-T1 / 2], 1e-3)
    checks += [(u.t, "solver parity", p.u, flip(u.u)), (u.t, "solver reversal", r.u, np.conj(u.u))]
    for t, what, got, want in checks:
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), (what, t)


@pytest.mark.parametrize("stable", [False, True], ids=["unstable", "with-stable"])
@pytest.mark.parametrize(
    "case, a, bound", [("genus2", 1.0, 2.0), ("genus2", 0.8, 2.0), ("genus8", 1.0, 6.0)],
    ids=["genus2", "genus2-a0.8", "genus8"],
)
def test_datum_reproduced_without_stable_content(case, a, bound, stable):
    # at t = 0 the field is a + eps v_unstable to O(eps^2), whatever stable
    # content v0 has (measured 0.70, 0.56 and 3.07 eps^2)
    eps = 1e-2
    L, terms = FIXTURES[case]
    v0 = harmonic_grid(32, 32, terms + (STABLE_TERMS if stable else []))
    [f] = evaluate_grid([0.0], 32, 32, build_spectral_data(*L, eps, v0, a=a))
    want = a + eps * harmonic_grid(32, 32, terms)
    assert np.abs(f.u - want).max() <= bound * eps**2


@pytest.mark.parametrize(
    "case, bounds",
    [("genus2", {1e-2: (1.4e-2, 3e-2, 1e-1), 1e-3: (1.4e-3, 5e-3, 3.2e-2)}),
     ("genus8", {1e-2: (6.2e-2, 5.4e-2, 9.4e-2), 1e-3: (6.2e-3, 4.8e-3, 2.6e-2)})],
)
def test_field_follows_linear_theory(case, bounds):
    # early in the run the field is a + eps v(t) of linearized DS2, closed
    # form in conftest.linear_field, up to O(eps) relative to eps v.  Bounds
    # on max|u - u_lin| / eps at 0, T1/8 and T1/4 are about twice the
    # measured values
    L, terms = FIXTURES[case]
    for eps, bound in bounds.items():
        sd = build_spectral_data(*L, eps, harmonic_grid(32, 32, terms))
        T1 = first_appearance_estimate(sd)
        fields = evaluate_grid([0.0, T1 / 8, T1 / 4], 32, 32, sd)
        for f, b in zip(fields, bound):
            lin = linear_field(*L, sd.a, eps, terms, f.t, 32, 32)
            assert np.abs(f.u - lin).max() <= b * eps, (eps, f.t)


def test_field_invariant_under_lattice_shift_of_d(single_mode_sd, four_mode_sd):
    # d + B n + 2 pi i k gives the same u: the factors quasi-periodicity
    # puts on the four thetas cancel in the ratio.  The grid reduces d as it
    # reduces each snapshot's offset, so the shifted d is evaluated in the
    # same cell
    rng = np.random.default_rng(31)
    for sd in (single_mode_sd, four_mode_sd):
        T1 = first_appearance_estimate(sd)
        times = [0.0, 0.5 * T1, T1, 3.0 * T1]
        n, k = rng.integers(-3, 4, (2, sd.g))
        assert np.any(n != 0) and np.any(k != 0)
        shifted = dataclasses.replace(sd, d=sd.d + n @ sd.B + 2j * np.pi * k)
        for a, b in zip(evaluate_grid(times, 16, 16, sd), evaluate_grid(times, 16, 16, shifted)):
            assert np.abs(b.u - a.u).max() <= 1e-12 * np.abs(a.u).max()


def test_double_periodicity(single_mode_sd, four_mode_sd):
    rng = np.random.default_rng(17)
    for sd in (single_mode_sd, four_mode_sd):
        params = ThetaParams(sd.B)
        for _ in range(5):
            x, y = rng.uniform(0, 3, size=2)
            t = rng.uniform(0, 1)
            u0 = evaluate_u(x, y, t, sd, params)
            ux = evaluate_u(x + sd.L_x, y, t, sd, params)
            uy = evaluate_u(x, y + sd.L_y, t, sd, params)
            assert abs(ux - u0) <= 1e-9 * abs(u0)
            assert abs(uy - u0) <= 1e-9 * abs(u0)


def test_grid_matches_direct_sum(single_mode_sd, four_mode_sd):
    # the folded-FFT grid path against the direct lattice sum at every grid
    # point; the two paths sum in a different order, so equality is to
    # rounding, not bitwise.  From 1.5 T1 on the offsets are reduced (m != 0)
    rescaled = build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, cosine_grid(32, 32), a=0.9)
    T2 = first_appearance_estimate(single_mode_sd)
    T8 = first_appearance_estimate(four_mode_sd)
    cases = [(single_mode_sd, 0.4, 8), (single_mode_sd, 3.0, 16), (rescaled, 1.7, 16)]
    cases += [(single_mode_sd, f * T2, 16) for f in (1.5, 20.0, 40.0)]
    cases += [(four_mode_sd, f * T8, 16) for f in (0.75, 1.0, 1.5, 20.0, 40.0)]
    for sd, t, n in cases:
        f = evaluate_grid([t], n, n, sd)[0]
        X, Y = grid_xy(f)
        direct = evaluate_batch(sd, (X + 1j * Y).ravel(), t).reshape(n, n)
        assert np.max(np.abs(f.u - direct) / np.abs(direct)) <= 1e-12


def theta_cube(c, sd, x, y):
    """theta(w(x, y) + c) on the grid x by y (shape (len(y), len(x))) summed
    over the 3^g lattice points |n_j| <= 1 only, by direct sums."""
    N = np.array(list(itertools.product((-1, 0, 1), repeat=sd.g)))
    terms = np.exp(0.5 * ((N @ sd.B) * N).sum(1) + N @ c)
    ex = np.exp(np.outer(x, N @ (sd.W_z + sd.W_zbar)))
    ey = np.exp(np.outer(y, N @ (1j * (sd.W_z - sd.W_zbar))))
    return (ey * terms) @ ex.T


@pytest.mark.parametrize(
    "L, terms",
    [((SINGLE_LX, SINGLE_LY), [(1, 0, 0.5), (-1, 0, 0.5)]),
     ((FOURMODE_LX, FOURMODE_LY), FOURMODE_TERMS)],
    ids=["genus2", "genus8"],
)
def test_elementary_function_form(L, terms):
    # the paper's leading-order field reduces to elementary functions: the
    # 3^g terms |n_j| <= 1 reproduce the certified field on [0, 1.5 T1]
    # far below the formula's own O(eps) error, and the gap falls faster
    # than eps (measured ratio 2.8 at genus 2, 3.7 at genus 8)
    errs = {}
    for eps in (1e-2, 5e-3):
        sd = build_spectral_data(*L, eps, harmonic_grid(32, 32, terms))
        times = np.linspace(0.0, 1.5 * first_appearance_estimate(sd), 7)
        worst = 0.0
        for f in evaluate_grid(times, 16, 16, sd):
            x = np.arange(f.nx) * (f.L_x / f.nx)
            y = np.arange(f.ny) * (f.L_y / f.ny)
            c = sd.d + sd.W_t * f.t
            cube = theta_cube(sd.A_inf2 + c, sd, x, y) / theta_cube(c, sd, x, y)
            u = cube * sd.a
            worst = max(worst, np.abs(u - f.u).max() / np.abs(f.u).max())
        errs[eps] = worst
        assert worst <= 0.1 * eps, (eps, worst)
    ratio = errs[1e-2] / errs[5e-3]
    assert 2.0 <= ratio <= 8.0, errs


def test_modulational_growth_rate(single_mode_sd):
    # the (1, 0) Fourier coefficient grows like e^{sigma t} up to T1/2
    sd = single_mode_sd
    sigma = abs(sd.W_t[0])
    t1 = first_appearance_estimate(sd)
    times = np.linspace(0.0, 0.5 * t1, 9)
    fields = evaluate_grid(times, 32, 32, sd)
    amps = []
    for f in fields:
        c = np.fft.fft2(f.u) / (32 * 32)
        amps.append(abs(c[0, 1]))
    # drop the t=0 point: both eigendirections are present initially
    fit = np.polyfit(times[3:], np.log(amps[3:]), 1)[0]
    assert abs(fit - sigma) <= 0.05 * sigma


def test_anomalous_wave_peak(single_mode_sd):
    sd = single_mode_sd
    t1 = first_appearance_estimate(sd)
    times = np.arange(0.0, 2.0 * t1, 0.1)
    fields = evaluate_grid(times, 32, 32, sd)
    peak = max(np.abs(f.u).max() for f in fields)
    assert peak > 2.0


def test_relabeling_invariance(single_mode_sd):
    # permuting handle indices consistently leaves the field unchanged
    sd = single_mode_sd
    perm = [1, 0]
    swapped = dataclasses.replace(
        sd,
        pairs=[sd.pairs[i] for i in perm],
        B=sd.B[np.ix_(perm, perm)],
        W_z=sd.W_z[perm],
        W_zbar=sd.W_zbar[perm],
        W_t=sd.W_t[perm],
        A_inf2=sd.A_inf2[perm],
        A_div=sd.A_div[perm],
        K=sd.K[perm],
        d=sd.d[perm],
    )
    rng = np.random.default_rng(23)
    for _ in range(5):
        x, y, t = rng.uniform(0, 2, size=3)
        assert evaluate_u(x, y, t, swapped) == pytest.approx(
            evaluate_u(x, y, t, sd), rel=1e-10
        )


def test_first_appearance_estimate_values():
    # C = max |sqrt(alpha beta)| = 1 when v0 = 2 cos(1.2 x)
    v0 = harmonic_grid(32, 32, [(1, 0, 1.0), (-1, 0, 1.0)])
    sd = build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, v0)
    assert max(abs(p.sqrt_alpha_beta) for p in sd.pairs) == pytest.approx(1.0, abs=1e-12)
    t1 = first_appearance_estimate(sd)
    assert t1 == pytest.approx(math.log(100.0) / 1.92, rel=1e-12)
    # halving eps delays by log 2 / sigma_max
    sd2 = build_spectral_data(SINGLE_LX, SINGLE_LY, 5e-3, v0)
    assert first_appearance_estimate(sd2) - t1 == pytest.approx(
        math.log(2.0) / 1.92, rel=1e-10
    )
    assert t1 > 0.0


def test_theta_zero_reported(single_mode_sd):
    # theta vanishes at the odd half-period i pi e_1 + B e_1 / 2, where its
    # sum cancels to rounding: no relative certificate holds there, so the
    # certificate is the pole guard.  With d at the root the t = 0
    # snapshot's theta(w + d) fails at the origin, and the grid names it
    sd = single_mode_sd
    root = 1j * math.pi * np.eye(sd.g)[0] + sd.B[:, 0] / 2.0
    bad = dataclasses.replace(sd, d=root)
    with pytest.raises(NumericError) as err:
        evaluate_u(0.0, 0.0, 0.0, bad, ThetaParams(sd.B))
    assert err.value.code == "truncation-insufficient"
    with pytest.raises(NumericError) as err:
        evaluate_grid([0.0, 1.0], 8, 8, bad)
    assert err.value.code == "truncation-insufficient"
    assert err.value.message.endswith("at (x, y, t) = (0, 0, 0)")


@pytest.mark.parametrize(
    "nx, flat, times, code, exit_code",
    [(4, False, [0.0, 0.0], "invalid-grid", 2), (16.5, False, [0.0], "invalid-grid", 2),
     (math.nan, False, [0.0], "invalid-grid", 2), (8, True, [0.0, 0.0], "too-many-terms", 5),
     (8, False, [0.0, math.nan], "invalid-times", 2),
     (8, False, [0.0, -math.inf], "invalid-times", 2), (8, False, 0.5, "invalid-times", 2)],
    ids=["grid-too-small", "grid-not-integer", "grid-nan", "too-many-terms", "time-nan",
         "time-inf", "time-scalar"],
)
def test_evaluate_grid_coded_failures(
    monkeypatch, single_mode_sd, nx, flat, times, code, exit_code
):
    # B = -1e-12 I asks for about 2e7 candidates at one level: the term cap
    # fails it in the first theta_grid call, and the error, which names no
    # sample, passes through the naming unchanged.  A grid that is not two
    # integers >= 8, and times that are not finite numbers, are named
    # before any theta work (a RuntimeWarning is an error in this suite)
    sd = dataclasses.replace(single_mode_sd, B=-1e-12 * np.eye(2)) if flat else single_mode_sd
    if code.startswith("invalid-"):
        monkeypatch.setattr("ds2aw.fieldgen.ThetaParams", None)
    with pytest.raises(DS2Error) as err:
        evaluate_grid(times, nx, 8, sd)
    assert (err.value.code, err.value.exit_code) == (code, exit_code)
    assert "(x, y, t)" not in err.value.message
    if code == "invalid-times":
        assert str(np.ravel(times)[-1]) in err.value.message


def test_evaluate_grid_takes_any_iterable_of_times(single_mode_sd):
    want = [f.u.tobytes() for f in evaluate_grid([0.0, 1.0], 8, 8, single_mode_sd)]
    for times in ((0.0, 1.0), np.array([0.0, 1.0]), iter([0.0, 1.0]), range(2)):
        fields = evaluate_grid(times, np.int64(8), 8, single_mode_sd)
        assert [f.u.tobytes() for f in fields] == want


def test_truncation_insufficient_propagates(four_mode_sd):
    # theta vanishes at the odd half-period i pi e_1 + B e_1 / 2 and at its
    # lattice translates, where its sum cancels to rounding, below
    # tail_tolerance times the certified truncation error.  Aim the offset
    # d (kept in the cell) so that w + d hits a translate at a grid point
    # late in the run: both paths fail closed instead of returning a wrong
    # ratio, and name the sample
    sd = four_mode_sd
    n = 16
    t = 20.0 * first_appearance_estimate(sd)
    ix, iy = 3, 5
    x, y = ix * sd.L_x / n, iy * sd.L_y / n
    root = 1j * np.pi * np.eye(sd.g)[0] + sd.B[:, 0] / 2.0
    w = complex(x, y) * sd.W_z + complex(x, -y) * sd.W_zbar + t * sd.W_t
    bad = dataclasses.replace(sd, d=ThetaParams(sd.B).reduce(root - w)[1])
    named = rf"min\|theta\| = [^ ]+ at \(x, y, t\) = \({x:.6g}, {y:.6g}, {t:.6g}\)$"
    with pytest.raises(NumericError) as err:
        evaluate_u(x, y, t, bad)
    assert err.value.code == "truncation-insufficient"
    assert re.search(named, err.value.message)
    with pytest.raises(NumericError) as err:
        evaluate_grid([t], n, n, bad)
    assert err.value.code == "truncation-insufficient"
    assert re.search(named, err.value.message)
