"""Riemann theta evaluation: frozen values, identities, truncation.

The genus-1 frozen value comes from direct summation of the series with a
plain python loop (independent of the vectorized path); quasi-periodicity
is checked with theta() on one side of the identity and a direct lattice
sum on the other, and block-diagonal matrices against products of block
evaluations.
"""

import cmath
import importlib
import time

import numpy as np
import pytest

from ds2aw.errors import ConfigError, NumericError
from ds2aw.fieldgen import evaluate_grid, first_appearance_estimate
from ds2aw.theta import DROP_SHARE, ThetaParams, theta

from conftest import lattice_sum, quasi_periodicity_defect

theta_mod = importlib.import_module("ds2aw.theta")

# Direct-summation oracle, genus 1, B = [-2], z = 0:
# 1 + 2(e^-1 + e^-4 + e^-9 + e^-16 + ...)
GENUS1_VALUE = 1.0 + 2.0 * sum(np.exp(-(n * n)) for n in range(1, 12))


def params_1d(B=-2.0, tol=1e-12):
    return ThetaParams(B=np.array([[B]], dtype=complex), tail_tolerance=tol)


def random_params(rng, g, diag_lo=-16.0, diag_hi=-11.0, tol=1e-9):
    d = rng.uniform(diag_lo, diag_hi, size=g)
    off = rng.uniform(-0.4, 0.4, size=(g, g))
    B = (off + off.T) / 2.0 + np.diag(d) + 0j
    np.fill_diagonal(B, d)
    return ThetaParams(B=B, tail_tolerance=tol)


def test_genus1_frozen_value():
    val = theta(np.zeros(1, dtype=complex), params_1d())
    assert abs(val - GENUS1_VALUE) < 1e-14
    assert val == pytest.approx(1.7726372048, abs=1e-9)


def test_even_symmetry():
    rng = np.random.default_rng(3)
    p = random_params(rng, 3)
    for _ in range(10):
        z = rng.normal(0, 2, 3) + 1j * rng.normal(0, 2, 3)
        assert theta(z, p) == pytest.approx(theta(-z, p), rel=1e-13)


def test_2pi_i_periodicity():
    rng = np.random.default_rng(4)
    p = random_params(rng, 2)
    z = rng.normal(0, 1, 2) + 1j * rng.normal(0, 1, 2)
    for k in range(2):
        shift = np.zeros(2, dtype=complex)
        shift[k] = 2j * np.pi
        assert theta(z + shift, p) == pytest.approx(theta(z, p), rel=1e-12)


def test_quasi_periodicity_genus1():
    p = params_1d()
    assert quasi_periodicity_defect(np.array([0.3 + 0.1j]), 0, p) < 1e-10


def test_quasi_periodicity_genus2_diagonal_product_oracle():
    B = np.diag([-3.0 + 0j, -2.5 + 0j])
    p = ThetaParams(B=B, tail_tolerance=1e-9)
    z = np.array([0.2 + 0.4j, -0.1 + 0.9j])
    # product of two genus-1 values reproduces the genus-2 value
    p1 = ThetaParams(B=B[:1, :1], tail_tolerance=1e-9)
    p2 = ThetaParams(B=B[1:, 1:], tail_tolerance=1e-9)
    prod = theta(z[:1], p1) * theta(z[1:], p2)
    assert theta(z, p) == pytest.approx(prod, rel=1e-13)
    for k in range(2):
        assert quasi_periodicity_defect(z, k, p) < 1e-10


def test_quasi_periodicity_relative_to_the_larger_side():
    # far from the cell exp(-b_kk/2 - z_k) is large (e^44 here): relative to
    # |theta(z)| the defect would read rounding times that factor.  The
    # direct sum at z peaks near n = (0, -3), inside its box |n_j| <= 8.
    # At the default tolerance the certified error is below the rounding
    B = np.array([[-12.0, 0.3], [0.3, -13.5]], dtype=complex)
    p = ThetaParams(B=B)
    z = np.array([3.97 + 1.52j, -37.8 + 0.23j])
    assert quasi_periodicity_defect(z, 1, p, R=8) < 1e-14


def test_quasi_periodicity_reflection_invariance():
    rng = np.random.default_rng(5)
    p = random_params(rng, 2)
    z = rng.normal(0, 1, 2) + 1j * rng.normal(0, 1, 2)
    for k in range(2):
        r1 = quasi_periodicity_defect(z, k, p)
        r2 = quasi_periodicity_defect(-z - p.B[:, k], k, p)
        assert r1 < 1e-9 and r2 < 1e-9


def test_block_diagonal_factorization():
    rng = np.random.default_rng(6)
    pa = random_params(rng, 2)
    pb = random_params(rng, 2)
    B = np.zeros((4, 4), dtype=complex)
    B[:2, :2] = pa.B
    B[2:, 2:] = pb.B
    p4 = ThetaParams(B=B, tail_tolerance=1e-8)
    for _ in range(5):
        z = rng.normal(0, 2, 4) + 1j * rng.normal(0, 2, 4)
        blocks = theta(z[:2], ThetaParams(B=pa.B)) * theta(z[2:], ThetaParams(B=pb.B))
        assert theta(z, p4) == pytest.approx(blocks, rel=1e-12)


def test_truncation_monotonicity():
    # sums over the boxes |n| <= M converge monotonically, and each box's
    # error stays within the charge for the integers outside the window
    # round(delta) +- M, at least M + 1/2 from delta: e^C T(M) with P = 2,
    # T(M) = 2 exp(-(M + 1/2)^2) / (1 - exp(-2 (M + 1)))
    B = np.array([[-2.0 + 0j]])
    z = np.array([0.7 + 0.3j])
    delta = 0.35  # P^-1 Re z, inside the cell
    exact = theta(z, params_1d())
    Ms = (1, 2, 3, 4)
    vals = [
        np.exp(0.5 * ((N @ B) * N).sum(1) + N @ z).sum()
        for N in (np.arange(-M, M + 1)[:, None] for M in Ms)
    ]
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    d3 = abs(vals[2] - vals[3])
    assert d1 >= d2 >= d3
    for M, v in zip(Ms, vals):
        charge = 2.0 * np.exp(-((M + 0.5) ** 2)) / -np.expm1(-2.0 * (M + 1))
        assert abs(v - exact) <= np.exp(0.5 * 0.7 * delta) * charge


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    p = random_params(rng, 3)
    z = rng.normal(0, 2, 3) + 1j * rng.normal(0, 2, 3)
    perm = np.array([2, 0, 1])
    Bp = p.B[np.ix_(perm, perm)]
    pp = ThetaParams(B=Bp)
    assert theta(z[perm], pp) == pytest.approx(theta(z, p), rel=1e-13)


def test_batch_matches_pointwise_bitwise():
    rng = np.random.default_rng(9)
    p = random_params(rng, 2)
    zs = rng.normal(0, 1, (7, 2)) + 1j * rng.normal(0, 1, (7, 2))
    batch = theta(zs, p)
    for i in range(7):
        assert batch[i] == theta(zs[i], p)


def test_spread_batch_matches_single_points_genus8(monkeypatch, four_mode_sd):
    # each reduced real part gets its own term set and certificate, so a
    # batch whose points have different real parts certifies whenever each
    # point does, and returns the same bits as one call per point.  Points
    # that share a real part share a set, and each is still summed on its
    # own (a 1x1 theta_grid): a k-row matrix product of the exponents does
    # not round like k one-row products at genus 8
    sd = four_mode_sd
    p = ThetaParams(sd.B, 1e-10)
    sizes = []

    def counted(*args, _fn=theta_mod._term_set):
        built = _fn(*args)
        sizes.append(len(built[0]))
        return built

    monkeypatch.setattr(theta_mod, "_term_set", counted)
    rng = np.random.default_rng(0)
    for k in (2,) * 20 + (4,) * 20:
        re = rng.uniform(-0.5, 0.5, (k, 8)) @ -sd.B.real  # P^-1 Re z in the cell
        zs = re + 1j * rng.uniform(-3.0, 3.0, (k, 8))
        batch = theta(zs, p)
        assert all(batch[i] == theta(zs[i], p) for i in range(k))
    assert len(sizes) == 2 * (20 * 2 + 20 * 4)
    shared = rng.integers(2, 7, 20)
    for k in shared:
        re = rng.uniform(-0.5, 0.5, 8) @ -sd.B.real  # one real part per batch
        zs = re + 1j * rng.uniform(-3.0, 3.0, (k, 8))
        batch = theta(zs, p)
        assert all(batch[i] == theta(zs[i], p) for i in range(k))
    assert len(sizes) == 2 * (20 * 2 + 20 * 4) + len(shared) + shared.sum()
    assert max(sizes) <= 20_000


def test_failing_point_named_by_its_batch_index(four_mode_sd):
    # theta() sums one real part at a time; a failed certificate in a later
    # group names the point's index in the whole batch, not in its group.
    # theta vanishes at the odd half-period i pi e_1 + B e_1 / 2, where the
    # genus-8 sum cancels below tail_tolerance times the truncation error
    sd = four_mode_sd
    p = ThetaParams(sd.B)
    rng = np.random.default_rng(5)
    root = 1j * np.pi * np.eye(sd.g)[0] + sd.B[:, 0] / 2.0
    P = -sd.B.real
    lower = -0.45 * np.sign(P[0])  # in the cell, with (P delta)_0 < -P_00 / 2
    res = [lower @ P, 0.9 * lower @ P]  # so theta() sums both before the root's group
    zs = np.array([res[0], root.real, res[1], res[0], root.real, res[1], root.real])
    zs = zs + 1j * rng.uniform(-3.0, 3.0, zs.shape)
    zs[4] = root
    _, group = np.unique(p.reduce(zs)[1].real, axis=0, return_inverse=True)
    group = group.ravel()
    assert len(set(group)) == 3 and group[4] == group[1] == 2  # the last group, not its first
    with pytest.raises(NumericError) as err:
        theta(zs, p)
    assert err.value.code == "truncation-insufficient"
    assert err.value.index == 4


def genus5_params(rng):
    g = 5
    d = rng.uniform(-15.0, -11.0, size=g)
    off = rng.uniform(-0.3, 0.3, size=(g, g))
    B = (off + off.T) / 2.0 + np.diag(d) + 0j
    np.fill_diagonal(B, d)
    return ThetaParams(B=B, tail_tolerance=1e-6)


def test_pruned_path_matches_full_box():
    # the pruned enumeration about the reduced argument against the plain
    # sum over the box |n_j| <= 5 about n = 0, which holds the largest terms
    # (they sit near n = P^-1 Re z, |n_j| < 1 here)
    rng = np.random.default_rng(12)
    p = genus5_params(rng)
    zs = rng.uniform(-4, 4, (6, 5)) + 1j * rng.uniform(-4, 4, (6, 5))
    pruned = theta(zs, p)
    full = np.array([lattice_sum(z, p.B) for z in zs])
    assert np.max(np.abs(pruned - full) / np.abs(full)) < 1e-12


def box_term_moduli(B, M, centre):
    """Every point of the box |n_j| <= M, in row-major order of n + M, and
    |exp(n.B.n/2 + n.z)| at each for Re z = centre."""
    g = B.shape[0]
    N = np.stack(np.meshgrid(*([np.arange(-M, M + 1)] * g), indexing="ij"), -1)
    N = N.reshape(-1, g)
    expo = 0.5 * ((N @ np.real(B)) * N).sum(1) + N @ centre
    return N, np.exp(expo)


def small_genus_centres(g, diagonal):
    """A random P = -Re B (diagonal or dense, lambda_min >= 0.5) and five
    real parts P delta with delta in the cell."""
    rng = np.random.default_rng(20 + g)
    if diagonal:
        P = np.diag(rng.uniform(0.5, 3.0, g))
    else:
        A = rng.normal(0.0, 0.6, (g, g))
        P = A @ A.T + 0.5 * np.eye(g)
    return ThetaParams(-P + 0j), [P @ rng.uniform(-0.5, 0.5, g) for _ in range(5)]


CERTIFIED = [(g, shape) for shape in ("diagonal", "dense") for g in (1, 2, 3)]
CERTIFIED += [(5, "batch"), (8, "0"), (8, "T1"), (8, "1.5T1")]


@pytest.mark.parametrize("g, case", CERTIFIED, ids=[f"genus{g}-{c}" for g, c in CERTIFIED])
def test_dropped_terms_within_certificate(g, case, four_mode_sd):
    # brute force: the terms the enumeration leaves out, outside its windows
    # or dropped inside them, sum to at most its certificate, which stays
    # within 2 tail_tol 1e-6 of e^C (the largest term modulus at the centre):
    # one share for the windows' exteriors, one for the drops.  At genus 1-3
    # the box |n_j| <= M holds every kept point; at genus 5 and 8 the check
    # covers the terms in a box
    if g <= 3:
        p, centres = small_genus_centres(g, case == "diagonal")
        M, tols = {1: 40, 2: 24, 3: 14}[g], (1e-6, 1e-10, 1e-14)
    elif g == 5:
        # the reduced real part of the first point of the pruned-path batch
        rng = np.random.default_rng(12)
        p = genus5_params(rng)
        centres = [np.real(p.reduce(rng.uniform(-4, 4, (6, 5))[0])[1])]
        M, tols = 3, (p.tail_tolerance,)
    else:
        sd = four_mode_sd
        f = {"0": 0.0, "T1": 1.0, "1.5T1": 1.5}[case]
        p = ThetaParams(sd.B)
        centres = [np.real(p.reduce(sd.d + sd.W_t * f * first_appearance_estimate(sd))[1])]
        M, tols = 2, (p.tail_tolerance,)  # box 5^8
    for centre in centres:
        N, moduli = box_term_moduli(p.B, M, centre)
        n_star = np.linalg.solve(p._P, centre)
        C = 0.5 * centre @ n_star
        for tol in tols:
            kept, omitted = theta_mod._ellipsoid(p._R, n_star, C, tol * DROP_SHARE)
            inside = np.all(np.abs(kept) <= M, axis=1)
            assert g > 3 or np.all(inside)
            flat = np.ravel_multi_index(tuple((kept[inside] + M).T), (2 * M + 1,) * g)
            assert len(np.unique(flat)) == len(flat) < len(N)
            left_out = np.ones(len(N), dtype=bool)
            left_out[flat] = False
            assert 0.0 < moduli[left_out].sum() <= omitted <= 2 * tol * DROP_SHARE * np.exp(C)


@pytest.mark.parametrize(
    "curve, counts", [("single_mode_sd", (19, 21, 24)), ("four_mode_sd", (3010, 7817, 17826))]
)
def test_kept_terms_pinned_on_paper_curves(request, curve, counts):
    # kept-term counts at t = 0 at tail tolerances 1e-6, 1e-10 (the default)
    # and 1e-14 on the conftest curves (genus 2 and 8)
    sd = request.getfixturevalue(curve)
    got = []
    for tol in (1e-6, 1e-10, 1e-14):
        p = ThetaParams(sd.B, tol)
        got.append(len(theta_mod._term_set(p, np.real(p.reduce(sd.d)[1]))[0]))
    assert tuple(got) == counts


def test_genus8_term_set_at_peak_built_and_certified_once(monkeypatch, four_mode_sd):
    # the numerator and denominator offsets differ by the imaginary A(inf2):
    # one grid call builds and certifies one set for both
    sd = four_mode_sd
    T1 = first_appearance_estimate(sd)
    p = ThetaParams(sd.B)
    c = sd.d + sd.W_t * T1
    offsets = [sd.A_inf2 + c, c]
    calls = []

    def counted(*args, _fn=theta_mod._ellipsoid):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(theta_mod, "_ellipsoid", counted)
    harmonics = [(q.mode.n_x, q.mode.n_y) for q in sd.pairs]
    theta_mod.theta_grid(offsets, harmonics, 8, 8, p)
    assert len(calls) == 1
    N, _, omitted = theta_mod._term_set(p, np.real(c))
    assert len(N) == 8_032 and 0.0 < omitted < p.tail_tolerance


def test_genus8_term_set_stays_small_past_peak(four_mode_sd):
    # in the reduced frame the drop budget and the tail scale with the
    # largest term, so past the peak the set stays near its size at T1
    # (289,425 terms at 4 T1 with an absolute budget and no reduction)
    sd = four_mode_sd
    p = ThetaParams(sd.B)
    harmonics = [(q.mode.n_x, q.mode.n_y) for q in sd.pairs]
    for f in (4.0, 40.0):
        m, c = p.reduce(sd.d + sd.W_t * f * first_appearance_estimate(sd))
        assert np.any(m != 0)
        offsets = [sd.A_inf2 + c, c]
        assert len(theta_mod._term_set(p, np.real(c))[0]) < 20_000
        vals = theta_mod.theta_grid(offsets, harmonics, 16, 16, p)  # certified
        assert np.all(np.isfinite(vals))


def test_term_cap_raised_at_the_level_that_passes_it(monkeypatch, four_mode_sd):
    # the cap is checked on each level's candidate count (kept prefixes
    # times window) before the candidates are built, so a flat B fails with
    # the coded error, not with a MemoryError, and no level sorts or stacks
    # more than the cap
    sd = four_mode_sd
    p = ThetaParams(sd.B)
    re_z = np.real(p.reduce(sd.d + sd.W_t * first_appearance_estimate(sd))[1])
    sorted_, stacked = [], []

    def sort_spy(a, _fn=np.argsort, **kw):
        sorted_.append(len(a))
        return _fn(a, **kw)

    def stack_spy(arrays, _fn=np.column_stack):
        stacked.append(_fn(arrays))
        return stacked[-1]

    monkeypatch.setattr(theta_mod, "MAX_TERMS", 100)
    monkeypatch.setattr(theta_mod.np, "argsort", sort_spy)
    monkeypatch.setattr(theta_mod.np, "column_stack", stack_spy)
    with pytest.raises(NumericError) as err:
        theta_mod._term_set(p, re_z)
    assert err.value.code == "too-many-terms" and err.value.exit_code == 5
    assert 0 < len(sorted_) == len(stacked) < p.g
    assert max(sorted_) <= 100 and all(len(N) <= 100 for N in stacked)


def test_near_singular_b_overflows_fast():
    # B = -1e-12 asks for a window of about 2e7 candidates: the closed-form
    # window and the cap fail it with the coded error before anything is built
    p = params_1d(B=-1e-12, tol=1e-10)
    start = time.perf_counter()
    with pytest.raises(NumericError) as err:
        theta(np.zeros(1, dtype=complex), p)
    assert err.value.code == "too-many-terms"
    assert time.perf_counter() - start < 0.5


def test_flat_genus1_against_direct_sum():
    # a flat B needs no box radius: the window alone reaches the terms that
    # matter (|n| up to ~90 here) and the sum meets a 1e-12 tolerance
    p = params_1d(B=-0.01, tol=1e-12)
    for z in (np.array([0.3 + 0.2j]), np.array([-0.004 + 0.1j])):
        want = lattice_sum(z, p.B, R=400)
        assert abs(theta(z, p) - want) <= 1e-12 * abs(want)


def test_evaluate_grid_builds_one_term_set_per_snapshot(monkeypatch, four_mode_sd):
    # one set per snapshot for its numerator and denominator, and no other:
    # the field's scale is the background a, which needs no theta value
    sd = four_mode_sd
    T1 = first_appearance_estimate(sd)
    built = []

    def counted(*args, _fn=theta_mod._ellipsoid):
        built.append(args)
        return _fn(*args)

    monkeypatch.setattr(theta_mod, "_ellipsoid", counted)
    evaluate_grid([0.0, 0.375 * T1, 0.75 * T1], 8, 8, sd)
    assert len(built) == 3


def test_lattice_geometry_factored_once(monkeypatch, four_mode_sd):
    # P = -Re B is factored once per ThetaParams, not once per term set:
    # three genus-8 snapshots share one Cholesky factor
    sd = four_mode_sd
    T1 = first_appearance_estimate(sd)
    calls = []

    def counted(a, _fn=np.linalg.cholesky):
        calls.append(a)
        return _fn(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    evaluate_grid([0.0, 0.375 * T1, 0.75 * T1], 8, 8, sd)
    assert len(calls) == 1
    assert np.array_equal(calls[0], -sd.B.real)


def test_theta_empty_batch(single_mode_sd):
    p = ThetaParams(single_mode_sd.B)
    assert theta(np.empty((0, 2), dtype=complex), p).shape == (0,)
    assert theta(np.empty((3, 0, 2), dtype=complex), p).shape == (3, 0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
def test_tail_tolerance_not_finite_and_positive_rejected(tol, single_mode_sd):
    # unchecked, 0, -1 and NaN would leave no drop budget and no finite
    # window, and inf would drop every term
    B = np.array([[-6.0 + 0j]])
    for build in (lambda: ThetaParams(B, tol),
                  lambda: evaluate_grid([0.0], 8, 8, single_mode_sd, tail_tolerance=tol)):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.code == "invalid-tolerance" and err.value.exit_code == 2
        assert "tail tolerance" in err.value.message


def test_invalid_argument_rejected(single_mode_sd):
    # a wrong component count or a non-finite entry is the caller's error
    # (exit 2), not a fault of B or of the truncation
    bad = [(np.zeros(2), ThetaParams([[-6.0]])), (np.zeros(()), ThetaParams([[-6.0]]))]
    p = ThetaParams(single_mode_sd.B)
    bad += [(np.array([v, 0.0]), p) for v in (np.inf, -np.inf, np.nan, complex(0, np.inf))]
    for z, params in bad:
        with pytest.raises(ConfigError) as err:
            theta(z, params)
        assert err.value.code == "invalid-argument" and err.value.exit_code == 2
    # theta_grid serves one real part per call
    for offsets in ([[0.1, 0.0], [0.2, 0.0]], [[np.nan, 0.0], [np.nan, 0.0]]):
        with pytest.raises(ConfigError) as err:
            theta_mod.theta_grid(offsets, [(1, 0), (0, 1)], 8, 8, p)
        assert err.value.code == "invalid-argument"


def test_not_negative_definite_rejected():
    with pytest.raises(NumericError) as err:
        ThetaParams(B=np.array([[0.5 + 0j]]))
    assert err.value.code == "not-negative-definite"
    with pytest.raises(NumericError):
        ThetaParams(B=np.array([[-2.0, 0.3], [0.1, -2.0]], dtype=complex))
    for B in (np.full((2, 3), -2.0 + 0j), np.array([-2.0 + 0j]), np.zeros((0, 0), complex)):
        with pytest.raises(NumericError) as err:
            ThetaParams(B=B)
        assert "not square" in err.value.message
    for v in (np.nan, -np.inf, complex(-2.0, np.nan)):  # no window is finite
        with pytest.raises(NumericError) as err:
            ThetaParams(B=np.array([[v, 0.3], [0.3, -2.0]], dtype=complex))
        assert err.value.code == "not-negative-definite"


def test_truncation_insufficient_raised():
    # at a zero of theta (z = i pi + b/2 at genus 1) the sum cancels to
    # rounding, below tail_tolerance times any truncation error
    B = np.array([[-2.0 + 0j]])
    p = ThetaParams(B=B, tail_tolerance=1e-10)
    with pytest.raises(NumericError) as err:
        theta(np.array([1j * np.pi + B[0, 0] / 2.0]), p)
    assert err.value.code == "truncation-insufficient"


@pytest.mark.parametrize("re_z", [200.0, -210.0])
def test_theta_overflow_raised(single_mode_sd, re_z):
    # theta itself exceeds the float range: a coded error, not inf
    p = ThetaParams(single_mode_sd.B)
    with pytest.raises(NumericError) as err:
        theta(np.array([re_z + 0.3j, 0.5]), p)
    assert err.value.code == "theta-overflow"
    assert np.isfinite(theta(np.array([20.0 + 0.3j, 0.5]), p))


def test_far_off_grid_offset_fails_closed(single_mode_sd):
    # theta_grid sums at the offsets' real part as given; far outside the
    # cell (C = 1.6e3 here) e^C is beyond the float range, so the
    # certificate fails with the coded error and no overflow warning
    p = ThetaParams(single_mode_sd.B)
    offsets = np.array([[200.0 + 0.3j, 0.5], [200.0 - 0.1j, 0.5]])
    with pytest.raises(NumericError) as err:
        theta_mod.theta_grid(offsets, [(1, 0), (-1, 0)], 8, 8, p)
    assert err.value.code == "truncation-insufficient"
