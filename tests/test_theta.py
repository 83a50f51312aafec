"""Riemann theta evaluation: frozen values, identities, truncation.

The genus-1 frozen value comes from direct summation of the series with a
plain python loop (independent of the vectorized path); quasi-periodicity
is checked against the two-sided identity, and block-diagonal matrices
against products of block evaluations.
"""

import cmath
import importlib

import numpy as np
import pytest

from ds2aw.errors import NumericError
from ds2aw.fieldgen import (
    default_theta_params,
    evaluate_grid,
    first_appearance_estimate,
)
from ds2aw.theta import (
    ThetaParams,
    adaptive_radius,
    quasi_periodicity_residual,
    tail_bound,
    theta,
)

theta_mod = importlib.import_module("ds2aw.theta")

# Direct-summation oracle, genus 1, B = [-2], z = 0:
# 1 + 2(e^-1 + e^-4 + e^-9 + e^-16 + ...)
GENUS1_VALUE = 1.0 + 2.0 * sum(np.exp(-(n * n)) for n in range(1, 12))


def params_1d(M=6, B=-2.0, tol=1e-12):
    return ThetaParams(B=np.array([[B]], dtype=complex), truncation_radius=M,
                       tail_tolerance=tol)


def random_params(rng, g, diag_lo=-16.0, diag_hi=-11.0, M=None, tol=1e-9):
    d = rng.uniform(diag_lo, diag_hi, size=g)
    off = rng.uniform(-0.4, 0.4, size=(g, g))
    B = (off + off.T) / 2.0 + np.diag(d) + 0j
    np.fill_diagonal(B, d)
    if M is None:
        M = adaptive_radius(B, 5.0 * np.sqrt(g) + float(np.abs(d).max()), 1e-13)
    return ThetaParams(B=B, truncation_radius=M, tail_tolerance=tol)


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
    p = params_1d(M=6)
    assert quasi_periodicity_residual(np.array([0.3 + 0.1j]), 0, p) < 1e-10


def test_quasi_periodicity_genus2_diagonal_product_oracle():
    B = np.diag([-3.0 + 0j, -2.5 + 0j])
    p = ThetaParams(B=B, truncation_radius=8, tail_tolerance=1e-9)
    z = np.array([0.2 + 0.4j, -0.1 + 0.9j])
    # product of two genus-1 values reproduces the genus-2 value
    p1 = ThetaParams(B=B[:1, :1], truncation_radius=8, tail_tolerance=1e-9)
    p2 = ThetaParams(B=B[1:, 1:], truncation_radius=8, tail_tolerance=1e-9)
    prod = theta(z[:1], p1) * theta(z[1:], p2)
    assert theta(z, p) == pytest.approx(prod, rel=1e-13)
    for k in range(2):
        assert quasi_periodicity_residual(z, k, p) < 1e-10


def test_quasi_periodicity_reflection_invariance():
    rng = np.random.default_rng(5)
    p = random_params(rng, 2)
    z = rng.normal(0, 1, 2) + 1j * rng.normal(0, 1, 2)
    for k in range(2):
        r1 = quasi_periodicity_residual(z, k, p)
        r2 = quasi_periodicity_residual(-z - p.B[:, k], k, p)
        assert r1 < 1e-9 and r2 < 1e-9


def test_block_diagonal_factorization():
    rng = np.random.default_rng(6)
    pa = random_params(rng, 2)
    pb = random_params(rng, 2)
    B = np.zeros((4, 4), dtype=complex)
    B[:2, :2] = pa.B
    B[2:, 2:] = pb.B
    M = max(pa.truncation_radius, pb.truncation_radius)
    p4 = ThetaParams(B=B, truncation_radius=M, tail_tolerance=1e-8)
    for _ in range(5):
        z = rng.normal(0, 2, 4) + 1j * rng.normal(0, 2, 4)
        blocks = theta(z[:2], ThetaParams(B=pa.B, truncation_radius=M)) * theta(
            z[2:], ThetaParams(B=pb.B, truncation_radius=M)
        )
        assert theta(z, p4) == pytest.approx(blocks, rel=1e-12)


def test_truncation_monotonicity():
    B = np.array([[-2.0 + 0j]])
    z = np.array([0.7 + 0.3j])
    vals = [
        theta(z, ThetaParams(B=B, truncation_radius=M, tail_tolerance=1.0))
        for M in (4, 6, 8, 10)
    ]
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    d3 = abs(vals[2] - vals[3])
    assert d1 >= d2 >= d3


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    p = random_params(rng, 3)
    z = rng.normal(0, 2, 3) + 1j * rng.normal(0, 2, 3)
    perm = np.array([2, 0, 1])
    Bp = p.B[np.ix_(perm, perm)]
    pp = ThetaParams(B=Bp, truncation_radius=p.truncation_radius)
    assert theta(z[perm], pp) == pytest.approx(theta(z, p), rel=1e-13)


def test_batch_matches_pointwise_bitwise():
    rng = np.random.default_rng(9)
    p = random_params(rng, 2)
    zs = rng.normal(0, 1, (7, 2)) + 1j * rng.normal(0, 1, (7, 2))
    batch = theta(zs, p)
    for i in range(7):
        assert batch[i] == theta(zs[i], p)


def genus5_params(rng):
    g, M = 5, 6  # box 13^5 = 371k, above the default pruning threshold
    d = rng.uniform(-15.0, -11.0, size=g)
    off = rng.uniform(-0.3, 0.3, size=(g, g))
    B = (off + off.T) / 2.0 + np.diag(d) + 0j
    np.fill_diagonal(B, d)
    return ThetaParams(B=B, truncation_radius=M, tail_tolerance=1e-6)


def test_pruned_path_matches_full_box(monkeypatch):
    # boxes above SMALL_BOX go through the ellipsoid enumeration; force the
    # same evaluation through both paths and compare
    rng = np.random.default_rng(12)
    p = genus5_params(rng)
    zs = rng.uniform(-4, 4, (6, 5)) + 1j * rng.uniform(-4, 4, (6, 5))
    pruned = theta(zs, p)
    monkeypatch.setattr(theta_mod, "SMALL_BOX", 1 << 22)
    full = theta(zs, p)
    assert np.max(np.abs(pruned - full) / np.abs(full)) < 1e-12


def box_term_moduli(B, M, centre, slack):
    """Every point of the box |n_j| <= M, in row-major order of n + M, and
    the largest |exp(n.B.n/2 + n.z)| at each over |Re z - centre| <= slack."""
    g = B.shape[0]
    N = np.stack(np.meshgrid(*([np.arange(-M, M + 1)] * g), indexing="ij"), -1)
    N = N.reshape(-1, g)
    expo = 0.5 * ((N @ np.real(B)) * N).sum(1) + N @ centre + np.abs(N) @ slack
    return N, np.exp(expo)


@pytest.mark.parametrize("case", ["genus5-batch", "genus8-0", "genus8-T1", "genus8-1.5T1"])
def test_dropped_terms_within_certificate(case, four_mode_sd):
    # brute force over the whole box: the terms the enumeration leaves out
    # sum to at most its dropped bound, which stays within tail_tol * 1e-6
    # of e^C, the largest term modulus at the centre
    if case == "genus5-batch":
        rng = np.random.default_rng(12)
        p = genus5_params(rng)
        re_z = rng.uniform(-4, 4, (6, 5))  # Re of the batch in the test above
        centre = 0.5 * (re_z.max(0) + re_z.min(0))
        slack = 0.5 * (re_z.max(0) - re_z.min(0))
        B, M, tol = p.B, p.truncation_radius, p.tail_tolerance
    else:
        sd = four_mode_sd
        f = {"genus8-0": 0.0, "genus8-T1": 1.0, "genus8-1.5T1": 1.5}[case]
        centre = np.real(sd.d + sd.W_t * f * first_appearance_estimate(sd))
        slack = np.zeros(8)
        B, M, tol = sd.B, 2, 1e-10  # box 5^8
    kept, dropped = theta_mod._ellipsoid_box(B, M, centre, slack, tol * 1e-6)
    N, moduli = box_term_moduli(B, M, centre, slack)
    flat = np.ravel_multi_index(tuple((kept + M).T), (2 * M + 1,) * B.shape[0])
    assert len(np.unique(flat)) == len(kept) < len(N)
    left_out = np.ones(len(N), dtype=bool)
    left_out[flat] = False
    C = 0.5 * centre @ np.linalg.solve(-np.real(B), centre)
    assert 0.0 < moduli[left_out].sum() <= dropped <= tol * 1e-6 * np.exp(C)


@pytest.mark.parametrize(
    "curve, radii", [("single_mode_sd", (2, 2, 3)), ("four_mode_sd", (2, 3, 5))]
)
def test_radius_pinned_on_paper_curves(request, curve, radii):
    # certified radius at t/T1 = 0, 1, 1.5 on the conftest curves (genus 2, 8)
    sd = request.getfixturevalue(curve)
    T1 = first_appearance_estimate(sd)
    got = tuple(default_theta_params(sd, [f * T1]).truncation_radius for f in (0, 1, 1.5))
    assert got == radii


def test_genus8_term_set_at_peak_built_and_certified_once(monkeypatch, four_mode_sd):
    # the numerator and denominator offsets differ by the imaginary A(inf2):
    # one grid call builds one set for both and bounds its tail once
    sd = four_mode_sd
    T1 = first_appearance_estimate(sd)
    p = default_theta_params(sd, [T1])
    c = sd.d + sd.W_t * T1
    offsets = [sd.A_inf2 + c, c]
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_bound(*args)

    monkeypatch.setattr(theta_mod, "tail_bound", counted)
    harmonics = [(q.mode.n_x, q.mode.n_y) for q in sd.pairs]
    theta_mod.theta_grid(offsets, harmonics, 8, 8, p)
    assert len(calls) == 1
    N, _, omitted = theta_mod._term_set(p, np.real(offsets))
    assert len(N) == 8_033 and 0.0 < omitted < p.tail_tolerance


def test_genus8_term_set_stays_small_past_peak(four_mode_sd):
    # the drop budget scales with the largest term, so past the peak the set
    # stays near its size at T1 (289,425 terms at 4 T1 with an absolute budget)
    sd = four_mode_sd
    t = 4.0 * first_appearance_estimate(sd)
    p = default_theta_params(sd, [t])
    c = sd.d + sd.W_t * t
    offsets = [sd.A_inf2 + c, c]
    assert len(theta_mod._term_set(p, np.real(offsets))[0]) < 20_000
    harmonics = [(q.mode.n_x, q.mode.n_y) for q in sd.pairs]
    vals = theta_mod.theta_grid(offsets, harmonics, 16, 16, p)  # certified
    assert np.all(np.isfinite(vals))


def test_evaluate_grid_builds_one_term_set_per_snapshot(monkeypatch, four_mode_sd):
    # one set for the base thetas theta(d), theta(A + d), then one per
    # snapshot for its numerator and denominator
    sd = four_mode_sd
    T1 = first_appearance_estimate(sd)
    built = []
    for name in ("_full_box", "_ellipsoid_box"):
        def counted(*args, _fn=getattr(theta_mod, name)):
            built.append(args)
            return _fn(*args)

        monkeypatch.setattr(theta_mod, name, counted)
    evaluate_grid([0.0, 0.375 * T1, 0.75 * T1], 8, 8, sd)
    assert len(built) == 1 + 3


def test_adaptive_radius_minimality_and_determinism():
    B = np.array([[-2.0 + 0j]])
    M = adaptive_radius(B, 0.0, 1e-12)
    assert M == adaptive_radius(B, 0.0, 1e-12)  # deterministic
    # minimality against the same certified bound, swept independently
    assert tail_bound(B, M, 0.0) < 1e-12
    assert all(tail_bound(B, m, 0.0) >= 1e-12 for m in range(1, M))
    assert 3 <= M <= 6


def test_adaptive_radius_strong_diagonal():
    B = np.diag([-10.0 + 0j, -10.0 + 0j])
    assert adaptive_radius(B, 0.0, 1e-2) == 1


def test_adaptive_radius_overflow():
    B = np.array([[-0.01 + 0j]])
    with pytest.raises(NumericError) as err:
        adaptive_radius(B, 0.0, 1e-12)
    assert err.value.code == "radius-overflow"


def test_not_negative_definite_rejected():
    with pytest.raises(NumericError) as err:
        ThetaParams(B=np.array([[0.5 + 0j]]), truncation_radius=4)
    assert err.value.code == "not-negative-definite"
    with pytest.raises(NumericError):
        ThetaParams(B=np.array([[-2.0, 0.3], [0.1, -2.0]], dtype=complex), truncation_radius=4)
    for B in (np.full((2, 3), -2.0 + 0j), np.array([-2.0 + 0j]), np.zeros((0, 0), complex)):
        with pytest.raises(NumericError) as err:
            ThetaParams(B=B, truncation_radius=4)
        assert "not square" in err.value.message


def test_truncation_insufficient_raised():
    # radius 1 cannot support a large real argument at tolerance 1e-10
    p = ThetaParams(B=np.array([[-2.0 + 0j]]), truncation_radius=1,
                    tail_tolerance=1e-10)
    with pytest.raises(NumericError) as err:
        theta(np.array([4.0 + 0j]), p)
    assert err.value.code == "truncation-insufficient"


def test_division_by_zero_theta_guard(monkeypatch):
    # genus-1 theta vanishes at z = i pi + b/2; floating point leaves a
    # residue of order e^{3b/2} there, far above the 1e-300 hard floor, so
    # raise the floor to make the guard reachable and hit the exact root.
    B = np.array([[-6.0 + 0j]])
    p = ThetaParams(B=B, truncation_radius=12, tail_tolerance=1.0)
    z0 = np.array([1j * np.pi + B[0, 0] / 2.0])
    assert abs(theta(z0, p)) < 1e-3  # near-root sanity
    monkeypatch.setattr(theta_mod, "ZERO_FLOOR", 1e-2)
    with pytest.raises(NumericError) as err:
        quasi_periodicity_residual(z0, 0, p)
    assert err.value.code == "division-by-zero-theta"
