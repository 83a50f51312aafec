"""High-precision mpmath oracles for the theta sums.

Genus 1 uses Jacobi's theta_3:  theta(z | b) = jtheta(3, z / 2i, exp(b / 2)),
since exp(b n^2 / 2 + n z) = q^(n^2) e^(2 i n w) with q = exp(b / 2) and
w = z / 2i.  Genus 2 with a non-diagonal B is a 40-digit lattice sum over
|n_j| <= 10, where every dropped term is below exp(-40) of the largest.
Some arguments lie outside the fundamental cell (|P^-1 Re z| > 1/2 with
P = -Re B), where theta() reduces them and scales the sum back.
"""

import itertools

import mpmath
import numpy as np
import pytest

from ds2aw.theta import ThetaParams, theta, theta_grid

REL = 1e-12

B1 = np.array([[-2.0 + 0.3j]])
B2 = np.array([[-2.0 + 0.3j, 0.5 - 0.2j], [0.5 - 0.2j, -3.0 + 0.1j]])


def certified(B):
    """Theta parameters whose certified truncation error is far below REL."""
    return ThetaParams(B=B, tail_tolerance=1e-13)


def mp_theta_1(z, b):
    with mpmath.workdps(30):
        q = mpmath.exp(mpmath.mpc(b) / 2)
        return complex(mpmath.jtheta(3, mpmath.mpc(z) / 2j, q))


def mp_theta(z, B, R=10):
    g = len(B)
    with mpmath.workdps(40):
        Bm = [[mpmath.mpc(B[i][j]) for j in range(g)] for i in range(g)]
        zm = [mpmath.mpc(v) for v in z]
        total = mpmath.mpc(0)
        for n in itertools.product(range(-R, R + 1), repeat=g):
            quad = sum(n[i] * Bm[i][j] * n[j] for i in range(g) for j in range(g))
            total += mpmath.exp(quad / 2 + sum(n[i] * zm[i] for i in range(g)))
        return complex(total)


def assert_close(got, want):
    assert abs(got - want) <= REL * abs(want), (got, want)


@pytest.mark.parametrize("b", [-2.0 + 0.3j, -0.7 - 1.5j])
def test_jtheta_oracle_matches_lattice_sum(b):
    z = 0.25 + 0.6j
    assert_close(mp_theta_1(z, b), mp_theta([z], [[b]], R=40))


def test_theta_genus_1_against_jtheta():
    zs = np.array([[0.0], [0.4 - 0.7j], [-1.1 + 2.5j], [0.9 + 0.1j],
                   [5.3 + 0.4j], [-7.9 - 2.0j]])
    vals = theta(zs, certified(B1))
    for z, v in zip(zs[:, 0], vals):
        assert_close(v, mp_theta_1(z, B1[0, 0]))


def test_theta_genus_2_against_lattice_sum():
    zs = np.array([[0.0, 0.0], [0.3 - 0.5j, -0.8 + 1.2j], [-0.9 + 2.0j, 0.6 - 0.4j],
                   [4.1 + 0.3j, -3.7 + 1.0j], [-5.0 - 0.2j, 6.5 + 0.7j]])
    vals = theta(zs, certified(B2))
    for z, v in zip(zs, vals):
        assert_close(v, mp_theta(z, B2))


def test_theta_grid_genus_2_against_lattice_sum():
    nx, ny = 8, 6
    harmonics = np.array([(1, 0), (1, 2)])
    offsets = np.array([[0.2 + 0.1j, -0.5 + 0.3j], [-0.4 + 1.0j, 0.1 - 0.2j]])
    for c in offsets:  # one real part per call
        grid = theta_grid([c], harmonics, nx, ny, certified(B2))[0]
        for (ix, iy) in [(0, 0), (3, 1), (7, 5), (5, 2)]:
            w = 2j * np.pi * (harmonics[:, 0] * ix / nx + harmonics[:, 1] * iy / ny)
            assert_close(grid[iy, ix], mp_theta(w + c, B2))


def test_base_thetas_single_mode_against_lattice_sum(single_mode_sd):
    sd = single_mode_sd
    params = ThetaParams(sd.B, tail_tolerance=1e-13)
    theta_d, theta_ad = theta(np.stack([sd.d, sd.A_inf2 + sd.d]), params)
    assert_close(theta_d, mp_theta(sd.d, sd.B))
    assert_close(theta_ad, mp_theta(sd.A_inf2 + sd.d, sd.B))
    assert sd.B[0, 1] != 0  # the curve's period matrix is not diagonal
