import math
import sys

import numpy as np
import pytest

# Four-mode benchmark periods: 4 unstable mode classes, genus 8.
FOURMODE_LX = 2.0 * math.pi / 1.2
FOURMODE_LY = 2.0 * math.pi / 1.4

# (n_x, n_y, coefficient) of the four-mode perturbation.
FOURMODE_TERMS = [
    (1, 0, 0.35), (-1, 0, 0.35),
    (0, 1, 0.25), (0, -1, 0.25),
    (1, 1, 0.15 + 0.1j), (-1, -1, 0.15 - 0.1j),
    (1, -1, 0.12), (-1, 1, 0.08),
]

# Single-mode desk configuration: only (1, 0) is unstable, genus 2.
SINGLE_LX = 2.0 * math.pi / 1.2
SINGLE_LY = 2.0 * math.pi / 2.1


# With L_x = 4 these periods are non-generic: three unstable classes share
# resonant points (6 collisions); at L_y (1 + 1e-6) they are generic.
COLLIDE_LY = 7.652233521084404


def q_multiplier(field):
    """The mean flow's Fourier multiplier Q(k) = (k_x^2 - k_y^2)/(k_x^2 +
    k_y^2) on the field's full FFT grid, with Q(0) = 0: the tests' own copy,
    independent of the solver's plan."""
    kx = 2.0 * math.pi * np.fft.fftfreq(field.nx, d=field.L_x / field.nx)
    ky = 2.0 * math.pi * np.fft.fftfreq(field.ny, d=field.L_y / field.ny)
    KX, KY = np.meshgrid(kx, ky, indexing="xy")
    k2 = KX * KX + KY * KY
    k2[0, 0] = 1.0
    Q = (KX * KX - KY * KY) / k2
    Q[0, 0] = 0.0
    return Q


def lattice_sum(z, B, R=5):
    """theta(z | B) as the plain sum over the box |n_j| <= R, independent of
    ds2aw.theta: no reduction into the cell, no pruning, no certificate."""
    g = len(B)
    N = np.stack(np.meshgrid(*([np.arange(-R, R + 1)] * g), indexing="ij"), -1).reshape(-1, g)
    return np.exp(0.5 * ((N @ B) * N).sum(1) + N @ np.asarray(z)).sum()


def quasi_periodicity_defect(z, k, params, R=5):
    """Defect of theta(z + B e_k) = exp(-b_kk/2 - z_k) theta(z), with theta()
    on the left and a direct lattice sum (``lattice_sum``) at z on the right,
    relative to the larger of the two sides."""
    from ds2aw.theta import theta

    z = np.asarray(z, dtype=complex)
    B = params.B
    shifted = theta(z + B[:, k], params)
    scaled = np.exp(-0.5 * B[k, k] - z[k]) * lattice_sum(z, B, R)
    return abs(shifted - scaled) / max(abs(shifted), abs(scaled))


def reality_residual(sd):
    """Worst relative defect of the leading-order reality condition across
    mirror pairs.  The antiholomorphic involution sends the divisor point of
    handle j + N to handle j, which forces conj(alpha_{j+N}) tau_{2j} =
    -alpha_j tau_{2j-1}."""
    n = sd.g // 2
    worst = 0.0
    for p, m in zip(sd.pairs[:n], sd.pairs[n:]):
        rhs = -p.alpha * p.tau_1
        worst = max(worst, abs(m.alpha.conjugate() * p.tau_2 - rhs) / max(abs(rhs), 1e-300))
    return worst


def count_censuses(monkeypatch):
    """A list that gains one entry per ``enumerate_modes`` call, through any
    ds2aw module's name for it."""
    from ds2aw import modes

    calls = []
    census = modes.enumerate_modes
    for mod in [m for name, m in sys.modules.items() if name.startswith("ds2aw")]:
        if getattr(mod, "enumerate_modes", None) is census:
            monkeypatch.setattr(mod, "enumerate_modes", lambda *a: calls.append(a) or census(*a))
    return calls


def harmonic_grid(nx, ny, terms):
    """v0 = sum c * exp(2 pi i (n_x ix / nx + n_y iy / ny)) sampled on the grid."""
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    v0 = np.zeros((ny, nx), dtype=complex)
    for n_x, n_y, c in terms:
        v0 += c * np.exp(2j * np.pi * (n_x * ix / nx + n_y * iy / ny))
    return v0


def harmonic_matrix(k_x, k_y, a=1.0):
    """Linearized DS2 about the background a on one harmonic pair: d/dt of
    (c_k, conj(c_{-k})) for the perturbation c_k e^{i k.x} + c_{-k} e^{-i k.x}."""
    K = k_x**2 - k_y**2
    Q = K / (k_x**2 + k_y**2)
    diag = -1j * (K - 2.0 * Q * a * a)
    off = 2j * Q * a * a
    return np.array([[diag, off], [-off, -diag]])


def linear_field(L_x, L_y, a, eps, terms, t, nx, ny):
    """a + eps v(t) on the nx x ny grid, v(0) = sum c exp(i(k_x x + k_y y))
    over ``terms`` (n_x, n_y, c), by linear theory in closed form: M =
    harmonic_matrix has trace 0, so M^2 = lam^2 I with lam^2 = -det M and
    exp(t M) = cosh(lam t) I + sinh(lam t) / lam M on each harmonic pair.
    Solver-free: no ds2aw code runs."""
    coeff = {(n_x, n_y): c for n_x, n_y, c in terms}
    evolved = []
    for (n_x, n_y), c in coeff.items():
        if (-n_x, -n_y) in coeff and (n_x, n_y) < (0, 0):
            continue
        M = harmonic_matrix(2.0 * math.pi * n_x / L_x, 2.0 * math.pi * n_y / L_y, a)
        lam = np.sqrt(-np.linalg.det(M) + 0j)
        prop = np.cosh(lam * t) * np.eye(2) + np.sinh(lam * t) / lam * M
        c_k, c_minus_bar = prop @ [c, np.conj(coeff.get((-n_x, -n_y), 0.0))]
        evolved += [(n_x, n_y, c_k), (-n_x, -n_y, np.conj(c_minus_bar))]
    return a + eps * harmonic_grid(nx, ny, evolved)


def cosine_grid(nx, ny):
    """cos of the first x harmonic: the single-mode Cauchy perturbation."""
    return harmonic_grid(nx, ny, [(1, 0, 0.5), (-1, 0, 0.5)])


def reference_csv(field):
    """The CSV text written one sample at a time, every number a repr."""
    lines = ["x,y,re_u,im_u,abs_u\n"]
    dx = float(field.L_x) / field.nx
    dy = float(field.L_y) / field.ny
    for iy in range(field.ny):
        for ix in range(field.nx):
            v = complex(field.u[iy, ix])
            mod = math.hypot(v.real, v.imag)
            lines.append(f"{ix * dx!r},{iy * dy!r},{v.real!r},{v.imag!r},{mod!r}\n")
    return "".join(lines)


@pytest.fixture
def single_mode_sd():
    from ds2aw.curve import build_spectral_data

    return build_spectral_data(SINGLE_LX, SINGLE_LY, 1e-2, cosine_grid(32, 32))


@pytest.fixture
def four_mode_sd():
    from ds2aw.curve import build_spectral_data

    v0 = harmonic_grid(32, 32, FOURMODE_TERMS)
    return build_spectral_data(FOURMODE_LX, FOURMODE_LY, 1e-2, v0)
