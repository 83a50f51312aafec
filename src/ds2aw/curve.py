"""Leading-order spectral data of the perturbed genus-2N curve.

Each unstable mode of the background opens two handles of the spectral
curve: the two resonant pairs (tau_{2j-1}, tau_{2j}) and its negative on
the unit circle share both Bloch multipliers of the unperturbed 2-d Dirac
operator, and a perturbation of size eps splits each double point into a
pair of branch points at distance O(eps).  All quantities needed by the
theta-functional solution -- period matrix, frequency vectors, Abel
vectors, divisor transform, Riemann constants -- have closed forms on the
degenerate curve and are assembled here.

Everything is computed on the unit-background problem (a = 1); inputs with
a != 1 are rescaled first and the frequency vectors are mapped back, so
consumers never see the rescaling.

Genericity (no mode on the instability circle, no point shared by two mode
classes) is checked once, by :func:`.modes.check_genericity` on the same
a = 1 census, before anything is built; the formulas here rely on it.
Pair j + N = -pair j follows from how the pairs are built (order_pairs).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, GenericityError
from .modes import (
    Mode, check_genericity, enumerate_modes, min_search_radius, resonant_points, unstable_classes
)

# Pairs with a resonant point this close to the real axis are rejected:
# the matrix elements divide by Im(tau).
DEGENERATE_IM_TOL = 1e-9

# Genericity condition of the main theorem: alpha_j beta_j != 0.
DEGENERATE_AB_TOL = 1e-14


@dataclass
class ResonantPair:
    """One resonant pair (tau_{2j-1}, tau_{2j}) and its handle data.

    tau_2 - tau_1 = k_x + i k_y and 1/tau_2 - 1/tau_1 = k_x - i k_y for the
    pair's mode, with Im(tau_1 / tau_2) > 0.  alpha/beta are the two-level
    matrix elements of the perturbation restricted to the pair's Bloch
    space; they are filled by :func:`alpha_beta`.
    """

    j: int
    tau_1: complex
    tau_2: complex
    theta_angle: float
    phi_angle: float
    mode: Mode
    alpha: complex | None = None
    beta: complex | None = None
    sqrt_alpha_beta: complex | None = None

    @property
    def q_1(self) -> float:
        return self.tau_1.imag

    @property
    def q_2(self) -> float:
        return self.tau_2.imag

    @property
    def im_cross(self) -> float:
        """Im(tau_2 * conj(tau_1)), the handle-opening denominator."""
        return (self.tau_2 * self.tau_1.conjugate()).imag


@dataclass
class SpectralData:
    """All leading-order data of the genus g = 2N curve.

    The frequency vectors are stored in the coordinates of the original
    problem (background a), i.e., already multiplied by the rescaling
    factors, so the theta-ratio formula can be evaluated directly at
    physical (x, y, t).
    """

    g: int
    pairs: list[ResonantPair]
    B: np.ndarray
    W_z: np.ndarray
    W_zbar: np.ndarray
    W_t: np.ndarray
    A_inf2: np.ndarray
    A_div: np.ndarray
    K: np.ndarray
    d: np.ndarray
    eps: float = 0.0
    u00: complex = 1.0
    L_x: float = 0.0
    L_y: float = 0.0
    a: float = 1.0


def resonant_pair(mode: Mode) -> tuple[ResonantPair, ResonantPair]:
    """Both resonant pairs of an unstable mode: (tau_1, tau_2) and its negative.

    The points come from :func:`.modes.resonant_points`.  The negated pair
    solves the resonance system of the mode (-k_x, -k_y) and is returned
    with that mode attached.
    """
    if not mode.unstable:
        raise ConfigError(
            "wrong-class", f"mode ({mode.n_x}, {mode.n_y}) is not unstable"
        )
    tau_1, tau_2 = resonant_points(mode.k_x, mode.k_y)
    if abs(tau_1.imag) < DEGENERATE_IM_TOL or abs(tau_2.imag) < DEGENERATE_IM_TOL:
        raise DegenerateSpectrumError(
            "degenerate-pair",
            f"mode ({mode.n_x}, {mode.n_y}) has a resonant point on the real "
            "axis; the configuration is non-generic",
        )
    theta = math.atan2(mode.k_y, mode.k_x)
    phi = math.acos(math.sqrt(mode.k_squared) / 2.0)
    neg_mode = Mode(-mode.n_x, -mode.n_y, -mode.k_x, -mode.k_y, mode.sigma, True)
    theta_neg = theta - math.pi if theta > 0 else theta + math.pi
    return (
        ResonantPair(0, tau_1, tau_2, theta, phi, mode),
        ResonantPair(0, -tau_1, -tau_2, theta_neg, phi, neg_mode),
    )


def order_pairs(pairs: list[ResonantPair]) -> list[ResonantPair]:
    """Assign pair indices: odd points tau_1, tau_3, ... run clockwise.

    The sweep starts just below polar angle pi.  Each class adds a pair
    and its negative, no tau_1 is real (:func:`resonant_pair`) and no two
    classes share a point (:func:`.modes.check_genericity`), so the sweep
    places mirror pairs N apart: pair j+N = -pair j.
    """
    ordered = sorted(pairs, key=lambda p: cmath.phase(p.tau_1), reverse=True)
    return [dataclasses.replace(p, j=i + 1) for i, p in enumerate(ordered)]


def perturbation_coefficients(v0_grid: np.ndarray, mode: Mode) -> tuple[complex, complex]:
    """Fourier coefficients (c_j, c_{-j}) of the mode in the convention
    v0(x, y) = sum_n c_n exp(i(k_x x + k_y y)).

    v0 must be sampled on a uniform grid v0[iy, ix] = v0(ix Lx/nx, iy Ly/ny)
    with zero mean; :func:`build_spectral_data` rules out aliasing.
    """
    v0 = np.asarray(v0_grid, dtype=complex)
    if v0.ndim != 2:
        raise ConfigError("aliasing", "perturbation grid must be 2-d")
    ny, nx = v0.shape
    mean = complex(v0.mean())
    if abs(mean) > 1e-10:
        raise ConfigError(
            "nonzero-mean", f"perturbation mean {abs(mean):.3e} exceeds 1e-10"
        )
    coeff = np.fft.fft2(v0) / (nx * ny)
    c_plus = complex(coeff[mode.n_y % ny, mode.n_x % nx])
    c_minus = complex(coeff[(-mode.n_y) % ny, (-mode.n_x) % nx])
    return c_plus, c_minus


def alpha_beta(pair: ResonantPair, c_j: complex, c_minus_j: complex) -> ResonantPair:
    """Fill the two-level matrix elements of the perturbation on the pair.

    alpha = -(conj(c_j) + conj(tau_1) tau_2 c_{-j}) / (2 Im tau_1)
    beta  =  (conj(c_{-j}) + conj(tau_2) tau_1 c_j) / (2 Im tau_2)

    The branch of sqrt(alpha beta) is fixed once: Re > 0, ties broken by
    Im >= 0; all downstream formulas use this value.
    """
    q1, q2 = pair.q_1, pair.q_2
    alpha = -(c_j.conjugate() + pair.tau_1.conjugate() * pair.tau_2 * c_minus_j) / (2.0 * q1)
    beta = (c_minus_j.conjugate() + pair.tau_2.conjugate() * pair.tau_1 * c_j) / (2.0 * q2)
    ab = alpha * beta
    if abs(ab) < DEGENERATE_AB_TOL:
        raise DegenerateSpectrumError(
            "degenerate-mode",
            f"alpha*beta vanishes for mode ({pair.mode.n_x}, {pair.mode.n_y}); "
            "the perturbation does not open this handle",
        )
    s = cmath.sqrt(ab)
    if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
        s = -s
    return dataclasses.replace(pair, alpha=alpha, beta=beta, sqrt_alpha_beta=s)


def period_matrix(pairs: list[ResonantPair], eps: float) -> np.ndarray:
    """Riemann period matrix: eps^2-log diagonal, cross-ratio off-diagonal.

    b_jj = Log[ tau_1 tau_2 q_1 q_2 eps^2 alpha beta
                / (Im^2(tau_2 conj tau_1) (tau_1 - tau_2)^2) ]
    b_jk = Log of the cross ratio of the four points of pairs j and k,
           which is real for concyclic points; a negative ratio is stored
           exactly as log|r| + i pi.
    """
    g = len(pairs)
    B = np.zeros((g, g), dtype=complex)
    for idx, p in enumerate(pairs):
        arg = (
            p.tau_1
            * p.tau_2
            * p.q_1
            * p.q_2
            * eps
            * eps
            * p.alpha
            * p.beta
            / (p.im_cross**2 * (p.tau_1 - p.tau_2) ** 2)
        )
        B[idx, idx] = cmath.log(arg)
    for j in range(g):
        for k in range(j + 1, g):
            pj, pk = pairs[j], pairs[k]
            num = (pj.tau_2 - pk.tau_2) * (pj.tau_1 - pk.tau_1)
            den = (pj.tau_2 - pk.tau_1) * (pj.tau_1 - pk.tau_2)
            r = num / den
            # cross ratio of concyclic points is real; keep Im(b) in {0, pi}
            rr = r.real
            B[j, k] = B[k, j] = complex(math.log(abs(rr)), math.pi if rr < 0 else 0.0)
    return B


def frequency_vectors(pairs: list[ResonantPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b-periods of the z, zbar and t differentials on the degenerate curve."""
    W_z = np.array(
        [0.5j * (p.tau_2.conjugate() - p.tau_1.conjugate()) for p in pairs]
    )
    W_zbar = np.array([0.5j * (p.tau_2 - p.tau_1) for p in pairs])
    W_t = np.array(
        [complex((p.tau_1**2 - p.tau_2**2).imag, 0.0) for p in pairs]
    )
    return W_z, W_zbar, W_t


def abel_infinity(pairs: list[ResonantPair]) -> np.ndarray:
    """Abel vector of the second marked point, A(inf_2); A(inf_1) = 0."""
    return np.array([cmath.log(p.tau_1 * p.tau_2.conjugate()) for p in pairs])


def divisor_and_constants(
    pairs: list[ResonantPair], B: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Divisor Abel transform, Riemann constants, theta-argument offset.

    A_div_j = Log(alpha_j / sqrt(alpha_j beta_j))   (handle-local transform,
    measured from the branch point E_{4j-3}; cross components are O(eps)
    and dropped).  K_j = b_jj/2 - i pi + A_j(E_{4j-3}) with

    A_j(E_{4j-3}) = -Log[ tau_2 q_2 eps sqrt(ab)
                          / (i Im(tau_2 conj tau_1)(tau_1 - tau_2)) ],

    and the theta-argument offset is d = -A_div - K.
    """
    g = len(pairs)
    A_div = np.zeros(g, dtype=complex)
    K = np.zeros(g, dtype=complex)
    for idx, p in enumerate(pairs):
        A_div[idx] = cmath.log(p.alpha / p.sqrt_alpha_beta)
        a_e = -cmath.log(
            p.tau_2
            * p.q_2
            * eps
            * p.sqrt_alpha_beta
            / (1j * p.im_cross * (p.tau_1 - p.tau_2))
        )
        K[idx] = 0.5 * B[idx, idx] - 1j * math.pi + a_e
    d = -A_div - K
    return A_div, K, d


def reality_residual(sd: SpectralData) -> float:
    """Defect of the leading-order reality condition across mirror pairs.

    The antiholomorphic involution sends the divisor point of handle j+N to
    handle j, which forces conj(alpha_{j+N}) tau_{2j} = -alpha_j tau_{2j-1}.
    Returns the worst relative residual; a correct construction satisfies
    it to rounding.
    """
    n = sd.g // 2
    worst = 0.0
    for j in range(n):
        p, m = sd.pairs[j], sd.pairs[j + n]
        lhs = m.alpha.conjugate() * p.tau_2
        rhs = -p.alpha * p.tau_1
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst


def build_spectral_data(
    L_x: float,
    L_y: float,
    eps: float,
    v0_grid: np.ndarray,
    a: float = 1.0,
) -> SpectralData:
    """Assemble the full leading-order spectral data for the Cauchy datum
    u(x, y, 0) = a + eps v0(x, y).

    Requires a generic configuration (no circle hits, no collisions, no
    marginal modes) and a zero-mean v0; every upstream degeneracy is
    re-raised with the offending mode attached.
    """
    if eps <= 0.0:
        raise DegenerateSpectrumError(
            "degenerate-mode", "eps = 0 gives alpha = beta = 0 on every handle"
        )
    if a <= 0.0:
        raise ConfigError("invalid-period", f"background must be positive, got {a}")
    v0_grid = np.asarray(v0_grid, dtype=complex)
    # Unit-background twin: u(x/a, y/a, t/a^2)/a solves DS2 with background
    # 1 on the stretched torus; the grid samples of v0 are reused verbatim.
    Lx1, Ly1, eps1 = L_x * a, L_y * a, eps / a
    report = check_genericity(Lx1, Ly1, 1.0)
    if not report.ok:
        raise GenericityError(
            "genericity",
            "periods are non-generic: "
            f"{len(report.on_circle_violations)} circle hits, "
            f"{len(report.multiplicity_violations)} collisions, "
            f"{len(report.marginal_modes)} marginal modes",
        )
    modes = enumerate_modes(Lx1, Ly1, 1.0)
    classes = unstable_classes(modes)
    if not classes:
        raise DegenerateSpectrumError(
            "no-unstable-modes", "the instability disk contains no lattice mode"
        )
    grid_radius = min_search_radius(Lx1, Ly1, 1.0)
    if min(v0_grid.shape) < 4 * grid_radius:
        raise ConfigError(
            "aliasing",
            f"perturbation grid {v0_grid.shape} cannot resolve harmonics up "
            f"to radius {grid_radius}; need >= {4 * grid_radius} per direction",
        )

    pairs = []
    for m in classes:
        c_plus, c_minus = perturbation_coefficients(v0_grid, m)
        p_pos, p_neg = resonant_pair(m)
        pairs.append(alpha_beta(p_pos, c_plus, c_minus))
        pairs.append(alpha_beta(p_neg, c_minus, c_plus))
    pairs = order_pairs(pairs)

    B = period_matrix(pairs, eps1)
    W_z, W_zbar, W_t = frequency_vectors(pairs)
    A_inf2 = abel_infinity(pairs)
    A_div, K, d = divisor_and_constants(pairs, B, eps1)
    u00 = a + eps * complex(v0_grid[0, 0])
    return SpectralData(
        g=len(pairs),
        pairs=pairs,
        B=B,
        W_z=W_z * a,
        W_zbar=W_zbar * a,
        W_t=W_t * a * a,
        A_inf2=A_inf2,
        A_div=A_div,
        K=K,
        d=d,
        eps=eps,
        u00=u00,
        L_x=L_x,
        L_y=L_y,
        a=a,
    )
