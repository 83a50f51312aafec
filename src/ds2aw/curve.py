"""Leading-order spectral data of the perturbed genus-2N curve.

Each unstable mode of the background opens two handles of the spectral
curve: the two resonant pairs (tau_{2j-1}, tau_{2j}) and its negative on
the unit circle share both Bloch multipliers of the unperturbed 2-d Dirac
operator, and a perturbation of size eps splits each double point into a
pair of branch points at distance O(eps).  All quantities needed by the
theta-functional solution -- period matrix, frequency vectors, Abel
vectors, divisor transform, Riemann constants -- have closed forms on the
degenerate curve and are assembled here.

The pairs carry the modes of the census :func:`.modes.check_genericity`
judged for (L_x, L_y, a), read from its report.  The closed forms are
those of background 1: a mode's points lie on the unit circle
(:func:`.modes.resonant_points` divides k by a), eps enters as eps/a, and
the frequency vectors are scaled back by a and a^2.

Genericity (no mode on the instability circle, no point shared by two mode
classes) is checked on that census before anything is built; the formulas
here rely on it.
Pair j + N = -pair j follows from how the pairs are built (order_pairs).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, GenericityError
from .modes import Mode, check_genericity, min_search_radius, resonant_points, unstable_classes

# Pairs with a resonant point this close to the real axis are rejected:
# the matrix elements divide by Im(tau).
DEGENERATE_IM_TOL = 1e-9

# Genericity condition of the main theorem: alpha_j beta_j != 0.
DEGENERATE_AB_TOL = 1e-14


@dataclass(frozen=True)
class ResonantPair:
    """One handle: the resonant pair (tau_{2j-1}, tau_{2j}) of a mode and
    the perturbation's matrix elements on it.

    tau_2 - tau_1 = (k_x + i k_y)/a and 1/tau_2 - 1/tau_1 = (k_x - i k_y)/a
    for the pair's mode, with Im(tau_1 / tau_2) > 0.  alpha/beta are the
    two-level matrix elements of the perturbation restricted to the pair's
    Bloch space, and sqrt_alpha_beta is the fixed branch of sqrt(alpha
    beta); :func:`resonant_pair` builds all of them.
    """

    j: int
    tau_1: complex
    tau_2: complex
    mode: Mode
    alpha: complex
    beta: complex
    sqrt_alpha_beta: complex

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

    The frequency vectors, like the pairs' modes, are in the units of the
    problem (background a): W_z and W_zbar carry a factor a and W_t a^2,
    so the theta-ratio formula is evaluated directly at physical (x, y, t).
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
    eps: float
    L_x: float
    L_y: float
    a: float


def perturbation_coefficients(v0_grid: np.ndarray) -> np.ndarray:
    """Fourier coefficients of v0 in the convention v0(x, y) = sum_n c_n
    exp(i(k_x x + k_y y)): c_n = coeff[n_y % ny, n_x % nx].

    v0 must be sampled on a uniform grid v0[iy, ix] = v0(ix Lx/nx, iy Ly/ny)
    with finite samples and zero mean; :func:`build_spectral_data` rules out
    aliasing.
    """
    v0 = np.asarray(v0_grid, dtype=complex)
    if v0.ndim != 2:
        raise ConfigError("invalid-grid", "perturbation grid must be 2-d")
    if not np.all(np.isfinite(v0)):
        raise ConfigError("config-parse", "perturbation grid has non-finite samples")
    ny, nx = v0.shape
    mean = complex(v0.mean())
    if abs(mean) > 1e-10:
        raise ConfigError(
            "nonzero-mean", f"perturbation mean {abs(mean):.3e} exceeds 1e-10"
        )
    return np.fft.fft2(v0) / (nx * ny)


def resonant_pair(mode: Mode, coeff: np.ndarray, a: float) -> ResonantPair:
    """The handle of an unstable mode k on background a, read from the datum.

    The points come from :func:`.modes.resonant_points`; with c_k and c_{-k}
    from ``coeff`` (:func:`perturbation_coefficients`)

    alpha = -(conj(c_k) + conj(tau_1) tau_2 c_{-k}) / (2 Im tau_1)
    beta  =  (conj(c_{-k}) + conj(tau_2) tau_1 c_k) / (2 Im tau_2)

    The branch of sqrt(alpha beta) is fixed once: Re > 0, ties broken by
    Im >= 0; all downstream formulas use this value.  The mirror handle is
    the handle of -k.  The pair's index j is 0 until :func:`order_pairs`.
    """
    where = f"mode ({mode.n_x}, {mode.n_y})"
    if not mode.unstable:
        raise ConfigError("wrong-class", f"{where} is not unstable")
    tau_1, tau_2 = resonant_points(mode.k_x, mode.k_y, a)
    if abs(tau_1.imag) < DEGENERATE_IM_TOL or abs(tau_2.imag) < DEGENERATE_IM_TOL:
        raise DegenerateSpectrumError(
            "degenerate-pair",
            f"{where} has a resonant point on the real axis; the configuration is non-generic",
        )
    ny, nx = coeff.shape
    c_k = complex(coeff[mode.n_y % ny, mode.n_x % nx])
    c_minus_k = complex(coeff[-mode.n_y % ny, -mode.n_x % nx])
    alpha = -(c_k.conjugate() + tau_1.conjugate() * tau_2 * c_minus_k) / (2.0 * tau_1.imag)
    beta = (c_minus_k.conjugate() + tau_2.conjugate() * tau_1 * c_k) / (2.0 * tau_2.imag)
    ab = alpha * beta
    if abs(ab) < DEGENERATE_AB_TOL:
        raise DegenerateSpectrumError(
            "degenerate-mode",
            f"alpha*beta vanishes for {where}; the perturbation does not open this handle",
        )
    s = cmath.sqrt(ab)
    if s.real < 0.0 or (s.real == 0.0 and s.imag < 0.0):
        s = -s
    return ResonantPair(0, tau_1, tau_2, mode, alpha, beta, s)


def order_pairs(pairs: list[ResonantPair]) -> list[ResonantPair]:
    """Assign pair indices: odd points tau_1, tau_3, ... run clockwise.

    The sweep starts just below polar angle pi.  Each class adds a pair
    and its negative, no tau_1 is real (:func:`resonant_pair`) and no two
    classes share a point (:func:`.modes.check_genericity`), so the sweep
    places mirror pairs N apart: pair j+N = -pair j.
    """
    ordered = sorted(pairs, key=lambda p: cmath.phase(p.tau_1), reverse=True)
    return [dataclasses.replace(p, j=i + 1) for i, p in enumerate(ordered)]


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
    """Abel vector of the second marked point, A(inf_2); A(inf_1) = 0.  A_j =
    Log(tau_1 conj(tau_2)) = i arg(tau_1 conj(tau_2)) on the unit circle."""
    return np.array([complex(0.0, cmath.phase(p.tau_1 * p.tau_2.conjugate())) for p in pairs])


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


def regime(sd: SpectralData) -> tuple[float, float]:
    """(eps_max, lambda_min(P)): where the leading-order data stop being a
    period matrix, and how far they are from it.

    Only b_jj depends on eps, through log(eps/a)^2, so Re B(eps) = Re B_0 +
    2 log(eps/a) I with B_0 free of eps.  Re B is negative definite exactly
    for eps < eps_max = eps exp(-lambda_max(Re B)/2), and lambda_min(P) =
    -lambda_max(Re B) for P = -Re B.
    """
    top = float(np.linalg.eigvalsh(sd.B.real)[-1])
    return sd.eps * math.exp(-0.5 * top), -top


def build_spectral_data(
    L_x: float,
    L_y: float,
    eps: float,
    v0_grid: np.ndarray,
    a: float = 1.0,
) -> SpectralData:
    """Assemble the full leading-order spectral data for the Cauchy datum
    u(x, y, 0) = a + eps v0(x, y).

    Requires finite inputs, a finite zero-mean v0 on a grid that resolves
    the census radius (both checked before the census) and a generic
    configuration (no circle hits, no collisions, no marginal modes); every
    upstream degeneracy is re-raised with the offending mode attached.
    """
    if not 0.0 <= eps < math.inf:
        raise ConfigError("invalid-argument", f"eps must be finite and non-negative, got {eps}")
    if eps == 0.0:
        raise DegenerateSpectrumError(
            "degenerate-mode", "eps = 0 gives alpha = beta = 0 on every handle"
        )
    coeff = perturbation_coefficients(v0_grid)
    grid_radius = min_search_radius(L_x, L_y, a)
    if min(coeff.shape) < 4 * grid_radius:
        raise ConfigError(
            "aliasing",
            f"perturbation grid {coeff.shape} cannot resolve harmonics up "
            f"to radius {grid_radius}; need >= {4 * grid_radius} per direction",
        )
    report = check_genericity(L_x, L_y, a)
    if not report.ok:
        raise GenericityError(
            "genericity",
            "periods are non-generic: "
            f"{len(report.on_circle_violations)} circle hits, "
            f"{len(report.multiplicity_violations)} collisions, "
            f"{len(report.marginal_modes)} marginal modes",
        )
    classes = unstable_classes(report.modes)
    if not classes:
        raise DegenerateSpectrumError(
            "no-unstable-modes", "the instability disk contains no lattice mode"
        )

    pairs = []
    for m in classes:
        mirror = Mode(-m.n_x, -m.n_y, -m.k_x, -m.k_y, m.sigma, True)
        pairs += [resonant_pair(m, coeff, a), resonant_pair(mirror, coeff, a)]
    pairs = order_pairs(pairs)

    B = period_matrix(pairs, eps / a)
    W_z, W_zbar, W_t = frequency_vectors(pairs)
    A_inf2 = abel_infinity(pairs)
    A_div, K, d = divisor_and_constants(pairs, B, eps / a)
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
        L_x=L_x,
        L_y=L_y,
        a=a,
    )
