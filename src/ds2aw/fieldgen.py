"""Leading-order finite-gap field u(x, y, t) from spectral data.

The solution is a ratio of four theta values times the normalization
u(0, 0, 0):

    u = theta(A + w + d) theta(d) / (theta(A + d) theta(w + d)) * u00,

with w_j(z, t) = (W_z)_j z + (W_zbar)_j zbar + (W_t)_j t, A = A(inf_2) and
d the theta-argument offset.  The general formula's prefactor exp(z Cz +
zbar Czbar + t Ct) is 1 here: the C constants vanish at leading order.

The spatial part of w is i(k_x x + k_y y) per handle, with (k_x, k_y) a
wave vector of the torus lattice, so the field is exactly doubly periodic.
On the torus grid each theta is therefore a trigonometric polynomial in
the grid indices: evaluate_grid sums it as one folded inverse FFT per
theta, exact on the grid points; evaluate_batch sums the lattice directly
at any points and is the grid path's oracle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .curve import SpectralData
from .errors import ConfigError, NumericError
from .theta import ZERO_FLOOR, ThetaParams, adaptive_radius, theta, theta_grid


@dataclass
class Field:
    """Doubly-periodic complex samples of u at one time.

    u[iy, ix] = u(ix * L_x / nx, iy * L_y / ny, t), with (ny, nx) the
    shape of u.
    """

    L_x: float
    L_y: float
    t: float
    u: np.ndarray

    @property
    def nx(self) -> int:
        return self.u.shape[1]

    @property
    def ny(self) -> int:
        return self.u.shape[0]


def make_cauchy_field(
    L_x: float, L_y: float, a: float, eps: float, v0_grid: np.ndarray
) -> Field:
    """Sample the Cauchy datum a + eps v0 as a t = 0 Field."""
    return Field(L_x, L_y, 0.0, a + eps * np.asarray(v0_grid, dtype=complex))


def default_theta_params(
    sd: SpectralData, times, tail_tol: float = 1e-10
) -> ThetaParams:
    """Theta truncation certified for all arguments the formula visits.

    The spatial part of every theta argument is purely imaginary; the real
    parts are bounded component-wise by |Re d_j| + |Re A_j| + |W_t,j|
    max|t|, whose largest entry is the domain bound for the adaptive
    radius.
    """
    t_max = max((abs(float(t)) for t in times), default=0.0)
    re = np.abs(np.real(sd.d)) + np.abs(np.real(sd.A_inf2)) + np.abs(sd.W_t) * t_max
    M = adaptive_radius(sd.B, float(re.max()), tail_tol)
    return ThetaParams(B=sd.B, truncation_radius=M, tail_tolerance=tail_tol)


def _base_thetas(sd: SpectralData, params: ThetaParams) -> tuple[complex, complex]:
    """theta(d) and theta(A(inf2) + d), the time-independent factors of u."""
    theta_d, theta_ad = theta(np.stack([sd.d, sd.A_inf2 + sd.d]), params).tolist()
    if abs(theta_ad) < ZERO_FLOOR:
        raise NumericError("theta-zero", "theta(A(inf2) + d) vanishes")
    return theta_d, theta_ad


def _at(coords, i: int) -> str:
    x, y, t = coords(i)
    return f"(x, y, t) = ({x:.6g}, {y:.6g}, {t:.6g})"


@contextmanager
def _located(coords):
    """Name the (x, y, t) of the sample a batch theta error points at.

    The error's flat index runs over the stacked numerator and denominator
    values; ``coords`` reduces it modulo the sample count."""
    try:
        yield
    except NumericError as err:
        if err.index is None:
            raise
        raise NumericError(
            err.code, f"{err.message}; smallest |theta| at {_at(coords, err.index)}"
        ) from err


def _ratio(sd: SpectralData, num, den, base, coords) -> np.ndarray:
    """u from the numerator and denominator thetas; coords(i) gives the
    (x, y, t) of flat sample i for the error messages."""
    i = int(np.argmin(np.abs(den)))
    if np.abs(den.flat[i]) < ZERO_FLOOR:
        raise NumericError(
            "theta-zero",
            f"theta denominator vanishes at {_at(coords, i)}; "
            "the leading-order formula has a pole here",
        )
    theta_d, theta_ad = base
    u = num * (theta_d / (theta_ad * den)) * sd.u00
    if not np.all(np.isfinite(u)):
        i = int(np.argmin(np.isfinite(u)))
        raise NumericError("nan-detected", f"non-finite sample at {_at(coords, i)}")
    return u


def evaluate_batch(
    sd: SpectralData, z: np.ndarray, t: float, params: ThetaParams | None
) -> np.ndarray:
    """u at complex positions z = x + i y (flat array) and one time, by
    direct lattice sums (the oracle for :func:`evaluate_grid`)."""
    z = np.asarray(z, dtype=complex).ravel()
    if params is None:
        params = default_theta_params(sd, [t])
    base = _base_thetas(sd, params)
    w = z[:, None] * sd.W_z + np.conjugate(z)[:, None] * sd.W_zbar + t * sd.W_t

    def coords(i):
        i %= len(z)
        return z[i].real, z[i].imag, t

    with _located(coords):
        num, den = theta(np.stack([sd.A_inf2 + w + sd.d, w + sd.d]), params)
    return _ratio(sd, num, den, base, coords)


def evaluate_grid(
    times,
    nx: int,
    ny: int,
    sd: SpectralData,
    params: ThetaParams | None = None,
) -> list[Field]:
    """Sample the finite-gap field on the torus grid at each time.

    Per snapshot, c = d + W_t t and the two t-dependent thetas, theta(A +
    w + c) and theta(w + c), come from one :func:`.theta.theta_grid` call:
    A is purely imaginary, so both share one term set, and each is one
    folded inverse FFT over the grid.  Handle j's spatial phase w_j is
    2 pi i (n_x ix / nx + n_y iy / ny) for its mode's integer harmonic, so
    the lattice sum is a trigonometric polynomial sampled exactly on the
    grid.  The base thetas theta(d), theta(A + d) share one more set.
    """
    if nx < 8 or ny < 8:
        raise ConfigError("invalid-grid", f"grid {nx}x{ny} too small; need >= 8")
    if params is None:
        params = default_theta_params(sd, times)
    base = _base_thetas(sd, params)
    harmonics = [(p.mode.n_x, p.mode.n_y) for p in sd.pairs]
    fields = []
    for t in times:
        t = float(t)
        c = sd.d + sd.W_t * t

        def coords(i):
            iy, ix = divmod(i % (nx * ny), nx)
            return ix * sd.L_x / nx, iy * sd.L_y / ny, t

        with _located(coords):
            num, den = theta_grid(np.stack([sd.A_inf2 + c, c]), harmonics, nx, ny, params)
        u = _ratio(sd, num, den, base, coords)
        fields.append(Field(sd.L_x, sd.L_y, t, u))
    return fields


def first_appearance_estimate(sd: SpectralData) -> float:
    """Coarse time of the first anomalous-wave peak.

    T1 = log(1 / (eps C)) / sigma_max with C = max_j |sqrt(alpha_j beta_j)|
    and sigma_max = max_j |W_t,j|: the time at which the fastest eps-size
    handle term reaches order one.  A scheduling hint, not certified.
    """
    c = max(abs(p.sqrt_alpha_beta) for p in sd.pairs)
    sigma_max = float(np.max(np.abs(sd.W_t)))
    eps_scaled = sd.eps / sd.a
    return math.log(1.0 / (eps_scaled * c)) / sigma_max
