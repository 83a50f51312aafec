"""Leading-order finite-gap field u(x, y, t) from spectral data.

The solution is a ratio of theta values times the background a, as in the
NLS analogue (Grinevich and Santini, Nonlinearity 31 (2018) 5258):

    u = a theta(A + w + d) / theta(w + d),

with w_j(z, t) = (W_z)_j z + (W_zbar)_j zbar + (W_t)_j t, A = A(inf_2) and
d the theta-argument offset.  The general formula's prefactor exp(z Cz +
zbar Czbar + t Ct) is 1 here: the C constants vanish at leading order.
The torus mean of u at t = 0 is a + O(eps^2).

The spatial part of w is i(k_x x + k_y y) per handle, with (k_x, k_y) a
wave vector of the torus lattice, so the field is exactly doubly periodic.
On the torus grid each theta is therefore a trigonometric polynomial in
the grid indices: evaluate_grid sums it as one folded inverse FFT per
theta, exact on the grid points.

Re(w + d) grows linearly in t, so per snapshot the offset c = d + W_t t is
moved into the lattice's fundamental cell, c' = c + B m.  By
quasi-periodicity the numerator and denominator thetas gain the same
factor exp(m.B.m/2 + m.(w + c)) and the numerator also exp(m.A).  With d
at its cell representative d + B m0 (a shift B n turns u by exp(-n.A)),

    u = a exp((m - m0).A) theta(A + w + c') / theta(w + c')

exactly, with |exp((m - m0).A)| = 1 since A is purely imaginary.

The certificate of each theta value is the one guard against a pole: an
exact zero never meets a relative tolerance.  A failing sample's flat
index, from theta_grid or the ratio, becomes (x, y, t) in evaluate_grid.
"""

from __future__ import annotations

import math

import numpy as np

from .curve import SpectralData, regime
from .errors import ConfigError, NumericError
from .fieldio import Field
from .theta import TAIL_TOLERANCE, ThetaParams, theta_grid


def _ratio(num, den, scale) -> np.ndarray:
    """u = num / den * scale, the snapshot's background and reduction
    factor.  den is certified, hence not 0; a non-finite sample raises with
    its flat index."""
    u = num / den * scale
    if not np.all(np.isfinite(u)):
        i = int(np.argmin(np.isfinite(u)))
        raise NumericError("nan-detected", "non-finite sample", index=i)
    return u


def evaluate_grid(
    times,
    nx: int,
    ny: int,
    sd: SpectralData,
    tail_tolerance: float = TAIL_TOLERANCE,
) -> list[Field]:
    """Sample the finite-gap field on the torus grid at each time.

    Per snapshot, c = d + W_t t is reduced to c' = c + B m (module
    docstring) and the two t-dependent thetas, theta(A + w + c') and
    theta(w + c'), come from one :func:`.theta.theta_grid` call: A is
    purely imaginary, so both share one term set, and each is one folded
    inverse FFT over the grid.  Handle j's spatial phase w_j is
    2 pi i (n_x ix / nx + n_y iy / ny) for its mode's integer harmonic, so
    the lattice sum is a trigonometric polynomial sampled exactly on the
    grid.  Each theta is certified to ``tail_tolerance`` relative to
    |theta|.  A NumericError with a sample index keeps its code and gains
    ``at (x, y, t) = (...)``; a B that is no period matrix names eps and
    eps_max (:func:`.curve.regime`); a grid that is not two integers >= 8
    and times that are not an iterable of finite numbers are refused
    before any theta work.
    """
    if not all(isinstance(n, (int, np.integer)) and n >= 8 for n in (nx, ny)):
        raise ConfigError("invalid-grid", f"grid {nx}x{ny} is not two integers >= 8")
    if not np.iterable(times):
        raise ConfigError("invalid-times", f"times must be an iterable of numbers, got {times!r}")
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t):
            raise ConfigError("invalid-times", f"snapshot time {t} is not finite")
    try:
        params = ThetaParams(sd.B, tail_tolerance)
    except NumericError as err:
        msg = (f"{err.message} at eps = {sd.eps:.6g}: the leading-order data give a "
               f"period matrix only for eps < eps_max = {regime(sd)[0]:.6g}")
        raise NumericError(err.code, msg) from err
    harmonics = [(p.mode.n_x, p.mode.n_y) for p in sd.pairs]
    m0 = params.reduce(sd.d)[0]
    fields = []
    try:
        for t in times:
            m, c = params.reduce(sd.d + sd.W_t * t)
            num, den = theta_grid(np.stack([sd.A_inf2 + c, c]), harmonics, nx, ny, params)
            u = _ratio(num, den, sd.a * np.exp((m - m0) @ sd.A_inf2))
            fields.append(Field(sd.L_x, sd.L_y, t, u))
    except NumericError as err:
        if err.index is None:
            raise
        iy, ix = divmod(err.index % (nx * ny), nx)
        at = f"({ix * sd.L_x / nx:.6g}, {iy * sd.L_y / ny:.6g}, {t:.6g})"
        raise NumericError(err.code, f"{err.message} at (x, y, t) = {at}") from err
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
