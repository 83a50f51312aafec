"""Pseudo-spectral Strang-splitting integrator for focusing DS2.

    i u_t + u_xx - u_yy + 2 q u = 0,
    q = F^{-1}[ Q(k) F[|u|^2] ],   Q(k) = (k_x^2 - k_y^2)/(k_x^2 + k_y^2),

on the doubly-periodic torus, with Q(0) = 0 realizing the zero-mean gauge
for q.  Both sub-flows are exact.  The linear part is diagonal in Fourier
space: over a step h it multiplies by exp(-i h (k_x^2 - k_y^2)).  The
nonlocal sub-flow is u_t = 2iqu; it keeps |u|^2, hence q, fixed, so over a
time s it is the pointwise rotation u -> exp(2i s q) u.  A Strang half step
(s = h/2) is therefore exp(i h q).  The composition is unitary in L^2 to
rounding and time-reversible.  This is the ground-truth oracle for the
finite-gap formula.

``evolve`` runs the symmetric Strang scheme fused over each segment between
snapshots.  Because the rotation keeps |u|^2, the q computed after one
step's linear part is also the q that the next step's opening half-phase
needs, so the two adjacent half-phases merge into one rotation exp(2i h q).
A lone half-phase opens and closes every segment, so each snapshot is the
symmetric-Strang field itself.  A step costs two complex FFTs for the
linear part and two real FFTs for q.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .fieldgen import Field

# The splitting-accuracy heuristic: dt <= DT_SAFETY / max |k_x^2 - k_y^2|
# over the spectrally active band of the initial data.
DT_SAFETY = 0.5

# Harmonics below this relative amplitude do not count as active.
ACTIVE_REL = 1e-12


def _wavenumbers(field: Field) -> tuple[np.ndarray, np.ndarray]:
    kx = 2.0 * np.pi * np.fft.fftfreq(field.nx, d=field.L_x / field.nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(field.ny, d=field.L_y / field.ny)
    return np.meshgrid(kx, ky, indexing="xy")


def q_multiplier(field: Field) -> np.ndarray:
    """Fourier multiplier Q(k) with the zero mode gauged to 0."""
    KX, KY = _wavenumbers(field)
    k2 = KX * KX + KY * KY
    k2[0, 0] = 1.0
    Q = (KX * KX - KY * KY) / k2
    Q[0, 0] = 0.0
    return Q


def _half_spectrum(Q: np.ndarray) -> np.ndarray:
    """The k_x >= 0 columns of Q, the bins ``rfft2`` returns."""
    return Q[:, : Q.shape[1] // 2 + 1]


def _mean_flow(u: np.ndarray, Q_half: np.ndarray) -> np.ndarray:
    """q = F^{-1}[Q F[|u|^2]] through the real FFT.

    |u|^2 is real and Q is real and even on the grid (Q(-k) = Q(k), the
    Nyquist bins included), so Q F[|u|^2] is Hermitian and its inverse is
    real: the half spectrum holds all of it and the real FFT pair gives
    the same q as the full complex one, up to rounding.
    """
    dens = u.real * u.real + u.imag * u.imag
    return np.fft.irfft2(Q_half * np.fft.rfft2(dens), s=dens.shape)


def _rotate(u: np.ndarray, angle: np.ndarray, rot: np.ndarray) -> None:
    """u *= exp(i angle) in place, built in the complex buffer ``rot``."""
    np.cos(angle, out=rot.real)
    np.sin(angle, out=rot.imag)
    u *= rot


def stability_bound(field: Field) -> float:
    """Largest dt the splitting-accuracy heuristic accepts for this data.

    Measured over the spectrally active band of the field (harmonics above
    ACTIVE_REL of the peak): the linear step is exact, so only the
    splitting commutator on occupied modes limits dt.
    """
    KX, KY = _wavenumbers(field)
    spec = np.abs(np.fft.fft2(field.u))
    active = spec > ACTIVE_REL * spec.max()
    kdiff = np.abs(KX * KX - KY * KY)[active]
    peak = float(kdiff.max()) if kdiff.size else 0.0
    if peak == 0.0:
        return np.inf
    return DT_SAFETY / peak


def step(
    u: np.ndarray, propagator: np.ndarray, Q_half: np.ndarray, phase: float, rot: np.ndarray
) -> np.ndarray:
    """One fused Strang step of ``evolve``: the linear flow, then q of the
    result, then the rotation exp(i phase q).

    ``propagator`` is exp(-i h (k_x^2 - k_y^2)).  ``phase`` is 2h inside a
    segment, where this step's closing half-phase and the next step's
    opening one merge, and h on a segment's last step.  Returns the new
    samples; ``rot`` is scratch space.
    """
    u = np.fft.ifft2(propagator * np.fft.fft2(u))
    _rotate(u, phase * _mean_flow(u, Q_half), rot)
    return u


def evolve(
    u0: Field,
    T: float,
    dt: float,
    snapshot_times=(),
    max_series: list | None = None,
) -> list[Field]:
    """Integrate from u0.t to time T, returning snapshots at the requested
    times; the state at T is always the last returned Field.

    The step size is locally shrunk (never grown) so every segment between
    snapshots is covered by uniform sub-steps landing exactly on its end.
    Backward evolution (T < u0.t) is supported for reversibility checks;
    |dt| must not exceed :func:`stability_bound` of u0.
    If ``max_series`` is a list, (t, max|u|) is appended after every step,
    with t = target on a segment's last step.  Inside a segment the samples
    carry the next step's opening half-phase, which leaves |u| unchanged.
    """
    direction = 1.0 if T >= u0.t else -1.0
    times = [float(t) for t in snapshot_times]
    lo, hi = min(u0.t, T) - 1e-12, max(u0.t, T) + 1e-12
    monotone = all(
        direction * (b - a) >= 0.0 for a, b in zip(times, times[1:])
    )
    if not monotone or any(t < lo or t > hi for t in times):
        raise ConfigError(
            "invalid-times", "snapshot times must be monotone within the run interval"
        )
    bound = stability_bound(u0)
    if abs(dt) > bound:
        raise ConfigError(
            "invalid-dt",
            f"dt = {dt} exceeds the splitting accuracy bound {bound:.3e} "
            "for this initial data",
        )
    if dt == 0.0:
        raise ConfigError("invalid-dt", "dt must be nonzero")
    KX, KY = _wavenumbers(u0)
    K_diff = KX * KX - KY * KY
    Q_half = _half_spectrum(q_multiplier(u0))
    u = np.array(u0.u, dtype=complex)
    rot = np.empty_like(u)
    out: list[Field] = []
    targets = list(times)
    if not targets or abs(targets[-1] - T) > 1e-12:
        targets.append(T)
    now = u0.t
    for target in targets:
        span = target - now
        if abs(span) > 1e-14:
            nsteps = max(1, int(np.ceil(abs(span) / abs(dt) - 1e-12)))
            sub = span / nsteps
            propagator = np.exp(-1j * sub * K_diff)
            _rotate(u, sub * _mean_flow(u, Q_half), rot)
            for k in range(1, nsteps + 1):
                last = k == nsteps
                u = step(u, propagator, Q_half, sub if last else 2.0 * sub, rot)
                t = target if last else now + k * sub
                if not np.all(np.isfinite(u.view(float))):
                    raise NumericError(
                        "nan-detected", f"non-finite sample at t = {t:.6g} (possible blow-up)"
                    )
                if max_series is not None:
                    max_series.append((t, float(np.abs(u).max())))
        now = target
        out.append(Field(u0.L_x, u0.L_y, u0.nx, u0.ny, target, u.copy()))
    return out
