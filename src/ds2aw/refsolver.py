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

Each ``evolve`` call allocates one set of work buffers (:class:`_Work`):
the spectrum (complex, ny x nx), which also holds the rotation; |u|^2 and
q (real, ny x nx); and the half spectrum of |u|^2 (complex,
ny x (nx//2 + 1)).  Every step writes its intermediates into them and
its result over the samples, so ``step`` allocates no array.
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


def _mean_flow(
    u: np.ndarray,
    Q_half: np.ndarray,
    dens: np.ndarray | None = None,
    half: np.ndarray | None = None,
    q: np.ndarray | None = None,
) -> np.ndarray:
    """q = F^{-1}[Q F[|u|^2]] through the real FFT.

    |u|^2 is real and Q is real and even on the grid (Q(-k) = Q(k), the
    Nyquist bins included), so Q F[|u|^2] is Hermitian and its inverse is
    real: the half spectrum holds all of it and the real FFT pair gives
    the same q as the full complex one, up to rounding.

    ``dens``, ``half`` and ``q`` are optional work space (see
    :class:`_Work`) and are overwritten; q is returned, in ``q`` if given.
    """
    dens = np.multiply(u.real, u.real, out=dens)
    q = np.multiply(u.imag, u.imag, out=q)  # scratch until q itself lands
    dens += q
    half = np.fft.rfftn(dens, out=half)
    half *= Q_half
    # irfft2 drops out= (numpy 2.4) and irfftn allocates its axis-0 pass:
    # take irfftn's two passes, in place
    np.fft.ifft(half, axis=0, out=half)
    return np.fft.irfft(half, n=dens.shape[1], axis=1, out=q)


class _Work:
    """The work buffers one ``evolve`` call lends every ``step``."""

    def __init__(self, u: np.ndarray):
        ny, nx = u.shape
        self.spec = np.empty((ny, nx), complex)  # F[u], then exp(i phase q)
        self.dens = np.empty((ny, nx))  # |u|^2
        self.half = np.empty((ny, nx // 2 + 1), complex)  # Q F[|u|^2]
        self.q = np.empty((ny, nx))  # q, then the angle phase * q


def _rotate(u: np.ndarray, Q_half: np.ndarray, phase: float, work: _Work) -> None:
    """u *= exp(i phase q) in place, with q the mean flow of u."""
    q = _mean_flow(u, Q_half, work.dens, work.half, work.q)
    np.multiply(phase, q, out=q)
    np.cos(q, out=work.spec.real)
    np.sin(q, out=work.spec.imag)
    u *= work.spec


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
    u: np.ndarray, propagator: np.ndarray, Q_half: np.ndarray, phase: float, work: _Work
) -> None:
    """One fused Strang step of ``evolve``: the linear flow, then q of the
    result, then the rotation exp(i phase q).

    ``propagator`` is exp(-i h (k_x^2 - k_y^2)).  ``phase`` is 2h inside a
    segment, where this step's closing half-phase and the next step's
    opening one merge, and h on a segment's last step.  The new samples
    overwrite ``u`` (complex, C-contiguous); every intermediate goes into
    the buffers of ``work``, so the step allocates no array.
    """
    # ifft2 drops out= (numpy 2.4) and returns a fresh array: use fftn/ifftn
    spec = np.fft.fftn(u, out=work.spec)
    # F[u] * propagator, in this order at every grid size: where numpy
    # multiplies with FMA the two orders of a complex product round apart
    spec *= propagator
    np.fft.ifftn(spec, out=u)
    _rotate(u, Q_half, phase, work)


def evolve(
    u0: Field, times, dt: float, max_series: list | None = None
) -> list[Field]:
    """Integrate from u0.t and return one Field at each of ``times``.

    The times must be monotone from u0.t; decreasing times run backward
    (for reversibility checks).  ``dt`` must be positive and must not
    exceed :func:`stability_bound` of u0.  It is locally shrunk (never
    grown) so every segment between snapshots is covered by uniform
    sub-steps landing exactly on its end.
    If ``max_series`` is a list, (t, max|u|) is appended after every step,
    with t = target on a segment's last step.  Inside a segment the samples
    carry the next step's opening half-phase, which leaves |u| unchanged.
    """
    targets = [float(t) for t in times]
    spans = np.diff([u0.t, *targets])
    if not (np.all(spans >= 0.0) or np.all(spans <= 0.0)):
        raise ConfigError("invalid-times", "snapshot times must be monotone from u0.t")
    if not dt > 0.0:
        raise ConfigError("invalid-dt", f"dt must be positive, got {dt}")
    bound = stability_bound(u0)
    if dt > bound:
        raise ConfigError(
            "invalid-dt",
            f"dt = {dt} exceeds the splitting accuracy bound {bound:.3e} "
            "for this initial data",
        )
    KX, KY = _wavenumbers(u0)
    K_diff = KX * KX - KY * KY
    Q_half = _half_spectrum(q_multiplier(u0))
    u = np.array(u0.u, dtype=complex)
    work = _Work(u)
    out: list[Field] = []
    now = u0.t
    for target in targets:
        span = target - now
        if abs(span) > 1e-14:
            nsteps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
            sub = span / nsteps
            propagator = np.exp(-1j * sub * K_diff)
            _rotate(u, Q_half, sub, work)
            for k in range(1, nsteps + 1):
                last = k == nsteps
                step(u, propagator, Q_half, sub if last else 2.0 * sub, work)
                t = target if last else now + k * sub
                if not np.all(np.isfinite(u.view(float))):
                    raise NumericError(
                        "nan-detected", f"non-finite sample at t = {t:.6g} (possible blow-up)"
                    )
                if max_series is not None:
                    max_series.append((t, float(np.abs(u).max())))
        now = target
        out.append(Field(u0.L_x, u0.L_y, target, u.copy()))
    return out
