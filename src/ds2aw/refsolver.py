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
symmetric-Strang field itself.  On a 2-D cell a step costs a complex FFT
pair for the linear part and a real FFT pair for q, each taken as one
1-D pass per axis.

``evolve`` integrates on the period cell of u0: the smallest block of
py x px samples that tiles it exactly (the whole grid for generic data,
one row for y-independent data, the NLS reduction).  Tiled data have their
spectrum on the sub-lattice of wavenumbers (k_x, k_y) with k_x a multiple
of 2 pi/(L_x px/nx) and k_y of 2 pi/(L_y py/ny), and each sub-flow keeps
it there: the linear flow is diagonal in Fourier space, |u|^2 and q =
F^{-1}[Q F|u|^2] stay on it, and so does the rotation exp(i phase q).  The
cell, sampled with the same spacing on the torus L_x px/nx x L_y py/ny,
has exactly those wavenumbers and the same Q on them, so it carries the
whole flow, and every snapshot is the cell tiled back onto the grid.

A one-dimensional cell needs less.  Along an axis of length 1 the only
wavenumber is 0 and the transform is the identity, so the linear part
transforms only the axes of length > 1: a row cell takes one complex pass
each way, a 1 x 1 cell (a constant field) none.  And q needs no transform
at all: on a row cell every k_y = 0, so Q = k_x^2/k_x^2 = 1 off the origin
and Q(0) = 0, which makes F^{-1}[Q F rho] = rho - <rho> exactly; on a
column cell every k_x = 0 and Q = -1, so q = -(rho - <rho>).  A one-row
step costs two complex FFTs of length px, and q a mean and two pointwise
passes.

Each ``evolve`` call builds one plan (:class:`_Work`) on the cell: the
multipliers k_x^2 - k_y^2 and the half-spectrum Q, the axes to transform,
the constant Q of a one-dimensional cell, and the work buffers,
namely the spectrum (complex, py x px), which also holds the rotation;
|u|^2 and q (real, py x px); and the half spectrum of |u|^2 (complex,
py x (px//2 + 1)), which only a 2-D cell uses.  Every step writes its
intermediates into them and its result over the samples, so ``step``
allocates no array.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .fieldio import Field

# The splitting-accuracy heuristic: dt <= DT_SAFETY / max |k_x^2 - k_y^2|
# over the spectrally active band of the initial data.
DT_SAFETY = 0.5

# Harmonics below this relative amplitude do not count as active.
ACTIVE_REL = 1e-12


def _wavenumbers(field: Field) -> tuple[np.ndarray, np.ndarray]:
    kx = 2.0 * np.pi * np.fft.fftfreq(field.nx, d=field.L_x / field.nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(field.ny, d=field.L_y / field.ny)
    return np.meshgrid(kx, ky, indexing="xy")


class _Work:
    """The plan one ``evolve`` call lends every ``step``: the Fourier
    multipliers of the field's grid and the buffers each step overwrites."""

    def __init__(self, field: Field):
        ny, nx = field.ny, field.nx
        KX, KY = _wavenumbers(field)
        self.K_diff = KX * KX - KY * KY  # the linear flow's k_x^2 - k_y^2
        # Q on the k_x >= 0 columns, the bins rfft returns; Q(0) = 0 is the gauge
        k2 = (KX * KX + KY * KY)[:, : nx // 2 + 1]
        k2[0, 0] = 1.0
        self.Q_half = self.K_diff[:, : nx // 2 + 1] / k2
        self.Q_half[0, 0] = 0.0
        # the axes of length > 1, last first as fftn takes them: along a
        # length-1 axis the transform is the identity
        self.axes = [axis for axis in (1, 0) if (ny, nx)[axis] > 1]
        # Q off the origin where it is one constant: +1 on a row cell (every
        # k_y = 0), -1 on a column cell (every k_x = 0); None on a 2-D cell
        self.Q_off = 1.0 if ny == 1 else -1.0 if nx == 1 else None
        self.spec = np.empty((ny, nx), complex)  # F[u], then exp(i phase q)
        self.dens = np.empty((ny, nx))  # |u|^2
        self.half = np.empty((ny, nx // 2 + 1), complex)  # Q F[|u|^2]
        self.q = np.empty((ny, nx))  # q, then the angle phase * q


def _mean_flow(u: np.ndarray, work: _Work) -> np.ndarray:
    """q = F^{-1}[Q F[|u|^2]], returned in ``work.q``.

    On a one-dimensional cell Q is the constant ``work.Q_off`` off the
    origin and 0 at it, so q = Q_off (|u|^2 - <|u|^2>) with no transform.
    On a 2-D cell q goes through the real FFT: |u|^2 is real and Q is real
    and even on the grid (Q(-k) = Q(k), the Nyquist bins included), so
    Q F[|u|^2] is Hermitian and its inverse is real, the half spectrum
    holds all of it, and the real FFT pair gives the same q as the full
    complex one, up to rounding.  Overwrites the ``dens``, ``half`` and
    ``q`` buffers of ``work``.
    """
    dens = np.multiply(u.real, u.real, out=work.dens)
    q = np.multiply(u.imag, u.imag, out=work.q)  # scratch until q itself lands
    dens += q
    if work.Q_off is not None:
        dens -= dens.mean()
        return np.multiply(work.Q_off, dens, out=q)
    # rfftn's and irfftn's passes, in place: irfft2 drops out= (numpy 2.4)
    # and irfftn allocates its axis-0 pass
    half = np.fft.rfft(dens, axis=1, out=work.half)
    np.fft.fft(half, axis=0, out=half)
    half *= work.Q_half
    np.fft.ifft(half, axis=0, out=half)
    return np.fft.irfft(half, n=dens.shape[1], axis=1, out=q)


def _rotate(u: np.ndarray, phase: float, work: _Work) -> None:
    """u *= exp(i phase q) in place, with q the mean flow of u."""
    q = _mean_flow(u, work)
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


def _cell(u: np.ndarray) -> tuple[int, int]:
    """(py, px): the smallest block u[:py, :px] whose tiling is u, sample
    for sample.  Only exact equality counts: a NaN or a one-ulp difference
    keeps the whole axis."""

    def period(v: np.ndarray) -> int:
        n = len(v)
        return next(p for p in range(1, n + 1) if n % p == 0 and np.array_equal(v[p:], v[:-p]))

    return period(u), period(u.T)


def step(u: np.ndarray, propagator: np.ndarray, phase: float, work: _Work) -> None:
    """One fused Strang step of ``evolve``: the linear flow, then q of the
    result, then the rotation exp(i phase q).

    ``propagator`` is exp(-i h (k_x^2 - k_y^2)).  ``phase`` is 2h inside a
    segment, where this step's closing half-phase and the next step's
    opening one merge, and h on a segment's last step.  The new samples
    overwrite ``u`` (complex, C-contiguous); every intermediate goes into
    the buffers of ``work``, so the step allocates no array.  The linear
    flow is one complex FFT pass each way per axis of ``work.axes`` (none
    on a 1 x 1 cell, whose propagator is 1), and q costs a real FFT pair on
    a 2-D cell and no transform on a one-dimensional one.
    """
    # fftn's and ifftn's passes, taken one by one: ifft2 drops out= (numpy
    # 2.4), and fftn's set-up costs more than a pass on a one-row cell
    spec = u
    for axis in work.axes:
        spec = np.fft.fft(spec, axis=axis, out=work.spec)
    # F[u] * propagator, in this order at every grid size: where numpy
    # multiplies with FMA the two orders of a complex product round apart
    spec *= propagator
    for axis in work.axes:
        spec = np.fft.ifft(spec, axis=axis, out=u)
    _rotate(u, phase, work)


def evolve(u0: Field, times, dt: float) -> list[Field]:
    """Integrate from u0.t and return one Field at each of ``times``.

    The times must be finite and monotone from u0.t; decreasing times run
    backward (for reversibility checks).  ``dt`` must be positive and must
    not exceed :func:`stability_bound` of u0.  It is locally shrunk (never
    grown) so every segment between snapshots is covered by uniform
    sub-steps landing exactly on its end.  The steps run on the period cell
    of u0, and each snapshot is that cell tiled onto u0's grid.  u0 must
    hold a non-empty 2-d sample array on a positive, finite box.
    """
    if np.ndim(u0.u) != 2 or np.size(u0.u) == 0:
        raise ConfigError("invalid-grid", f"u0 is not a non-empty 2-d grid: {np.shape(u0.u)}")
    if not (0.0 < u0.L_x < np.inf and 0.0 < u0.L_y < np.inf):
        raise ConfigError("invalid-period", f"box is not positive, finite: ({u0.L_x}, {u0.L_y})")
    if not np.iterable(times):
        raise ConfigError("invalid-times", f"times must be an iterable of numbers, got {times!r}")
    targets = [float(t) for t in times]
    if not np.all(np.isfinite([u0.t, *targets])):
        raise ConfigError("invalid-times", f"times must be finite: from {u0.t} to {targets}")
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
    py, px = _cell(u0.u)
    reps = (u0.ny // py, u0.nx // px)
    work = _Work(Field(u0.L_x / reps[1], u0.L_y / reps[0], u0.t, u0.u[:py, :px]))
    u = np.array(u0.u[:py, :px], dtype=complex)
    out: list[Field] = []
    now = u0.t
    # a blow-up overflows inside a step: the coded nan-detected below is its
    # one report, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for target in targets:
            span = target - now
            if abs(span) > 1e-14:
                nsteps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
                sub = span / nsteps
                propagator = np.exp(-1j * sub * work.K_diff)
                _rotate(u, sub, work)
                for k in range(1, nsteps + 1):
                    last = k == nsteps
                    step(u, propagator, sub if last else 2.0 * sub, work)
                    # sum |u|^2: non-finite if any sample is, and no array made;
                    # it overflows only at an rms |u| of 1e152 or more (a 128^2
                    # cell), a blow-up
                    if not np.isfinite(np.vdot(u, u)):
                        t = target if last else now + k * sub
                        raise NumericError(
                            "nan-detected", f"non-finite sample at t = {t:.6g} (possible blow-up)"
                        )
            now = target
            out.append(Field(u0.L_x, u0.L_y, target, np.tile(u, reps)))
    return out
