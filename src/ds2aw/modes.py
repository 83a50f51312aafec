"""Linear stability census of the constant focusing-DS2 background.

The constant background ``u = a`` is modulationally unstable against the
doubly-periodic harmonic ``exp(i(k_x x + k_y y))`` exactly when the wave
vector lies inside the disk ``k_x^2 + k_y^2 < 4 a^2`` (and the factor
``k_x^2 - k_y^2`` does not vanish, see :func:`growth_rate`).  On the torus
the admissible wave vectors form the lattice ``k_x = 2 pi n_x / L_x``,
``k_y = 2 pi n_y / L_y``, so only finitely many modes are unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

# Relative tolerance treating k_x^2 == k_y^2 as exact (marginal mode).
MARGINAL_REL_TOL = 1e-12

# Near-genericity tolerance: double precision is ill-conditioned next to
# the instability circle and near multiplier collisions.
GENERICITY_TOL = 1e-9


@dataclass(frozen=True)
class Mode:
    """One Fourier harmonic of the perturbation lattice."""

    n_x: int
    n_y: int
    k_x: float
    k_y: float
    sigma: complex
    unstable: bool

    @property
    def k_squared(self) -> float:
        return self.k_x * self.k_x + self.k_y * self.k_y


@dataclass
class GenericityReport:
    """The census of periods (L_x, L_y) and its genericity violations.

    ``modes`` is the :func:`enumerate_modes` list judged, the one census
    that the curve's handles and ``analyze`` read.  ``ok`` is true iff the
    three violation lists are empty.  Marginal modes (k_x^2 = k_y^2 inside
    the disk, zero growth rate to leading order) count like the others:
    build_spectral_data raises genericity (exit 3) on them.
    """

    modes: list[Mode] = field(default_factory=list)
    on_circle_violations: list[Mode] = field(default_factory=list)
    multiplicity_violations: list[dict] = field(default_factory=list)
    marginal_modes: list[Mode] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.on_circle_violations
            or self.multiplicity_violations
            or self.marginal_modes
        )

    def to_dict(self) -> dict:
        def mode_key(m: Mode) -> list[int]:
            return [m.n_x, m.n_y]

        return {
            "ok": self.ok,
            "on_circle_violations": [mode_key(m) for m in self.on_circle_violations],
            "multiplicity_violations": self.multiplicity_violations,
            "marginal_modes": [mode_key(m) for m in self.marginal_modes],
        }


def growth_rate(k_x: float, k_y: float, a: float) -> complex:
    """Linearized eigenvalue of the harmonic (k_x, k_y) on background a.

    Returns ``sigma = (k_x^2 - k_y^2) sqrt(4 a^2 - k^2) / sqrt(k^2)``,
    taking the branch with ``Re sigma >= 0`` when the radicand is positive
    (the growing eigenvalue; the dispersion relation always produces the
    pair +/- sigma) and the purely imaginary value with ``Im sigma >= 0``
    otherwise.
    """
    k2 = k_x * k_x + k_y * k_y
    if k2 == 0.0:
        raise ConfigError("zero-wavevector", "growth rate undefined at k = 0")
    pref = (k_x * k_x - k_y * k_y) / math.sqrt(k2)
    radicand = 4.0 * a * a - k2
    if radicand >= 0.0:
        return complex(abs(pref) * math.sqrt(radicand), 0.0)
    return complex(0.0, abs(pref) * math.sqrt(-radicand))


def _is_marginal(k_x: float, k_y: float, a: float) -> bool:
    k2 = k_x * k_x + k_y * k_y
    return abs(k_x * k_x - k_y * k_y) <= MARGINAL_REL_TOL * max(k2, 4.0 * a * a)


def min_search_radius(L_x: float, L_y: float, a: float) -> int:
    """Smallest lattice radius covering the instability disk k^2 < 4a^2."""
    if not (0.0 < L_x < math.inf and 0.0 < L_y < math.inf):
        raise ConfigError("invalid-period", f"periods must be positive and finite: ({L_x}, {L_y})")
    if not 0.0 < a < math.inf:
        raise ConfigError("invalid-background", f"background must be positive and finite, got {a}")
    radius = max(L_x, L_y) * a / math.pi
    if radius == math.inf:  # each input is finite, but their product overflowed
        raise ConfigError("invalid-period", f"periods ({L_x}, {L_y}) at a = {a}: radius overflows")
    return max(1, math.ceil(radius))


def enumerate_modes(L_x: float, L_y: float, a: float) -> list[Mode]:
    """All lattice harmonics with |n_x|, |n_y| <= min_search_radius, classified.

    Modes are returned sorted lexicographically by (n_x, n_y), each with its
    linearized eigenvalue.  A mode is flagged unstable iff its wave vector
    lies strictly inside the instability disk and k_x^2 != k_y^2 (marginal
    modes have sigma = 0 to leading order and do not open handles).
    """
    radius = min_search_radius(L_x, L_y, a)
    dkx = 2.0 * math.pi / L_x
    dky = 2.0 * math.pi / L_y
    out = []
    for n_x in range(-radius, radius + 1):
        for n_y in range(-radius, radius + 1):
            if n_x == 0 and n_y == 0:
                continue
            k_x = n_x * dkx
            k_y = n_y * dky
            k2 = k_x * k_x + k_y * k_y
            sigma = growth_rate(k_x, k_y, a)
            unstable = k2 < 4.0 * a * a and not _is_marginal(k_x, k_y, a)
            out.append(Mode(n_x, n_y, k_x, k_y, sigma, unstable))
    return out


def unstable_classes(modes: list[Mode]) -> list[Mode]:
    """Canonical representatives of the unstable modes, one per +/- pair.

    The representative has n_x > 0, or n_x == 0 and n_y > 0.
    """
    return [
        m
        for m in modes
        if m.unstable and (m.n_x > 0 or (m.n_x == 0 and m.n_y > 0))
    ]


def resonant_points(k_x: float, k_y: float, a: float) -> tuple[complex, complex]:
    """Resonant points (tau_1, tau_2) of an unstable mode on background a:
    those of background 1 for k = (k_x + i k_y)/a, the one place a divides
    a wave vector.  tau_1 = (k/2)(-1 + i s), tau_2 = (k/2)(1 + i s) with
    s = sqrt((4 - |k|^2)/|k|^2), the sign branch with Im(tau_1/tau_2) > 0;
    both lie on the unit circle.
    """
    k = complex(k_x / a, k_y / a)
    k2 = k.real * k.real + k.imag * k.imag
    s = math.sqrt(max(4.0 - k2, 0.0) / k2)
    return 0.5 * k * (-1.0 + 1j * s), 0.5 * k * (1.0 + 1j * s)


def check_genericity(L_x: float, L_y: float, a: float) -> GenericityReport:
    """Report near-violations of the genericity hypotheses.

    Flags (i) lattice modes within GENERICITY_TOL of the instability circle
    k^2 = 4 a^2, (ii) collisions of resonant points belonging to distinct
    unstable modes in the Bloch-multiplier plane (multiple points of order
    higher than two), and (iii) marginal in-disk modes, in the census the
    report carries.  The one test of these conditions; report-only, and
    :func:`.curve.build_spectral_data` refuses periods that fail it.
    """
    report = GenericityReport(enumerate_modes(L_x, L_y, a))
    for m in report.modes:
        if abs(m.k_squared - 4.0 * a * a) < GENERICITY_TOL * a * a:
            report.on_circle_violations.append(m)
        elif m.k_squared < 4.0 * a * a and _is_marginal(m.k_x, m.k_y, a):
            report.marginal_modes.append(m)

    # Resonant points of distinct unstable modes must stay apart: the four
    # points of a class {+k, -k} are (tau_1, tau_2, -tau_1, -tau_2), and a
    # coincidence across classes makes a multiple point of order > 2.
    # These are the curve's own points, on the unit circle for any a.
    points: list[tuple[tuple[int, int], complex]] = []
    for m in unstable_classes(report.modes):
        t1, t2 = resonant_points(m.k_x, m.k_y, a)
        key = (m.n_x, m.n_y)
        points.extend([(key, t1), (key, t2), (key, -t1), (key, -t2)])
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            (ka, ta), (kb, tb) = points[i], points[j]
            if ka == kb:
                continue
            d = abs(ta - tb)
            if d < GENERICITY_TOL:
                report.multiplicity_violations.append(
                    {
                        "mode_a": list(ka),
                        "mode_b": list(kb),
                        "tau_a": [ta.real, ta.imag],
                        "tau_b": [tb.real, tb.imag],
                        "distance": d,
                    }
                )
    return report
