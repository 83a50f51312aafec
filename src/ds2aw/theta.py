"""Genus-g Riemann theta function as a truncated Fourier lattice sum.

theta(z | B) = sum over n in Z^g of exp( (1/2) n.B.n + n.z )

with B symmetric and Re(B) negative definite.  The normalization matches
a-periods equal to 2 pi i delta_jk, so theta is exactly 2 pi i periodic in
every component; this is the only convention supported here.

Each argument is first moved into the fundamental cell of the lattice B
Z^g (the exponential/oscillatory split of Deconinck et al., "Computing
Riemann theta functions", Math. Comp. 73, 2004): with P = -Re(B) and m =
round(P^-1 Re z), theta(z) = exp(m.B.m/2 + m.z) theta(z + B m), and z + B
m has real part P delta with delta in [-1/2, 1/2]^g.  There a term's
modulus is exp(C - (n - delta).P.(n - delta)/2) with C = delta.P.delta/2.

The terms are enumerated by their exact modulus, with no enclosing box
(the ellipsoid enumeration of the same paper; Fincke and Pohst, Math.
Comp. 44, 1985): with P = R^T R, fixing the coordinates from the last down
to the first fixes one row of R(n - delta) at a time, and the terms below a
fixed prefix sum to at most its fixed part times a product of
one-dimensional Gaussian sums.  Each prefix's candidates for the next
coordinate are a window about its own centre; the integers outside it are
charged in closed form by a geometric series, and the smallest subtree
bounds inside it are dropped while their sum stays within the budget.  The
certificate is the sum of those charges, so every discarded term is
charged at most its own bound, once.

ThetaParams computes P and R once.  A term set, with its certificate,
belongs to one reduced real part, and theta_grid is the one place a set is
summed: it evaluates theta(w + c) on a whole torus grid when the spatial
part w is i(k_x x + k_y y) with lattice wave vectors, one folded inverse
FFT of the term values per offset c.  The offsets share one real part;
arguments that differ by an imaginary shift have the same term moduli and
share the set exactly.  theta() reduces its batch, groups it by real part
and evaluates each group on a 1x1 grid, where every term lands in bin 0, so
a point's value is one term-by-term sum that does not depend on the rest
of its batch.

A failed certificate carries the flat index of the smallest |theta|
(NumericError.index) for the caller to name.  Quasi-periodicity holds by
construction after the reduction; the tests check it against direct sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# B must be symmetric to this tolerance and Re(B) negative definite.
SYMMETRY_TOL = 1e-12

# Hard cap on the candidates (kept prefixes times window) at each level.
MAX_TERMS = 4_000_000

# Share of tail_tolerance times e^C for the window exteriors and for the drops.
DROP_SHARE = 1e-6

# Default tail tolerance: the certified truncation error relative to |theta|.
TAIL_TOLERANCE = 1e-10


@dataclass
class ThetaParams:
    """The validated period matrix and tail tolerance (finite, positive) and
    the geometry they fix, once: P = -Re B and R (P = R^T R)."""

    B: np.ndarray
    tail_tolerance: float = TAIL_TOLERANCE

    def __post_init__(self):
        if not 0.0 < self.tail_tolerance < math.inf:
            msg = f"theta tail tolerance {self.tail_tolerance} is not finite and positive"
            raise ConfigError("invalid-tolerance", msg)
        self.B = np.asarray(self.B, dtype=complex)
        if self.B.ndim != 2 or not 0 < self.B.shape[0] == self.B.shape[1]:
            raise NumericError(
                "not-negative-definite", f"period matrix shape {self.B.shape} is not square"
            )
        asym = np.max(np.abs(self.B - self.B.T)) if np.all(np.isfinite(self.B)) else math.nan
        if not asym <= SYMMETRY_TOL:
            raise NumericError("not-negative-definite", f"period matrix asymmetry {asym:.3e}")
        self._P = -self.B.real
        try:
            self._R = np.linalg.cholesky(self._P).T
        except np.linalg.LinAlgError as err:
            raise NumericError("not-negative-definite", "Re(B) is not negative definite") from err

    @property
    def g(self) -> int:
        """The genus, the order of B."""
        return self.B.shape[0]

    def reduce(self, z):
        """m = round(P^-1 Re z) and z + B m for each argument (the last axis
        of z): P^-1 Re(z + B m) lies in [-1/2, 1/2]^g, and theta(z) =
        exp(m.B.m/2 + m.z) theta(z + B m)."""
        z = np.asarray(z, dtype=complex)
        m = np.rint(np.linalg.solve(self._P, z.real.T).T)
        return m, z + m @ self.B


def _window(s: float, ratio: float) -> int:
    """Smallest w >= 0 with ratio exp(-s (w + 1/2)^2 / 2) <= 1 - exp(-s (w +
    1)), without stepping w: with the right side replaced by 1 the root of a
    quadratic in w + 1/2 is a lower end lo; with it taken at lo, where it is
    smallest, an upper end that fits.  Bisection between the two finds w."""

    def least(extra: float) -> int:  # s (w + 1/2)^2 / 2 >= log(ratio) + extra
        top = max(math.log(max(ratio, 1.0)) + extra, 0.0)
        return max(0, math.ceil(math.sqrt(2.0 * top / s) - 0.5))

    lo = least(0.0)
    hi = least(-math.log(-math.expm1(-s * (lo + 1))))
    while lo < hi:
        mid = (lo + hi) // 2
        fits = ratio * math.exp(-0.5 * s * (mid + 0.5) ** 2) <= -math.expm1(-s * (mid + 1))
        lo, hi = (lo, mid) if fits else (mid + 1, hi)
    return lo


def _ellipsoid(R: np.ndarray, n_star: np.ndarray, C: float, budget: float):
    """Lattice points whose terms matter at real part P n*, and the certified
    sum of the |terms| left out.

    With P = -Re B = R^T R (R upper triangular) and C = n*.P.n*/2, a term's
    modulus is exp(C - |R(n - n*)|^2 / 2).  Coordinates are fixed from the
    last down to the first; fixing n_i..n_{g-1} fixes rows i..g-1 of R(n -
    n*), and summing each open coordinate r < i over Z bounds the subtree of
    a prefix by its fixed part times prod_{r<i} (1 + sqrt(2 pi) / R_rr).  At
    level i a prefix's row is R_ii (n_i - c) about its own centre c, and its
    candidates are round(c) +- w: the integers outside lie at least w + 1/2
    from c, so their subtrees sum to at most the prefix's bound at c times
    T(w) = 2 exp(-R_ii^2 (w + 1/2)^2 / 2) / (1 - exp(-R_ii^2 (w + 1))).  w is
    the least window whose charge over all prefixes is within budget e^C /
    g, and the smallest subtree bounds among the candidates are dropped
    while their running sum stays within it too.  Every discarded point is
    charged once, at the level where it leaves; the budget is relative to
    e^C, the largest term modulus, so the kept set does not grow as the
    terms do past the wave's peak."""
    g = len(n_star)
    open_log = np.log1p(math.sqrt(2.0 * math.pi) / np.diag(R))
    open_below = np.concatenate([[0.0], np.cumsum(open_log)])
    N = np.zeros((1, 0), dtype=np.int64)  # kept prefixes, columns n_i..n_{g-1}
    fixed = np.zeros(1)  # -|fixed rows|^2 / 2, relative to C
    part = np.zeros((1, g))  # R(n - n*) over the fixed coordinates, open rows
    limit = budget / g
    omitted = 0.0  # relative to e^C
    for i in range(g - 1, -1, -1):
        r = R[i, i]
        centre = n_star[i] - part[:, i] / r
        reach = float(np.exp(fixed + open_below[i]).sum())  # subtree bounds at the centres
        w = _window(r * r, 2.0 * reach / limit)
        if (count := len(fixed) * (2 * w + 1)) > MAX_TERMS:
            raise NumericError("too-many-terms", f"{count} lattice candidates at one level; the "
                               "period matrix is too flat for the leading-order regime")
        tail = 2.0 * math.exp(-0.5 * r * r * (w + 0.5) ** 2) / -math.expm1(-r * r * (w + 1))
        omitted += reach * tail
        cand = np.rint(centre)[:, None] + np.arange(-w, w + 1)
        row = r * (cand - centre[:, None])
        ext = (fixed[:, None] - 0.5 * row * row).ravel()
        order = np.argsort(ext, kind="stable")
        running = np.cumsum(np.exp(ext[order] + open_below[i]))
        n_drop = int(np.searchsorted(running, limit, side="right"))
        if n_drop:
            omitted += float(running[n_drop - 1])
        keep = np.sort(order[n_drop:])
        parent, n_i = keep // (2 * w + 1), cand.ravel()[keep]
        N = np.column_stack([n_i.astype(np.int64), N[parent]])
        fixed = ext[keep]
        part = part[parent, :i] + np.outer(n_i - n_star[i], R[:i, i])
    return N, (omitted * math.exp(C) if C < 709.0 else math.inf)  # inf far outside the cell


def _term_set(params: ThetaParams, re: np.ndarray):
    """Kept lattice points, their n.B.n/2 and the certified bound on the
    omitted terms at the one real part ``re`` = P delta, C = delta.P.delta/2."""
    delta = np.linalg.solve(params._P, re)
    C = 0.5 * float(re @ delta)
    N, omitted = _ellipsoid(params._R, delta, C, params.tail_tolerance * DROP_SHARE)
    return N, 0.5 * ((N @ params.B) * N).sum(1), omitted


def _certify(params: ThetaParams, omitted: float, vals: np.ndarray) -> None:
    """Raise truncation-insufficient unless the omitted-term bound stays
    strictly below tail_tolerance * min |theta|; a NaN or infinite bound or
    value fails the check, and so does a theta of 0, so a certified value is
    never 0 (a caller may divide by it).  The error's index is the flat
    index of the smallest |theta| (a NaN counts as smallest)."""
    mags = np.abs(vals).ravel()
    i = int(np.argmin(mags))
    if not (omitted < params.tail_tolerance * mags[i] < math.inf):
        raise NumericError(
            "truncation-insufficient",
            f"certified truncation error {omitted:.3e} exceeds "
            f"{params.tail_tolerance:.1e} * min|theta| = {mags[i]:.3e}",
            index=i,
        )


def theta(z, params: ThetaParams) -> complex | np.ndarray:
    """Theta at one point (shape (g,)) or a batch (..., g), at any finite z.

    Each argument is reduced into the cell and its sum there scaled by
    exp(m.B.m/2 + m.z).  Arguments with the same reduced real part share one
    term set and certificate and are summed by theta_grid on a 1x1 grid, so
    neither a value nor its certificate depends on the rest of the batch,
    and identical inputs give bit-identical results.  Raises
    invalid-argument for an argument that is not finite or has other than g
    components, truncation-insufficient when the certified truncation error
    exceeds tail_tolerance * |sum| at some reduced point, and theta-overflow
    when a value exceeds the float range.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] != params.g or not np.all(np.isfinite(z)):
        raise ConfigError(
            "invalid-argument",
            f"theta argument of shape {z.shape} needs {params.g} finite components",
        )
    scalar = z.ndim == 1
    zb = z.reshape(-1, params.g)
    if not len(zb):
        return np.empty(z.shape[:-1], dtype=complex)
    m, zr = params.reduce(zb)
    res, group = np.unique(zr.real, axis=0, return_inverse=True)
    vals = np.empty(len(zb), dtype=complex)
    for k in range(len(res)):
        rows = np.flatnonzero(group.ravel() == k)
        try:
            vals[rows] = theta_grid(zr[rows], np.zeros((params.g, 2)), 1, 1, params).ravel()
        except NumericError as err:
            if err.index is not None:
                err.index = int(rows[err.index])
            raise
    with np.errstate(over="ignore", invalid="ignore"):
        vals *= np.exp(0.5 * ((m @ params.B) * m).sum(1) + (m * zb).sum(1))
    if not np.all(np.isfinite(vals)):
        z_bad = zb[np.argmin(np.isfinite(vals))]
        raise NumericError("theta-overflow", f"theta exceeds the float range at z = {z_bad}")
    if scalar:
        return complex(vals[0])
    return vals.reshape(z.shape[:-1])


def theta_grid(offsets, harmonics, nx: int, ny: int, params: ThetaParams) -> np.ndarray:
    """theta(w + c) for each row c of the (k, g) ``offsets`` at grid points
    (ix, iy), shape (k, ny, nx), where w_j = 2 pi i (n_x ix / nx + n_y iy /
    ny) for row j of ``harmonics``.

    Term n is the harmonic m = sum_j n_j (n_x, n_y)_j times exp(n.B.n/2 +
    n.c), so each sum is nx ny ifft2 of the terms binned at m mod (nx, ny),
    exact on the grid.  Re w = 0, so the arguments' real parts are the
    rows of Re c, which must be one real part (invalid-argument otherwise),
    reduced by the caller: one term set and one binning serve every offset.
    """
    offsets = np.asarray(offsets, dtype=complex)
    if np.any(offsets.real != offsets[:1].real):
        raise ConfigError("invalid-argument", "theta_grid offsets differ in their real parts")
    N, quad, omitted = _term_set(params, offsets[0].real)
    m = N @ np.asarray(harmonics, dtype=np.int64)
    bins = (m[:, 1] % ny) * nx + m[:, 0] % nx
    coef = np.empty((len(offsets), nx * ny), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # far outside the cell: omitted is inf
        for k, c in enumerate(offsets):
            terms = np.exp(quad + N @ c)
            coef[k] = np.bincount(bins, terms.real, nx * ny) + 1j * np.bincount(
                bins, terms.imag, nx * ny
            )
        vals = (nx * ny) * np.fft.ifft2(coef.reshape(-1, ny, nx))
    _certify(params, omitted, vals)
    return vals
