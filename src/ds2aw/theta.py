"""Genus-g Riemann theta function as a truncated Fourier lattice sum.

theta(z | B) = sum over n in Z^g of exp( (1/2) n.B.n + n.z )

with B symmetric and Re(B) negative definite.  The normalization matches
a-periods equal to 2 pi i delta_jk, so theta is exactly 2 pi i periodic in
every component; this is the only convention supported here.

Truncation is rectangular, |n_j| <= M, with a certified Gaussian tail
bound: the quadratic form is relaxed with the smallest eigenvalue of
-Re(B),

    n . Re(B) . n <= -lambda_min |n|^2,

which makes the exterior tail a product of one-dimensional sums.  Small
boxes are summed in full.  Inside larger boxes the terms are enumerated
by their exact modulus (the ellipsoid enumeration of Deconinck et al.,
"Computing Riemann theta functions", Math. Comp. 73, 2004): with -Re(B) =
R^T R, a term's modulus is exp(C - |R(n - n*)|^2 / 2) for arguments with
real part c, where n* and C depend only on c.  Fixing the coordinates
from the last down to the first fixes one row of R(n - n*) at a time, and
the terms below a fixed prefix sum to at most its fixed part times a
product of one-dimensional Gaussian sums.  The smallest of these subtree
bounds are dropped while their sum stays within the budget, so the
certificate (exterior tail plus the summed drops) charges every discarded
term at most its own bound.  In the leading-order finite-gap regime Re
b_jj ~ 2 log(eps) is very negative, so the certified radius is small and,
at larger genus, only lattice points near n* carry weight.

Each call builds one term set, with its certificate, for the real parts
of all the arguments it is given, and nothing is kept between calls.
Arguments that differ by an imaginary shift have the same term moduli and
share the set exactly: the field's numerator and denominator thetas
differ by A(inf_2), which is purely imaginary, so each pair is passed in
one call.

theta_grid evaluates theta(w + c) on a whole torus grid when the spatial
part w is i(k_x x + k_y y) with lattice wave vectors: one folded inverse
FFT of the term values per offset c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

MAX_RADIUS = 64

# B must be symmetric to this tolerance and Re(B) negative definite.
SYMMETRY_TOL = 1e-12

# |theta| below this counts as an exact zero (division guard).
ZERO_FLOOR = 1e-300

# Full-box enumeration below this many lattice points; pruned above.
SMALL_BOX = 1 << 18

# Hard cap on kept lattice points after pruning.
MAX_TERMS = 4_000_000


@dataclass
class ThetaParams:
    """Validated evaluation parameters: period matrix and truncation."""

    B: np.ndarray
    truncation_radius: int
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=complex)
        if self.B.ndim != 2 or not 0 < self.B.shape[0] == self.B.shape[1]:
            raise NumericError(
                "not-negative-definite", f"period matrix shape {self.B.shape} is not square"
            )
        if self.truncation_radius < 1:
            raise NumericError("radius-overflow", "truncation radius must be >= 1")
        asym = np.max(np.abs(self.B - self.B.T))
        if asym > SYMMETRY_TOL:
            raise NumericError(
                "not-negative-definite", f"period matrix asymmetry {asym:.3e}"
            )
        if min_decay(self.B) <= 0.0:
            raise NumericError(
                "not-negative-definite", "Re(B) is not negative definite"
            )

    @property
    def g(self) -> int:
        """The genus, the order of B."""
        return self.B.shape[0]


def min_decay(B: np.ndarray) -> float:
    """lambda_min > 0 such that n.Re(B).n <= -lambda_min |n|^2."""
    eigs = np.linalg.eigvalsh(np.real(np.asarray(B, dtype=complex)))
    return -float(np.max(eigs))


def _sum_1d(a: float, r: float, lo: int) -> float:
    """2 * sum_{n >= lo} exp(-a n^2 / 2 + r n), plus 1 if lo == 0."""
    total = 1.0 if lo == 0 else 0.0
    n = max(lo, 1)
    peak = r / a
    while True:
        expo = -0.5 * a * n * n + r * n
        if expo > 700.0:
            return math.inf
        term = 2.0 * math.exp(expo)
        total += term
        if n > peak and (term < 1e-10 * max(total, 1e-300) or term == 0.0):
            return total
        n += 1
        if n > lo + 100000:
            return math.inf


def tail_bound(B: np.ndarray, M: int, z_bound) -> float:
    """Certified bound on the sum of |terms| with sup-norm |n| > M.

    With lambda = min_decay(B) and r_j >= |Re z_j|, each term obeys
    |exp(n.B.n/2 + n.z)| <= prod_j exp(-lambda n_j^2 / 2 + |n_j| r_j); the
    tail is union-bounded over which coordinate exceeds M:
    sum_j S_j(|n_j| > M) prod_{k != j} S_k(all n_k).
    """
    B = np.asarray(B, dtype=complex)
    r = np.broadcast_to(np.asarray(z_bound, dtype=float), (B.shape[0],))
    lam = min_decay(B)
    if lam <= 0.0:
        raise NumericError("not-negative-definite", "Re(B) is not negative definite")
    full = np.array([_sum_1d(lam, rj, 0) for rj in r])
    out = np.array([_sum_1d(lam, rj, M + 1) for rj in r])
    if not np.all(np.isfinite(full)):
        return math.inf
    return float(sum(out[j] * np.prod(np.delete(full, j)) for j in range(len(r))))


def adaptive_radius(B: np.ndarray, z_domain_bound: float, tol: float) -> int:
    """Smallest truncation radius M whose certified tail bound is < tol.

    ``z_domain_bound`` bounds |Re z_j| for every component of the
    arguments the caller will evaluate at.
    """
    for M in range(1, MAX_RADIUS + 1):
        if tail_bound(B, M, z_domain_bound) < tol:
            return M
    raise NumericError(
        "radius-overflow",
        f"no truncation radius <= {MAX_RADIUS} meets tolerance {tol:.3e}; "
        "the period matrix is too flat for the leading-order regime",
    )


def _full_box(g: int, M: int) -> np.ndarray:
    axes = np.arange(-M, M + 1)
    grids = np.meshgrid(*([axes] * g), indexing="ij")
    return np.stack([gr.ravel() for gr in grids], axis=-1)


def _ellipsoid_box(
    B: np.ndarray, M: int, centre: np.ndarray, slack: np.ndarray, budget: float
) -> tuple[np.ndarray, float]:
    """Box points |n_j| <= M whose terms matter for |Re z_j - centre_j| <=
    slack_j, and the certified sum of the |terms| left out.

    With P = -Re B = R^T R (R upper triangular), n* = P^-1 centre and C =
    centre.n*/2, a term's modulus is at most exp(C - |R(n - n*)|^2 / 2 +
    sum_j |n_j| slack_j).  Coordinates are fixed from the last down to the
    first; fixing n_i..n_{g-1} fixes rows i..g-1 of R(n - n*), and summing
    each open coordinate r < i over Z bounds the subtree of a prefix by its
    fixed part times prod_{r<i} (1 + sqrt(2 pi) / R_rr) e^{M slack_r}.  At
    each level the smallest subtree bounds are dropped while their running
    sum stays within budget e^C / g.  The budget is relative to e^C, the
    largest term modulus at zero slack, so the kept set does not grow as
    the terms do past the wave's peak."""
    g = B.shape[0]
    P = -np.real(B)
    R = np.linalg.cholesky(P).T
    n_star = np.linalg.solve(P, centre)
    C = 0.5 * float(centre @ n_star)
    open_log = np.log1p(math.sqrt(2.0 * math.pi) / np.diag(R)) + M * slack
    open_below = np.concatenate([[0.0], np.cumsum(open_log)])
    cand = np.arange(-M, M + 1)
    N = np.zeros((1, 0), dtype=np.int64)  # kept prefixes, columns n_i..n_{g-1}
    fixed = np.full(1, C)  # C - |fixed rows|^2 / 2 + sum_j |n_j| slack_j
    part = np.zeros((1, g))  # R(n - n*) over the fixed coordinates, open rows
    limit = budget * np.exp(C) / g
    dropped = 0.0
    for i in range(g - 1, -1, -1):
        step = cand - n_star[i]
        row = part[:, i, None] + R[i, i] * step
        ext = (fixed[:, None] - 0.5 * row * row + slack[i] * np.abs(cand)).ravel()
        order = np.argsort(ext, kind="stable")
        running = np.cumsum(np.exp(ext[order] + open_below[i]))
        n_drop = int(np.searchsorted(running, limit, side="right"))
        if n_drop:
            dropped += float(running[n_drop - 1])
        keep = np.sort(order[n_drop:])
        parent, idx = np.divmod(keep, len(cand))
        N = np.column_stack([cand[idx], N[parent]])
        fixed = ext[keep]
        part = part[parent, :i] + np.outer(step[idx], R[:i, i])
    if len(N) > MAX_TERMS:
        raise NumericError(
            "radius-overflow",
            f"{len(N)} lattice points survive pruning; the period matrix is "
            "too flat for the leading-order regime",
        )
    return N, dropped


def _term_set(params: ThetaParams, re_z: np.ndarray):
    """Kept lattice points, their n.B.n/2 and the certified bound on the
    omitted terms (exterior tail plus pruned in-box terms) for arguments
    whose real parts are the rows of ``re_z``: the set is built for their
    midpoint, with their half-range as slack."""
    re_z = np.asarray(re_z, dtype=float).reshape(-1, params.g)
    lo, hi = re_z.min(axis=0), re_z.max(axis=0)
    centre, slack = 0.5 * (lo + hi), 0.5 * (hi - lo)
    B, M = params.B, params.truncation_radius
    if (2 * M + 1) ** params.g <= SMALL_BOX:
        N = _full_box(params.g, M)
        dropped = 0.0
    else:
        N, dropped = _ellipsoid_box(B, M, centre, slack, params.tail_tolerance * 1e-6)
    quad = 0.5 * ((N @ B) * N).sum(1)
    return N, quad, tail_bound(B, M, np.abs(centre) + slack) + dropped


def _certify(params: ThetaParams, omitted: float, vals: np.ndarray) -> None:
    """Raise truncation-insufficient unless the omitted-term bound stays
    below tail_tolerance * min |theta|; a NaN or infinite bound or value
    fails the check.  The error's index is the flat index of the smallest
    |theta| (a NaN counts as smallest)."""
    mags = np.abs(vals).ravel()
    i = int(np.argmin(mags)) if mags.size else None
    floor = float(mags[i]) if mags.size else 0.0
    if not (omitted <= params.tail_tolerance * floor):
        raise NumericError(
            "truncation-insufficient",
            f"certified truncation error {omitted:.3e} exceeds "
            f"{params.tail_tolerance:.1e} * min|theta| = {floor:.3e} at radius "
            f"{params.truncation_radius}",
            index=i,
        )


def theta(z, params: ThetaParams) -> complex | np.ndarray:
    """Truncated theta sum at one point (shape (g,)) or a batch (..., g).

    One term set serves the whole batch, built for the midpoint of its Re z
    with the half-range as slack, so arguments that differ by an imaginary
    shift share it.  Terms are accumulated in a fixed lattice order with
    pairwise summation, so identical inputs give bit-identical results.
    Raises truncation-insufficient when the certified truncation error
    (exterior tail plus any pruned in-box terms) exceeds tail_tolerance *
    |sum| for some point of the batch.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 1
    if z.shape[-1] != params.g:
        raise NumericError(
            "not-negative-definite",
            f"argument has {z.shape[-1]} components, expected genus {params.g}",
        )
    zb = z.reshape(-1, params.g)
    N, quad, omitted = _term_set(params, zb.real)
    vals = np.empty(zb.shape[0], dtype=complex)
    chunk = max(1, int(20_000_000 // max(len(N), 1)))
    NT = N.T.astype(complex)
    for lo in range(0, zb.shape[0], chunk):
        args = zb[lo : lo + chunk] @ NT + quad
        vals[lo : lo + chunk] = np.exp(args).sum(axis=1)
    _certify(params, omitted, vals)
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
    rows of Re c: one term set and one binning serve every offset.
    """
    offsets = np.asarray(offsets, dtype=complex)
    N, quad, omitted = _term_set(params, offsets.real)
    m = N @ np.asarray(harmonics, dtype=np.int64)
    bins = (m[:, 1] % ny) * nx + m[:, 0] % nx
    coef = np.empty((len(offsets), nx * ny), dtype=complex)
    for k, c in enumerate(offsets):
        terms = np.exp(quad + N @ c)
        coef[k] = np.bincount(bins, terms.real, nx * ny) + 1j * np.bincount(
            bins, terms.imag, nx * ny
        )
    vals = (nx * ny) * np.fft.ifft2(coef.reshape(-1, ny, nx))
    _certify(params, omitted, vals)
    return vals


def quasi_periodicity_residual(z, k: int, params: ThetaParams) -> float:
    """Relative defect of theta(z + B e_k) = exp(-b_kk/2 - z_k) theta(z)."""
    z = np.asarray(z, dtype=complex)
    t0 = theta(z, params)
    if abs(t0) < ZERO_FLOOR:
        raise NumericError(
            "division-by-zero-theta", "theta(z) vanishes; residual undefined"
        )
    shifted = theta(z + params.B[:, k], params)
    factor = np.exp(-0.5 * params.B[k, k] - z[k])
    return float(abs(shifted - factor * t0) / abs(t0))
