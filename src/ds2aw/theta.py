"""Genus-g Riemann theta function as a truncated Fourier lattice sum.

theta(z | B) = sum over n in Z^g of exp( (1/2) n.B.n + n.z )

with B symmetric and Re(B) negative definite.  The normalization matches
a-periods equal to 2 pi i delta_jk, so theta is exactly 2 pi i periodic in
every component; this is the only convention supported here.

Truncation is rectangular, |n_j| <= M, with a certified Gaussian tail
bound.  The quadratic form is relaxed with the smallest eigenvalue of
-Re(B) (the ellipsoid bound of Deconinck et al., "Computing Riemann theta
functions", Math. Comp. 73, 2004),

    n . Re(B) . n <= -lambda_min |n|^2,

which makes both the tail estimate and the in-box term pruning
one-dimensional products.  In the leading-order finite-gap regime Re b_jj
~ 2 log(eps) is very negative, so the certified radius is small and, for
larger genus, only lattice points with a few active components survive
the pruning.  Pruning runs one coordinate at a time as array filters:
every kept prefix is extended by every candidate n_j, and the extensions
whose certified bound (with the best case for the remaining coordinates)
is below the drop level are filtered out, which keeps lexicographic
order.  Each term set is built once per (B, M, |Re z| bound) together
with its certificate: the exterior tail plus the pruned in-box terms.

theta_grid evaluates theta(w + c) on a whole torus grid when the spatial
part w is i(k_x x + k_y y) with lattice wave vectors: one folded inverse
FFT of the term values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

    g: int
    B: np.ndarray
    truncation_radius: int
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=complex)
        if self.g < 1 or self.B.shape != (self.g, self.g):
            raise NumericError(
                "not-negative-definite",
                f"period matrix shape {self.B.shape} does not match genus {self.g}",
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


def _pruned_box(
    B: np.ndarray, g: int, M: int, r: np.ndarray, log_drop: float
) -> np.ndarray:
    """Lexicographic enumeration of the box points whose certified term
    bound exceeds log_drop.

    Prefixes are filtered coordinate by coordinate with the separable
    lambda_min certificate -lambda n_j^2 / 2 + |n_j| r_j, then the
    survivors pass the exact filter Re(n.B.n)/2 + sum_j |n_j| r_j, which
    the certificate bounds from above, so the kept set is exactly the box
    points that cannot be discarded."""
    cand = np.arange(-M, M + 1)
    lam = min_decay(B)
    L = [-0.5 * lam * cand**2 + r[j] * np.abs(cand) for j in range(g)]
    max_future = np.zeros(g + 1)
    for j in range(g - 1, -1, -1):
        max_future[j] = max_future[j + 1] + float(L[j].max())
    # kept prefixes (lexicographic) and their partial bounds
    N = np.zeros((1, 0), dtype=np.int64)
    w = np.zeros(1)
    for j in range(g):
        ext = (w[:, None] + L[j]).ravel()
        keep = np.flatnonzero(ext + max_future[j + 1] >= log_drop)
        parent, idx = np.divmod(keep, len(cand))
        N = np.column_stack([N[parent], cand[idx]])
        w = ext[keep]
    exact = 0.5 * np.einsum("ni,ij,nj->n", N, np.real(B), N) + np.abs(N) @ r
    N = N[exact >= log_drop]
    if len(N) == 0:
        return np.zeros((1, g), dtype=np.int64)
    if len(N) > MAX_TERMS:
        raise NumericError(
            "radius-overflow",
            f"{len(N)} lattice points survive pruning; the period matrix is "
            "too flat for the leading-order regime",
        )
    return N


@lru_cache(maxsize=16)
def _terms_cached(b_bytes: bytes, g: int, M: int, r_key: tuple, tol: float):
    """Kept lattice points, their n.B.n/2 and the certified bound on the
    omitted terms (exterior tail plus pruned in-box terms) for |Re z_j| <=
    r_key[j]."""
    B = np.frombuffer(b_bytes, dtype=complex).reshape(g, g)
    r = np.array(r_key, dtype=float)
    box = (2 * M + 1) ** g
    log_drop = math.log(max(tol, 1e-250) * 1e-6 / float(2 * M + 1) ** g)
    if box <= SMALL_BOX:
        N = _full_box(g, M)
        dropped = 0.0
    else:
        N = _pruned_box(B, g, M, r, log_drop)
        dropped = (float(box) - len(N)) * math.exp(log_drop)
    quad = 0.5 * np.einsum("ni,ij,nj->n", N, B, N)
    return N, quad, tail_bound(B, M, r) + dropped


def _term_set(params: ThetaParams, r: np.ndarray):
    """_terms_cached for |Re z| <= r, rounded up to 1/4 so calls share terms."""
    r = np.ceil(r * 4.0) / 4.0
    key = (params.B.tobytes(), params.g, params.truncation_radius, tuple(r.tolist()))
    return _terms_cached(*key, params.tail_tolerance)


def _certify(params: ThetaParams, omitted: float, vals: np.ndarray) -> None:
    """Raise truncation-insufficient unless the omitted-term bound stays
    below tail_tolerance * min |theta|; a NaN or infinite bound or value
    fails the check."""
    floor = float(np.min(np.abs(vals))) if vals.size else 0.0
    if not (omitted <= params.tail_tolerance * floor):
        raise NumericError(
            "truncation-insufficient",
            f"certified truncation error {omitted:.3e} exceeds "
            f"{params.tail_tolerance:.1e} * min|theta| = {floor:.3e} at radius "
            f"{params.truncation_radius}",
        )


def theta(z, params: ThetaParams) -> complex | np.ndarray:
    """Truncated theta sum at one point (shape (g,)) or a batch (..., g).

    Terms are accumulated in lexicographic lattice order with pairwise
    summation, so identical inputs give bit-identical results.  Raises
    truncation-insufficient when the certified truncation error (exterior
    tail plus any pruned in-box terms) exceeds tail_tolerance * |sum| for
    some point of the batch.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 1
    if z.shape[-1] != params.g:
        raise NumericError(
            "not-negative-definite",
            f"argument has {z.shape[-1]} components, expected genus {params.g}",
        )
    zb = z.reshape(-1, params.g)
    N, quad, omitted = _term_set(params, np.max(np.abs(np.real(zb)), axis=0))
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


def theta_grid(c, harmonics, nx: int, ny: int, params: ThetaParams) -> np.ndarray:
    """theta(w + c) at grid points (ix, iy), shape (ny, nx), where
    w_j = 2 pi i (n_x ix / nx + n_y iy / ny) for row j of ``harmonics``.

    Term n is the harmonic m = sum_j n_j (n_x, n_y)_j times exp(n.B.n/2 +
    n.c), so the sum is nx ny ifft2 of the terms binned at m mod (nx, ny),
    exact on the grid.  Re w = 0, so |Re c| bounds every argument.
    """
    c = np.asarray(c, dtype=complex)
    N, quad, omitted = _term_set(params, np.abs(np.real(c)))
    m = N @ np.asarray(harmonics, dtype=np.int64)
    bins = (m[:, 1] % ny) * nx + m[:, 0] % nx
    terms = np.exp(quad + N @ c)
    coef = np.bincount(bins, terms.real, nx * ny) + 1j * np.bincount(
        bins, terms.imag, nx * ny
    )
    vals = (nx * ny) * np.fft.ifft2(coef.reshape(ny, nx))
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
