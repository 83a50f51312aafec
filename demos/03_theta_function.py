"""Evaluating the Riemann theta series with a certified truncation.

The series theta(z|B) = sum_n exp(n.B.n/2 + n.z) converges brutally fast
when Re(B) has a very negative diagonal, which is exactly the finite-gap
regime (diagonal ~ 2 log eps).  Every argument is first moved into the
fundamental cell of the lattice B Z^g by quasi-periodicity; there the
terms are enumerated by their modulus, and the certificate bounds the sum
of every term left out.  A plain direct lattice sum written here checks
theta far outside the cell.
"""

import numpy as np

from ds2aw import ThetaParams
from ds2aw.theta import _term_set, theta


def direct_sum(z, B, R=8):
    """theta(z | B) summed plainly over the box |n_j| <= R around n = 0:
    no reduction into the cell, no pruning, no certificate."""
    n = np.arange(-R, R + 1)
    N = np.stack(np.meshgrid(*([n] * len(z)), indexing="ij"), -1).reshape(-1, len(z))
    return np.exp(0.5 * ((N @ B) * N).sum(1) + N @ z).sum()


# genus 1 reference value: B = [-2], z = 0
p1 = ThetaParams(B=np.array([[-2.0 + 0j]]))
print("theta(0 | -2) =", theta(np.zeros(1, dtype=complex), p1))
print("series by hand:", 1 + 2 * sum(np.exp(-(n * n)) for n in range(1, 8)))

# the kept set shrinks as the diagonal deepens (smaller eps).  _term_set is
# the internal step theta() runs once per reduced real part: the kept
# lattice points and the certified bound on the terms left out, here at the
# cell's centre and at its corner delta = (1/2, 1/2), relative to e^C there
print("\nkept terms and certified bound vs diagonal depth (tail tolerance 1e-12):")
for diag in (-4.0, -8.0, -12.0, -16.0):
    B = np.array([[diag, 0.4], [0.4, diag]], dtype=complex)
    params = ThetaParams(B, tail_tolerance=1e-12)
    row = f"  Re b_jj = {diag:6.1f}"
    for where, delta in (("centre", np.zeros(2)), ("corner", np.full(2, 0.5))):
        re = -B.real @ delta
        N, _, omitted = _term_set(params, re)
        rel = omitted / np.exp(0.5 * re @ delta)
        row += f"  {where}: {len(N):2d} terms, bound {rel:.1e}"
    print(row)

# far outside the cell |Re z_j| <~ 7, on both sides, theta() reduces each
# argument by quasi-periodicity; an independent direct sum over a box wide
# enough to hold the largest terms (they sit near n = P^-1 Re z, |n_j| <= 3
# here) checks it.  The values reach 1e22, so the difference is relative
rng = np.random.default_rng(1)
B = np.diag([-12.0, -13.5]) + 0j
B[0, 1] = B[1, 0] = 0.3
params = ThetaParams(B=B, tail_tolerance=1e-6)
print("\ntheta() at tail tolerance 1e-6 against a direct sum over |n_j| <= 8:")
for trial in range(4):
    z = rng.uniform(-40, 40, 2) + 1j * rng.uniform(-3, 3, 2)
    got, want = theta(z, params), direct_sum(z, B)
    print(f"  z = {np.round(z, 3)}  |theta| = {abs(got):.3e}  "
          f"relative difference = {abs(got - want) / abs(want):.2e}")

# exact 2 pi i periodicity in every component
z = np.array([0.4 + 0.2j, -0.1 + 1.0j])
shift = np.array([2j * np.pi, 0.0])
print("\n|theta(z + 2 pi i e_1) - theta(z)| =",
      abs(theta(z + shift, params) - theta(z, params)))
