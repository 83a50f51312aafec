"""Evaluating the Riemann theta series with a certified truncation.

The series theta(z|B) = sum_n exp(n.B.n/2 + n.z) converges brutally fast
when Re(B) has a very negative diagonal, which is exactly the finite-gap
regime (diagonal ~ 2 log eps).  The truncation radius is chosen so a
Gaussian tail bound certifies the requested tolerance.
"""

import numpy as np

from ds2aw import ThetaParams, adaptive_radius, quasi_periodicity_residual
from ds2aw.theta import theta

# genus 1 reference value: B = [-2], z = 0
p1 = ThetaParams(B=np.array([[-2.0 + 0j]]), truncation_radius=6)
print("theta(0 | -2) =", theta(np.zeros(1, dtype=complex), p1))
print("series by hand:", 1 + 2 * sum(np.exp(-(n * n)) for n in range(1, 8)))

# the adaptive radius shrinks as the diagonal deepens (smaller eps)
print("\nadaptive radius vs diagonal depth (tol 1e-12, |Re z| <= 2):")
for diag in (-4.0, -8.0, -12.0, -16.0):
    B = np.array([[diag, 0.4], [0.4, diag]], dtype=complex)
    M = adaptive_radius(B, 2.0, 1e-12)
    print(f"  Re b_jj = {diag:6.1f}  ->  M = {M}")

# quasi-periodicity theta(z + B e_k) = exp(-b_kk/2 - z_k) theta(z) is the
# built-in self-test of the 2 pi i normalization convention
rng = np.random.default_rng(1)
B = np.diag([-12.0, -13.5]) + 0j
B[0, 1] = B[1, 0] = 0.3
M = adaptive_radius(B, 6.0 + 14.0, 1e-13)
params = ThetaParams(B=B, truncation_radius=M, tail_tolerance=1e-6)
print(f"\nquasi-periodicity residuals at M = {M}:")
for trial in range(4):
    z = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
    res = [quasi_periodicity_residual(z, k, params) for k in (0, 1)]
    print(f"  z = {np.round(z, 3)}  residuals = {res[0]:.2e}, {res[1]:.2e}")

# exact 2 pi i periodicity in every component
z = np.array([0.4 + 0.2j, -0.1 + 1.0j])
shift = np.array([2j * np.pi, 0.0])
print("\n|theta(z + 2 pi i e_1) - theta(z)| =",
      abs(theta(z + shift, params) - theta(z, params)))
