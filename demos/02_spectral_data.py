"""From a Cauchy datum to the spectral data of the opened curve.

Each unstable mode contributes a resonant pair on the unit circle and its
negative; a perturbation of size eps opens every double point into a
handle.  The genus is therefore twice the number of unstable modes, the
period-matrix diagonal sits at 2 log(eps) + O(1), and the off-diagonal
entries are logarithms of real cross ratios.
"""

import math

import numpy as np

from ds2aw import build_spectral_data, regime

L_x, L_y = 2 * math.pi / 1.2, 2 * math.pi / 2.1
nx = ny = 32
ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
v0 = np.cos(2 * np.pi * ix / nx)  # cos(1.2 x) on the grid
eps = 1e-2

sd = build_spectral_data(L_x, L_y, eps, v0)
print(f"genus g = {sd.g}  (one unstable mode, two handles)")
for p in sd.pairs:
    print(
        f"pair {p.j}: mode ({p.mode.n_x},{p.mode.n_y})  "
        f"tau = {p.tau_1:.4f}, {p.tau_2:.4f}  alpha = {p.alpha:.4f}  "
        f"beta = {p.beta:.4f}"
    )

print("\nperiod matrix B:")
print(np.array2string(sd.B, precision=4, suppress_small=True))
print("\nfrequency vectors:")
print("  W_z    =", np.round(sd.W_z, 6))
print("  W_zbar =", np.round(sd.W_zbar, 6))
print("  W_t    =", np.round(sd.W_t, 6), " (|W_t| is the growth rate 1.92)")
print("\ntheta-argument offset d =", np.round(sd.d, 6))

# the formula is leading order: Re B is negative definite, and the data are
# a period matrix, only for eps < eps_max; lambda_min(P) = -lambda_max(Re B)
eps_max, lambda_min_P = regime(sd)
print(f"eps_max = {eps_max:.6g}  (eps/eps_max = {eps / eps_max:.3g})")
print(f"lambda_min(P) = {lambda_min_P:.4f}")

# the eps-dependence of the data is pure logarithm on the diagonal of B;
# halving eps shifts b_jj by -2 log 2 and leaves everything else fixed
sd_half = build_spectral_data(L_x, L_y, eps / 2, v0)
print("\nb_11(eps/2) - b_11(eps) =", sd_half.B[0, 0] - sd.B[0, 0])
print("expected -2 log 2       =", -2 * math.log(2.0))
print("max |d(eps/2) - d(eps)| =", np.abs(sd_half.d - sd.d).max())

# the genus-8 configuration: four unstable classes, eight handles
L_x8, L_y8 = 2 * math.pi / 1.2, 2 * math.pi / 1.4
v0_8 = np.zeros((ny, nx), dtype=complex)
for (n_x, n_y), c in {
    (1, 0): 0.35, (-1, 0): 0.35, (0, 1): 0.25, (0, -1): 0.25,
    (1, 1): 0.15 + 0.1j, (-1, -1): 0.15 - 0.1j, (1, -1): 0.12, (-1, 1): 0.08,
}.items():
    v0_8 += c * np.exp(2j * np.pi * (n_x * ix + n_y * iy) / nx)
sd8 = build_spectral_data(L_x8, L_y8, eps, v0_8)
print(f"\nfour-mode torus: g = {sd8.g}")
print("pair -> mode:", [(p.j, (p.mode.n_x, p.mode.n_y)) for p in sd8.pairs])
print("Re diag(B) =", np.round(np.real(np.diag(sd8.B)), 3))
im_off = np.imag(sd8.B[~np.eye(sd8.g, dtype=bool)])
print("Im(b_jk) values:", sorted({float(v) for v in np.round(im_off, 12)}), " (0 or pi)")
