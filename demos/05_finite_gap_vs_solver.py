"""Closed form against direct integration, through the wave's whole life.

The finite-gap formula is a leading-order solution of the Cauchy problem,
yet it tracks the split-step integration of the full DS2 system through
exponential growth, the order-one peak, and the decay that follows, with
a relative sup error that stays at the eps scale.  Both paths take the
same list of times and return one Field per time.
"""

import math

import numpy as np

from ds2aw import (
    build_spectral_data,
    evaluate_grid,
    evolve,
    first_appearance_estimate,
    make_cauchy_field,
)
from ds2aw.fieldgen import default_theta_params

L_x, L_y = 2 * math.pi / 1.2, 2 * math.pi / 2.1
nx = ny = 64
eps = 1e-2
ix = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")[0]
v0 = np.cos(2 * np.pi * ix / nx)

sd = build_spectral_data(L_x, L_y, eps, v0)
t1 = first_appearance_estimate(sd)
times = list(np.arange(0.0, 1.5 * t1, 0.25))

print("sampling the finite-gap formula ...")
params = default_theta_params(sd, times)
fg = evaluate_grid(times, nx, ny, sd, params)

print("integrating the DS2 system (split-step, dt = 1e-3) ...")
u0 = make_cauchy_field(L_x, L_y, 1.0, eps, v0)
ref = evolve(u0, times, 1e-3)

print(f"\n{'t':>6} {'max|u| fg':>10} {'max|u| ref':>11} {'rel Linf':>10}")
for f, r in zip(fg, ref):
    rel = np.abs(f.u - r.u).max() / np.abs(r.u).max()
    print(f"{f.t:6.2f} {np.abs(f.u).max():10.4f} {np.abs(r.u).max():11.4f} {rel:10.2e}")

print(
    "\nthe leading-order error stays O(eps) through the peak; "
    "the split-step run conserves the L2 norm to rounding"
)
norm0 = np.linalg.norm(u0.u)
norm1 = np.linalg.norm(ref[-1].u)
print(f"L2 drift over the run: {abs(norm1 - norm0) / norm0:.2e}")
