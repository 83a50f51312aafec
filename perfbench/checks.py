"""Output checks.  Each returns a list of failure messages, empty on pass.

Every check compares the program's output with something computed apart
from it (see reference.py) or with an invariant of the equations, never
with a stored copy of earlier output.
"""

from __future__ import annotations

import numpy as np


def finite(snaps, label: str) -> list[str]:
    return [
        f"{label} t={s.t:.6g}: non-finite sample"
        for s in snaps
        if not np.all(np.isfinite(s.u.view(float)))
    ]


def times_match(snaps, times, label: str) -> list[str]:
    got = [s.t for s in snaps]
    if len(got) != len(times) or any(abs(g - t) > 1e-12 for g, t in zip(got, times)):
        return [f"{label}: snapshot times {got} differ from requested {list(times)}"]
    return []


def near_datum(snap, datum: np.ndarray, tol: float, label: str) -> list[str]:
    """The t = 0 snapshot equals the Cauchy datum a + eps v0 to ``tol``."""
    err = float(np.abs(snap.u - datum).max())
    if not err <= tol:
        return [f"{label} t=0: |u - (a + eps v0)| = {err:.3e} > {tol:.3e}"]
    return []


def mass_kept(snaps, datum: np.ndarray, tol: float, label: str) -> list[str]:
    """mean |u|^2 stays within ``tol`` of its value for the datum."""
    m0 = float(np.mean(np.abs(datum) ** 2))
    out = []
    for s in snaps:
        drift = abs(float(np.mean(np.abs(s.u) ** 2)) - m0)
        if not drift <= tol:
            out.append(f"{label} t={s.t:.6g}: mean |u|^2 drifted {drift:.3e} > {tol:.3e}")
    return out


def peak_matches(snaps, expected: float, tol: float, label: str) -> list[str]:
    peak = max(float(np.abs(s.u).max()) for s in snaps)
    if not abs(peak - expected) <= tol:
        return [f"{label}: max |u| = {peak:.6f}, expected {expected:.6f} +- {tol:.1e}"]
    return []


def rel_linf(u: np.ndarray, ref: np.ndarray) -> float:
    """max |u - ref| / max |ref|; ref may be one row broadcast over y."""
    return float(np.abs(u - ref).max() / np.abs(ref).max())


def agrees(snaps, refs, tol: float, label: str) -> list[str]:
    """Relative L-infinity agreement with an independent solution."""
    out = []
    for s, r in zip(snaps, refs, strict=True):
        err = rel_linf(s.u, r)
        if not err <= tol:
            out.append(f"{label} t={s.t:.6g}: rel Linf vs reference {err:.3e} > {tol:.1e}")
    return out


def norm_kept(snaps, tol: float, label: str) -> list[str]:
    """The L2 norm of every snapshot equals the first one's to ``tol``."""
    n0 = float(np.linalg.norm(snaps[0].u))
    out = []
    for s in snaps:
        drift = abs(float(np.linalg.norm(s.u)) - n0) / n0
        if not drift <= tol:
            out.append(f"{label} t={s.t:.6g}: L2 drift {drift:.3e} > {tol:.1e}")
    return out


def identical(snaps_a, snaps_b, label: str) -> list[str]:
    """Two exports of the same run hold the same numbers, bit for bit."""
    return [
        f"{label} t={a.t:.6g}: CSV and bin samples differ"
        for a, b in zip(snaps_a, snaps_b, strict=True)
        if a.t != b.t or not np.array_equal(a.u, b.u)
    ]


def compare_report(doc: dict, snaps_a, snaps_b, limit: float) -> list[str]:
    """``compare`` output: its figures equal a recomputation from the files,
    and rel L-infinity stays within ``limit``."""
    out = []
    for i, (a, b) in enumerate(zip(snaps_a, snaps_b, strict=True)):
        try:
            t, reported = doc["times"][i], doc["rel_linf"][i]
        except (KeyError, IndexError, TypeError):
            return ["compare: report lacks times or rel_linf entries"]
        own = rel_linf(a.u, b.u)
        if abs(t - b.t) > 1e-12 or not abs(reported - own) <= 1e-9 * max(own, 1e-300):
            out.append(f"compare t={t}: reported rel_linf {reported!r}, recomputed {own!r}")
        if not reported <= limit:
            out.append(f"compare t={t}: rel_linf {reported:.3e} > {limit}")
    if len(doc.get("times", [])) != len(snaps_b):
        out.append("compare: report covers a different number of snapshots")
    return out
