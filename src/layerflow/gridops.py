"""Boundary kinds and the shared finite-difference primitives.

Every derivative taken anywhere in the solver goes through `ddx`, and
every transposed one through `ddx_adjoint`, so that discrete identities
(telescoping sums, product-rule groupings, summation by parts) hold
between modules.
"""
from __future__ import annotations

import numpy as np

PERIODIC = "periodic"
WALL = "wall"
TRANSMISSIVE = "transmissive"

BOUNDARY_KINDS = (PERIODIC, WALL, TRANSMISSIVE)


def check_boundary(bc: str) -> str:
    if bc not in BOUNDARY_KINDS:
        raise ValueError(f"unknown boundary kind {bc!r}, expected one of {BOUNDARY_KINDS}")
    return bc


def ddx(f: np.ndarray, dx: float, bc: str) -> np.ndarray:
    """Centered first derivative along the last axis.

    Periodic domains wrap; otherwise the two boundary cells fall back to
    one-sided first-order differences.
    """
    if bc == PERIODIC:  # one difference of a copy wrapped by a cell each side
        f = np.concatenate((f[..., -1:], f, f[..., :1]), -1)
        out = np.subtract(f[..., 2:], f[..., :-2], dtype=float)
        out /= 2.0 * dx
        return out
    check_boundary(bc)
    out = np.empty_like(f, dtype=float)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dx)
    out[..., 0] = (f[..., 1] - f[..., 0]) / dx
    out[..., -1] = (f[..., -1] - f[..., -2]) / dx
    return out


def ddx_adjoint(g: np.ndarray, dx: float, bc: str) -> np.ndarray:
    """The transpose of `ddx`'s matrix along the last axis, so that
    sum(f * ddx(g)) == sum(ddx_adjoint(f) * g): -ddx on periodic domains,
    else with the transposed one-sided end rows, which at three cells
    both reach the middle cell."""
    if bc == PERIODIC:
        out = ddx(g, dx, bc)
        return np.negative(out, out=out)
    check_boundary(bc)
    out = np.zeros_like(g, dtype=float)
    out[..., 2:] += g[..., 1:-1]
    out[..., :-2] -= g[..., 1:-1]
    out /= 2.0 * dx
    lo, hi = g[..., 0] / dx, g[..., -1] / dx
    out[..., 0] -= lo
    out[..., 1] += lo
    out[..., -2] -= hi
    out[..., -1] += hi
    return out


def cumsum_layers(f: np.ndarray, from_top: bool = False,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Running sums over the first (layer) axis, one row at a time.

    Row k holds f[0] + ... + f[k], or f[k] + ... + f[N-1] with
    `from_top`: the additions np.cumsum(f, axis=0) (of the reversed rows)
    makes, in its order, without striding down the columns.  `out` may
    be f itself.
    """
    if out is None:
        out = np.empty_like(f, dtype=float)
    src, dst = (f[::-1], out[::-1]) if from_top else (f, out)
    dst[0] = src[0]
    for k in range(1, src.shape[0]):
        np.add(dst[k - 1], src[k], out=dst[k])
    return out


def pad_cells(f: np.ndarray, bc: str, sign: float = 1.0) -> np.ndarray:
    """Extend the last axis by one ghost cell on each side.

    `sign` applies to the ghost values for wall mirroring (use -1 for
    velocities, +1 for thicknesses and bathymetry).
    """
    if bc == PERIODIC:
        return np.concatenate([f[..., -1:], f, f[..., :1]], axis=-1)
    check_boundary(bc)
    lo = f[..., :1]
    hi = f[..., -1:]
    if bc == WALL and sign != 1.0:
        lo = sign * lo
        hi = sign * hi
    return np.concatenate([lo, f, hi], axis=-1)


def widen(f: np.ndarray, a: int, n: int, fill=0.0) -> np.ndarray:
    """f if it has n columns, else an (..., n) array with f in the columns
    from `a` on and the number `fill` in the others."""
    if f.shape[-1] == n:
        return f
    out = np.empty(f.shape[:-1] + (n,))
    out[...] = fill
    out[..., a:a + f.shape[-1]] = f
    return out
