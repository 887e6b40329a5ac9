"""Vertical layer partition and the per-column geometry it induces.

The water column of depth H(x) above the bed z_b(x) is sliced into N
layers of prescribed relative thickness l_a (independent of x and t):

    h_a = l_a H,   interface heights  z_if[k] = z_b + sum_{j<k} h_j,
    midpoints      z_mid[a] = (z_if[a] + z_if[a+1]) / 2.

Index conventions used across the package: layers a = 0..N-1 from the
bed upward, interfaces k = 0..N with k=0 the bed and k=N the free
surface.  `h_half[k]` is the vertical gap between the midpoints of the
layers adjacent to interface k; at the bed and surface it degenerates
to half the single adjacent layer thickness.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gridops import check_boundary, cumsum_layers, ddx

PARTITION_TOL = 1e-14


@dataclass(frozen=True)
class LayerPartition:
    """Relative layer thicknesses l_a > 0 with sum(l) == 1."""

    fractions: np.ndarray

    def __post_init__(self):
        frac = np.asarray(self.fractions, dtype=float)
        object.__setattr__(self, "fractions", frac)
        if frac.ndim != 1 or frac.size == 0:
            raise ValueError("layer fractions must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(frac)) or np.any(frac <= 0.0):
            raise ValueError("layer fractions must be finite and strictly positive")
        if abs(frac.sum() - 1.0) > PARTITION_TOL:
            raise ValueError(
                f"layer fractions sum to {frac.sum():.17g}, expected 1 within {PARTITION_TOL}"
            )

    @classmethod
    def uniform(cls, n_layers: int) -> "LayerPartition":
        if n_layers < 1:
            raise ValueError("need at least one layer")
        return cls(np.full(n_layers, 1.0 / n_layers))

    @property
    def n_layers(self) -> int:
        return self.fractions.size

    @property
    def cumulative(self) -> np.ndarray:
        """Partial sums sum_{j<=a} l_j, shape (N,)."""
        return np.cumsum(self.fractions)


@dataclass(frozen=True)
class Bathymetry:
    """Bed elevation with the cube of the cosine of its centered slope,
    which the friction law divides by.

    The bed holds the run's cell width `dx` and boundary kind `bc`, which
    kernels given a bed or a geometry built on it read.  It holds its cells
    only: `euler_rhs` pads it with `bc`'s ghost cells at each evaluation,
    which for a window's bed `cells(a, b)` is exact when the window's end
    cells are a dry bed at rest, as `wet_window` leaves them.
    """

    zb: np.ndarray
    cos3: np.ndarray
    dx: float
    bc: str

    def cells(self, a: int, b: int) -> "Bathymetry":
        """The bed of the cells [a, b), itself when they are the domain."""
        if a == 0 and b == self.zb.size:
            return self
        return Bathymetry(zb=self.zb[a:b], cos3=self.cos3[a:b], dx=self.dx, bc=self.bc)


def make_bathymetry(zb: np.ndarray, dx: float, bc: str) -> Bathymetry:
    zb = np.asarray(zb, dtype=float)
    check_boundary(bc)
    if not np.all(np.isfinite(zb)):
        raise ValueError("bed elevation must be finite")
    cos = 1.0 / np.sqrt(1.0 + ddx(zb, dx, bc) ** 2)  # of the bed's slope
    return Bathymetry(zb=zb, cos3=cos * cos * cos, dx=dx, bc=bc)


@dataclass(frozen=True)
class InterfaceGeometry:
    """All per-column geometric fields for one (H, z_b, partition) triple.

    Shapes: layer fields (N, n), interface fields (N+1, n).  The midpoint
    gaps and the slopes (with the bed's `dx` and `bc`) are computed on first
    access: only the stresses read them.  The friction reads the bed's cos^3.
    """

    h: np.ndarray          # layer thicknesses
    z_if: np.ndarray       # interface heights, z_if[0] = z_b, z_if[N] = z_b + H
    z_mid: np.ndarray      # layer midpoints
    cos3_b: np.ndarray     # cube of the bed slope cosine (n,), the bed's `cos3`
    dx: float
    bc: str

    @cached_property
    def h_half(self) -> np.ndarray:
        """Midpoint gaps across each interface."""
        h, out = self.h, np.empty(self.z_if.shape)
        out[0], out[-1] = 0.5 * h[0], 0.5 * h[-1]
        np.add(h[:-1], h[1:], out=out[1:-1])  # no rows when N = 1
        out[1:-1] *= 0.5
        return out

    @cached_property
    def dz_if_dx(self) -> np.ndarray:
        """Interface slopes."""
        return ddx(self.z_if, self.dx, self.bc)

    @cached_property
    def dz_mid_dx(self) -> np.ndarray:
        """Midpoint slopes."""
        return ddx(self.z_mid, self.dx, self.bc)


def layer_thicknesses(H: np.ndarray, part: LayerPartition) -> np.ndarray:
    """h_a = l_a H with the top layer closed as H - sum of the others.

    The correction keeps sum_a h_a == H bit-for-bit (sequential order),
    so cumulative interface heights land exactly on z_b + H.
    """
    H = np.asarray(H, dtype=float)
    h = part.fractions[:, None] * H
    if part.n_layers > 1:
        # running sum of rows: the same additions in the same order as a
        # cumsum along axis 0, without striding across the rows
        below = h[0].copy()
        for a in range(1, part.n_layers - 1):
            below += h[a]
        h[-1] = H - below
    else:
        h[0] = H
    return h


def build_geometry(H: np.ndarray, bathy: Bathymetry, part: LayerPartition) -> InterfaceGeometry:
    """Assemble the layer geometry for a depth field H >= 0."""
    H = np.asarray(H, dtype=float)
    if not np.isfinite(H).all():
        raise ValueError("depth field must be finite")
    if (H < 0.0).any():
        ix = int(np.argmin(H))
        raise ValueError(f"negative depth H={H[ix]:.6g} at cell {ix}")
    if H.shape != bathy.zb.shape:
        raise ValueError("depth and bathymetry shapes differ")

    n = H.size
    N = part.n_layers
    h = layer_thicknesses(H, part)

    z_if = np.empty((N + 1, n))
    z_if[0] = bathy.zb
    cumsum_layers(h, out=z_if[1:])
    z_if[1:] += bathy.zb
    z_mid = z_if[:-1] + z_if[1:]
    z_mid *= 0.5
    return InterfaceGeometry(h=h, z_if=z_if, z_mid=z_mid, cos3_b=bathy.cos3,
                             dx=bathy.dx, bc=bathy.bc)
