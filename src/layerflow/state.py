"""Conserved state, hydrostatic pressures and interlayer mass exchange.

The prognostic variables are the total depth H (the layer split is
fixed, so per-layer mass is l_a H) and the layer discharges q_a = h_a
u_a.  Because the interfaces are not material surfaces, mass crosses
them at rate G[k]; eliminating the interface kinematics against the
depth equation gives, per cell,

    G[k] = sum_{j<k} d_j - (sum_{j<k} l_j) * sum_j d_j,

where d_j is the discrete divergence of the layer-j mass flux taken
from the same numerical fluxes as the depth update.  G vanishes
identically at the bed and at the free surface.
"""
from __future__ import annotations

import numpy as np

from .geometry import LayerPartition, layer_thicknesses
from .gridops import cumsum_layers

# Depth below which a column is treated as dry: velocities are zeroed
# and momentum is dropped.
H_DRY = 1e-8


class LayerState:
    """Depth H (n,) and layer discharges q (N, n)."""

    def __init__(self, H, q):
        self.H = np.asarray(H, dtype=float)
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        if self.q.shape[-1] != self.H.shape[-1]:
            raise ValueError("H and q disagree on the number of cells")

    def copy(self) -> "LayerState":
        return LayerState(self.H.copy(), self.q.copy())


def velocities(
    H: np.ndarray, q: np.ndarray, part: LayerPartition, h: np.ndarray | None = None,
) -> np.ndarray:
    """Layer velocities u_a = q_a / h_a, zeroed on dry columns.

    `h` is layer_thicknesses(H, part) when the caller already has it.
    """
    if q.shape[0] != part.n_layers:
        raise ValueError(f"{q.shape[0]} discharge rows for {part.n_layers} layers")
    if h is None:
        h = layer_thicknesses(H, part)
    if H.min() > H_DRY:  # every column wet (a nan depth takes the masked divide)
        return q / h
    return np.divide(q, h, out=np.zeros_like(q), where=H > H_DRY)


def hydrostatic_pressures(h: np.ndarray, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Pressures (divided by density) at layer midpoints and interfaces.

    p_if[k] = g * (weight of water above interface k), so p_if[N] = 0 at
    the free surface, and p_mid[a] = p_if[a+1] + g h_a / 2.  Returns
    (p_mid (N, n), p_if (N+1, n)).
    """
    N, n = h.shape
    p_if = np.zeros((N + 1, n))
    cumsum_layers(h, from_top=True, out=p_if[:-1])
    p_if[:-1] *= g
    p_mid = h * (0.5 * g)
    p_mid += p_if[1:]
    return p_mid, p_if


def exchange_fluxes(div: np.ndarray, part: LayerPartition) -> np.ndarray:
    """Interface mass-transfer rates G (N+1, n) from per-layer divergences.

    `div` holds the discrete d_j = dx-divergence of the layer-j mass
    flux, shape (N, n).  Bed and surface rows are exactly zero.
    """
    N, n = div.shape
    if N != part.n_layers:
        raise ValueError(f"{N} divergence rows for {part.n_layers} layers")
    G = np.zeros((N + 1, n))
    if N > 1:
        dcum = cumsum_layers(div)
        np.multiply(part.cumulative[:-1, None], dcum[-1], out=G[1:-1])
        np.subtract(dcum[:-1], G[1:-1], out=G[1:-1])
    return G


def interface_velocities(u: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Upwinded velocity advected through each interface, shape (N+1, n).

    G[k] > 0 feeds the layer below interface k, so the donor is the
    layer above and its velocity is carried through; G[k] <= 0 drains
    the lower layer and the lower velocity is carried.  Only this donor
    choice makes the exchange term energy-diffusive.
    """
    N, n = u.shape
    u_if = np.empty((N + 1, n))
    u_if[0] = u[0]
    u_if[-1] = u[-1]
    if N > 1:
        u_if[1:-1] = np.where(G[1:-1] <= 0.0, u[:-1], u[1:])
    return u_if
