"""First-order finite-volume update for the inviscid multilayer system.

All layers share one HLL wave fan per edge, with speeds taken as the
extreme values of u_a -/+ sqrt(g H) over the layers of both sides; this
keeps the per-layer fluxes exactly proportional to the layer fractions
when the velocities agree, so a refined partition collapses to the
single-layer scheme.  Well-balancing uses hydrostatic reconstruction:
edge depths are remeasured from the higher of the two bed elevations
and the pressure imbalance is returned to each cell as a centered
correction.  Interlayer mass exchange is rebuilt from the same flux
divergences that update the depth and enters as a cell-centered source.
The cells outside the wet window (`wet_window`) hold a dry bed at rest
and have both-dry edges, which carry no flux and no pressure correction:
their tendencies are those of a dry bed (dH = -0.0, dq = G = 0), so
callers evaluate the window's cells only, on its bed `bathy.cells(a, b)`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverAbort
from .geometry import Bathymetry, LayerPartition, layer_thicknesses
from .gridops import PERIODIC, pad_cells
from .state import H_DRY, exchange_fluxes, interface_velocities, velocities


@dataclass
class EdgeFluxes:
    """Per-edge HLL mass and momentum fluxes."""

    mass: np.ndarray      # (N, n_edges)
    momentum: np.ndarray  # (N, n_edges)


@dataclass
class EulerRhs:
    """Inviscid tendencies plus the exchange diagnostics they imply."""

    dH: np.ndarray       # (m,) on the m cells evaluated
    dq: np.ndarray       # (N, m)
    G: np.ndarray        # (N+1, m) interface mass-transfer rates


def hll_fluxes(
    H_l: np.ndarray,
    u_l: np.ndarray,
    H_r: np.ndarray,
    u_r: np.ndarray,
    part: LayerPartition,
    g: float,
) -> EdgeFluxes:
    """HLL mass/momentum fluxes for left/right edge traces.

    Traces are total depths (n_edges,) and per-layer velocities
    (N, n_edges).  Dry sides get the standard rarefaction-front speed
    estimates u -/+ 2 sqrt(gH) so that expansion into vacuum keeps the
    depth nonnegative.  Bitwise-identical traces short-circuit to the
    exact physical flux.
    """
    umin_l, umax_l = u_l.min(axis=0), u_l.max(axis=0)
    umin_r, umax_r = u_r.min(axis=0), u_r.max(axis=0)
    # a nan or an infinity in a velocity column shows in its min or max
    if not np.isfinite(np.concatenate((H_l, H_r, umin_l, umax_l, umin_r, umax_r))).all():
        raise SolverAbort("non-finite edge trace in flux evaluation")

    h_l = layer_thicknesses(H_l, part)
    h_r = layer_thicknesses(H_r, part)
    q_l = h_l * u_l
    q_r = h_r * u_r
    tmp = np.empty_like(q_l)
    f_mom_l = _momentum_flux(q_l, u_l, h_l, H_l, g, tmp)
    f_mom_r = _momentum_flux(q_r, u_r, h_r, H_r, g, tmp)

    c_l = np.sqrt(g * H_l)
    c_r = np.sqrt(g * H_r)
    s_l = np.minimum(umin_l - c_l, umin_r - c_r)
    s_r = np.maximum(umax_l + c_l, umax_r + c_r)

    dry_l = H_l <= H_DRY
    dry_r = H_r <= H_DRY
    wet_to_dry = dry_r & ~dry_l
    if wet_to_dry.any():
        s_l = np.where(wet_to_dry, umin_l - c_l, s_l)
        s_r = np.where(wet_to_dry, umax_l + 2.0 * c_l, s_r)
    dry_to_wet = dry_l & ~dry_r
    if dry_to_wet.any():
        s_l = np.where(dry_to_wet, umin_r - 2.0 * c_r, s_l)
        s_r = np.where(dry_to_wet, umax_r + c_r, s_r)

    span = s_r - s_l
    safe = np.where(span > 0.0, span, 1.0)
    s_lr = s_l * s_r
    f_mass = _hll(q_l, q_r, h_l, h_r, s_l, s_r, s_lr, safe, tmp)
    f_mom = _hll(f_mom_l, f_mom_r, q_l, q_r, s_l, s_r, s_lr, safe, tmp)

    # edges whose whole fan lies on one side take that side's flux; where
    # both tests hold, the left side wins
    for side, mass, mom in ((s_r <= 0.0, q_r, f_mom_r), (s_l >= 0.0, q_l, f_mom_l)):
        if side.any():
            np.copyto(f_mass, mass, where=side)
            np.copyto(f_mom, mom, where=side)
    same = h_l == h_r
    same &= q_l == q_r
    if same.any():
        np.copyto(f_mass, q_l, where=same)
        np.copyto(f_mom, f_mom_l, where=same)
    both_dry = dry_l & dry_r
    if both_dry.any():
        np.copyto(f_mass, 0.0, where=both_dry)
        np.copyto(f_mom, 0.0, where=both_dry)
    return EdgeFluxes(mass=f_mass, momentum=f_mom)


# The helpers below take a scratch array `tmp` of the flux shape and
# apply the operations of the written formula in its order.

def _momentum_flux(q, u, h, H, g, tmp):
    """q u + (g/2 h) H."""
    out = q * u
    np.multiply(h, 0.5 * g, out=tmp)
    tmp *= H
    out += tmp
    return out


def _hll(f_l, f_r, c_l, c_r, s_l, s_r, s_lr, safe, tmp):
    """(s_r f_l - s_l f_r + (s_l s_r) (c_r - c_l)) / safe; `s_lr` is s_l s_r."""
    out = s_r * f_l
    out -= np.multiply(s_l, f_r, out=tmp)
    np.subtract(c_r, c_l, out=tmp)
    tmp *= s_lr
    out += tmp
    out /= safe
    return out


def wet_window(H: np.ndarray, q: np.ndarray, bc: str) -> tuple[int, int]:
    """Cells [a, b) from the first cell with H or q other than +0.0 less one
    to the last plus one, clamped; the first cell if there is none.  Outside
    it the state is +0.0 throughout: a dry bed at rest.  A periodic window
    reaching past an end would cross the seam: it is the domain."""
    if H[0] != 0.0 and H[-1] != 0.0:  # water at both ends: no scan needed
        return 0, H.size
    # a float is +0.0 exactly when all its bits are clear
    held = np.flatnonzero((H.view(np.int64) != 0) | q.view(np.int64).any(axis=0))
    if held.size == 0:
        return 0, 1
    a, b = int(held[0]) - 1, int(held[-1]) + 2
    if bc == PERIODIC and (a < 0 or b > H.size):
        return 0, H.size
    return max(a, 0), min(b, H.size)


def euler_rhs(
    H: np.ndarray,
    q: np.ndarray,
    bathy: Bathymetry,
    part: LayerPartition,
    g: float,
    u: np.ndarray | None = None,
) -> EulerRhs:
    """Tendencies of (H, q) from pressure, advection and mass exchange.

    H, q (and `u`, velocities(H, q, part) when the caller already has it)
    hold the cells of `bathy`: the domain's, or the bed `cells(a, b)` of a
    window that contains wet_window's, since the ghost cells it pads are
    dry there.  The tendencies are those cells'.
    """
    if u is None:
        u = velocities(H, q, part)
    dx, bc = bathy.dx, bathy.bc
    zb_l, zb_r, z_edge = bathy.zb_l, bathy.zb_r, bathy.z_edge
    Hp = pad_cells(H, bc)
    up = pad_cells(u, bc, sign=-1.0)
    H_l, H_r = Hp[:-1], Hp[1:]
    u_l, u_r = up[:, :-1], up[:, 1:]

    # hydrostatic reconstruction: remeasure depth from the higher bed
    H_ls = np.add(H_l, zb_l)
    H_ls -= z_edge
    np.maximum(H_ls, 0.0, out=H_ls)
    H_rs = np.add(H_r, zb_r)
    H_rs -= z_edge
    np.maximum(H_rs, 0.0, out=H_rs)

    fx = hll_fluxes(H_ls, u_l, H_rs, u_r, part, g)

    # pressure seen by each adjacent cell, restoring the still-water
    # balance: cell j is the left side of edge j+1 and the right side of
    # edge j, and both traces there hold H[j]
    HH = H * H
    g_frac = (0.5 * g) * part.fractions[:, None]
    dq = np.multiply(g_frac, HH - H_ls[1:] * H_ls[1:])
    dq += fx.momentum[:, 1:]
    tmp = np.multiply(g_frac, HH - H_rs[:-1] * H_rs[:-1])
    tmp += fx.momentum[:, :-1]
    dq -= tmp
    np.negative(dq, out=dq)
    dq /= dx

    div = np.subtract(fx.mass[:, 1:], fx.mass[:, :-1])
    div /= dx
    dH = -div.sum(axis=0)

    G = exchange_fluxes(div, part)
    u_if = interface_velocities(u, G)
    np.multiply(u_if[1:], G[1:], out=tmp)
    tmp -= u_if[:-1] * G[:-1]
    dq += tmp
    return EulerRhs(dH, dq, G)
