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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverAbort
from .geometry import Bathymetry, LayerPartition, layer_thicknesses
from .gridops import pad_cells
from .state import H_DRY, exchange_fluxes, interface_velocities, velocities


@dataclass
class EdgeFluxes:
    """Per-edge HLL mass and momentum fluxes."""

    mass: np.ndarray      # (N, n_edges)
    momentum: np.ndarray  # (N, n_edges)


@dataclass
class EulerRhs:
    """Inviscid tendencies plus the exchange diagnostics they imply."""

    dH: np.ndarray       # (n,)
    dq: np.ndarray       # (N, n)
    G: np.ndarray        # (N+1, n) interface mass-transfer rates
    div: np.ndarray      # (N, n) discrete mass-flux divergences


def hll_fluxes(
    H_l: np.ndarray,
    u_l: np.ndarray,
    H_r: np.ndarray,
    u_r: np.ndarray,
    part: LayerPartition,
    g: float,
    h_dry: float = H_DRY,
) -> EdgeFluxes:
    """HLL mass/momentum fluxes for left/right edge traces.

    Traces are total depths (n_edges,) and per-layer velocities
    (N, n_edges).  Dry sides get the standard rarefaction-front speed
    estimates u -/+ 2 sqrt(gH) so that expansion into vacuum keeps the
    depth nonnegative.  Bitwise-identical traces short-circuit to the
    exact physical flux.
    """
    if not (np.all(np.isfinite(H_l)) and np.all(np.isfinite(H_r))
            and np.all(np.isfinite(u_l)) and np.all(np.isfinite(u_r))):
        raise SolverAbort("non-finite edge trace in flux evaluation")

    h_l = layer_thicknesses(H_l, part)
    h_r = layer_thicknesses(H_r, part)
    q_l = h_l * u_l
    q_r = h_r * u_r
    f_mass_l = q_l
    f_mass_r = q_r
    f_mom_l = q_l * u_l + 0.5 * g * h_l * H_l
    f_mom_r = q_r * u_r + 0.5 * g * h_r * H_r

    c_l = np.sqrt(g * H_l)
    c_r = np.sqrt(g * H_r)
    umin_l, umax_l = u_l.min(axis=0), u_l.max(axis=0)
    umin_r, umax_r = u_r.min(axis=0), u_r.max(axis=0)
    s_l = np.minimum(umin_l - c_l, umin_r - c_r)
    s_r = np.maximum(umax_l + c_l, umax_r + c_r)

    dry_l = H_l <= h_dry
    dry_r = H_r <= h_dry
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
    f_mass = (s_r * f_mass_l - s_l * f_mass_r + s_l * s_r * (h_r - h_l)) / safe
    f_mom = (s_r * f_mom_l - s_l * f_mom_r + s_l * s_r * (q_r - q_l)) / safe
    f_mass = np.where(s_l >= 0.0, f_mass_l, np.where(s_r <= 0.0, f_mass_r, f_mass))
    f_mom = np.where(s_l >= 0.0, f_mom_l, np.where(s_r <= 0.0, f_mom_r, f_mom))

    same = (h_l == h_r) & (q_l == q_r)
    f_mass = np.where(same, f_mass_l, f_mass)
    f_mom = np.where(same, f_mom_l, f_mom)

    both_dry = dry_l & dry_r
    f_mass[:, both_dry] = 0.0
    f_mom[:, both_dry] = 0.0
    return EdgeFluxes(mass=f_mass, momentum=f_mom)


def euler_rhs(
    H: np.ndarray,
    q: np.ndarray,
    bathy: Bathymetry,
    part: LayerPartition,
    g: float,
    dx: float,
    bc: str,
    h_dry: float = H_DRY,
    u: np.ndarray | None = None,
) -> EulerRhs:
    """Tendencies of (H, q) from pressure, advection and mass exchange.

    `u` is velocities(H, q, part, h_dry) when the caller already has it.
    """
    if u is None:
        u = velocities(H, q, part, h_dry)

    Hp = pad_cells(H, bc)
    up = pad_cells(u, bc, sign=-1.0)
    zbp = pad_cells(bathy.zb, bc)

    H_l, H_r = Hp[:-1], Hp[1:]
    u_l, u_r = up[:, :-1], up[:, 1:]
    zb_l, zb_r = zbp[:-1], zbp[1:]

    # hydrostatic reconstruction: remeasure depth from the higher bed
    z_edge = np.maximum(zb_l, zb_r)
    H_ls = np.maximum((H_l + zb_l) - z_edge, 0.0)
    H_rs = np.maximum((H_r + zb_r) - z_edge, 0.0)

    fx = hll_fluxes(H_ls, u_l, H_rs, u_r, part, g, h_dry)

    # pressure seen by each adjacent cell, restoring the still-water balance
    frac = part.fractions[:, None]
    corr_l = 0.5 * g * frac * (H_l * H_l - H_ls * H_ls)
    corr_r = 0.5 * g * frac * (H_r * H_r - H_rs * H_rs)

    div = (fx.mass[:, 1:] - fx.mass[:, :-1]) / dx
    dH = -div.sum(axis=0)
    dq = -((fx.momentum[:, 1:] + corr_l[:, 1:]) - (fx.momentum[:, :-1] + corr_r[:, :-1])) / dx

    G = exchange_fluxes(div, part)
    u_if = interface_velocities(u, G)
    dq += u_if[1:] * G[1:] - u_if[:-1] * G[:-1]
    return EulerRhs(dH=dH, dq=dq, G=G, div=div)
