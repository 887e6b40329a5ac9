"""Self-contained single-layer shallow-water solver with depth-averaged
viscosity and bottom friction.

This module re-derives the whole right-hand side for N = 1 without
touching the multilayer machinery (it only reuses the primitive
derivative operators), so it can serve as an external cross-check: the
multilayer solver restricted to one layer must reproduce these
tendencies.

Depth-averaged closure:

    w   = -1/2 d(Hu)/dx + u dz/dx,        z = z_b + H/2,
    Sxx = 2 mu du/dx,
    Szx = mu (dw/dx + dz/dx du/dx),
    V   = d/dx(2 H Sxx + d/dx(H z Szx)) - z_b d2/dx2(H Szx)
          - kappa u / cos_b^3.

The w and Szx expressions keep the d(z u)/dx - z du/dx grouping so the
discrete energy behavior matches the layered solver exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverAbort
from .gridops import d2dx2, ddx, pad_cells
from .state import H_DRY


@dataclass
class SvRhs:
    dH: np.ndarray
    dq: np.ndarray


def sv_velocity(H: np.ndarray, q: np.ndarray) -> np.ndarray:
    u = np.zeros_like(q)
    wet = H > H_DRY
    u[wet] = q[wet] / H[wet]
    return u


def _hll_edge_fluxes(H_l, u_l, H_r, u_r, g):
    q_l = H_l * u_l
    q_r = H_r * u_r
    f_mass_l = q_l
    f_mass_r = q_r
    f_mom_l = q_l * u_l + 0.5 * g * H_l * H_l
    f_mom_r = q_r * u_r + 0.5 * g * H_r * H_r

    c_l = np.sqrt(g * H_l)
    c_r = np.sqrt(g * H_r)
    s_l = np.minimum(u_l - c_l, u_r - c_r)
    s_r = np.maximum(u_l + c_l, u_r + c_r)

    dry_l = H_l <= H_DRY
    dry_r = H_r <= H_DRY
    s_l = np.where(dry_r & ~dry_l, u_l - c_l, s_l)
    s_r = np.where(dry_r & ~dry_l, u_l + 2.0 * c_l, s_r)
    s_l = np.where(dry_l & ~dry_r, u_r - 2.0 * c_r, s_l)
    s_r = np.where(dry_l & ~dry_r, u_r + c_r, s_r)

    span = s_r - s_l
    safe = np.where(span > 0.0, span, 1.0)
    f_mass = (s_r * f_mass_l - s_l * f_mass_r + s_l * s_r * (H_r - H_l)) / safe
    f_mom = (s_r * f_mom_l - s_l * f_mom_r + s_l * s_r * (q_r - q_l)) / safe
    f_mass = np.where(s_l >= 0.0, f_mass_l, np.where(s_r <= 0.0, f_mass_r, f_mass))
    f_mom = np.where(s_l >= 0.0, f_mom_l, np.where(s_r <= 0.0, f_mom_r, f_mom))

    same = (H_l == H_r) & (q_l == q_r)
    f_mass = np.where(same, f_mass_l, f_mass)
    f_mom = np.where(same, f_mom_l, f_mom)

    both_dry = dry_l & dry_r
    f_mass[both_dry] = 0.0
    f_mom[both_dry] = 0.0
    return f_mass, f_mom


def sv_rhs(
    H: np.ndarray,
    q: np.ndarray,
    zb: np.ndarray,
    g: float,
    mu: float,
    k_l: float,
    k_t: float,
    dx: float,
    bc: str,
) -> SvRhs:
    """Full tendency of (H, q) for the depth-averaged system."""
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(q))):
        raise SolverAbort("non-finite state in reference solver")
    u = sv_velocity(H, q)

    Hp = pad_cells(H, bc)
    up = pad_cells(u, bc, sign=-1.0)
    zbp = pad_cells(zb, bc)
    H_l, H_r = Hp[:-1], Hp[1:]
    u_l, u_r = up[:-1], up[1:]
    zb_l, zb_r = zbp[:-1], zbp[1:]

    z_edge = np.maximum(zb_l, zb_r)
    H_ls = np.maximum((H_l + zb_l) - z_edge, 0.0)
    H_rs = np.maximum((H_r + zb_r) - z_edge, 0.0)
    f_mass, f_mom = _hll_edge_fluxes(H_ls, u_l, H_rs, u_r, g)
    corr_l = 0.5 * g * (H_l * H_l - H_ls * H_ls)
    corr_r = 0.5 * g * (H_r * H_r - H_rs * H_rs)

    dH = -(f_mass[1:] - f_mass[:-1]) / dx
    dq = -((f_mom[1:] + corr_l[1:]) - (f_mom[:-1] + corr_r[:-1])) / dx

    # depth-averaged viscous terms and wall friction
    eta = zb + H
    z_mid = 0.5 * (zb + eta)
    dudx = ddx(u, dx, bc)
    w = -0.5 * ddx(H * u, dx, bc) + (ddx(z_mid * u, dx, bc) - z_mid * dudx)
    s_xx = 2.0 * mu * dudx
    s_zx = mu * (ddx(w, dx, bc) + ddx(z_mid, dx, bc) * dudx)
    slope_b = ddx(zb, dx, bc)
    cos_b = 1.0 / np.sqrt(1.0 + slope_b * slope_b)
    kappa = k_l + k_t * H * np.abs(u)

    if mu > 0.0:
        inner = ddx(H * z_mid * s_zx, dx, bc)
        dq = dq + ddx(2.0 * H * s_xx + inner, dx, bc) - zb * d2dx2(H * s_zx, dx, bc)
    dq = dq - kappa * u / cos_b**3
    return SvRhs(dH=dH, dq=dq)

