"""Discrete mechanical-energy audit.

Each layer carries E_a = h_a (u_a^2/2 + g z_mid,a).  Two sink terms are
tracked exactly from the scheme's own quantities:

  * exchange dissipation: every interface transfer G destroys kinetic
    energy at rate (1/2) (u_above - u_below)^2 |G| because the upwinded
    interface velocity carries the donor layer's momentum;
  * viscous dissipation: the work of the implicit viscous stage, split
    into the friction drain -(kappa/cos^3) u_1^2 at the stage's mean
    velocity and the stresses' rest.  The work sum(u V) dx of the applied
    operator is the compact -(h_half/mu) (Sxx^2 + Szx^2) summed over the
    interfaces plus that drain (`newtonian_dissipation`), because V is the
    transpose of the closure's strain map (`rheology.viscous_rhs`).

The budget residual compares the measured energy change per step with
the boundary flux and these sinks; it is a consistency indicator, not a
conserved quantity.
"""
from __future__ import annotations

import numpy as np

from .geometry import InterfaceGeometry
from .gridops import widen
from .rheology import StressField


def layer_energies(u: np.ndarray, geom: InterfaceGeometry, g: float) -> np.ndarray:
    """Mechanical energy density per layer, shape (N, n)."""
    return geom.h * (0.5 * u * u + g * geom.z_mid)


def interface_energy_term(u_lo: np.ndarray, u_hi: np.ndarray,
                          u_int: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Energy production of one interface transfer for a given u_int.

    Zero-mean-square only for the upwind choice; any other convex blend
    of u_lo/u_hi can inject energy when G pushes against the shear.
    """
    return G * (u_int * (u_lo - u_hi) - 0.5 * u_lo * u_lo + 0.5 * u_hi * u_hi)


def exchange_dissipation(u: np.ndarray, G: np.ndarray, dx: float,
                         a: int = 0, n: int | None = None) -> float:
    """Total D_G <= 0 from upwinded interlayer transfers in the columns of
    u and G, from `a` on in `n`; the others carry none and sum as zeros."""
    if u.shape[0] < 2:
        return 0.0
    du = u[1:] - u[:-1]
    rate = widen(du * du * np.abs(G[1:-1]), a, n or du.shape[1])
    return float(-0.5 * rate.sum() * dx)


def newtonian_dissipation(
    S: StressField, geom: InterfaceGeometry, mu: float, u: np.ndarray,
) -> tuple[float, float]:
    """Compact dissipation (stress part, friction part), both <= 0.

    The stress part sums h_half (Sxx^2 + Szx^2) over the interfaces and
    divides by mu, which is exact for the Newtonian closure; the friction
    part reads the field's kappa.
    """
    dx = geom.dx
    friction_part = float(-(S.kappa / geom.cos3_b * u[0] * u[0]).sum() * dx)
    if mu <= 0.0:
        return 0.0, friction_part
    quad = geom.h_half * (S.xx_if * S.xx_if + S.zx_if * S.zx_if)
    return float(-(quad.sum() / mu) * dx), friction_part


def energy_flux_density(
    u: np.ndarray, h: np.ndarray, E: np.ndarray, p_mid: np.ndarray,
) -> np.ndarray:
    """Horizontal energy flux u (E + h p) per cell (n,), its layers added in
    row order, from +0.0, as numpy sums many cells over axis 0 (one column
    it sums pairwise); for the budget at transmissive ends.  The viscous
    terms do no boundary work: their work is the dissipation."""
    return np.cumsum(u * (E + h * p_mid), axis=0)[-1] + 0.0  # a -0.0 sum is +0.0


def budget_residuals(
    times: np.ndarray, E_total: np.ndarray, boundary_influx: np.ndarray,
    D_G: np.ndarray, R_E_stress: np.ndarray, R_E_friction: np.ndarray,
) -> np.ndarray:
    """Per-step residuals of the energy balance, length len(times)-1.

    residual_n = dE/dt - influx_n - D_G_n - R_E_n with all right-hand
    sides evaluated at the step start.
    """
    dt = np.diff(times)
    dE = np.diff(E_total)
    sinks = boundary_influx + D_G + R_E_stress + R_E_friction
    return dE / dt - sinks[:-1]
