"""Viscous stress closure and the momentum tendencies it induces.

The closure computes the strains once: in each layer h du/dx and h phi,
with phi = dw/dx + dz_mid/dx du/dx, and across each interface of slope s
the velocity jump du as s du and du (1 - s^2).  These are the strains
B u, and `viscous_rhs` applies their transpose to the stresses: the
summation-by-parts assembly V = -mu B^T W B u, whose viscous work
sum(u V) dx is the quadratic dissipation on every boundary kind and
which does not see the bed datum (Fernandez, Hicken & Zingg, Comput.
Fluids 95, 2014).  Ghost layers below the bed and above the surface carry no
strain, and u does not jump at the bed or the surface, which pins the
boundary-interface stresses to their single-sided values (e.g.
Sxx = 2 mu du/dx at the bed).  The stresses live at the interfaces: the
in-layer strains are averaged to them and divided by the midpoint gaps
h_half, the W, and the midpoint stresses average the interface ones.

The tangential traction transmitted across an interface of slope s is

    sigma = Sxz - s (Sxx + s Szx - Szz),

replaced at the free surface by zero and at the bed by the Navier wall
law nu du/dz = kappa u_b, kappa = k_l + k_t H |u_1|.  Eliminating the bed
velocity u_b with the bottom half-layer's shear nu (u_1 - u_b) / (h_1/2)
gives sigma = kappa_eff u_1 / cos^3, kappa_eff = kappa / (1 + kappa h_1 /
(2 mu)): the discrete viscous Saint-Venant friction (Gerbeau & Perthame,
DCDS-B 1, 2001), second order in the layer count where kappa u_1 is first
order, and dissipative.  Without viscosity kappa_eff = kappa.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import InterfaceGeometry
from .gridops import cumsum_layers, ddx, ddx_adjoint
from .kinematics import reconstruct_w
from .scenario import PhysicsSpec


@dataclass
class StressField:
    """The closed stress field of one state.  The Newtonian closure is
    traceless, Szz = -Sxx, so Sxx - Szz is evaluated as Sxx + Sxx."""

    xx_if: np.ndarray       # Sxx at interfaces (N+1, n), the closure's carrier
    zx_if: np.ndarray       # Szx at interfaces
    xx_mid: np.ndarray      # Sxx at midpoints (N, n)
    zx_mid: np.ndarray      # Szx at midpoints
    sigma: np.ndarray       # tangential tractions (N+1, n), surface and bed closed
    kappa: np.ndarray       # the wall law's coefficient (n,) in sigma[0], kappa_eff if mu > 0


def _mean(f: np.ndarray) -> np.ndarray:
    """Average of adjacent rows: interfaces to midpoints."""
    return 0.5 * (f[:-1] + f[1:])


def stress_closure(
    physics: PhysicsSpec, H: np.ndarray, u: np.ndarray, geom: InterfaceGeometry,
    kappa: np.ndarray | None = None,
) -> StressField:
    """The closed stress field of one state, from the w it reconstructs;
    a given `kappa` is the applied wall-law coefficient, held fixed."""
    w, dudx = reconstruct_w(u, geom)
    h, gap, s, mu = geom.h, geom.h_half, geom.dz_if_dx, physics.mu
    N, n = h.shape
    # the strains, zero in the ghost layers and at the bed and the surface
    hd, hphi, du = np.zeros((N + 2, n)), np.zeros((N + 2, n)), np.zeros((N + 1, n))
    np.multiply(h, dudx, out=hd[1:-1])
    phi = ddx(w, geom.dx, geom.bc) + geom.dz_mid_dx * dudx
    np.multiply(h, phi, out=hphi[1:-1])
    np.subtract(u[1:], u[:-1], out=du[1:-1])
    # in-layer strains averaged to the interfaces, over the midpoint gaps
    num = (2.0 * mu * (_mean(hd) - s * du), mu * (_mean(hphi) + du * (1.0 - s * s)))
    xx_if, zx_if = (np.divide(f, gap, out=np.zeros_like(f), where=gap > 0.0) for f in num)

    if kappa is None:
        kappa = physics.k_l + physics.k_t * H * np.abs(u[0])
        if mu > 0.0:  # the bed velocity eliminated from the wall law
            with np.errstate(over="ignore"):  # a subnormal mu gives the limit 0
                kappa = kappa / (1.0 + kappa * h[0] / (2.0 * mu))
    sigma = zx_if - s * ((xx_if + s * zx_if) + xx_if)
    sigma[-1] = 0.0
    sigma[0] = kappa * u[0] / geom.cos3_b
    return StressField(xx_if=xx_if, zx_if=zx_if, xx_mid=_mean(xx_if), zx_mid=_mean(zx_if),
                       sigma=sigma, kappa=kappa)


def viscous_rhs(S: StressField, geom: InterfaceGeometry) -> np.ndarray:
    """Momentum tendencies V (N, n): the transpose of the strain map
    applied to the closed stresses, so that sum(u V) dx is the dissipation.

    The in-layer work is 2 Sxx h du/dx + Szx h phi per layer, with
    phi = dw/dx + dz_mid/dx du/dx and w built from u as in
    `reconstruct_w`.  With D^T = `ddx_adjoint`, r = D^T(h Szx) and
    m = r/2 + (the sum of r over the layers above), its transpose is

        -D^T(2 h Sxx + dz_mid/dx h Szx - z_mid r) + h D^T m - z_mid D^T r,

    in which a shift of the datum cancels.  The interface jumps give the
    traction differences across each layer.
    """
    h, z_mid, dx, bc = geom.h, geom.z_mid, geom.dx, geom.bc
    hzx = h * S.zx_mid
    r = ddx_adjoint(hzx, dx, bc)
    m = cumsum_layers(r, from_top=True)
    m -= 0.5 * r
    V = h * ddx_adjoint(m, dx, bc) - z_mid * ddx_adjoint(r, dx, bc)
    V -= ddx_adjoint(2.0 * h * S.xx_mid + geom.dz_mid_dx * hzx - z_mid * r, dx, bc)
    V += S.sigma[1:] - S.sigma[:-1]
    return V
