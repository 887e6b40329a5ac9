"""Viscous stress closure and the momentum tendencies it induces.

One assembly closes the Newtonian stresses for both placements.  It
computes the strains once: in each layer h du/dx and h phi, with
phi = dw/dx + dz_mid/dx du/dx, and across each interface of slope s the
velocity jump du as s du and du (1 - s^2).  These are the strains B u,
and `viscous_rhs` applies their transpose to the stresses: the
summation-by-parts assembly V = -mu B^T W B u, whose viscous work
sum(u V) dx is the quadratic dissipation on every boundary kind and
which does not see the bed datum (Fernandez, Hicken & Zingg, Comput.
Fluids 95, 2014).  Ghost layers below the bed and above the surface carry no
strain, and u does not jump at the bed or the surface, which pins the
boundary-interface stresses to their single-sided values (e.g.
Sxx = 2 mu du/dx at the bed).

The placement only picks the carrier and its weights, the W.  The
interface placement averages the in-layer strains to the interfaces
and divides by the midpoint gaps h_half; the layer placement averages
the jumps to the midpoints and divides by h.  The stresses at the other
location are averaged from the carrier's; the two placements agree to
first order in the layer thickness.

The tangential traction transmitted across an interface of slope s is

    sigma = Sxz - s (Sxx + s Szx - Szz),

replaced at the free surface by zero and at the bed by the friction law
sigma = kappa u_1 / cos^3 with kappa = k_l + k_t H |u_1|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import InterfaceGeometry
from .gridops import cumsum_layers, ddx, ddx_adjoint
from .kinematics import reconstruct_w
from .scenario import INTERFACE, PhysicsSpec


@dataclass
class StressField:
    """The closed stress field of one state.  The Newtonian closure is
    traceless, Szz = -Sxx, so Sxx - Szz is evaluated as Sxx + Sxx."""

    xx_if: np.ndarray       # Sxx at interfaces (N+1, n)
    zx_if: np.ndarray       # Szx at interfaces
    xx_mid: np.ndarray      # Sxx at midpoints (N, n)
    zx_mid: np.ndarray      # Szx at midpoints
    weight: np.ndarray      # the closure's carrier: h_half at interfaces, h at midpoints
    xx: np.ndarray          # Sxx on the carrier
    zx: np.ndarray          # Szx on the carrier
    sigma: np.ndarray       # tangential tractions (N+1, n), surface and bed closed
    kappa: np.ndarray       # bed friction coefficient (n,) of the sigma[0] closure


def friction_kappa(physics: PhysicsSpec, H: np.ndarray, u_bottom: np.ndarray) -> np.ndarray:
    """Coefficient kappa = k_l + k_t H |u_1| of the Navier-type wall law."""
    return physics.k_l + physics.k_t * H * np.abs(u_bottom)


def _mean(f: np.ndarray) -> np.ndarray:
    """Average of adjacent rows: interfaces to midpoints, or back."""
    return 0.5 * (f[:-1] + f[1:])


def stress_closure(
    physics: PhysicsSpec, H: np.ndarray, u: np.ndarray, geom: InterfaceGeometry,
) -> StressField:
    """The closed stress field of one state, from the w it reconstructs."""
    w, dudx = reconstruct_w(u, geom)
    h, s, mu = geom.h, geom.dz_if_dx, physics.mu
    N, n = h.shape
    # the strains, zero in the ghost layers and at the bed and the surface
    hd, hphi, du = np.zeros((N + 2, n)), np.zeros((N + 2, n)), np.zeros((N + 1, n))
    np.multiply(h, dudx, out=hd[1:-1])
    phi = ddx(w, geom.dx, geom.bc) + geom.dz_mid_dx * dudx
    np.multiply(h, phi, out=hphi[1:-1])
    np.subtract(u[1:], u[:-1], out=du[1:-1])
    sdu, tdu = s * du, du * (1.0 - s * s)

    interface = physics.placement == INTERFACE
    if interface:  # in-layer strains averaged to the interfaces
        weight = geom.h_half
        num = (2.0 * mu * (_mean(hd) - sdu), mu * (_mean(hphi) + tdu))
    else:  # jumps averaged to the midpoints
        weight = h
        # the halves of tdu are added one at a time, as the golden outputs
        # were computed: hphi + _mean(tdu) rounds differently
        num = (2.0 * mu * (hd[1:-1] - _mean(sdu)),
               mu * (hphi[1:-1] + 0.5 * tdu[1:] + 0.5 * tdu[:-1]))
    xx, zx = (np.divide(f, weight, out=np.zeros_like(f), where=weight > 0.0) for f in num)
    if interface:
        xx_if, zx_if, xx_mid, zx_mid = xx, zx, _mean(xx), _mean(zx)
    else:  # the bed and surface interfaces keep their layer's value
        xx_if, zx_if = (_mean(np.concatenate([f[:1], f, f[-1:]])) for f in (xx, zx))
        xx_mid, zx_mid = xx, zx

    kappa = friction_kappa(physics, H, u[0])
    sigma = zx_if - s * ((xx_if + s * zx_if) + xx_if)
    sigma[-1] = 0.0
    sigma[0] = kappa * u[0] / geom.cos3_b
    return StressField(xx_if=xx_if, zx_if=zx_if, xx_mid=xx_mid, zx_mid=zx_mid,
                       weight=weight, xx=xx, zx=zx, sigma=sigma, kappa=kappa)


def viscous_rhs(S: StressField, geom: InterfaceGeometry) -> np.ndarray:
    """Momentum tendencies V (N, n): the transpose of the strain map
    applied to the closed stresses, so that sum(u V) dx is the dissipation.

    Both placements do the in-layer work 2 Sxx h du/dx + Szx h phi per
    layer, with phi = dw/dx + dz_mid/dx du/dx and w built from u as in
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
