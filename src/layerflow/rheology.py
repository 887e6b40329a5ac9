"""Viscous stress closures and the momentum tendencies they induce.

Deviatoric stresses are carried either at interfaces (then averaged to
layer midpoints) or at midpoints (then averaged to interior
interfaces); the two placements agree to first order in the layer
thickness.  Ghost conventions close both variants: a zero-thickness
layer below the bed and above the surface, with the adjacent velocity
copied into it, which pins the boundary-interface stresses to their
single-sided values (e.g. Sxx = 2 mu du/dx at the bed).

The tangential traction transmitted across an interface of slope s is

    sigma = Sxz - s (Sxx + s Szx - Szz),

replaced at the free surface by zero and at the bed by the friction law
sigma = kappa u_1 / cos^3 with kappa = k_l + k_t H |u_1|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import InterfaceGeometry
from .gridops import cumsum_layers, d2dx2, ddx
from .kinematics import reconstruct_w

INTERFACE = "interface"
LAYER = "layer"


@dataclass
class FrictionLaw:
    """Navier-type wall law with a laminar and a turbulent coefficient."""

    k_l: float = 0.0
    k_t: float = 0.0

    def kappa(self, u_bottom: np.ndarray, H: np.ndarray) -> np.ndarray:
        return self.k_l + self.k_t * H * np.abs(u_bottom)

    @property
    def active(self) -> bool:
        return self.k_l != 0.0 or self.k_t != 0.0


@dataclass
class StressField:
    """Deviatoric stresses at interfaces (N+1, n) and midpoints (N, n).

    `sigma` holds the tangential tractions including the free-surface
    and bottom-friction closures once `close_tractions` has run.
    """

    xx_if: np.ndarray
    zx_if: np.ndarray
    zz_if: np.ndarray
    xx_mid: np.ndarray
    zx_mid: np.ndarray
    zz_mid: np.ndarray
    sigma: Optional[np.ndarray] = None


@dataclass
class RheologyModel:
    """Newtonian stress model: dynamic viscosity and stress placement."""

    mu: float = 0.0
    placement: str = INTERFACE

    def __post_init__(self):
        if self.placement not in (INTERFACE, LAYER):
            raise ValueError(f"unknown stress placement {self.placement!r}")
        if self.mu < 0.0:
            raise ValueError("viscosity must be nonnegative")

    @property
    def active(self) -> bool:
        return self.mu > 0.0


def _pad_layers_zero(f: np.ndarray) -> np.ndarray:
    z = np.zeros_like(f[:1])
    return np.concatenate([z, f, z], axis=0)


def _pad_layers_edge(f: np.ndarray) -> np.ndarray:
    return np.concatenate([f[:1], f, f[-1:]], axis=0)


def shear_phi(w: np.ndarray, dudx: np.ndarray, geom: InterfaceGeometry) -> np.ndarray:
    """phi_a = dw/dx + dz_mid/dx du/dx, the off-diagonal strain rate."""
    return ddx(w, geom.dx, geom.bc) + geom.dz_mid_dx * dudx


def newtonian_interface_stresses(
    u: np.ndarray, w: np.ndarray, dudx: np.ndarray, geom: InterfaceGeometry, mu: float,
) -> StressField:
    """Newtonian closure evaluated at interfaces, averaged to midpoints."""
    phi = shear_phi(w, dudx, geom)
    hd = _pad_layers_zero(geom.h * dudx)
    hphi = _pad_layers_zero(geom.h * phi)
    up = _pad_layers_edge(u)
    du = up[1:] - up[:-1]
    s = geom.dz_if_dx

    num_xx = 2.0 * mu * (0.5 * (hd[:-1] + hd[1:]) - s * du)
    num_zx = mu * (0.5 * (hphi[:-1] + hphi[1:]) + du * (1.0 - s * s))
    wet = geom.h_half > 0.0
    xx_if = np.divide(num_xx, geom.h_half, out=np.zeros_like(num_xx), where=wet)
    zx_if = np.divide(num_zx, geom.h_half, out=np.zeros_like(num_zx), where=wet)

    xx_mid = 0.5 * (xx_if[:-1] + xx_if[1:])
    zx_mid = 0.5 * (zx_if[:-1] + zx_if[1:])
    return StressField(xx_if=xx_if, zx_if=zx_if, zz_if=-xx_if,
                       xx_mid=xx_mid, zx_mid=zx_mid, zz_mid=-xx_mid)


def newtonian_layer_stresses(
    u: np.ndarray, w: np.ndarray, dudx: np.ndarray, geom: InterfaceGeometry, mu: float,
) -> StressField:
    """Newtonian closure evaluated per layer, averaged to interfaces."""
    phi = shear_phi(w, dudx, geom)
    up = _pad_layers_edge(u)
    du_above = up[2:] - up[1:-1]
    du_below = up[1:-1] - up[:-2]
    s_above = geom.dz_if_dx[1:]
    s_below = geom.dz_if_dx[:-1]

    num_xx = 2.0 * mu * (geom.h * dudx
                         - 0.5 * (s_above * du_above + s_below * du_below))
    num_zx = mu * (geom.h * phi
                   + 0.5 * du_above * (1.0 - s_above * s_above)
                   + 0.5 * du_below * (1.0 - s_below * s_below))
    wet = geom.h > 0.0
    xx_mid = np.divide(num_xx, geom.h, out=np.zeros_like(num_xx), where=wet)
    zx_mid = np.divide(num_zx, geom.h, out=np.zeros_like(num_zx), where=wet)

    # interior interfaces average the two neighbors; the bed and surface
    # keep the single-sided value (their traction is closed separately)
    xx_if = 0.5 * (_pad_layers_edge(xx_mid)[:-1] + _pad_layers_edge(xx_mid)[1:])
    zx_if = 0.5 * (_pad_layers_edge(zx_mid)[:-1] + _pad_layers_edge(zx_mid)[1:])
    return StressField(xx_if=xx_if, zx_if=zx_if, zz_if=-xx_if,
                       xx_mid=xx_mid, zx_mid=zx_mid, zz_mid=-xx_mid)


def tangential_traction(xx: np.ndarray, zx: np.ndarray, zz: np.ndarray,
                        slope: np.ndarray) -> np.ndarray:
    """Traction along a surface of slope `slope` for a symmetric tensor."""
    return zx - slope * (xx + slope * zx - zz)


def bottom_traction(friction: FrictionLaw, u_bottom: np.ndarray,
                    H: np.ndarray, cos_b: np.ndarray) -> np.ndarray:
    """Wall-law traction kappa u_1 / cos^3 resisting the bottom slip."""
    return friction.kappa(u_bottom, H) * u_bottom / cos_b**3


def close_tractions(S: StressField, geom: InterfaceGeometry,
                    friction: FrictionLaw, H: np.ndarray, u: np.ndarray) -> StressField:
    """Fill StressField.sigma with interior, surface and bed tractions."""
    sigma = tangential_traction(S.xx_if, S.zx_if, S.zz_if, geom.dz_if_dx)
    sigma[-1] = 0.0
    sigma[0] = bottom_traction(friction, u[0], H, geom.cos_b)
    S.sigma = sigma
    return S


def stress_closure(
    model: RheologyModel, friction: FrictionLaw,
    H: np.ndarray, u: np.ndarray, geom: InterfaceGeometry,
    w: Optional[np.ndarray] = None, dudx: Optional[np.ndarray] = None,
) -> StressField:
    """Build the full stress field (with tractions) for one state."""
    if w is None or dudx is None:
        w, dudx = reconstruct_w(u, geom)
    if model.placement == INTERFACE:
        S = newtonian_interface_stresses(u, w, dudx, geom, model.mu)
    else:
        S = newtonian_layer_stresses(u, w, dudx, geom, model.mu)
    return close_tractions(S, geom, friction, H, u)


def viscous_rhs(S: StressField, geom: InterfaceGeometry) -> np.ndarray:
    """Momentum tendencies V (N, n) from a closed stress field.

    Per layer: the divergence of the in-layer stress resultant, the
    second-derivative coupling of the shear carried by all layers
    above, and the traction jump across the layer.
    """
    if S.sigma is None:
        raise ValueError("stress field is missing tractions; run close_tractions")
    h, z_mid, z_if, dx, bc = geom.h, geom.z_mid, geom.z_if, geom.dx, geom.bc

    inner = ddx(h * z_mid * S.zx_mid, dx, bc)
    term1 = ddx(h * (S.xx_mid - S.zz_mid) + inner, dx, bc)

    hzx = h * S.zx_mid
    above = np.zeros((h.shape[0] + 1, h.shape[1]))
    cumsum_layers(hzx, from_top=True, out=above[:-1])
    d2 = d2dx2(above, dx, bc)
    term2 = z_if[1:] * d2[1:] - z_if[:-1] * d2[:-1]

    return term1 + term2 + (S.sigma[1:] - S.sigma[:-1])
