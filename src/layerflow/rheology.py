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
    """The closed stress field of one state.  The Newtonian closures are
    traceless, Szz = -Sxx, so Sxx - Szz is evaluated as Sxx + Sxx."""

    xx_if: np.ndarray       # Sxx at interfaces (N+1, n)
    zx_if: np.ndarray       # Szx at interfaces
    xx_mid: np.ndarray      # Sxx at midpoints (N, n)
    zx_mid: np.ndarray      # Szx at midpoints
    weight: np.ndarray      # the closure's carrier: h_half at interfaces, h at midpoints
    xx: np.ndarray          # Sxx on the carrier
    zx: np.ndarray          # Szx on the carrier
    sigma: np.ndarray       # tangential tractions (N+1, n), surface and bed closed
    w: np.ndarray           # the layer-mean w the stresses were built from
    resultant: np.ndarray   # in-layer h (Sxx - Szz) + d(h z_mid Szx)/dx (N, n)


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
) -> tuple[np.ndarray, ...]:
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
    return xx_if, zx_if, xx_mid, zx_mid


def newtonian_layer_stresses(
    u: np.ndarray, w: np.ndarray, dudx: np.ndarray, geom: InterfaceGeometry, mu: float,
) -> tuple[np.ndarray, ...]:
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
    return xx_if, zx_if, xx_mid, zx_mid


def stress_closure(
    model: RheologyModel, friction: FrictionLaw,
    H: np.ndarray, u: np.ndarray, geom: InterfaceGeometry,
) -> StressField:
    """The closed stress field of one state, from the w it reconstructs."""
    w, dudx = reconstruct_w(u, geom)
    interface = model.placement == INTERFACE
    closure = newtonian_interface_stresses if interface else newtonian_layer_stresses
    xx_if, zx_if, xx_mid, zx_mid = closure(u, w, dudx, geom, model.mu)
    weight, xx, zx = (geom.h_half, xx_if, zx_if) if interface else (geom.h, xx_mid, zx_mid)

    s = geom.dz_if_dx
    sigma = zx_if - s * ((xx_if + s * zx_if) + xx_if)
    sigma[-1] = 0.0
    sigma[0] = friction.kappa(u[0], H) * u[0] / geom.cos_b**3

    h = geom.h
    resultant = h * (xx_mid + xx_mid) + ddx(h * geom.z_mid * zx_mid, geom.dx, geom.bc)
    return StressField(xx_if=xx_if, zx_if=zx_if, xx_mid=xx_mid, zx_mid=zx_mid,
                       weight=weight, xx=xx, zx=zx, sigma=sigma, w=w, resultant=resultant)


def viscous_rhs(S: StressField, geom: InterfaceGeometry) -> np.ndarray:
    """Momentum tendencies V (N, n) from a closed stress field.

    Per layer: the divergence of the in-layer stress resultant, the
    second-derivative coupling of the shear carried by all layers
    above, and the traction jump across the layer.
    """
    h, z_if, dx, bc = geom.h, geom.z_if, geom.dx, geom.bc

    term1 = ddx(S.resultant, dx, bc)

    hzx = h * S.zx_mid
    above = np.zeros((h.shape[0] + 1, h.shape[1]))
    cumsum_layers(hzx, from_top=True, out=above[:-1])
    d2 = d2dx2(above, dx, bc)
    term2 = z_if[1:] * d2[1:] - z_if[:-1] * d2[:-1]

    return term1 + term2 + (S.sigma[1:] - S.sigma[:-1])
