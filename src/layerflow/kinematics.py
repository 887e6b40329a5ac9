"""Vertical velocity recovered from incompressibility.

Each layer carries a mean vertical velocity w_a and an affine in-layer
profile what(z) = k_a - z du_a/dx whose slope is fixed by horizontal
divergence.  The advective part of w_a is evaluated in the product-rule
compatible grouping D(z_mid u) - z_mid D(u); with the shared centered
operator this makes the layer mean of the affine profile reproduce
h_a w_a to round-off instead of to O(dx^2).
"""
from __future__ import annotations

import numpy as np

from .geometry import InterfaceGeometry
from .gridops import cumsum_layers, ddx


def reconstruct_w(u: np.ndarray, geom: InterfaceGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Layer-mean vertical velocities and du/dx, both (N, n).

    w_a = -1/2 d(h_a u_a)/dx - sum_{j<a} d(h_j u_j)/dx + u_a dz_mid/dx,
    the last term grouped as D(z_mid u) - z_mid D(u).
    """
    dx, bc = geom.dx, geom.bc
    dudx = ddx(u, dx, bc)
    dhu = ddx(geom.h * u, dx, bc)
    below = cumsum_layers(dhu)
    below -= dhu
    w = -0.5 * dhu - below + (ddx(geom.z_mid * u, dx, bc) - geom.z_mid * dudx)
    return w, dudx


def what_coefficients(u: np.ndarray, geom: InterfaceGeometry) -> np.ndarray:
    """Offsets k_a of the affine profiles, built upward from the bed.

    k_1 = d(z_b u_1)/dx and each interface adds the jump
    d(z_if (u_above - u_below))/dx, so the profile is continuous in the
    sense of the divergence constraint.
    """
    N, n = u.shape
    dx, bc = geom.dx, geom.bc
    k = np.empty((N, n))
    k[0] = ddx(geom.z_if[0] * u[0], dx, bc)
    for a in range(N - 1):
        k[a + 1] = k[a] + ddx(geom.z_if[a + 1] * (u[a + 1] - u[a]), dx, bc)
    return k
