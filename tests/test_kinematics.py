"""Vertical velocity reconstruction and the affine in-layer profile."""
import numpy as np

from layerflow.geometry import LayerPartition, build_geometry, make_bathymetry
from layerflow.kinematics import reconstruct_w, what_coefficients


def _geom(zb, H, N, dx, bc):
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(zb, dx, bc)
    return build_geometry(H, bathy, part), part


def _profile(k, dudx, a, z):
    """In-layer profile what(z) = k_a - z du_a/dx of layer a at heights z."""
    return k[a] - z * dudx[a]


def test_single_layer_mean_w_over_flat_bottom():
    # incompressible column over a flat bed: w(z) = -z du/dx, so the
    # depth mean is -H/2 du/dx
    n, dx = 64, 1.0 / 64
    x = (np.arange(n) + 0.5) * dx
    H = np.full(n, 1.7)
    u = np.sin(2 * np.pi * x)[None, :]
    geom, _ = _geom(np.zeros(n), H, 1, dx, "periodic")
    w, dudx = reconstruct_w(u, geom)
    assert np.allclose(w, -0.5 * 1.7 * dudx, atol=1e-13)


def test_uniform_flow_follows_the_bottom():
    # constant u over a linear slope: every layer mean rises with the bed
    n, dx = 40, 0.05
    x = np.arange(n) * dx
    zb = 0.4 * x
    H = np.full(n, 2.0)
    u = np.full((3, n), 1.3)
    geom, _ = _geom(zb, H, 3, dx, "transmissive")
    w, _ = reconstruct_w(u, geom)
    assert np.allclose(w, 1.3 * 0.4, atol=1e-12)


def test_no_flow_through_a_flat_bed():
    rng = np.random.default_rng(31)
    n, dx = 32, 1.0 / 32
    H = rng.uniform(0.5, 1.5, n)
    u = rng.standard_normal((2, n))
    geom, _ = _geom(np.zeros(n), H, 2, dx, "periodic")
    _, dudx = reconstruct_w(u, geom)
    k = what_coefficients(u, geom)
    assert np.abs(_profile(k, dudx, 0, np.zeros(n))).max() < 1e-14


def test_profile_is_affine_in_z():
    rng = np.random.default_rng(37)
    n, dx = 16, 1.0 / 16
    H = rng.uniform(0.5, 1.5, n)
    u = rng.standard_normal((2, n))
    geom, _ = _geom(0.1 * rng.standard_normal(n), H, 2, dx, "periodic")
    _, dudx = reconstruct_w(u, geom)
    k = what_coefficients(u, geom)
    z0 = geom.z_if[0]
    z1 = geom.z_if[1]
    mid = _profile(k, dudx, 0, 0.5 * (z0 + z1))
    assert np.allclose(mid, 0.5 * (_profile(k, dudx, 0, z0) + _profile(k, dudx, 0, z1)),
                       atol=1e-13)


def test_layer_mean_identity_quick():
    # build coefficients and means independently and compare weighted sums
    rng = np.random.default_rng(41)
    n, dx = 24, 1.0 / 24
    x = (np.arange(n) + 0.5) * dx
    zb = 0.15 * np.sin(2 * np.pi * x)
    H = 1.0 + 0.3 * np.cos(2 * np.pi * x)
    u = np.array([np.sin(2 * np.pi * x + p) for p in (0.0, 1.0, 2.0)])
    geom, _ = _geom(zb, H, 3, dx, "periodic")
    w, dudx = reconstruct_w(u, geom)
    k = what_coefficients(u, geom)
    assert np.abs(geom.h * (k - geom.z_mid * dudx) - geom.h * w).max() < 1e-13
