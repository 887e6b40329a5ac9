"""Standalone single-layer reference solver."""
import numpy as np

from layerflow.euler import euler_rhs
from layerflow.geometry import LayerPartition, make_bathymetry
from layerflow.sv import sv_rhs, sv_velocity


def test_sv_velocity_masks_dry_cells():
    H = np.array([1.0, 0.0, 2.0])
    q = np.array([0.5, 3.0, -1.0])
    u = sv_velocity(H, q)
    assert np.allclose(u, [0.5, 0.0, -0.5])


def test_sv_lake_at_rest():
    rng = np.random.default_rng(59)
    n, dx = 50, 0.02
    zb = 0.3 * rng.random(n)
    H = 1.0 - zb
    for bc in ("periodic", "wall", "transmissive"):
        dH, dq = sv_rhs(H, np.zeros(n), zb, 9.81, 0.0, 0.0, 0.0, dx, bc)
        assert np.abs(dH).max() < 1e-13
        assert np.abs(dq).max() < 1e-12


def test_sv_flat_periodic_conservation():
    rng = np.random.default_rng(61)
    n, dx = 40, 0.025
    H = rng.uniform(0.3, 1.5, n)
    q = rng.standard_normal(n) * 0.4
    dH, dq = sv_rhs(H, q, np.zeros(n), 9.81, 0.0, 0.0, 0.0, dx, "periodic")
    assert abs(dH.sum() * dx) < 1e-14
    assert abs(dq.sum() * dx) < 1e-13


def test_sv_friction_is_a_local_drag():
    # x-uniform flow on a flat bed: the momentum tendency is exactly
    # -(k_l + k_t H |u|) u
    n = 8
    H = np.full(n, 1.3)
    u0 = 0.7
    dH, dq = sv_rhs(H, H * u0, np.zeros(n), 9.81, 0.0, 0.2, 0.1, 0.5, "periodic")
    kappa = 0.2 + 0.1 * 1.3 * 0.7
    assert np.allclose(dq, -kappa * u0, atol=1e-14)
    assert np.allclose(dH, 0.0, atol=1e-15)


def test_sv_matches_multilayer_on_open_boundaries():
    # same right-hand side through both code paths, transmissive walls
    rng = np.random.default_rng(71)
    n, dx = 30, 1.0 / 30
    x = (np.arange(n) + 0.5) * dx
    zb = -0.4 + 0.1 * np.sin(2 * np.pi * x)
    H = 0.8 + 0.1 * np.cos(4 * np.pi * x)
    u = 0.2 * np.sin(2 * np.pi * x)
    bc = "transmissive"
    dH_ref, dq_ref = sv_rhs(H, H * u, zb, 9.81, 0.0, 0.0, 0.0, dx, bc)
    part = LayerPartition.uniform(1)
    bathy = make_bathymetry(zb, dx, bc)
    dH, dq, _ = euler_rhs(H, (H * u)[None, :], bathy, part, 9.81)
    assert np.abs(dH - dH_ref).max() < 1e-14
    assert np.abs(dq[0] - dq_ref).max() < 1e-13


def test_sv_viscous_work_dissipates_and_does_not_see_the_datum():
    # the viscous tendency, with friction off, does work sum(u V) dx < 0,
    # and raising the bed and the surface together moves V by round-off only
    rng = np.random.default_rng(73)
    n = 40
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    H = 0.9 + 0.1 * np.cos(2 * np.pi * x)
    u = rng.standard_normal(n)
    for bc in ("periodic", "wall", "transmissive"):
        Vs = []
        for datum in (-0.5, 0.0, 1.0):
            zb = datum + 0.1 * np.sin(2 * np.pi * x)
            V = (sv_rhs(H, H * u, zb, 9.81, 0.05, 0.0, 0.0, dx, bc)[1]
                 - sv_rhs(H, H * u, zb, 9.81, 0.0, 0.0, 0.0, dx, bc)[1])
            assert (u * V).sum() * dx < 0.0
            Vs.append(V)
        scale = np.abs(Vs[0]).max()
        assert max(np.abs(V - Vs[0]).max() for V in Vs) <= 1e-12 * scale
