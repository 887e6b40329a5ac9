"""Hyperbolic transport core: HLL edge fluxes and the layered update."""
import numpy as np
import pytest

from layerflow.errors import SolverAbort
from layerflow.euler import euler_rhs, hll_fluxes
from layerflow.geometry import LayerPartition, make_bathymetry
from layerflow.state import H_DRY, max_wave_speed, velocities


def _hll_reference(hl, ul, hr, ur, g, h_dry=H_DRY):
    """Scalar textbook HLL flux with dry-front wave speeds.

    Independent reimplementation used as the oracle for the vectorized
    layered version at N=1.
    """
    dry_l, dry_r = hl <= h_dry, hr <= h_dry
    if dry_l and dry_r:
        return 0.0, 0.0
    cl = np.sqrt(g * max(hl, 0.0))
    cr = np.sqrt(g * max(hr, 0.0))
    if dry_l:
        sl, sr = ur - 2.0 * cr, ur + cr
    elif dry_r:
        sl, sr = ul - cl, ul + 2.0 * cl
    else:
        sl = min(ul - cl, ur - cr)
        sr = max(ul + cl, ur + cr)
    fl = (hl * ul, hl * ul * ul + 0.5 * g * hl * hl)
    fr = (hr * ur, hr * ur * ur + 0.5 * g * hr * hr)
    if sl >= 0.0:
        return fl
    if sr <= 0.0:
        return fr
    span = sr - sl
    f_mass = (sr * fl[0] - sl * fr[0] + sl * sr * (hr - hl)) / span
    f_mom = (sr * fl[1] - sl * fr[1] + sl * sr * (hr * ur - hl * ul)) / span
    return f_mass, f_mom


def test_hll_matches_scalar_reference():
    rng = np.random.default_rng(11)
    part = LayerPartition.uniform(1)
    g = 9.81
    m = 500
    H_l = rng.uniform(0.0, 3.0, m)
    H_r = rng.uniform(0.0, 3.0, m)
    # sprinkle exact dry states and supersonic velocities
    H_l[rng.random(m) < 0.15] = 0.0
    H_r[rng.random(m) < 0.15] = 0.0
    u_l = rng.standard_normal((1, m)) * 4.0
    u_r = rng.standard_normal((1, m)) * 4.0
    fx = hll_fluxes(H_l, u_l, H_r, u_r, part, g, H_DRY)
    for j in range(m):
        ref_mass, ref_mom = _hll_reference(H_l[j], u_l[0, j], H_r[j], u_r[0, j], g)
        scale = max(1.0, abs(ref_mass), abs(ref_mom))
        assert abs(fx.mass[0, j] - ref_mass) <= 1e-12 * scale
        assert abs(fx.momentum[0, j] - ref_mom) <= 1e-12 * scale


def test_hll_identical_traces_give_physical_flux():
    part = LayerPartition.uniform(2)
    H = np.array([1.3])
    u = np.array([[0.7], [-0.2]])
    fx = hll_fluxes(H, u, H.copy(), u.copy(), part, 9.81, H_DRY)
    h = 0.5 * H[0]
    assert fx.mass[0, 0] == h * 0.7
    assert fx.mass[1, 0] == h * -0.2
    assert np.allclose(fx.momentum[:, 0],
                       [h * 0.49 + 0.5 * 9.81 * h * H[0],
                        h * 0.04 + 0.5 * 9.81 * h * H[0]])


def test_hll_proportional_layers_split_single_layer_flux():
    # equal layer velocities make each layer carry its fraction of the
    # single-layer flux because the wave fan is shared
    rng = np.random.default_rng(13)
    m = 200
    H_l = rng.uniform(0.05, 2.0, m)
    H_r = rng.uniform(0.05, 2.0, m)
    u = rng.standard_normal((1, m))
    v = rng.standard_normal((1, m))
    one = hll_fluxes(H_l, u, H_r, v, LayerPartition.uniform(1), 9.81, H_DRY)
    part3 = LayerPartition(np.array([0.2, 0.5, 0.3]))
    three = hll_fluxes(H_l, np.repeat(u, 3, axis=0), H_r,
                       np.repeat(v, 3, axis=0), part3, 9.81, H_DRY)
    for a, frac in enumerate(part3.fractions):
        assert np.allclose(three.mass[a], frac * one.mass[0], atol=1e-13)
        assert np.allclose(three.momentum[a], frac * one.momentum[0], atol=1e-13)


def test_hll_rejects_nonfinite_traces():
    part = LayerPartition.uniform(1)
    with pytest.raises(SolverAbort):
        hll_fluxes(np.array([np.nan]), np.zeros((1, 1)),
                   np.array([1.0]), np.zeros((1, 1)), part, 9.81, H_DRY)


def _lake_setup(bc, n=64, N=3, seed=2):
    rng = np.random.default_rng(seed)
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    zb = 0.3 * np.exp(-((x - 0.5) / 0.12) ** 2) + 0.02 * rng.standard_normal(n)
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(zb, dx, bc)
    H = 1.0 - zb
    q = np.zeros((N, n))
    return H, q, bathy, part, dx


def test_still_lake_is_balanced_for_all_boundaries():
    for bc in ("periodic", "wall", "transmissive"):
        H, q, bathy, part, dx = _lake_setup(bc)
        ev = euler_rhs(H, q, bathy, part, 9.81, dx, bc)
        assert np.abs(ev.dH).max() < 1e-13
        assert np.abs(ev.dq).max() < 1e-12
        assert np.abs(ev.G).max() < 1e-13


def test_flat_periodic_conserves_mass_and_momentum():
    rng = np.random.default_rng(17)
    n, N = 50, 3
    dx = 0.02
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "periodic")
    H = rng.uniform(0.2, 2.0, n)
    q = rng.standard_normal((N, n))
    ev = euler_rhs(H, q, bathy, part, 9.81, dx, "periodic")
    assert abs(ev.dH.sum() * dx) < 1e-13
    assert abs(ev.dq.sum() * dx) < 1e-12


def test_wall_keeps_mass_in_the_box():
    rng = np.random.default_rng(19)
    n, N = 40, 2
    dx = 0.025
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "wall")
    H = rng.uniform(0.2, 2.0, n)
    q = rng.standard_normal((N, n))
    ev = euler_rhs(H, q, bathy, part, 9.81, dx, "wall")
    assert abs(ev.dH.sum() * dx) < 1e-13


def test_depth_update_is_total_layer_divergence():
    rng = np.random.default_rng(23)
    n, N = 30, 4
    dx = 0.1
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(rng.standard_normal(n) * 0.1, dx, "periodic")
    H = rng.uniform(0.5, 1.5, n)
    q = rng.standard_normal((N, n)) * 0.3
    ev = euler_rhs(H, q, bathy, part, 9.81, dx, "periodic")
    assert np.allclose(ev.dH, -ev.div.sum(axis=0), rtol=0, atol=1e-14)
    assert (ev.G[0] == 0.0).all()
    assert (ev.G[-1] == 0.0).all()


def test_one_step_positivity_near_dry_fronts():
    rng = np.random.default_rng(29)
    n, N = 80, 2
    dx = 1.0 / n
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "transmissive")
    for _ in range(20):
        H = rng.uniform(0.0, 1.5, n)
        H[rng.random(n) < 0.3] = 0.0
        u = rng.standard_normal((N, n))
        u[:, H <= H_DRY] = 0.0
        q = part.fractions[:, None] * H[None, :] * u
        ev = euler_rhs(H, q, bathy, part, 9.81, dx, "transmissive")
        dt = 0.45 * dx / max_wave_speed(H, velocities(H, q, part), 9.81)
        assert (H + dt * ev.dH).min() > -1e-12
