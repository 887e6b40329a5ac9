"""Newtonian stress closures, tractions and the viscous momentum terms."""
import numpy as np
import pytest

from layerflow.geometry import LayerPartition, build_geometry, make_bathymetry
from layerflow.gridops import ddx
from layerflow.kinematics import reconstruct_w
from layerflow.rheology import (FrictionLaw, RheologyModel, stress_closure,
                                viscous_rhs)


def _flat_geom(H0, N, n, dx, bc):
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, bc)
    H = np.full(n, H0)
    return build_geometry(H, bathy, part), H


def test_pure_vertical_shear_interface_placement():
    # x-uniform layer velocities over a flat bed: the only nonzero stress
    # is the finite-difference shear mu du/dz at interior interfaces
    N, n, mu = 4, 6, 0.3
    geom, H = _flat_geom(2.0, N, n, 0.25, "periodic")
    u_col = np.array([0.0, 1.0, 3.0, 2.0])
    u = np.repeat(u_col[:, None], n, axis=1)
    model = RheologyModel(mu=mu)
    S = stress_closure(model, FrictionLaw(), H, u, geom)
    gap = 0.5  # interior interface gap for H=2, N=4
    expect = mu * np.diff(u_col) / gap
    for k in range(1, N):
        assert np.allclose(S.zx_if[k], expect[k - 1], atol=1e-13)
    assert np.abs(S.zx_if[0]).max() < 1e-14
    assert np.abs(S.zx_if[-1]).max() < 1e-14
    assert np.abs(S.xx_if).max() < 1e-14
    assert np.abs(S.xx_mid).max() < 1e-14


def test_pure_shear_viscous_rhs_is_tridiagonal_diffusion():
    # same setup: the momentum term must reduce to the classic
    # layer-integrated vertical diffusion stencil
    N, n, mu = 5, 7, 0.12
    dx = 0.2
    geom, H = _flat_geom(1.0, N, n, dx, "periodic")
    u_col = np.array([0.4, -0.3, 0.9, 0.0, 0.2])
    u = np.repeat(u_col[:, None], n, axis=1)
    model = RheologyModel(mu=mu)
    S = stress_closure(model, FrictionLaw(), H, u, geom)
    V = viscous_rhs(S, geom)
    gap = 1.0 / N
    flux = np.zeros(N + 1)
    flux[1:-1] = mu * np.diff(u_col) / gap
    expect = flux[1:] - flux[:-1]
    for a in range(N):
        assert np.allclose(V[a], expect[a], atol=1e-13)


def test_uniform_extension_both_placements():
    # u = c x stretches every layer equally: Sxx = 2 mu c, no shear
    n, dx, c, mu = 24, 0.05, 0.7, 0.4
    x = np.arange(n) * dx
    for placement in ("interface", "layer"):
        geom, H = _flat_geom(1.5, 3, n, dx, "transmissive")
        u = np.repeat((c * x)[None, :], 3, axis=0)
        model = RheologyModel(mu=mu, placement=placement)
        S = stress_closure(model, FrictionLaw(), H, u, geom)
        assert np.allclose(S.xx_if, 2 * mu * c, atol=1e-12)
        assert np.allclose(S.xx_mid, 2 * mu * c, atol=1e-12)
        assert np.abs(S.zx_mid).max() < 1e-12


def test_traction_closures():
    n, dx = 12, 0.1
    geom, H = _flat_geom(1.0, 2, n, dx, "periodic")
    u = np.vstack([np.full(n, 0.8), np.full(n, 1.4)])
    friction = FrictionLaw(k_l=0.3, k_t=0.2)
    model = RheologyModel(mu=0.05)
    S = stress_closure(model, friction, H, u, geom)
    assert (S.sigma[-1] == 0.0).all()
    kappa = 0.3 + 0.2 * H * np.abs(u[0])
    assert np.allclose(S.sigma[0], kappa * u[0], atol=1e-14)  # cos=1 on flat


def _random_sloped_state(seed, n=20, N=3, bc="transmissive"):
    rng = np.random.default_rng(seed)
    dx = 1.0 / n
    bathy = make_bathymetry(0.2 * rng.standard_normal(n), dx, bc)
    H = rng.uniform(0.5, 1.5, n)
    geom = build_geometry(H, bathy, LayerPartition.uniform(N))
    return geom, H, rng.standard_normal((N, n))


def test_tangential_traction_formula():
    # interior interfaces of slope s carry Szx - s (Sxx + s Szx - Szz)
    # with Szz = -Sxx, bit for bit
    geom, H, u = _random_sloped_state(84)
    for placement in ("interface", "layer"):
        S = stress_closure(RheologyModel(mu=0.2, placement=placement),
                           FrictionLaw(k_l=0.1), H, u, geom)
        xx, zx, s = S.xx_if, S.zx_if, geom.dz_if_dx
        want = zx - s * (xx + s * zx - (-xx))
        assert S.sigma[1:-1].tobytes() == want[1:-1].tobytes()


def test_internal_stresses_do_not_create_momentum():
    # flat periodic box without friction: the stress terms only move
    # momentum between layers and cells
    rng = np.random.default_rng(47)
    n, N, dx = 36, 3, 1.0 / 36
    part = LayerPartition.uniform(N)
    bathy = make_bathymetry(np.zeros(n), dx, "periodic")
    H = rng.uniform(0.5, 1.5, n)
    geom = build_geometry(H, bathy, part)
    u = rng.standard_normal((N, n))
    for placement in ("interface", "layer"):
        model = RheologyModel(mu=0.15, placement=placement)
        S = stress_closure(model, FrictionLaw(), H, u, geom)
        V = viscous_rhs(S, geom)
        scale = np.abs(V).max()
        assert abs(V.sum() * dx) < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_the_stress_field_carries_its_w_resultant_and_carrier(bc):
    geom, H, u = _random_sloped_state([len(bc), 85], bc=bc)
    carriers = {"interface": (geom.h_half, "xx_if", "zx_if"),
                "layer": (geom.h, "xx_mid", "zx_mid")}
    for placement, (weight, xx, zx) in carriers.items():
        S = stress_closure(RheologyModel(mu=0.2, placement=placement),
                           FrictionLaw(), H, u, geom)
        assert S.w.tobytes() == reconstruct_w(u, geom)[0].tobytes()
        inner = ddx(geom.h * geom.z_mid * S.zx_mid, geom.dx, bc)
        assert S.resultant.tobytes() == (geom.h * (S.xx_mid - (-S.xx_mid))
                                         + inner).tobytes()
        assert S.weight is weight
        assert S.xx is getattr(S, xx) and S.zx is getattr(S, zx)


def test_model_validation():
    with pytest.raises(ValueError):
        RheologyModel(mu=-0.1)
    with pytest.raises(ValueError):
        RheologyModel(mu=0.1, placement="edge")
    assert not RheologyModel().active
    assert RheologyModel(mu=0.2).active
