"""Newtonian stress closures, tractions and the viscous momentum terms."""
import hashlib

import numpy as np
import pytest

from layerflow.geometry import LayerPartition, build_geometry, make_bathymetry
from layerflow.gridops import ddx
from layerflow.kinematics import reconstruct_w
from layerflow.rheology import friction_kappa, stress_closure, viscous_rhs
from layerflow.scenario import PhysicsSpec


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
    S = stress_closure(PhysicsSpec(mu=mu), H, u, geom)
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
    S = stress_closure(PhysicsSpec(mu=mu), H, u, geom)
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
        S = stress_closure(PhysicsSpec(mu=mu, placement=placement), H, u, geom)
        assert np.allclose(S.xx_if, 2 * mu * c, atol=1e-12)
        assert np.allclose(S.xx_mid, 2 * mu * c, atol=1e-12)
        assert np.abs(S.zx_mid).max() < 1e-12


def test_traction_closures():
    n, dx = 12, 0.1
    geom, H = _flat_geom(1.0, 2, n, dx, "periodic")
    u = np.vstack([np.full(n, 0.8), np.full(n, 1.4)])
    S = stress_closure(PhysicsSpec(mu=0.05, k_l=0.3, k_t=0.2), H, u, geom)
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
        S = stress_closure(PhysicsSpec(mu=0.2, k_l=0.1, placement=placement), H, u, geom)
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
        S = stress_closure(PhysicsSpec(mu=0.15, placement=placement), H, u, geom)
        V = viscous_rhs(S, geom)
        scale = np.abs(V).max()
        assert abs(V.sum() * dx) < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_the_stress_field_carries_its_w_resultant_and_carrier(bc):
    geom, H, u = _random_sloped_state([len(bc), 85], bc=bc)
    carriers = {"interface": (geom.h_half, "xx_if", "zx_if"),
                "layer": (geom.h, "xx_mid", "zx_mid")}
    for placement, (weight, xx, zx) in carriers.items():
        S = stress_closure(PhysicsSpec(mu=0.2, placement=placement), H, u, geom)
        assert S.w.tobytes() == reconstruct_w(u, geom)[0].tobytes()
        inner = ddx(geom.h * geom.z_mid * S.zx_mid, geom.dx, bc)
        assert S.resultant.tobytes() == (geom.h * (S.xx_mid - (-S.xx_mid))
                                         + inner).tobytes()
        assert S.weight is weight
        assert S.xx is getattr(S, xx) and S.zx is getattr(S, zx)


# sha256 of every StressField array in STRESS_FIELDS, then of viscous_rhs,
# recorded with the two closures that the one stress assembly replaced
STRESS_FIELDS = ("xx_if", "zx_if", "xx_mid", "zx_mid", "weight", "xx", "zx",
                 "sigma", "w", "resultant")
STRESS_DIGESTS = {
    ("interface", "periodic", 1): "e1f6072330a516812c674d89a786492ab0fb6742c41d729fbbb48acc93758400",
    ("interface", "periodic", 2): "6343347f6c2e0bd02ab85d3aa9a8a3a14a3d9f5b35d71dd7d131b46e7a5639d8",
    ("interface", "periodic", 5): "ed15b07766ec947d3805af6f79d6fcd390426bd9e993784ad7a5183af3eb30e3",
    ("interface", "wall", 1): "b81fcc33b9a40d4e6cafc42a5e67f8fe4d25c5c32b5ed460a6644196fad490b3",
    ("interface", "wall", 2): "a1dc57f5c4d260f5c8810da21b6f89fac83210bdb3282d99cf97412b62ce775f",
    ("interface", "wall", 5): "c8b8857322186255a0c262c782d181f9eed330c8a50d7a69a981f3cc1f50fc6d",
    ("interface", "transmissive", 1): "12925267bb88798a3f9d2c8bff4f10138fa3602a6367c528b5f241504f12390d",
    ("interface", "transmissive", 2): "89a4b763ca1eef10d27f7eee26cc026b9b3e1ddf1ecddfe16f17c3538fa97782",
    ("interface", "transmissive", 5): "7547ec8ff2a3cda98385b7db393281430f03059ca61454e4e3756a5b7833e494",
    ("layer", "periodic", 1): "c566549f598290360a45c88f7722d0851badea63db2ca5897ed08d811fee454d",
    ("layer", "periodic", 2): "7ddbd7f8caf8cbdbf76d9f5418a9c9a6a0ce6f0fec3cadba08b14b159b15bf3f",
    ("layer", "periodic", 5): "d8843c479f82cc51ef9b213d1cdff10391eabc7415c2d10155caf509d753ac9a",
    ("layer", "wall", 1): "1658e9f10be03f1f02ef7f384f4c30134bef363318ea5951fa1a7962645af173",
    ("layer", "wall", 2): "ea9315a34ec7bad99e55da6cc509935993f8792937352ad1e3ebc2a68bf5d2bf",
    ("layer", "wall", 5): "2d62b672ed8ed68bb5ac14180a9ad28f5e4c8e086b48fbbbcdf93fe3f706bad7",
    ("layer", "transmissive", 1): "460eaf0326d6eb666d5306bcc8a99bab2170b70c87b9f00a8acdc8378bac66cb",
    ("layer", "transmissive", 2): "2f40d0b3d3c37ed8e26fcdce66c6baa96254b027631f1011379fe943e36d07b6",
    ("layer", "transmissive", 5): "ba3ab527851a3bbe5a11cd75fc2255e51e9f9d6cc3b1a6340a44d35ca563bc23",
}


@pytest.mark.parametrize("placement,bc,N", sorted(STRESS_DIGESTS))
def test_the_stress_field_reproduces_its_digests_bitwise(placement, bc, N):
    # a bumpy bed with one dry cell (a zero-thickness carrier on both
    # placements), random velocities, viscosity and both friction terms
    rng = np.random.default_rng([len(placement), len(bc), N, 13])
    n = 17
    fractions = rng.uniform(0.5, 1.5, N)
    part = LayerPartition(fractions / fractions.sum())
    bathy = make_bathymetry(0.1 * rng.standard_normal(n), 1.0 / n, bc)
    H = rng.uniform(0.3, 1.2, n)
    H[int(rng.integers(1, n - 1))] = 0.0
    u = rng.standard_normal((N, n))
    u[:, H == 0.0] = 0.0
    geom = build_geometry(H, bathy, part)
    # the draws keep their order: mu, k_l, k_t
    physics = PhysicsSpec(mu=float(rng.uniform(0.05, 0.3)), k_l=float(rng.uniform(0.1, 0.5)),
                          k_t=float(rng.uniform(0.1, 0.5)), placement=placement)
    S = stress_closure(physics, H, u, geom)
    sha = hashlib.sha256()
    for name in STRESS_FIELDS:
        sha.update(np.ascontiguousarray(getattr(S, name)).tobytes())
    sha.update(viscous_rhs(S, geom).tobytes())
    assert sha.hexdigest() == STRESS_DIGESTS[placement, bc, N]
    assert S.kappa.tobytes() == friction_kappa(physics, H, u[0]).tobytes()
