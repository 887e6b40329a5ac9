"""Newtonian stress closures, tractions and the viscous momentum terms."""
import hashlib

import numpy as np
import pytest

from layerflow.geometry import LayerPartition, build_geometry, make_bathymetry
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
def test_the_stress_field_carries_its_carrier(bc):
    geom, H, u = _random_sloped_state([len(bc), 85], bc=bc)
    carriers = {"interface": (geom.h_half, "xx_if", "zx_if"),
                "layer": (geom.h, "xx_mid", "zx_mid")}
    for placement, (weight, xx, zx) in carriers.items():
        S = stress_closure(PhysicsSpec(mu=0.2, placement=placement), H, u, geom)
        assert S.weight is weight
        assert S.xx is getattr(S, xx) and S.zx is getattr(S, zx)


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
@pytest.mark.parametrize("placement", ["interface", "layer"])
def test_viscous_rhs_does_not_see_the_datum(placement, bc):
    # raising the bed by a constant moves V by round-off only
    geom, H, u = _random_sloped_state([len(bc), len(placement), 86], bc=bc)
    physics = PhysicsSpec(mu=0.2, k_l=0.1, k_t=0.1, placement=placement)
    V = viscous_rhs(stress_closure(physics, H, u, geom), geom)
    zb = geom.z_if[0]
    for c in (-0.5, 1.0, 10.0):
        bathy = make_bathymetry(zb + c, geom.dx, bc)
        raised = build_geometry(H, bathy, LayerPartition.uniform(u.shape[0]))
        Vc = viscous_rhs(stress_closure(physics, H, u, raised), raised)
        assert np.abs(Vc - V).max() <= 1e-13 * (1.0 + abs(c)) * np.abs(V).max()


def _digest_case(placement, bc, N):
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
    return physics, H, u, geom


# sha256 of the StressField arrays in STRESS_FIELDS, recorded with the two
# closures that the one stress assembly replaced and unchanged since
STRESS_FIELDS = ("xx_if", "zx_if", "xx_mid", "zx_mid", "weight", "xx", "zx", "sigma")
STRESS_DIGESTS = {
    ("interface", "periodic", 1): "df04766e620a5e4d6f437fbbcb09823c2bebe5ecc12af8cb7f4f8f7026a44246",
    ("interface", "periodic", 2): "0ee3f9d9049790f1a9ba6214f524d35ee9d4dfe12869313f3795a989b696fb5c",
    ("interface", "periodic", 5): "edbda671393402f58a81a32ab694652bb4d56d1e6b8923bf37fc3bb81f79ec63",
    ("interface", "wall", 1): "ec783e9f49d728445841cedea09e3d98a8ebfc2d6fb05bb355134a3bc7148f13",
    ("interface", "wall", 2): "21cf9262e0b26a6d508d6c5dbf5058506c34251ec7aa8152e6919c74ef0e9396",
    ("interface", "wall", 5): "5673cb455ada24ffc93b90d420a82fb930fca47fbd3d3f530eadad68274e2dac",
    ("interface", "transmissive", 1): "c31d65893cf9806179aee32996d6cf212688435e513bf5b7345f878d65a98e5b",
    ("interface", "transmissive", 2): "496c12dc6fbccdde8fd50967ede558c6a5252e8ea7bf7f4ff41018ad5199baa1",
    ("interface", "transmissive", 5): "49db16b5eb86ca46d7227a0368f908f5ba6f14a9f0ef34bc00d15522b643cd99",
    ("layer", "periodic", 1): "f70f428adfcdf3ab7ed3b5a4c1e51911f4a5c9939aae082b2004de21dd66f820",
    ("layer", "periodic", 2): "5dc26bb55316b89b0a4255ab3a41f3fac3a4d5a8de4c777756627a7de77114da",
    ("layer", "periodic", 5): "7e7ceea309fed17505bd95cfae41288b646e343fb982a7a040e97f8ac6167ca8",
    ("layer", "wall", 1): "f90f882db4c0b3946f64776e44ca47d5325f9eb76c37c65ac4c6c46d75386bbc",
    ("layer", "wall", 2): "ab78cf530856c5ea649f066bf7ac5ef4e95dd763dc441ab51cf4ef97b59f92ec",
    ("layer", "wall", 5): "4b7695796dd57d36cb8f3d6ce58d79e108511d8eeb501fc8067e8641051f5ae1",
    ("layer", "transmissive", 1): "88c48ea3cbed15a4de3dccc053ae3c84b09145e2291f68aca7e988ebd5a4ff37",
    ("layer", "transmissive", 2): "c079826e374207b7cb409eebf66b08929a0e57382d9cf5e9cda73fd40b35ad85",
    ("layer", "transmissive", 5): "2577f258040eed64e9c819050d947f2e88b2aa07fdb70bfa4e194bf8ef3ef255",
}

# sha256 of viscous_rhs on the same cases, recorded when V became the
# transpose of the closure's strain map
V_DIGESTS = {
    ("interface", "periodic", 1): "14d35c91bf47a3050be43ee5370462b25d8584366c6afe7690020148de0bdecc",
    ("interface", "periodic", 2): "8f77d1763adb52a9dd48bd7d1762b4e90432ae1fa275d4728b12ae2ce1664ea7",
    ("interface", "periodic", 5): "adcbf934cded7d7634a8e267958a8c44e9e980927be6075845f23734294bbbe1",
    ("interface", "wall", 1): "480f8321617aa561ff17f9eb12c09c3870e8d94522d4030db486d73f71a3420f",
    ("interface", "wall", 2): "e854de1a134e21a3fa659ae0c45211932e209c9e6b514547d660fde2c1205c7b",
    ("interface", "wall", 5): "f875d566da1ac0250e6a45695df3d4869f07942e662cedec92ac89f676702b36",
    ("interface", "transmissive", 1): "4191618cbf3c7a560dbe45f3b1746c7f3bd7a5721c02910f2d708f049046485e",
    ("interface", "transmissive", 2): "0e6518fd645f718bb722d9ecde1f27809d83158e39c9c37ec04dc95c39d6a8b4",
    ("interface", "transmissive", 5): "94d2f5d0c49d357159b580e4f3b335d774897caf2ac83efa1ecd30bbe207c70f",
    ("layer", "periodic", 1): "f221a8ee4312a971181fee139d861d09b591f6f91b5fc38fa359c1a3010a5018",
    ("layer", "periodic", 2): "b336313877389b897346158bce0143336ee2b7dceabe55997b81ad0e56c30664",
    ("layer", "periodic", 5): "ffb82f30f80da444d199a7eb294093fedee80c7e55ef186a49cdfcee8eee1194",
    ("layer", "wall", 1): "088e587b4c133e647d6d6a5602ed3238769c54fe9adf3a9fd6b8e07e57feed3e",
    ("layer", "wall", 2): "9bf2ce45d30738384de36a2990087dd100c3dccf8900494b80b3016e94ec226f",
    ("layer", "wall", 5): "c8e01be0b839bd70deaf288e0f311fa7158bd4f9616b3136a010583301e317ad",
    ("layer", "transmissive", 1): "9083851fb50ae75817068b00fed8b62b8ed85b4ea35a5dfd944ae8bf6ba5f770",
    ("layer", "transmissive", 2): "b16997780ace01c42b1468e041db9fe72d77705a02bf8769f71ee21d1c2531bb",
    ("layer", "transmissive", 5): "56427ee7ef823a84e9952db00376ebc925b67152ee426d398d4a2863ac5e1879",
}


@pytest.mark.parametrize("placement,bc,N", sorted(STRESS_DIGESTS))
def test_the_stress_field_reproduces_its_digests_bitwise(placement, bc, N):
    physics, H, u, geom = _digest_case(placement, bc, N)
    S = stress_closure(physics, H, u, geom)
    sha = hashlib.sha256()
    for name in STRESS_FIELDS:
        sha.update(np.ascontiguousarray(getattr(S, name)).tobytes())
    assert sha.hexdigest() == STRESS_DIGESTS[placement, bc, N]
    assert S.kappa.tobytes() == friction_kappa(physics, H, u[0]).tobytes()


@pytest.mark.parametrize("placement,bc,N", sorted(V_DIGESTS))
def test_viscous_rhs_reproduces_its_digests_bitwise(placement, bc, N):
    physics, H, u, geom = _digest_case(placement, bc, N)
    V = viscous_rhs(stress_closure(physics, H, u, geom), geom)
    assert hashlib.sha256(V.tobytes()).hexdigest() == V_DIGESTS[placement, bc, N]
