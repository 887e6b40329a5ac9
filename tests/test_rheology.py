"""Newtonian stress closures, tractions and the viscous momentum terms."""
import hashlib

import numpy as np
import pytest

from layerflow.geometry import LayerPartition, build_geometry, make_bathymetry
from layerflow.rheology import stress_closure, viscous_rhs
from layerflow.scenario import PhysicsSpec
from layerflow.sv import sv_viscous


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


def test_uniform_extension():
    # u = c x stretches every layer equally: Sxx = 2 mu c, no shear
    n, dx, c, mu = 24, 0.05, 0.7, 0.4
    x = np.arange(n) * dx
    geom, H = _flat_geom(1.5, 3, n, dx, "transmissive")
    u = np.repeat((c * x)[None, :], 3, axis=0)
    S = stress_closure(PhysicsSpec(mu=mu), H, u, geom)
    assert np.allclose(S.xx_if, 2 * mu * c, atol=1e-12)
    assert np.allclose(S.xx_mid, 2 * mu * c, atol=1e-12)
    assert np.abs(S.zx_mid).max() < 1e-12


def test_traction_closures():
    # the wall law with the bed velocity eliminated over the bottom
    # half-layer: kappa / (1 + kappa h_1 / (2 mu)), with h_1 = 0.5
    n, dx, mu = 12, 0.1, 0.05
    geom, H = _flat_geom(1.0, 2, n, dx, "periodic")
    u = np.vstack([np.full(n, 0.8), np.full(n, 1.4)])
    S = stress_closure(PhysicsSpec(mu=mu, k_l=0.3, k_t=0.2), H, u, geom)
    assert (S.sigma[-1] == 0.0).all()
    kappa = 0.3 + 0.2 * H * np.abs(u[0])
    kappa_eff = kappa / (1.0 + kappa * 0.5 / (2.0 * mu))
    assert np.allclose(S.kappa, kappa_eff, rtol=1e-14)
    assert np.allclose(S.sigma[0], kappa_eff * u[0], atol=1e-14)  # cos=1 on flat
    # without viscosity the law is applied to u_1 as it stands
    S0 = stress_closure(PhysicsSpec(k_l=0.3, k_t=0.2), H, u, geom)
    assert S0.kappa.tobytes() == kappa.tobytes()
    assert np.allclose(S0.sigma[0], kappa * u[0], atol=1e-14)


def test_a_subnormal_viscosity_gives_the_wall_law_its_limit_without_warnings():
    # kappa h_1 / (2 mu) overflows to inf, so kappa_eff = 0, in the closure
    # and in the single-layer oracle alike
    n, dx, mu = 12, 0.1, 5e-324
    geom, H = _flat_geom(1.0, 2, n, dx, "wall")
    u = np.vstack([np.full(n, 0.8), np.full(n, 1.4)])
    assert (stress_closure(PhysicsSpec(mu=mu, k_l=0.3, k_t=0.2), H, u, geom).kappa == 0.0).all()
    _, drag = sv_viscous(H, u[0], np.zeros(n), mu, np.full(n, 0.3), dx, "wall")
    assert (drag == 0.0).all()


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
    S = stress_closure(PhysicsSpec(mu=0.2, k_l=0.1), H, u, geom)
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
    V = viscous_rhs(stress_closure(PhysicsSpec(mu=0.15), H, u, geom), geom)
    scale = np.abs(V).max()
    assert abs(V.sum() * dx) < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("bc", ["periodic", "wall", "transmissive"])
def test_the_stress_field_carries_its_carrier(bc):
    # the interface stresses are the carrier: the midpoint ones are their means
    geom, H, u = _random_sloped_state([len(bc), 85], bc=bc)
    S = stress_closure(PhysicsSpec(mu=0.2), H, u, geom)
    for mid, carrier in ((S.xx_mid, S.xx_if), (S.zx_mid, S.zx_if)):
        assert mid.tobytes() == (0.5 * (carrier[:-1] + carrier[1:])).tobytes()


# The closure had a second, layer-centred placement beside the interface
# one; the ids keep the names the interface-placed cases had then.
def _ids(cases):
    return ["-".join(["interface", *map(str, case)]) for case in cases]


BCS = ["periodic", "wall", "transmissive"]


@pytest.mark.parametrize("bc", BCS, ids=_ids([(bc,) for bc in BCS]))
def test_viscous_rhs_does_not_see_the_datum(bc):
    # raising the bed by a constant moves V by round-off only
    geom, H, u = _random_sloped_state([len(bc), 9, 86], bc=bc)
    physics = PhysicsSpec(mu=0.2, k_l=0.1, k_t=0.1)
    V = viscous_rhs(stress_closure(physics, H, u, geom), geom)
    zb = geom.z_if[0]
    for c in (-0.5, 1.0, 10.0):
        bathy = make_bathymetry(zb + c, geom.dx, bc)
        raised = build_geometry(H, bathy, LayerPartition.uniform(u.shape[0]))
        Vc = viscous_rhs(stress_closure(physics, H, u, raised), raised)
        assert np.abs(Vc - V).max() <= 1e-13 * (1.0 + abs(c)) * np.abs(V).max()


def _digest_case(bc, N):
    # a bumpy bed with one dry cell (a zero-thickness carrier), random
    # velocities, viscosity and both friction terms
    rng = np.random.default_rng([9, len(bc), N, 13])
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
                          k_t=float(rng.uniform(0.1, 0.5)))
    return physics, H, u, geom


# sha256 of the StressField arrays in STRESS_FIELDS and of sigma[1:], the
# tractions above the bed, recorded before the wall law eliminated the bed
# velocity: the law moves sigma[0] and kappa only
STRESS_FIELDS = ("xx_if", "zx_if", "xx_mid", "zx_mid")
STRESS_DIGESTS = {
    ("periodic", 1): "f609b26a802b4b5b178ab0155ddcf2bf8dcccb1b273151197bacd30d56c70914",
    ("periodic", 2): "ac1e361488c540f086459995701ff3aa64c49ae718971dc3b7cd0aa6c31fafb3",
    ("periodic", 5): "a9d55c87c088f8fbee6b02be36fe0153caf41fca3678e7d7b2128522078498f4",
    ("wall", 1): "a4e7ce314a5ef8701028d036ddcab63f9ca9ae8607c53a0ea8e32adbef0a6c1e",
    ("wall", 2): "1ce10a078e2dcd39e73dc521f3e2e20f63a43c2838e078f979eed314df2b332f",
    ("wall", 5): "338d7a17c2a0cb647186fedd0c4db4b7f88440c814f5dd6552a504e34fd57bea",
    ("transmissive", 1): "8fce235d2886ffc79ab9828cb9f4b49f396e18920b89e7a819cf8c30e5d05fe3",
    ("transmissive", 2): "c8d2376fd39f8ebee0319e752d866b20cf57ae5ea5564a0d4cd7f6c945e1ab6d",
    ("transmissive", 5): "eb40b3abb842bd97ffb078daed3c4e03952ba6b2e93290aff6b7239901737bf6",
}

# sha256 of viscous_rhs on the same cases.  V[1:], which sigma[0] does not
# reach, is pinned from before the wall law eliminated the bed velocity;
# V[0] was re-recorded with it.
V_ABOVE_DIGESTS = {
    ("periodic", 2): "baf3887660d23d1848d35dd7da6468ad44edcd2f714248dc47e7f745596e63ec",
    ("periodic", 5): "a55f8533bb52b60ebe9330c26a543e4261f29cc2845918c010446b7cf693f72e",
    ("wall", 2): "f9334c4af414c62b6eb5a9b64b9a0a02b2bf8aac77f22e3954d6c682d990f40b",
    ("wall", 5): "4130c67bf12ff34b48a91291c484e56b5c9652a7b8339cd613713643f0fc59e9",
    ("transmissive", 2): "102cca3379e48c01d11cffaa5b8fee3ca54be84a6211283e79211c234eac2d62",
    ("transmissive", 5): "2f3f587d670707988d00c1fb0677ad878b3f475bf8b794ce6d06c0f3a67ca0e7",
}
V_BED_DIGESTS = {
    ("periodic", 1): "6fcc3a3cb541fdcc952e45d503122e62ad830a923acbae5ca5e4923740703578",
    ("periodic", 2): "7be532eed662aa2899a671c061f08c86fc0f25cf95378aa03b31e96736af31d8",
    ("periodic", 5): "6468b435a6e58daadd11602642cbda9df4559386ea3598d705fe85c15f7d03fb",
    ("wall", 1): "e94a29d325c84e47032b3e31754e5a08b07bd52349120e2267f35964a07e6701",
    ("wall", 2): "e853276c0e6ef782d5d145135dc37cd495d4a9a986c6dbe0fba5a8caea611c20",
    ("wall", 5): "cee648bf27b57be63ef2718be8701f68618adab2d4cd553590a9588c3f805f4e",
    ("transmissive", 1): "cfd0fed26133e63ad0a86d706f810df54e6b188a7ef8a873ac1c696e052598db",
    ("transmissive", 2): "0f07e0196764a46ff123f90758525ed19d67b7e6cd59b241103f240c9a45bb02",
    ("transmissive", 5): "8d10339dbf4340d5e33111f20307bb4982e6dd8e219e729b77a0a002b3725938",
}


@pytest.mark.parametrize("bc,N", sorted(STRESS_DIGESTS), ids=_ids(sorted(STRESS_DIGESTS)))
def test_the_stress_field_reproduces_its_digests_bitwise(bc, N):
    physics, H, u, geom = _digest_case(bc, N)
    S = stress_closure(physics, H, u, geom)
    sha = hashlib.sha256()
    for name in STRESS_FIELDS:
        sha.update(np.ascontiguousarray(getattr(S, name)).tobytes())
    sha.update(S.sigma[1:].tobytes())
    assert sha.hexdigest() == STRESS_DIGESTS[bc, N]
    kappa = physics.k_l + physics.k_t * H * np.abs(u[0])
    kappa_eff = kappa / (1.0 + kappa * geom.h[0] / (2.0 * physics.mu))
    assert S.kappa.tobytes() == kappa_eff.tobytes()
    assert S.sigma[0].tobytes() == (kappa_eff * u[0] / geom.cos3_b).tobytes()


@pytest.mark.parametrize("bc,N", sorted(STRESS_DIGESTS), ids=_ids(sorted(STRESS_DIGESTS)))
def test_viscous_rhs_reproduces_its_digests_bitwise(bc, N):
    physics, H, u, geom = _digest_case(bc, N)
    V = viscous_rhs(stress_closure(physics, H, u, geom), geom)
    if N > 1:
        assert hashlib.sha256(V[1:].tobytes()).hexdigest() == V_ABOVE_DIGESTS[bc, N]
    assert hashlib.sha256(V[0].tobytes()).hexdigest() == V_BED_DIGESTS[bc, N]
