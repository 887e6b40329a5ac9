"""Energy bookkeeping: densities, dissipation channels, budget closure."""
import numpy as np
import pytest

from layerflow.energy import (budget_residuals, exchange_dissipation,
                              interface_energy_term, layer_energies,
                              newtonian_dissipation)
from layerflow.geometry import (LayerPartition, build_geometry, layer_thicknesses,
                                make_bathymetry)
from layerflow.rheology import stress_closure
from layerflow.scenario import (BathymetrySpec, ControlsSpec, InitSpec, LayersSpec,
                                MeshSpec, OutputSpec, PhysicsSpec, Scenario)
from layerflow.state import velocities
from layerflow.timeloop import run


def test_layer_energy_worked_example():
    # two half layers, H=2, u=(1,3), g=10 over a flat bed
    part = LayerPartition(np.array([0.5, 0.5]))
    bathy = make_bathymetry(np.zeros(3), 1.0, "periodic")
    geom = build_geometry(np.full(3, 2.0), bathy, part)
    u = np.array([[1.0], [3.0]]) * np.ones((2, 3))
    E = layer_energies(u, geom, 10.0)
    assert np.allclose(E[0], 5.5)
    assert np.allclose(E[1], 19.5)


def test_still_water_total_energy_closed_form():
    part = LayerPartition.uniform(4)
    n, dx = 25, 0.04
    bathy = make_bathymetry(np.zeros(n), dx, "periodic")
    geom = build_geometry(np.ones(n), bathy, part)
    E = float(layer_energies(np.zeros((4, n)), geom, 9.81).sum() * dx)
    # int over 0..1 of g z dz = g/2 per unit length, unit-length domain
    assert abs(E - 0.5 * 9.81) < 1e-12


def test_upwind_interface_term_worked_example():
    # u = (1, 2), G = -0.5 flows downward, upwind takes the lower layer
    term = interface_energy_term(np.array([1.0]), np.array([2.0]),
                                 np.array([1.0]), np.array([-0.5]))
    assert np.isclose(term[0], -0.25)


def test_exchange_dissipation_worked_example():
    u = np.array([[1.0], [2.0]])
    G = np.array([[0.0], [-0.5], [0.0]])
    assert np.isclose(exchange_dissipation(u, G, 1.0), -0.25)


def test_exchange_dissipation_properties():
    rng = np.random.default_rng(53)
    for _ in range(50):
        N, n = int(rng.integers(2, 6)), 12
        u = rng.standard_normal((N, n))
        G = rng.standard_normal((N + 1, n))
        G[0] = G[-1] = 0.0
        assert exchange_dissipation(u, G, 0.1) <= 0.0
    # uniform columns exchange momentum at their own velocity: no loss
    u = np.ones((3, 5))
    G = np.ones((4, 5))
    assert exchange_dissipation(u, G, 0.1) == 0.0
    assert exchange_dissipation(u[:1], G[:2], 0.1) == 0.0


def test_newtonian_dissipation_inactive_without_viscosity():
    n = 10
    part = LayerPartition.uniform(2)
    bathy = make_bathymetry(np.zeros(n), 0.1, "periodic")
    H = np.ones(n)
    geom = build_geometry(H, bathy, part)
    u = np.random.default_rng(1).standard_normal((2, n))
    S = stress_closure(PhysicsSpec(mu=0.0, k_l=0.2), H, u, geom)
    stress, fric = newtonian_dissipation(S, geom, 0.0, u)
    assert stress == 0.0
    assert fric < 0.0


def test_budget_residuals_close_a_manufactured_balance():
    times = np.array([0.0, 0.1, 0.3, 0.6])
    src = np.array([-1.0, -0.5, -2.0, 0.0])
    E = np.empty(4)
    E[0] = 10.0
    for k in range(3):
        E[k + 1] = E[k] + (times[k + 1] - times[k]) * src[k]
    zero = np.zeros(4)
    res = budget_residuals(times, E, zero, src, zero, zero)
    assert res.shape == (3,)
    assert np.abs(res).max() < 1e-12


def test_friction_only_run_loses_energy():
    scn = Scenario(
        mesh=MeshSpec(0.0, 1.0, 40),
        boundary="periodic",
        layers=LayersSpec(n=2),
        init=InitSpec(kind="table",
                      H_values=tuple(np.ones(40)),
                      u_values=tuple(np.full(80, 0.5))),
        physics=PhysicsSpec(g=9.81, k_l=0.4),
        controls=ControlsSpec(t_end=0.3),
    )
    result = run(scn)
    assert (result.friction <= 0.0).all()
    assert result.E_total[-1] < result.E_total[0]
    assert (np.diff(result.E_total) <= 1e-12 * result.E_total[0]).all()


def test_budget_closes_for_x_uniform_shear():
    # without horizontal jumps the transport core is silent and the
    # audited channels explain the whole energy drop
    scn = Scenario(
        mesh=MeshSpec(0.0, 1.0, 16),
        boundary="periodic",
        layers=LayersSpec(n=3),
        bathymetry=BathymetrySpec(kind="flat", z0=-0.5),
        init=InitSpec(kind="shear", eta0=0.5, u=(0.3, 0.0, -0.2)),
        physics=PhysicsSpec(g=9.81, mu=0.02, k_l=0.05),
        controls=ControlsSpec(t_end=0.3),
    )
    result = run(scn)
    dE = result.E_total[-1] - result.E_total[0]
    dt = np.diff(result.times)
    explained = ((result.D_G + result.R_E + result.friction)[:-1] * dt).sum()
    assert dE < 0.0
    assert abs(dE - explained) < 0.01 * abs(dE)


def test_smooth_run_residual_is_pure_extra_dissipation():
    # on a coarse smooth run the first-order flux still smears energy;
    # that loss shows up as a strictly nonpositive budget residual
    n = 32
    x = (np.arange(n) + 0.5) / n
    H = 1.0 + 0.05 * np.sin(2 * np.pi * x)
    u0 = 0.1 * np.cos(2 * np.pi * x)
    scn = Scenario(
        mesh=MeshSpec(0.0, 1.0, n),
        boundary="periodic",
        layers=LayersSpec(n=3),
        init=InitSpec(kind="table", H_values=tuple(H),
                      u_values=tuple(np.tile(u0, 3))),
        physics=PhysicsSpec(g=9.81, mu=0.02, k_l=0.05),
        controls=ControlsSpec(t_end=0.1),
    )
    result = run(scn)
    dE = result.E_total[-1] - result.E_total[0]
    dt = np.diff(result.times)
    explained = ((result.D_G + result.R_E + result.friction)[:-1] * dt).sum()
    assert dE < 0.0
    assert dE <= explained + 1e-12
    assert result.residuals.max() <= 1e-9


def _two_layer_dam_break(bc):
    return Scenario(
        mesh=MeshSpec(0.0, 1.0, 100),
        boundary=bc,
        layers=LayersSpec(n=2),
        init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.5, x0=0.5, u=(0.3, 0.5)),
        physics=PhysicsSpec(g=9.81),
        controls=ControlsSpec(t_end=0.3),
    )


def test_a_wall_books_no_energy_influx():
    # the mirrored traces at a wall carry no mass flux, and a periodic
    # domain has no ends, so no energy enters; the same flow between
    # transmissive ends exchanges energy through them
    for bc in ("wall", "periodic"):
        closed = run(_two_layer_dam_break(bc))
        assert closed.influx.size > 2
        assert np.all(closed.influx == 0.0)
    assert np.abs(run(_two_layer_dam_break("transmissive")).influx).max() > 0.1


def test_a_viscous_lake_at_rest_loses_energy_at_every_datum():
    # 1e-6 velocity noise on a lake at rest over a bump: its energy above the
    # rest state, kinetic plus g/2 (eta - eta0)^2, falls at every step, and
    # the run takes the same steps whatever the height of the datum
    n, N, g = 48, 4, 9.81
    x = (np.arange(n) + 0.5) / n
    noise = 1e-6 * np.random.default_rng(5).standard_normal(N * n)
    steps = set()
    for datum in (-0.5, 0.0, 1.0):
        zb = 0.1 * np.cos(2 * np.pi * x) + datum
        scn = Scenario(
            mesh=MeshSpec(0.0, 1.0, n),
            boundary="periodic",
            layers=LayersSpec(n=N),
            bathymetry=BathymetrySpec(kind="table", values=tuple(zb)),
            init=InitSpec(kind="table", H_values=tuple(datum + 1.0 - zb),
                          u_values=tuple(noise)),
            physics=PhysicsSpec(g=g, mu=1e-3),
            controls=ControlsSpec(t_end=0.02),
            output=OutputSpec(snapshot_every=1e-12),  # a frame per step
        )
        result = run(scn)
        part = result.ctx.part
        above_rest = []
        for _, _, s in result.snapshots:
            h = layer_thicknesses(s.H, part)
            u = velocities(s.H, s.q, part, h=h)
            eta = s.H + zb - (datum + 1.0)
            above_rest.append(((0.5 * h * u * u).sum() + 0.5 * g * (eta * eta).sum()) / n)
        assert (np.diff(above_rest) < 0.0).all(), datum
        steps.add(result.summary["steps"])
    assert len(steps) == 1


def _bump_shear(boundary, u, fractions=None):
    # x-uniform layer velocities over a Gaussian bump: smooth waves, no shocks
    return Scenario(
        mesh=MeshSpec(0.0, 1.0, 100),
        boundary=boundary,
        layers=LayersSpec(n=len(u), fractions=fractions),
        bathymetry=BathymetrySpec(kind="bump", z0=-0.5, a=0.1, x0=0.5, width=0.1),
        init=InitSpec(kind="shear", eta0=0.5, u=tuple(u)),
        physics=PhysicsSpec(g=9.81),
        controls=ControlsSpec(t_end=0.3),
    )


def _wall_dam_break(mu):
    # the bed sits at the datum, so the energy stays positive and its
    # relative growth is defined
    return Scenario(
        mesh=MeshSpec(0.0, 1.0, 100),
        boundary="wall",
        layers=LayersSpec(n=3),
        init=InitSpec(kind="dam_break", eta_l=1.1, eta_r=0.9, x0=0.5),
        physics=PhysicsSpec(g=9.81, mu=mu),
        controls=ControlsSpec(t_end=0.3),
    )


ENERGY_CASES = {
    "N1_periodic": _bump_shear("periodic", [0.3]),
    "N3_periodic": _bump_shear("periodic", [0.5] * 3),
    "N20_periodic_shear": _bump_shear("periodic", [0.025 * a for a in range(20)]),
    "N8_periodic_shear": _bump_shear("periodic", [0.05 * a for a in range(8)]),
    "N8_wall_shear": _bump_shear("wall", [0.05 * a for a in range(8)]),
    "N4_thin_top": _bump_shear("periodic", [0.1, 0.2, 0.3, 0.4],
                               fractions=(0.45, 0.45, 0.05, 0.05)),
    # weakly viscous wall dam breaks, whose energy grew once the waves
    # reached the walls while explicit step bounds missed the viscous
    # operator's end rows; the implicit stage keeps it falling (largest step
    # growth -3.5e-6 and -3.7e-6 of the total at CFL 0.9, -5.9e-6 and -6.1e-6
    # at 0.8)
    "N3_wall_dam_break_mu3e-6": _wall_dam_break(3e-6),
    "N3_wall_dam_break_mu1e-5": _wall_dam_break(1e-5),
}


@pytest.mark.parametrize("name", sorted(ENERGY_CASES))
def test_energy_falls_at_every_step_at_the_default_controls(name):
    # the default integrator, SSP-RK2, at the default CFL keeps the energy
    # of a smooth closed flow and of a weakly viscous wall dam break falling
    # step by step; forward Euler's anti-dissipative time error grows it on
    # the N1 and N3 flows at any CFL from 0.5 up
    result = run(ENERGY_CASES[name])
    E = result.E_total
    assert result.summary["steps"] > 30
    assert (np.diff(E) / np.abs(E[:-1])).max() <= 1e-12
