"""The discrete identities over drawn closed-domain scenarios.

A seeded generator (`draw`) draws valid configs with periodic or wall
ends: N in {1, 2, 3, 5, 8}, half of those with N > 1 on non-uniform
layer fractions; flat, bump and slope beds, some of them emerging from the
water; a lake at rest, a dam break or a layered shear; a third of them
viscous (mu in {1e-3, 1e-2}, k_l in {0, 0.01}); either integrator at CFL
0.5 or 0.9; n = 24 to 63 cells and t_end = 0.02 to 0.1.  Each draw runs
to t_end, and every run must keep these bounds:

- mass drift (relative to the initial mass) <= MASS_TOL = 1e-13;
- a lake at rest keeps max|u| <= REST_TOL = 1e-12;
- D_G <= 0 and friction <= 0 on every row;
- R_E <= RE_ROUNDOFF * (|R_E| + |friction|) on every row, RE_ROUNDOFF =
  1e-12: R_E is the stage's power less its friction, which cancel to
  round-off on a shear with no stress (+3.3e-19 was seen on an N = 1
  x-uniform shear), so a strict R_E <= 0 would fail on round-off;
- under SSP-RK2, no step raises E_total by more than STEP_GROWTH_TOL =
  1e-14 of the run's largest |E_total|;
- an inviscid run with the bed and the free surface raised by DATUM =
  0.37 takes as many steps at the same times, with H and q within
  DATUM_TOL = 1e-12 at the end.

A draw that fails is a finding about the solver: the generator is not
narrowed or re-seeded to avoid it.
"""
import numpy as np
import pytest

from layerflow.scenario import (BathymetrySpec, ControlsSpec, InitSpec, LayersSpec,
                                MeshSpec, PhysicsSpec, Scenario)
from layerflow.state import velocities
from layerflow.timeloop import run

DRAWS = 60
SEED = 21
MASS_TOL = 1e-13
REST_TOL = 1e-12
RE_ROUNDOFF = 1e-12
STEP_GROWTH_TOL = 1e-14
DATUM = 0.37
DATUM_TOL = 1e-12


def draw(k: int) -> Scenario:
    """The k-th drawn scenario of the sweep."""
    rng = np.random.default_rng([SEED, k])
    N = int(rng.choice([1, 2, 3, 5, 8]))
    fractions = None
    if N > 1 and rng.random() < 0.5:
        f = rng.uniform(0.2, 1.0, N)
        f /= f.sum()
        f[-1] = 1.0 - f[:-1].sum()
        fractions = tuple(f.tolist())
    z0 = float(rng.uniform(-0.2, 0.2))
    bed = str(rng.choice(["flat", "bump", "slope"]))
    if bed == "bump":  # tall enough, at times, to emerge
        bathy = BathymetrySpec(kind="bump", z0=z0, a=float(rng.uniform(0.1, 1.2)),
                               x0=float(rng.uniform(0.3, 0.7)),
                               width=float(rng.uniform(0.05, 0.2)))
    elif bed == "slope":  # a steep one drains its upper end
        bathy = BathymetrySpec(kind="slope", z0=z0, s=float(rng.uniform(-1.2, 1.2)))
    else:
        bathy = BathymetrySpec(kind="flat", z0=z0)
    eta = z0 + float(rng.uniform(0.3, 1.0))
    init = str(rng.choice(["lake_at_rest", "dam_break", "shear"]))
    if init == "lake_at_rest":
        ini = InitSpec(kind="lake_at_rest", eta0=eta)
    elif init == "dam_break":
        ini = InitSpec(kind="dam_break", eta_l=eta, eta_r=eta - float(rng.uniform(0.1, 0.6)),
                       x0=float(rng.uniform(0.3, 0.7)))
    else:
        ini = InitSpec(kind="shear", eta0=eta, u=tuple(rng.uniform(-0.5, 0.5, N).tolist()))
    viscous = rng.random() < 1.0 / 3.0
    physics = PhysicsSpec(g=9.81, mu=float(rng.choice([1e-3, 1e-2])) if viscous else 0.0,
                          k_l=float(rng.choice([0.0, 0.01])) if viscous else 0.0)
    return Scenario(mesh=MeshSpec(0.0, 1.0, int(rng.integers(24, 64))),
                    boundary=str(rng.choice(["periodic", "wall"])),
                    layers=LayersSpec(n=N, fractions=fractions), bathymetry=bathy,
                    init=ini, physics=physics,
                    controls=ControlsSpec(
                        cfl=float(rng.choice([0.5, 0.9])), t_end=float(rng.uniform(0.02, 0.1)),
                        integrator=str(rng.choice(["ssp-rk2", "forward-euler"]))))


def _raised(scn: Scenario) -> Scenario:
    """The scenario with its bed and free surface DATUM higher."""
    b, ini = scn.bathymetry, scn.init
    return Scenario(mesh=scn.mesh, boundary=scn.boundary, layers=scn.layers,
                    bathymetry=BathymetrySpec(kind=b.kind, z0=b.z0 + DATUM, s=b.s, a=b.a,
                                              x0=b.x0, width=b.width),
                    init=InitSpec(kind=ini.kind, eta0=ini.eta0 + DATUM, eta_l=ini.eta_l + DATUM,
                                  eta_r=ini.eta_r + DATUM, x0=ini.x0, u=ini.u),
                    physics=scn.physics, controls=scn.controls)


@pytest.mark.parametrize("k", range(DRAWS))
def test_a_drawn_closed_scenario_keeps_the_identities(k):
    scn = draw(k)
    result = run(scn)
    assert result.summary["mass_drift"] <= MASS_TOL, scn
    if scn.init.kind == "lake_at_rest":
        u = velocities(result.final.H, result.final.q, scn.partition)
        assert np.abs(u).max() <= REST_TOL, scn
    assert (result.D_G <= 0.0).all() and (result.friction <= 0.0).all(), scn
    RE, fric = result.R_E, result.friction
    assert (RE <= RE_ROUNDOFF * (np.abs(RE) + np.abs(fric))).all(), scn
    if scn.controls.integrator == "ssp-rk2":
        growth = np.diff(result.E_total).max()
        assert growth <= STEP_GROWTH_TOL * np.abs(result.E_total).max(), scn
    if not scn.physics.mu and not scn.physics.k_l:
        raised = run(_raised(scn))
        assert raised.times.size == result.times.size, scn
        assert np.abs(raised.times - result.times).max() <= DATUM_TOL, scn
        assert np.abs(raised.final.H - result.final.H).max() <= DATUM_TOL, scn
        assert np.abs(raised.final.q - result.final.q).max() <= DATUM_TOL, scn
