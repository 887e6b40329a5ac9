"""Golden outputs: `layerflow run` must reproduce these files byte for byte.

The first three digest sets were recorded before the tendency evaluation
was reorganized to compute each quantity once per stage.  The periodic
bump case, the one golden run whose bed differs across the periodic seam
(so the bed edges wrap) and whose snapshots take w from periodic
stencils, was recorded before the tendency kernels were rewritten to
precompute the bed edges and to sum over layers row by row.  The wall
case with a dry stretch, whose wet region touches one wall and ends
inside the domain, and whose dry cells lie partly below the datum (so
their layer energies are negative zeros in the snapshots), was recorded
before the tendencies and the diagnostics were restricted to the wet
window.  The transmissive case with a receding shoreline, whose water
flows out through the left end and leaves films on the slope behind
it, was recorded before the stage updates, the clipping, the stable
step and the audit were restricted to the wet window.  The viscous
transmissive case is the one run whose audit reads an energy flux at an
open end while stresses act.

Two changes were recorded together.  The viscous tendency became the
transpose of the stress closure's strain map (its in-layer part had
been a stress divergence), and the stable step's dx^4 bound reads
heights from mid-column.  The two viscous cases on a bumpy bed, then
run with layer-centred and interface-centred stresses, took 47 steps
where they had taken 56.  The audit books an energy influx at
transmissive ends only, since no water crosses a wall: in the
`energy.csv` of `inviscid_wall_rk2` and `inviscid_wall_dry_stretch_rk2`
that moved the residual column alone.

The three viscous sets were re-recorded when the stresses kept one
placement, at the interfaces, and the wall law eliminated the bed
velocity across the bottom half-layer (kappa / (1 + kappa h_1 / (2 mu))
in place of kappa).  The wall case `viscous_friction_wall_rk2` is the
former layer-placed case with interface-placed stresses.  Each case
takes the steps it took before, since the stable step bounds the
friction with the unreduced kappa; every file but the initial snapshot
changed.

The three viscous sets were re-recorded again when the stresses and the
wall law moved from the explicit stages into one implicit trapezoidal
stage per step, and the viscous and friction step bounds were deleted.
The periodic case takes 14 steps where it took 64, and the wall and
transmissive cases 9 where they took 47, each at the advective step.
The initial snapshots are unchanged; every other snapshot holds a state
reached with larger steps (on the wall case the final depths moved by up
to 6.6e-4 and the velocities by up to 5.8e-3 of 0.33), and in
`energy.csv` the `R_E` and `friction` columns now book each step's stage
work, split into the friction drain at the stage's mean velocity and
the stresses' rest, with zeros in the closing row.

Every case but one names `controls.cfl = 0.5`, the default CFL when its
digests were recorded.  The key was added when the default rose to 0.8,
and the default rose again to 0.9: the digests, unchanged both times,
show that the kernels did not move with the default.  The one case that
names no CFL, `inviscid_wall_default_cfl_rk2`, is `inviscid_wall_rk2`
without the key.  It was re-recorded when the default rose to 0.9, and
it takes 19 steps (22 at 0.8) where the pinned case takes 34; only its
initial snapshot stayed the same.

The two sets whose front runs onto dry bed with more than one layer,
`dry_front_transmissive_euler` and `inviscid_wall_dry_stretch_rk2`,
were re-recorded when a dry cell's layers began to trade the velocity
their inflow brings, in place of the cell's zero velocity.  At CFL 0.5
the difference between layer velocities that the old exchange doubled
at each newly wetted cell was still round-off, so only round-off moved:
at most 1.1e-14 in a layer velocity of 3.8, 2.2e-16 in a depth of 1 and
4.4e-16 in a total energy of 1.5; the initial snapshots stayed the same.

Six sets were re-recorded when their bits stopped depending on the
host.  The viscous stage's inner products became numpy's pairwise sums
in place of OpenBLAS's `ddot`, the cube of the bed's cosine became two
products in place of `** 3`, and the bump bed's Gaussian took an exp
built from exact IEEE operations in place of `np.exp`, within 1 ulp of
it.  Only round-off moved, and every case takes the steps it took.  In
the three bump-bed inviscid sets, `zb` moved by at most 2.8e-17 in 0.2
in every snapshot, a layer energy by at most 6.7e-16 in 1.6 and a `w`
by 1.3e-15 in 5; `energy.csv` of the two wall cases is unchanged.  In
the periodic viscous set, on a flat bed, the sums alone moved `R_E` by
6.8e-21 in 3e-5 and `friction` by 3.2e-27 in 7e-12.  In the two viscous
sets on a bump, whose initial snapshots are unchanged, the worst change
is 7.7e-15 in an exchange flux G of 0.34; `R_E` and `E_total` moved by
at most 5.6e-17.

Every `energy.csv` was re-recorded when the audit began to read the
column energy 1/2 sum_a q_a u_a + g H (z_b + H/2) and the open-end
influx sum_a q_a (u_a^2/2 + g eta) from the state, in place of the
per-layer sums over a layer geometry.  Every snapshot is unchanged and
every case takes the steps it took; of `energy.csv`, only `E_total` and
`residual` moved.  The largest `E_total` change, as a share of the run's
largest |E_total|, is 2.9e-16 on both wall cases, 3.0e-16 on the
receding shoreline, 3.7e-16 on the dry stretch, 4.5e-16 on the dry
front, 6.6e-16 on the periodic bump, 6.8e-16 on the viscous
transmissive case and 1.07e-15 on the viscous wall case.  The periodic
viscous case, an x-uniform shear over a flat bed at datum -H/2, moved by
1.4e-13 of its largest |E_total|, 4.4e-3: its layers' potentials, of
both signs, had cancelled in the old sum.  Its residual floor, max|residual|, fell from
2.85e-13 to 4.9e-16, 1.6e-11 of max|R_E + friction|; the other cases'
residuals are the scheme's own and moved by round-off only.

The CSVs carry 17 significant digits, so any change to the arithmetic
the stepper applies, to the audit or to the snapshot schedule shows up
here.  A change that alters them on purpose has to explain every
changed digit and re-record them.
"""
import hashlib
import itertools
import random
import re
import signal
import warnings

import numpy as np
import pytest

from layerflow import cli, timeloop
from layerflow.errors import ConfigError, SolverAbort
from layerflow.gridops import BOUNDARY_KINDS
from layerflow.scenario import (_REGISTRY, ControlsSpec, InitSpec, LayersSpec, MeshSpec,
                                PhysicsSpec, Scenario, parse_scenario)
from layerflow.timeloop import run

INVISCID_WALL_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 120
boundary.kind = wall
layers.n = 3
bathymetry.kind = bump
bathymetry.a = 0.1
bathymetry.x0 = 0.3
bathymetry.width = 0.05
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.5
init.x0 = 0.5
physics.g = 9.81
controls.cfl = 0.5
controls.t_end = 0.04
controls.integrator = ssp-rk2
output.snapshot_every = 0.01
"""

VISCOUS_FRICTION_PERIODIC_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 40
boundary.kind = periodic
layers.n = 4
bathymetry.kind = flat
bathymetry.z0 = -0.5
init.kind = shear
init.eta0 = 0.5
init.u = 0.0, 0.05, 0.1, 0.15
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.cfl = 0.5
controls.t_end = 0.05
controls.integrator = ssp-rk2
output.snapshot_every = 0.02
"""

DRY_FRONT_TRANSMISSIVE_EULER = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 200
boundary.kind = transmissive
layers.n = 4
bathymetry.kind = slope
bathymetry.z0 = 0
bathymetry.s = 0.1
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.0
init.x0 = 0.3
physics.g = 9.81
controls.cfl = 0.5
controls.t_end = 0.02
controls.integrator = forward-euler
output.snapshot_every = 0
"""

VISCOUS_FRICTION_WALL_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 40
boundary.kind = wall
layers.n = 3
bathymetry.kind = bump
bathymetry.z0 = -0.5
bathymetry.a = 0.1
bathymetry.x0 = 0.3
bathymetry.width = 0.1
init.kind = dam_break
init.eta_l = 0.6
init.eta_r = 0.4
init.x0 = 0.5
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.cfl = 0.5
controls.t_end = 0.03
controls.integrator = ssp-rk2
output.snapshot_every = 0.01
"""

VISCOUS_INTERFACE_TRANSMISSIVE_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 40
boundary.kind = transmissive
layers.n = 3
bathymetry.kind = bump
bathymetry.z0 = -0.5
bathymetry.a = 0.1
bathymetry.x0 = 0.3
bathymetry.width = 0.1
init.kind = dam_break
init.eta_l = 0.6
init.eta_r = 0.4
init.x0 = 0.5
init.u = 0.1, 0.2, 0.3
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.cfl = 0.5
controls.t_end = 0.03
controls.integrator = ssp-rk2
output.snapshot_every = 0.01
"""

INVISCID_PERIODIC_BUMP_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 100
boundary.kind = periodic
layers.n = 3
layers.fractions = 0.2, 0.3, 0.5
bathymetry.kind = bump
bathymetry.a = 0.2
bathymetry.x0 = 0.02
bathymetry.width = 0.08
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.6
init.x0 = 0.5
init.u = 0.1, 0.2, 0.3
physics.g = 9.81
controls.cfl = 0.5
controls.t_end = 0.04
controls.integrator = ssp-rk2
output.snapshot_every = 0.01
"""

INVISCID_WALL_DRY_STRETCH_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 100
boundary.kind = wall
layers.n = 3
layers.fractions = 0.5, 0.3, 0.2
bathymetry.kind = slope
bathymetry.z0 = -0.4
bathymetry.s = 0.8
init.kind = dam_break
init.eta_l = 0.1
init.eta_r = -0.5
init.x0 = 0.35
physics.g = 9.81
controls.cfl = 0.5
controls.t_end = 0.06
controls.integrator = ssp-rk2
output.snapshot_every = 0.02
"""

INVISCID_RECEDING_TRANSMISSIVE_RK2 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 80
boundary.kind = transmissive
layers.n = 3
layers.fractions = 0.3, 0.3, 0.4
bathymetry.kind = slope
bathymetry.z0 = -0.3
bathymetry.s = 0.6
init.kind = dam_break
init.eta_l = 0.0
init.eta_r = -1.0
init.x0 = 0.8
init.u = -1.6, -1.4, -1.2
physics.g = 9.81
controls.cfl = 0.5
controls.t_end = 0.3
controls.integrator = ssp-rk2
output.snapshot_every = 0.075
"""

# the CFL a config gets when it names none
INVISCID_WALL_DEFAULT_CFL_RK2 = INVISCID_WALL_RK2.replace("controls.cfl = 0.5\n", "")

GOLDEN = {
    "inviscid_wall_rk2": (INVISCID_WALL_RK2, {
        "energy.csv": "c7e48ae74e23efecbb0e90758222b1a209342771e4bfd9cd5534588446ea47f8",
        "snapshot_0000.csv": "9a4bb8a8ba5ef537b4a4a089eba75ab78baf94293346938183e070c396583b43",
        "snapshot_0001.csv": "7ffb7b60e8a313e0b4aae8b3abda922192bf8114883bf9371b5f6c7608f034f6",
        "snapshot_0002.csv": "45e291083059aa46cb9e8718a2fed3483259a46ac47ded02b3b3c48a2e9f4350",
        "snapshot_0003.csv": "511dcbefd3bcf6d1fbd5c6e8e9c373bea9dbc98a2942770e9b839ed0bd2a0d60",
        "snapshot_0004.csv": "a0061758ea557785c87d4758185bd6b3625f380496fd8ac500ea1d5027aaeb64",
    }),
    "inviscid_wall_default_cfl_rk2": (INVISCID_WALL_DEFAULT_CFL_RK2, {
        "energy.csv": "074b9899fa4ef0f70d1dde66bb66d86f33f74f8fb84201e8b98e988551b99d27",
        "snapshot_0000.csv": "9a4bb8a8ba5ef537b4a4a089eba75ab78baf94293346938183e070c396583b43",
        "snapshot_0001.csv": "d977181fde621612fff3d9528d67985523ce0103edde9650658eb16acf0173dd",
        "snapshot_0002.csv": "86d99dd1b7f0628022d7f1df29d784a6e013fb456a9a46590da4768e13146098",
        "snapshot_0003.csv": "40badbdb0f677a375ca54b1c020ce59476f7db5fd66244f68793d5cff0a72c2a",
        "snapshot_0004.csv": "8bdfacf9555cbe9def5fa65b9100edb574996e018b79428886042dd13a58a9ac",
    }),
    "viscous_friction_periodic_rk2": (VISCOUS_FRICTION_PERIODIC_RK2, {
        "energy.csv": "3cbbf69683ea8f0619d265c934386248e36fdbf38be2d4ad4f2aaf9cc08f89f4",
        "snapshot_0000.csv": "d0a148a569a5d162bd9a3c1d474e7e09097456cecfa11e0031890ad07a46d5d5",
        "snapshot_0001.csv": "f2b6d3e8d1cdb56b2bcd3cae4e490225a513bd03b3353bc7072d9f9cf2b5e4d2",
        "snapshot_0002.csv": "90458ff790ec9817bbd0e2501ba0646f3eab61cd914711e77fc27026948eadf2",
        "snapshot_0003.csv": "9a1c0dde45634480c51e54e7529d9680877e1efcf018863e6a038a7762596855",
    }),
    "viscous_friction_wall_rk2": (VISCOUS_FRICTION_WALL_RK2, {
        "energy.csv": "0f9732752ad840d348ffecf98a84eb517b1532f86b4ec12f8ed45cbc28b1e611",
        "snapshot_0000.csv": "04021eca199e53ec51d6f387512d62d55838f2ad3f230a479b52ba6046c3b022",
        "snapshot_0001.csv": "c871f49e8d27a8ea3bd49f8cff642b7b2a2123fe601c04dadcdc402fa3979677",
        "snapshot_0002.csv": "2ea17dd2e920bd290991145697b3e2e66a15c093616290368b520fe255a2dfef",
        "snapshot_0003.csv": "539c4713943e7d0b00aea032fe5369a82dd4230350b5fb34d7c335152df3eceb",
    }),
    "viscous_interface_transmissive_rk2": (VISCOUS_INTERFACE_TRANSMISSIVE_RK2, {
        "energy.csv": "ba4789e94093888fd7fe1c26ecf45c0cbf3937c322e4e2491c7d18a4d78a4ee7",
        "snapshot_0000.csv": "285bd51e3f3fbfdebf444dea89b0cb796197dff5291599bb427f1531bac28fec",
        "snapshot_0001.csv": "873edf064087e5bb1fef03faebe2ef136d0e95db342deca074f4b2104dcf0f30",
        "snapshot_0002.csv": "bbee7ce1acc8122c9031eeeb28b817b64c5accf60d151bc6cbd1cd1b87e13e37",
        "snapshot_0003.csv": "06935dc4456c7b12a2e811c511c9ee805f5c62868b23e430880906463dd3bd4f",
    }),
    "inviscid_periodic_bump_rk2": (INVISCID_PERIODIC_BUMP_RK2, {
        "energy.csv": "5edf85bc92c66ccedff838ad54d6b6993c71dc9c01b4d4c30b0e5b1463d3ee25",
        "snapshot_0000.csv": "2ff319deef928a39bc79d4f40bd15f55f9cc9c80949dff304862ea69e8c77e0c",
        "snapshot_0001.csv": "5f21fe44c03ebd3c9cdaf261c906ed68101cfb9d2fc81801461d4e14981bf30d",
        "snapshot_0002.csv": "bc2691a78b9881005f107973e03ab65d8fb43c0e1169c425ddbfd060f51e76c6",
        "snapshot_0003.csv": "0d476fcb426ee38850a4afe83519f6d7952fa5edc7589dbce36e3e826ab9112f",
        "snapshot_0004.csv": "6b8c428ad03aca3cf178eb11bc58af4fa8606004d225f0038a7620e21b3455ee",
    }),
    "inviscid_wall_dry_stretch_rk2": (INVISCID_WALL_DRY_STRETCH_RK2, {
        "energy.csv": "000950ddf3c060760ab464c6d24db8c30e0b8e70d7deac2ada6649fb46456abc",
        "snapshot_0000.csv": "2257b9dfd5e5eb024bb12f42de98c6a896aed16578533261d1bd150b2735b77b",
        "snapshot_0001.csv": "fc018b69de54178d177d187e159cbcb936a2488b667b72693ec50dd26c408f55",
        "snapshot_0002.csv": "4e3316e48c2d3dd3920d27ef72dba5489f175c836c61a241ed0ced4be2c99222",
        "snapshot_0003.csv": "3d590d5a6fd843d99a448b29b21c71beba1f6192e6a01b31bd84d03f0ac97b77",
    }),
    "inviscid_receding_transmissive_rk2": (INVISCID_RECEDING_TRANSMISSIVE_RK2, {
        "energy.csv": "08893e99618f375142424882b6ba19856f056dc09b875f420d0aa44ef92563fa",
        "snapshot_0000.csv": "fb073ae48b1cab301692d816c958b324baa36a77f6b59229ab1bcf2c01498172",
        "snapshot_0001.csv": "c0b421af711b0321f881566cf8fbaac6a8e786274df98fab270bedefedf57153",
        "snapshot_0002.csv": "51ba64d57327ccbd2fa67648731f270b917d74ece22da0e612a0ddb73b55c675",
        "snapshot_0003.csv": "728800da13da65f63d7fdeb455c4d5b16f68a8e8db930b1978f63a7c4add0654",
        "snapshot_0004.csv": "ae5cd854a7d19db50d6fe9e4283a75b5b13556ed753ebcd22131f5d476b40222",
    }),
    "dry_front_transmissive_euler": (DRY_FRONT_TRANSMISSIVE_EULER, {
        "energy.csv": "4540943a68c2432426bcf6279c613b614a102cfbbe2b3e4aadb04e7ca3c40437",
        "snapshot_0000.csv": "e2b4e083650729fc11f4b3867a7c866ae60ed73fd01c1fd9f113ee4157c905f1",
        "snapshot_0001.csv": "8bc13d40d5a23216aba2358b97d176802895b88f36da19ff92d44d9367b5d8fe",
    }),
}


def test_the_audit_of_an_x_uniform_shear_closes_to_round_off():
    # a flat periodic bed carries no flux and no exchange, so each step's
    # energy change is the viscous stage's stress and friction work alone;
    # the old per-layer potentials left a residual of 9.5e-9 of that work
    result = run(parse_scenario(GOLDEN["viscous_friction_periodic_rk2"][0]))
    work = np.abs(result.R_E + result.friction).max()
    assert result.summary["steps"] > 0 and work > 0.0
    assert np.abs(result.residuals).max() <= 1e-10 * work


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_reproduces_golden_files(name, tmp_path, capsys):
    config, digests = GOLDEN[name]
    cfg = tmp_path / "case.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == digests


def test_raising_the_viscous_wall_case_changes_nothing():
    # bed and surfaces one unit higher: the same steps to the same state
    raised = (VISCOUS_FRICTION_WALL_RK2.replace("z0 = -0.5", "z0 = 0.5")
              .replace("eta_l = 0.6", "eta_l = 1.6").replace("eta_r = 0.4", "eta_r = 1.4"))
    assert raised.count("= 1.") == 2 and "z0 = 0.5" in raised
    a, b = run(parse_scenario(VISCOUS_FRICTION_WALL_RK2)), run(parse_scenario(raised))
    assert a.summary["steps"] == b.summary["steps"] == 9
    assert np.abs(a.times - b.times).max() <= 1e-12 * a.times[-1]
    for x, y in ((a.final.H, b.final.H), (a.final.q, b.final.q)):
        assert np.abs(x - y).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("old, new, key, line", [
    ("init.eta_l = 1.0", "init.eta_l = 1e300", "init.eta_l", 11),
    ("bathymetry.kind = bump", "bathymetry.kind = bump\nbathymetry.z0 = -1e300", "bathymetry.z0", 7),
    ("init.x0 = 0.5", "init.x0 = 0.5\ninit.u = 1e150, 0, 0", "init.u", 14),
], ids=["eta_l", "z0", "u"])
def test_a_state_beyond_the_float_range_fails_check_without_warnings(
        old, new, key, line, tmp_path, capsys):
    # a depth of 1e300 overflows the flux g H^2 and the energy g H |z_b|, a
    # velocity of 1e150 the flux u H u^2: check and run name the key and
    # stop before any arithmetic overflows
    cfg = tmp_path / "case.cfg"
    cfg.write_text(INVISCID_WALL_RK2.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for args in (["check", str(cfg)], ["run", str(cfg), "--output", str(tmp_path / "o")]):
            assert cli.main(args) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {key}: ")
            assert err[0].endswith(f"beyond the float range (line {line})")


def test_a_fast_state_within_the_float_range_runs_or_aborts_located(tmp_path, capsys):
    # u = 1e100 keeps the initial flux finite: check accepts it, and the
    # run stops at the collapsed first step without a warning
    cfg = tmp_path / "case.cfg"
    fast = INVISCID_WALL_RK2.replace("init.x0 = 0.5", "init.x0 = 0.5\ninit.u = 1e100, 0, 0")
    cfg.write_text(fast)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["check", str(cfg)]) == 0
        assert cli.main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 2
    assert "time step collapsed" in capsys.readouterr().err


def _with(config, values):
    """The config with each key of `values` set to its value, in place or
    appended."""
    for key, value in values.items():
        line = re.compile(rf"^{re.escape(key)} = .*$", re.M)
        config = (line.sub(f"{key} = {value}", config) if line.search(config)
                  else config + f"{key} = {value}\n")
    return config


def test_a_viscous_stage_over_the_cap_past_the_first_step_aborts_located(tmp_path, capsys):
    # mu = 1 on 160 cells: the stage's conjugate gradients hit their
    # iteration cap past the first step.  ROADMAP item 14 is to make this
    # config run to t_end, and rewrites this test then
    cfg, out = tmp_path / "case.cfg", tmp_path / "out"
    cfg.write_text(_with(VISCOUS_FRICTION_WALL_RK2, {"physics.mu": "1", "mesh.n_cells": "160"}))
    assert cli.main(["check", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["run", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    found = re.fullmatch(r"solver abort: the viscous stage did not converge: \|r\|\^2 = \S+ "
                         r"after 1000 iterations \(step (\d+), t=(\S+)\)\n", err)
    assert found, err
    k, t = int(found[1]), found[2]
    assert (k, t) == (3, "0.00284096")
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    assert len(rows) == k + 1 and f"{float(rows[-1].split(',')[0]):.6g}" == t


@pytest.mark.parametrize("name, values", [
    ("viscous_friction_periodic_rk2", {"physics.mu": "5e-324"}),
    ("viscous_friction_wall_rk2", {"physics.mu": "5e-324"}),
    ("viscous_interface_transmissive_rk2", {"physics.mu": "5e-324"}),
    ("inviscid_periodic_bump_rk2", {"bathymetry.x0": "1e300"}),
    ("inviscid_periodic_bump_rk2", {"bathymetry.width": "1e-300"}),
    ("inviscid_periodic_bump_rk2", {"bathymetry.width": "5e-324"}),
    ("inviscid_periodic_bump_rk2", {"mesh.x_max": "1e300"}),
    ("viscous_friction_periodic_rk2", {"physics.g": "5e-324", "bathymetry.z0": "0.5"}),
    ("inviscid_wall_rk2", {"physics.g": "1e-300", "bathymetry.a": "0.5", "physics.mu": "1e300"}),
], ids=["mu_periodic", "mu_wall", "mu_transmissive", "bump_x0", "bump_width",
        "bump_width_subnormal", "x_max", "g_all_dry", "stage_stress"])
def test_a_config_check_accepts_runs_without_warnings(name, values, tmp_path, capsys):
    # limits the arithmetic reaches through an overflow or an underflow:
    # kappa_eff = 0 for a subnormal mu, a bump of exp(-inf) = 0 far from
    # its centre, and no wave speed, so no step bound, for a subnormal g;
    # g = 1e-300 keeps check's film stress tiny, but mu = 1e300 overflows
    # the viscous stage's first search direction, which then aborts located
    cfg = tmp_path / "case.cfg"
    cfg.write_text(_with(GOLDEN[name][0], values))
    assert cli.main(["check", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "o")]) in (0, 2)


@pytest.mark.parametrize("values", [
    {"bathymetry.a": "1e160"},                       # the slope squared overflows
    {"bathymetry.a": "1e300", "bathymetry.x0": "3"},  # cos^3 underflows
], ids=["overflow", "underflow"])
def test_a_bed_too_steep_for_the_wall_law_fails_check(values, tmp_path, capsys):
    # the wall law divides by the cube of the bed slope's cosine
    cfg = tmp_path / "case.cfg"
    cfg.write_text(_with(VISCOUS_FRICTION_WALL_RK2, values))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["check", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: bathymetry.a: makes the bed so steep that the cube of its slope's cosine "
        "is 0 (line 8)"]


# each passed check once and then overflowed in run, in the energy's g z_mid
# over a dry bed, the pressure's H^2 and the stresses of a steep wet bed
FLOAT_RANGE_CASES = [
    ("inviscid_receding_transmissive_rk2", {"physics.g": "1e300", "mesh.x_max": "1e300"}),
    ("dry_front_transmissive_euler", {"physics.g": "1e-300", "init.eta_r": "1e300"}),
    ("inviscid_periodic_bump_rk2",
     {"physics.mu": "1e300", "bathymetry.a": "1e300", "bathymetry.x0": "3"}),
]


@pytest.mark.parametrize("case, key, line", [
    (FLOAT_RANGE_CASES[0], "physics.g", 15),
    (FLOAT_RANGE_CASES[1], "init.eta_r", 11),
    (FLOAT_RANGE_CASES[2], "physics.mu", 21),
], ids=["potential", "pressure", "stress"])
def test_a_potential_pressure_or_stress_beyond_the_float_range_fails_check(
        case, key, line, tmp_path, capsys):
    name, values = case
    cfg = tmp_path / "case.cfg"
    cfg.write_text(_with(GOLDEN[name][0], values))
    assert cli.main(["check", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {key}: puts the initial state's flux, pressure, potential or film stress "
        f"beyond the float range (line {line})"]


MUTATION_VALUES = ("0", "-1", "1e300", "5e-324", "1e-300", "nan", "inf", "3", "0.5", "word")
MUTATION_STEPS = 100     # the step cap of each mutated run
MUTATION_BUDGET = 20.0   # wall seconds each mutated config may take, check and run


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


def test_a_mutated_golden_config_fails_check_or_runs_to_an_exit(tmp_path, capsys, monkeypatch):
    # check <=> run: one to three keys of a golden config set to values at
    # and beyond the float range, non-finite or malformed; each config
    # fails check with exit 1 or runs, capped in steps, to exit 0 or a
    # located abort (exit 2), with RuntimeWarnings as errors and within
    # a wall budget that an alarm enforces in this process
    monkeypatch.setattr(timeloop, "MAX_STEPS", MUTATION_STEPS)
    rng = random.Random(0)
    keys, names = sorted(_REGISTRY), sorted(GOLDEN)
    cases = FLOAT_RANGE_CASES + [
        (rng.choice(names), {k: rng.choice(MUTATION_VALUES)
                             for k in rng.sample(keys, rng.randint(1, 3))})
        for _ in range(400)]
    cfg, out = tmp_path / "case.cfg", str(tmp_path / "out")
    outcomes = []
    previous = signal.signal(signal.SIGALRM, _over_budget)
    try:
        for name, values in cases:
            cfg.write_text(_with(GOLDEN[name][0], values))
            signal.setitimer(signal.ITIMER_REAL, MUTATION_BUDGET)
            try:
                outcome = ("check", cli.main(["check", str(cfg)]))
                if outcome == ("check", 0):
                    outcome = ("run", cli.main(["run", str(cfg), "--output", out]))
            except _OverBudget:
                pytest.fail(f"{name} with {values} took over {MUTATION_BUDGET} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            assert outcome in (("check", 1), ("run", 0), ("run", 2)), (name, values, outcome)
            outcomes.append(outcome)
            err = capsys.readouterr().err
            if outcome == ("run", 2):
                # one location suffix, which the stepping loop alone appends
                assert re.match(r"^solver abort: [^()]* \(step \d+, t=[^,()]+(, cell \d+)?\)$",
                                err), (name, values, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes[:3] == [("check", 1)] * 3
    assert len(set(outcomes)) == 3  # the mutations reach every outcome


def _tiny_cell_dam_break(x_max, g, u, mu, bc, n=40):
    return Scenario(mesh=MeshSpec(0.0, x_max, n), boundary=bc, layers=LayersSpec(n=2),
                    init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.5, x0=x_max / 2,
                                  u=(u, 0.0)),
                    physics=PhysicsSpec(g=g, mu=mu), controls=ControlsSpec(t_end=1e-3 * x_max))


def test_a_tiny_cell_config_that_check_accepts_runs_or_aborts_located(monkeypatch):
    # the first tendencies divide the initial flux and pressure by the cell
    # width, before run's located checks see the state: check bounds the
    # quotients, so an accepted config runs or aborts at a named step, with
    # RuntimeWarnings as errors
    with pytest.raises(ConfigError) as err:
        _tiny_cell_dam_break(1e-228, 1e200, 0.0, 0.0, "wall", n=100).built
    assert err.value.problems[0].startswith("physics.g: puts the initial state's flux")
    monkeypatch.setattr(timeloop, "MAX_STEPS", 50)
    outcomes = {"check": 0, "ran": 0, "aborted": 0}
    for case in itertools.product((1e-100, 1e-200, 1e-250, 1e-290, 1e-305),
                                  (1.0, 1e50, 1e100, 1e150, 1e200, 1e250),
                                  (0.0, 1e10, 1e60), (0.0, 1.0), BOUNDARY_KINDS):
        scn = _tiny_cell_dam_break(*case)
        try:
            scn.built
        except ConfigError:
            outcomes["check"] += 1
            continue
        try:
            run(scn)
            outcomes["ran"] += 1
        except SolverAbort as exc:
            assert exc.step is not None, (case, str(exc))
            outcomes["aborted"] += 1
    assert sum(outcomes.values()) == 540 and outcomes["check"] < 540, outcomes
    # the collapse floor is relative to t_end, so an accepted tiny cell can
    # run to its end (15 of the 102 accepted configs do)
    assert outcomes["ran"] > 0, outcomes
