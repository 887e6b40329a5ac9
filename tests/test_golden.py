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
digests were recorded.  The key was added when the default rose to 0.8:
the digests, unchanged, show that the kernels did not move with the
default.  The one case that names no CFL, `inviscid_wall_default_cfl_rk2`,
is `inviscid_wall_rk2` without the key.  It was recorded after the
default rose, and it takes 22 steps where the pinned case takes 34.

The CSVs carry 17 significant digits, so any change to the arithmetic
the stepper applies, to the audit or to the snapshot schedule shows up
here.  A change that alters them on purpose has to explain every
changed digit and re-record them.
"""
import hashlib
import re
import warnings

import numpy as np
import pytest

from layerflow import cli
from layerflow.scenario import parse_scenario
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
        "energy.csv": "d68fffbeb27adbab3223f67ea223b18737f7c8cbf361a6fdc3e8f50cc2ef2ae3",
        "snapshot_0000.csv": "34cba07e2bc77c49b5174c02a9e6cb358830fc68eabd255114341bef19d0005d",
        "snapshot_0001.csv": "00b20ee9b508ae86df16f4e8da6dd45489dc7380805366b892fc74bc79dff55d",
        "snapshot_0002.csv": "e971b8812b0450b7932a1f9e4502a4b992e50f0db623a453e22f6a20c0be6b3c",
        "snapshot_0003.csv": "f7e587c7bae12a9df0ffa0f6a517feb9c32a77fca8a380283f88af28932c5221",
        "snapshot_0004.csv": "b822e9a6005da9fab7f6d2944730239d125c8ee9b60675c679b134502ab69786",
    }),
    "inviscid_wall_default_cfl_rk2": (INVISCID_WALL_DEFAULT_CFL_RK2, {
        "energy.csv": "f718aa0ac2c74b871cd34653d8fa864186a33973901f68236c66ea5cf304eaec",
        "snapshot_0000.csv": "34cba07e2bc77c49b5174c02a9e6cb358830fc68eabd255114341bef19d0005d",
        "snapshot_0001.csv": "27c6d56171eaddd475a958dffb07c980d331a4a08addb72ef34de69bacbad923",
        "snapshot_0002.csv": "5c62ffd6fa2899226fdbee57954e9df255009dd4ef6a08db44e4617109876128",
        "snapshot_0003.csv": "8214eed810914e615c1346560f12f270a5d0fcce3ad440311a37aa3d3331b8e9",
        "snapshot_0004.csv": "d909bd657247a6ca951e92bd773b779bc0ede21460c5463dc021c5ec8a336d94",
    }),
    "viscous_friction_periodic_rk2": (VISCOUS_FRICTION_PERIODIC_RK2, {
        "energy.csv": "422350d3e52eb467989271c9417b83e8967fa66193fc39acc0d46037501fa181",
        "snapshot_0000.csv": "d0a148a569a5d162bd9a3c1d474e7e09097456cecfa11e0031890ad07a46d5d5",
        "snapshot_0001.csv": "f2b6d3e8d1cdb56b2bcd3cae4e490225a513bd03b3353bc7072d9f9cf2b5e4d2",
        "snapshot_0002.csv": "90458ff790ec9817bbd0e2501ba0646f3eab61cd914711e77fc27026948eadf2",
        "snapshot_0003.csv": "9a1c0dde45634480c51e54e7529d9680877e1efcf018863e6a038a7762596855",
    }),
    "viscous_friction_wall_rk2": (VISCOUS_FRICTION_WALL_RK2, {
        "energy.csv": "aec17feec4c00f314dd26cd67e00698fe77130f77b88cf3088b35aab33ea3dbb",
        "snapshot_0000.csv": "04021eca199e53ec51d6f387512d62d55838f2ad3f230a479b52ba6046c3b022",
        "snapshot_0001.csv": "7f077bbb1a77a877aca17b27405dec496a8e20e7fc722e23b1166db55c9077a7",
        "snapshot_0002.csv": "46fc21ef5a32fab7fe66de70f0c40859353bc527a578268921b3599acc7f926e",
        "snapshot_0003.csv": "acc88362b56adea3d5497ea8e45b1a9db3adad90cc58ea32816ade48a610f523",
    }),
    "viscous_interface_transmissive_rk2": (VISCOUS_INTERFACE_TRANSMISSIVE_RK2, {
        "energy.csv": "a86c97b9a757d915017addf9fd80b98c59d448e26c72f963636822515dff9899",
        "snapshot_0000.csv": "285bd51e3f3fbfdebf444dea89b0cb796197dff5291599bb427f1531bac28fec",
        "snapshot_0001.csv": "50882137f65064bd1c6f0ae9f097fac083ed2a86f029d1a7ded66e3777e71302",
        "snapshot_0002.csv": "7d0b19677d20929d17756387a906008c4165da2c885d82c534fc5956cc0d9857",
        "snapshot_0003.csv": "b52e48173dc72e855e3f6b5ed31bdcbd997df0a6b6ec298f210b4de2364bf6d9",
    }),
    "inviscid_periodic_bump_rk2": (INVISCID_PERIODIC_BUMP_RK2, {
        "energy.csv": "f5890d9d62b8a7826a375f4de511d7ed04bfd3512a8b400164f55d5c900d7cbb",
        "snapshot_0000.csv": "4951228fdb5e26bb8fb8291c95eb9da9892d424ad2f650322b41b4b6402e6d04",
        "snapshot_0001.csv": "89ff0ce53611a176c0ea9274e941a95e3e242669d8c3ff89ab909cb774d84c1d",
        "snapshot_0002.csv": "c98afcad0c531ba1427c7b38dffe6d55780a3b62e56fb7a295b835a9ac71bec0",
        "snapshot_0003.csv": "475db2fd278cc3efa083c4953e16ba5dee2227b7395afb40eb1d4fd9b2dc9dbe",
        "snapshot_0004.csv": "577c42b93105114bcf01a26c7904ed4557b283e1841014933b7b97406e730bec",
    }),
    "inviscid_wall_dry_stretch_rk2": (INVISCID_WALL_DRY_STRETCH_RK2, {
        "energy.csv": "d71c4f710a0cc968a72a1f80136f95cd822092d3b7d55046aeedc4e197a7e4ad",
        "snapshot_0000.csv": "2257b9dfd5e5eb024bb12f42de98c6a896aed16578533261d1bd150b2735b77b",
        "snapshot_0001.csv": "b944dd2e6ede3d6a0167a5c104088d5b931744d620166620657b3e37e79dcffd",
        "snapshot_0002.csv": "bac2c7afc52b152460d16c26e7c6c9881ec7e9aee372febde5add7ccfc779c51",
        "snapshot_0003.csv": "fc3fd5be3725fbdb90e422a240a88a53286292630945d5205bc8971db23f7fdc",
    }),
    "inviscid_receding_transmissive_rk2": (INVISCID_RECEDING_TRANSMISSIVE_RK2, {
        "energy.csv": "81a5e8993d88386e18fb5a1121331b84b35058dc1914c4769aed0dc5ac279654",
        "snapshot_0000.csv": "fb073ae48b1cab301692d816c958b324baa36a77f6b59229ab1bcf2c01498172",
        "snapshot_0001.csv": "c0b421af711b0321f881566cf8fbaac6a8e786274df98fab270bedefedf57153",
        "snapshot_0002.csv": "51ba64d57327ccbd2fa67648731f270b917d74ece22da0e612a0ddb73b55c675",
        "snapshot_0003.csv": "728800da13da65f63d7fdeb455c4d5b16f68a8e8db930b1978f63a7c4add0654",
        "snapshot_0004.csv": "ae5cd854a7d19db50d6fe9e4283a75b5b13556ed753ebcd22131f5d476b40222",
    }),
    "dry_front_transmissive_euler": (DRY_FRONT_TRANSMISSIVE_EULER, {
        "energy.csv": "ff1e57332f4fdeadff4917c7eca3b364e7e60917bec547ac5e2367994aead411",
        "snapshot_0000.csv": "e2b4e083650729fc11f4b3867a7c866ae60ed73fd01c1fd9f113ee4157c905f1",
        "snapshot_0001.csv": "2774d8d86981c977d2bf6c9800186c59e28a3eb30223cb338bd0af5033d1657d",
    }),
}


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


@pytest.mark.parametrize("name, values", [
    ("viscous_friction_periodic_rk2", {"physics.mu": "5e-324"}),
    ("viscous_friction_wall_rk2", {"physics.mu": "5e-324"}),
    ("viscous_interface_transmissive_rk2", {"physics.mu": "5e-324"}),
    ("inviscid_periodic_bump_rk2", {"bathymetry.x0": "1e300"}),
    ("inviscid_periodic_bump_rk2", {"bathymetry.width": "1e-300"}),
    ("inviscid_periodic_bump_rk2", {"bathymetry.width": "5e-324"}),
    ("inviscid_periodic_bump_rk2", {"mesh.x_max": "1e300"}),
    ("viscous_friction_periodic_rk2", {"physics.g": "5e-324", "bathymetry.z0": "0.5"}),
], ids=["mu_periodic", "mu_wall", "mu_transmissive", "bump_x0", "bump_width",
        "bump_width_subnormal", "x_max", "g_all_dry"])
def test_a_config_check_accepts_runs_without_warnings(name, values, tmp_path, capsys):
    # limits the arithmetic reaches through an overflow or an underflow:
    # kappa_eff = 0 for a subnormal mu, a bump of exp(-inf) = 0 far from
    # its centre, and no wave speed, so no step bound, for a subnormal g
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
