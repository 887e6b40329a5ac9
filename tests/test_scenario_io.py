"""Config parsing/validation, CSV round trips and the command line."""
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from layerflow import cli, output, timeloop
from layerflow.errors import ConfigError, SolverAbort
from layerflow.geometry import LayerPartition
from layerflow.output import (ENERGY_COLUMNS, snapshot_header, write_energy_series,
                              write_snapshot)
from layerflow.scenario import (_REGISTRY, ControlsSpec, InitSpec, LayersSpec,
                                MeshSpec, PhysicsSpec, Scenario, bathymetry_values,
                                format_scenario, initial_fields, parse_scenario)
from layerflow.timeloop import run


def read_snapshot(path) -> tuple[float, list[str], np.ndarray]:
    """Inverse of write_snapshot: (t, column names, table (n, n_cols))."""
    with open(path) as f:
        t = float(f.readline().split("=", 1)[1])
        names = f.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
    return t, names, np.array(rows)


def read_energy_series(path) -> tuple[list[str], np.ndarray]:
    """Inverse of write_energy_series: (column names, table)."""
    with open(path) as f:
        names = f.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in f if line.strip()]
    return names, np.array(rows)

GOLDEN = """
# layered dam break demo
mesh.x_min = -1.0
mesh.x_max = 3.0
mesh.n_cells = 80
boundary.kind = wall
layers.n = 2
layers.fractions = 0.3, 0.7
bathymetry.kind = slope
bathymetry.z0 = -0.6
bathymetry.s = 0.05
init.kind = dam_break
init.eta_l = 0.4          # upstream surface
init.eta_r = 0.1
init.x0 = 0.5
physics.g = 9.81
physics.mu = 0.003
physics.k_l = 0.02
controls.cfl = 0.45
controls.t_end = 0.8
controls.integrator = forward-euler
output.directory = results
output.snapshot_every = 0.2
"""


def test_parse_golden_config():
    scn = parse_scenario(GOLDEN)
    assert scn.mesh == MeshSpec(-1.0, 3.0, 80)
    assert scn.boundary == "wall"
    assert scn.layers.fractions == (0.3, 0.7)
    assert scn.bathymetry.kind == "slope"
    assert scn.init.eta_l == 0.4
    assert scn.physics.mu == 0.003
    assert scn.controls.integrator == "forward-euler"
    assert scn.output.directory == "results"


def test_mesh_centers_and_spacing():
    mesh = MeshSpec(0.0, 1.0, 4)
    assert mesh.dx == 0.25
    assert mesh.x.tolist() == [0.125, 0.375, 0.625, 0.875]


def test_check_rejects_an_empty_domain():
    text = GOLDEN.replace("mesh.x_min = -1.0", "mesh.x_min = 0").replace(
        "mesh.x_max = 3.0", "mesh.x_max = 0")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert err.value.problems == ["mesh.x_max: domain [0, 0] is empty (line 4)"]


def test_parse_reports_every_problem_with_lines():
    text = """mesh.x_min = 0
mesh.x_max = oops
mesh.n_cells = 50
boundary.kind = periodic
what even is this line
bogus.key = 3
init.kind = lake_at_rest
init.eta0 = 1
mesh.x_min = 2
"""
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    msg = str(err.value)
    assert "line 2" in msg and "malformed float" in msg
    assert "line 5" in msg and "expected 'section.key = value'" in msg
    assert "line 6" in msg and "unknown key" in msg
    assert "line 9" in msg and "duplicate key" in msg
    assert "physics.g: required key is missing" in msg


def test_the_removed_viscous_safety_key_is_unknown():
    # the viscous and friction bounds are applied at half their value;
    # the factor is no longer a setting
    text = """mesh.n_cells = 50
physics.g = 9.81
init.kind = lake_at_rest
controls.viscous_safety = 0.5
"""
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "line 4: unknown key 'controls.viscous_safety'" in str(err.value)


def test_the_removed_placement_key_is_unknown(tmp_path, capsys):
    # the stresses have one placement, at the interfaces, so the key that
    # chose between two is gone
    cfg = tmp_path / "placement.cfg"
    cfg.write_text(CLI_CFG + "physics.placement = layer\n")
    assert cli.main(["check", str(cfg)]) == 1
    line = len(CLI_CFG.splitlines()) + 1
    assert (f"line {line}: unknown key 'physics.placement'"
            in capsys.readouterr().err)


def test_validation_catches_semantic_errors():
    text = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 2
boundary.kind = slippery
layers.n = 2
layers.fractions = 0.5, 0.6
init.kind = shear
physics.g = -9.81
controls.cfl = 1.5
physics.mu = -0.1
"""
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    msg = str(err.value)
    assert "at least 3 cells" in msg
    assert "unknown boundary" in msg
    assert "fractions sum to 1.1" in msg
    assert "init.u: required" in msg
    assert "gravity must be positive" in msg
    assert "cfl must lie in (0, 1]" in msg
    # the offending line is cited when the key appeared in the file
    assert "(line 9)" in msg
    # the closure's rules, which validation alone owns
    assert "physics.mu: viscosity must be nonnegative (line 10)" in err.value.problems


def test_check_rejects_fractions_the_partition_rejects(tmp_path, capsys):
    text = CLI_CFG.replace("layers.n = 2\n",
                           "layers.n = 3\nlayers.fractions = 0.3, 0.3, 0.4000000000005\n")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert any(p.startswith("layers.fractions:") for p in err.value.problems)
    with pytest.raises(ValueError):
        LayerPartition(np.array([0.3, 0.3, 0.4000000000005]))
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert cli.main(["check", str(cfg)]) == 1
    assert "layers.fractions" in capsys.readouterr().err


def _random_scenario(rng) -> Scenario:
    N = int(rng.integers(1, 5))
    fr = rng.uniform(0.2, 1.0, N)
    fr = fr / fr.sum()
    return Scenario(
        mesh=MeshSpec(float(rng.uniform(-3, 0)), float(rng.uniform(1, 4)),
                      int(rng.integers(3, 200))),
        boundary=str(rng.choice(["periodic", "wall", "transmissive"])),
        layers=LayersSpec(n=N, fractions=tuple(float(v) for v in fr)),
        init=InitSpec(kind="lake_at_rest", eta0=float(rng.uniform(0.5, 2.0))),
        physics=PhysicsSpec(g=float(rng.uniform(1, 20)),
                            mu=float(10.0 ** rng.uniform(-4, -1)),
                            k_l=float(rng.uniform(0, 1))),
        controls=ControlsSpec(cfl=float(rng.uniform(0.1, 1.0)),
                              t_end=float(rng.uniform(0.01, 5.0))),
    )


def test_format_parse_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(25):
        scn = _random_scenario(rng)
        text = format_scenario(scn)
        back = parse_scenario(text)
        assert back == scn
        assert format_scenario(back) == text


# The key table as it was written out by hand before it was derived from
# the spec dataclasses: key -> (value kind, section attr, field attr).
HAND_WRITTEN_REGISTRY = {
    "mesh.x_min": ("float", "mesh", "x_min"),
    "mesh.x_max": ("float", "mesh", "x_max"),
    "mesh.n_cells": ("int", "mesh", "n_cells"),
    "boundary.kind": ("str", None, "boundary"),
    "layers.n": ("int", "layers", "n"),
    "layers.fractions": ("floats", "layers", "fractions"),
    "bathymetry.kind": ("str", "bathymetry", "kind"),
    "bathymetry.z0": ("float", "bathymetry", "z0"),
    "bathymetry.s": ("float", "bathymetry", "s"),
    "bathymetry.a": ("float", "bathymetry", "a"),
    "bathymetry.x0": ("float", "bathymetry", "x0"),
    "bathymetry.width": ("float", "bathymetry", "width"),
    "bathymetry.values": ("floats", "bathymetry", "values"),
    "init.kind": ("str", "init", "kind"),
    "init.eta0": ("float", "init", "eta0"),
    "init.eta_l": ("float", "init", "eta_l"),
    "init.eta_r": ("float", "init", "eta_r"),
    "init.x0": ("float", "init", "x0"),
    "init.u": ("floats", "init", "u"),
    "init.H_values": ("floats", "init", "H_values"),
    "init.u_values": ("floats", "init", "u_values"),
    "physics.g": ("float", "physics", "g"),
    "physics.mu": ("float", "physics", "mu"),
    "physics.k_l": ("float", "physics", "k_l"),
    "physics.k_t": ("float", "physics", "k_t"),
    "controls.cfl": ("float", "controls", "cfl"),
    "controls.t_end": ("float", "controls", "t_end"),
    "controls.integrator": ("str", "controls", "integrator"),
    "output.directory": ("str", "output", "directory"),
    "output.snapshot_every": ("float", "output", "snapshot_every"),
}


def test_derived_registry_equals_the_hand_written_table():
    # same keys, kinds and sections, in the same order (format_scenario
    # writes keys in registry order)
    assert list(_REGISTRY.items()) == list(HAND_WRITTEN_REGISTRY.items())


GOLDEN_FORMATTED = """mesh.x_min = -1
mesh.x_max = 3
mesh.n_cells = 80
boundary.kind = wall
layers.n = 2
layers.fractions = 0.29999999999999999, 0.69999999999999996
bathymetry.kind = slope
bathymetry.z0 = -0.59999999999999998
bathymetry.s = 0.050000000000000003
bathymetry.a = 0
bathymetry.x0 = 0
bathymetry.width = 1
init.kind = dam_break
init.eta0 = 0
init.eta_l = 0.40000000000000002
init.eta_r = 0.10000000000000001
init.x0 = 0.5
physics.g = 9.8100000000000005
physics.mu = 0.0030000000000000001
physics.k_l = 0.02
physics.k_t = 0
controls.cfl = 0.45000000000000001
controls.t_end = 0.80000000000000004
controls.integrator = forward-euler
output.directory = results
output.snapshot_every = 0.20000000000000001
"""

# Seed-0 configs of the three benchmark workloads, and the sha256 of the
# text format_scenario wrote for each when the key table was hand-written,
# less its `controls.viscous_safety = 0.5` and `physics.placement = interface`
# lines since those keys were removed, and with the default CFL echoed as
# `controls.cfl = 0.90000000000000002` since it was raised from 0.5 to 0.8
# and then to 0.9.
BENCHMARK_CONFIGS = {
    "dam_bump_wall": ("""mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 800
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
controls.t_end = 0.12
controls.integrator = ssp-rk2
output.snapshot_every = 0.006
""", "431435366de4915c7b7971e4b4ab5b6647927b05993322045129077764728071"),
    "viscous_shear": ("""mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 100
boundary.kind = periodic
layers.n = 8
bathymetry.kind = flat
bathymetry.z0 = -0.5
init.kind = shear
init.eta0 = 0.5
init.u = 0.0, 0.05, 0.1, 0.15000000000000002, 0.2, 0.25, 0.30000000000000004, 0.35000000000000003
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.t_end = 0.012
controls.integrator = ssp-rk2
output.snapshot_every = 0
""", "c75793276705c8ece42640bad25738efc2e3c138e1903174b3bfed8718bb28eb"),
    "dry_slope_deep": ("""mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 2000
boundary.kind = transmissive
layers.n = 12
bathymetry.kind = slope
bathymetry.z0 = 0
bathymetry.s = 0.1
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.0
init.x0 = 0.3
physics.g = 9.81
controls.t_end = 0.012
controls.integrator = forward-euler
output.snapshot_every = 0
""", "99bd5e9438292de0fd3524ccce8f1ae22ada9251dded0eea8a77ae564267cab1"),
}


def test_format_scenario_text_is_pinned():
    assert format_scenario(parse_scenario(GOLDEN)) == GOLDEN_FORMATTED
    for name, (text, digest) in BENCHMARK_CONFIGS.items():
        formatted = format_scenario(parse_scenario(text))
        assert hashlib.sha256(formatted.encode()).hexdigest() == digest, name
        assert parse_scenario(formatted) == parse_scenario(text), name


def test_initial_fields_clip_dry_columns():
    from layerflow.scenario import BathymetrySpec

    scn = Scenario(
        mesh=MeshSpec(0.0, 1.0, 50),
        layers=LayersSpec(n=2),
        bathymetry=BathymetrySpec(kind="bump", a=2.0, x0=0.5, width=0.1),
        init=InitSpec(kind="lake_at_rest", eta0=1.0),
        physics=PhysicsSpec(g=9.81),
    )
    zb = bathymetry_values(scn)
    H, q = initial_fields(scn, scn.partition, zb)
    assert (H >= 0.0).all()
    dry = zb >= 1.0
    assert dry.any()
    assert (H[dry] == 0.0).all()
    assert (q[:, dry] == 0.0).all()


def test_initial_fields_table_layout():
    # u_values lists layer 1 across all cells, then layer 2
    scn = Scenario(
        mesh=MeshSpec(0.0, 1.0, 3),
        layers=LayersSpec(n=2),
        init=InitSpec(kind="table",
                      H_values=(1.0, 2.0, 4.0),
                      u_values=(1.0, 2.0, 3.0, 10.0, 20.0, 30.0)),
        physics=PhysicsSpec(g=9.81),
    )
    H, q = initial_fields(scn, scn.partition, np.zeros(3))
    part = LayerPartition.uniform(2)
    assert np.allclose(q[0], 0.5 * H * np.array([1.0, 2.0, 3.0]))
    assert np.allclose(q[1], 0.5 * H * np.array([10.0, 20.0, 30.0]))


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(79)
    N, n = 3, 12
    header = snapshot_header(N)
    frame = (0.62519, rng.standard_normal((len(header), n)))
    path = tmp_path / "snap.csv"
    write_snapshot(path, frame)
    t, names, table = read_snapshot(path)
    assert t == frame[0]
    assert names == header
    assert table.shape == (n, len(names))
    # 17 significant digits reproduce doubles exactly
    assert (table == frame[1].T).all()


@pytest.mark.parametrize("N", [1, 3])
def test_a_snapshot_frame_has_one_row_per_header_column(N):
    scn = Scenario(mesh=MeshSpec(0.0, 1.0, 16), layers=LayersSpec(n=N),
                   init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.0, x0=0.5),
                   physics=PhysicsSpec(g=9.81))
    state, rhs, _ = timeloop.make_rhs(scn)
    t, table = output.snapshot_frame(0.5, state.H, rhs(state).diag, scn)
    names = snapshot_header(N)
    assert t == 0.5 and table.shape == (len(names), 16)
    for name, want in (("x", scn.mesh.x), ("zb", scn.bed.zb), ("H", state.H)):
        assert table[names.index(name)].tobytes() == want.tobytes()


REST_CASES = {
    "all at rest": [True] * 5,
    "none at rest": [False] * 5,
    "three runs at rest": [True, True, False, False, True, False, False, True, True],
}
# Values whose bits are not all clear, though three of them print or compare
# like zero; each holds a cell off the fixed tail of a cell at rest.
NOT_AT_REST = {"negative zero": -0.0, "subnormal": 5e-324, "nan": np.nan, "inf": np.inf}


def _value_by_value(t: float, table: np.ndarray, N: int) -> str:
    lines = [f"# t = {t:.17g}", ",".join(snapshot_header(N))]
    lines += [",".join("%.17g" % v for v in row) for row in table.T.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("case", [*REST_CASES, *NOT_AT_REST])
def test_snapshot_cells_at_rest_are_written_byte_for_byte(tmp_path, N, case):
    """write_snapshot writes a cell at rest (every value after eta +0.0) as
    a fixed tail of zeros; its file must equal one formatted value by value."""
    rng = np.random.default_rng(24)
    rest = np.array(REST_CASES.get(case, [True, True, False, True, True]))
    table = rng.standard_normal((len(snapshot_header(N)), rest.size))
    table[4:, rest] = 0.0
    if case in NOT_AT_REST:
        table[4:, 2] = 0.0
        table[-2, 2] = NOT_AT_REST[case]
    path = tmp_path / "snap.csv"
    write_snapshot(path, (0.25, table))
    text = path.read_text()
    assert text == _value_by_value(0.25, table, N)
    if case == "negative zero":
        assert text.splitlines()[4].endswith(",-0,0")


def test_energy_series_round_trip(tmp_path):
    scn = Scenario(
        mesh=MeshSpec(0.0, 1.0, 30),
        layers=LayersSpec(n=2),
        init=InitSpec(kind="dam_break", eta_l=1.0, eta_r=0.7, x0=0.5),
        physics=PhysicsSpec(g=9.81),
        controls=ControlsSpec(t_end=0.02),
    )
    result = run(scn)
    path = tmp_path / "energy.csv"
    write_energy_series(path, result)
    names, rows = read_energy_series(path)
    assert names == ENERGY_COLUMNS
    assert rows.shape == (result.times.size, 7)
    assert (rows[:, 0] == result.times).all()
    assert (rows[:, 1] == result.E_total).all()
    assert (rows[:-1, 5] == result.residuals).all()
    assert np.isnan(rows[-1, 5])
    assert (rows[:, 6] == result.mass).all()


CLI_CFG = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 40
boundary.kind = periodic
layers.n = 2
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.8
init.x0 = 0.5
physics.g = 9.81
controls.t_end = 0.05
output.snapshot_every = 0.02
"""


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CLI_CFG)
    out = tmp_path / "results"
    rc = cli.main(["run", str(cfg), "--output", str(out)])
    assert rc == 0
    assert (out / "energy.csv").exists()
    assert (out / "snapshot_0000.csv").exists()
    assert (out / "snapshot_0003.csv").exists()
    text = capsys.readouterr().out
    assert "finished" in text and "mass drift" in text


BUILDERS = ("make_context", "validate_scenario", "bathymetry_values", "make_bathymetry",
            "initial_fields")


def _count_builders(monkeypatch) -> dict:
    """Calls of each of BUILDERS, under every name a layerflow module binds it to."""
    calls = dict.fromkeys(BUILDERS, 0)
    for mod in [m for name, m in sys.modules.items() if name.startswith("layerflow")]:
        for name in BUILDERS:
            real = getattr(mod, name, None)
            if callable(real):
                def counted(*args, name=name, real=real):
                    calls[name] += 1
                    return real(*args)
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_cli_run_makes_the_context_once(tmp_path, monkeypatch, capsys):
    # a scenario is checked once, by parse_scenario, and its bed, partition
    # and initial state are built there once; run and make_context reuse them
    calls = _count_builders(monkeypatch)
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CLI_CFG)
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 0
    assert calls == dict.fromkeys(BUILDERS, 1)


def test_the_benchmarks_call_order_checks_and_builds_once(monkeypatch):
    # parse_scenario, make_rhs, run, make_context: the calls `layerflow run`
    # makes, with a make_rhs of its own before the run
    calls = _count_builders(monkeypatch)
    scn = cli.parse_scenario(CLI_CFG)
    state, _, ctx = timeloop.make_rhs(scn)
    result = cli.run(scn)
    assert cli.make_context(scn) is ctx is scn
    assert calls == dict(dict.fromkeys(BUILDERS, 1), make_context=3)
    # each make_rhs starts from its own copy of the kept initial state
    H0, q0 = scn.built[1:]
    assert state.H is not H0 and state.q is not q0
    assert np.array_equal(state.H, H0) and np.array_equal(state.q, q0)
    assert np.array_equal(result.snapshots[0][2].H, H0)


def test_make_context_refuses_a_parsed_scenario_replaced_into_an_invalid_one():
    scn = parse_scenario(CLI_CFG)
    timeloop.make_context(scn)
    bad = replace(scn, controls=replace(scn.controls, cfl=1.5))
    for _ in range(2):  # a failed check is not kept
        with pytest.raises(ConfigError) as err:
            timeloop.make_context(bad)
        assert err.value.problems == ["controls.cfl: cfl must lie in (0, 1], got 1.5"]
    assert timeloop.make_context(replace(bad, controls=scn.controls)).partition.n_layers == 2


def test_a_scenario_keeps_its_initial_state_read_only():
    scn = parse_scenario(CLI_CFG)
    bathy, H, q = scn.built
    assert scn.built[1] is H and bathy is scn.bed
    for field in (H, q):
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[..., 0] = 1.0
    state, _, _ = timeloop.make_rhs(scn)
    state.H[0] = 2.0  # the run's own copy
    assert H[0] == 1.0 and state.H.flags.writeable and state.q.flags.writeable


def test_cli_check_accepts_and_rejects(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(CLI_CFG)
    assert cli.main(["check", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("mesh.n_cells = -3\n")
    assert cli.main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "required key is missing" in err


FLOAT_KEYS = [key for key, (kind, _, _) in _REGISTRY.items()
              if kind in ("float", "floats")]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_check_rejects_a_nan_in_every_float_key(key, tmp_path, capsys):
    lines = [ln for ln in CLI_CFG.splitlines() if not ln.startswith(key + " ")]
    cfg = tmp_path / "nan.cfg"
    for bad in ("nan", "inf", "-inf"):
        # a list gets one value per layer (layers.n = 2), so only the bad value is wrong
        value = bad if _REGISTRY[key][0] == "float" else f"{bad}, 0.5"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert cli.main(["check", str(cfg)]) == 1
        # a range or domain rule must not report the same value a second time
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key}: must be finite, got {value} (line {len(lines) + 1})"]


@pytest.mark.parametrize("key, value", [("mesh.n_cells", "1e3"), ("physics.g", "abc")])
def test_check_reports_a_malformed_required_key_once(key, value, tmp_path, capsys):
    lines = [ln for ln in CLI_CFG.splitlines() if not ln.startswith(key + " ")]
    cfg = tmp_path / "malformed.cfg"
    cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    assert cli.main(["check", str(cfg)]) == 1
    # present but malformed is not also missing
    assert capsys.readouterr().err.splitlines() == [
        f"error: line {len(lines) + 1}: {key}: malformed {_REGISTRY[key][0]} value {value!r}"]


@pytest.mark.parametrize("key", ["physics.k_l", "physics.k_t"])
def test_check_names_the_negative_friction_key(key, tmp_path, capsys):
    cfg = tmp_path / "friction.cfg"
    cfg.write_text(CLI_CFG + f"{key} = -1\n")
    line = len(CLI_CFG.splitlines()) + 1
    assert cli.main(["check", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{key}: friction coefficient must be nonnegative, got -1 (line {line})" in err
    assert err.count("friction coefficient") == 1


def test_importing_the_cli_loads_no_scipy():
    # no command pays for scipy's import, and layerflow does not need it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, layerflow.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    # the oracle of criterion 8 and the sweep of criterion 11 run with
    # every scipy import failing
    code = ("import sys; sys.modules['scipy'] = None; from layerflow import cli; "
            "sys.exit(cli.main(['verify', '--criteria', '8,11']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "2/2 criteria passed" in out


def test_cli_missing_file_is_a_usage_error(capsys):
    assert cli.main(["check", "/no/such/file.cfg"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_a_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"mesh.x_min = 0\xff\n")
    for command in ("check", "run"):
        assert cli.main([command, str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read {cfg}: 'utf-8' codec can't decode byte 0xff in position 14: "
            "invalid start byte"]


@pytest.mark.parametrize("where", ["config", "--output", "file"])
def test_cli_run_reports_an_unwritable_output_path(where, tmp_path, capsys):
    # a configured directory under a regular file, an --output naming a
    # regular file and an output file that is a directory
    blocker, out = tmp_path / "blocker", tmp_path / "out"
    blocker.write_text("")
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CLI_CFG + f"output.directory = {blocker / 'out'}\n")
    args, path = {"config": ([], blocker / "out"),
                  "--output": (["--output", str(blocker)], blocker),
                  "file": (["--output", str(out)], out / "energy.csv")}[where]
    (out / "energy.csv").mkdir(parents=True)
    assert cli.main(["run", str(cfg), *args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: "), err


def test_cli_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--frobnicate", "x.cfg"])
    assert err.value.code == 1


def test_cli_runtime_abort_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CLI_CFG)

    def explode(*a, **k):
        raise SolverAbort("synthetic failure", step=3, time=0.01, cell=5)

    monkeypatch.setattr(cli, "accepted_steps", explode)
    rc = cli.main(["run", str(cfg), "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "synthetic failure" in capsys.readouterr().err


def test_run_survives_a_viscous_step_bound_beyond_the_float_range(tmp_path, capsys):
    # dx = 5e298, so dx**4 in the dx^4 / (mu z^2) bound overflows
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("""mesh.x_min = 0
mesh.x_max = 1e300
mesh.n_cells = 20
boundary.kind = wall
layers.n = 3
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.5
init.x0 = 5e299
physics.g = 9.81
physics.mu = 1e-3
controls.t_end = 0.01
""")
    assert cli.main(["check", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "o")]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("x_min, x_max, n_cells", [
    (-1e308, 1e308, 20),    # x_max - x_min overflows to inf
    (0.0, 5e-324, 3),       # (x_max - x_min) / n_cells underflows to 0
], ids=["overflow", "underflow"])
def test_check_rejects_a_cell_width_outside_the_float_range(x_min, x_max, n_cells,
                                                             tmp_path, capsys):
    cfg = tmp_path / "width.cfg"
    cfg.write_text(f"""mesh.x_min = {x_min!r}
mesh.x_max = {x_max!r}
mesh.n_cells = {n_cells}
boundary.kind = wall
layers.n = 3
init.kind = dam_break
init.eta_l = 1.0
init.eta_r = 0.5
init.x0 = 0
physics.g = 9.81
physics.mu = 1e-3
controls.t_end = 0.01
""")
    assert cli.main(["check", str(cfg)]) == 1
    out = tmp_path / "o"
    assert cli.main(["run", str(cfg), "--output", str(out)]) == 1
    assert not (out / "energy.csv").exists()
    err = capsys.readouterr().err
    assert err.count("mesh.x_max: cell width (x_max - x_min) / n_cells = ") == 2
    assert "must be finite and positive (line 2)" in err


def test_cli_verify_rejects_bad_criteria(capsys):
    assert cli.main(["verify", "--criteria", "0,11"]) == 1
    assert cli.main(["verify", "--criteria", "pi"]) == 1


def test_cli_verify_subset(capsys):
    rc = cli.main(["verify", "--criteria", "7,10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "criterion  7" in out and "criterion 10" in out
    assert "2/2 criteria passed" in out
