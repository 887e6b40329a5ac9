"""Scenario description: plain-text config parsing, validation, and the
construction of initial fields.

The config format is flat `section.key = value` lines with `#`
comments.  Lists are comma separated.  Parsing collects every problem
it can find (unknown keys, malformed numbers, missing required keys,
out-of-range values), each tagged with the offending key and line, and
reports them all at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass, replace
from functools import cached_property
from typing import Optional, get_type_hints

import numpy as np

from .errors import ConfigError
from .geometry import Bathymetry, LayerPartition, layer_thicknesses, make_bathymetry
from .gridops import BOUNDARY_KINDS
from .state import H_DRY

BATHYMETRY_KINDS = ("flat", "slope", "bump", "table")
INIT_KINDS = ("lake_at_rest", "dam_break", "shear", "table")
FORWARD_EULER = "forward-euler"
SSP_RK2 = "ssp-rk2"
INTEGRATORS = (FORWARD_EULER, SSP_RK2)


@dataclass(frozen=True)
class MeshSpec:
    """Uniform mesh of cell centers on [x_min, x_max]."""

    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 0

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def x(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class LayersSpec:
    n: int = 1
    fractions: Optional[tuple] = None


@dataclass(frozen=True)
class BathymetrySpec:
    kind: str = "flat"
    z0: float = 0.0
    s: float = 0.0
    a: float = 0.0
    x0: float = 0.0
    width: float = 1.0
    values: Optional[tuple] = None


@dataclass(frozen=True)
class InitSpec:
    kind: str = ""
    eta0: float = 0.0
    eta_l: float = 0.0
    eta_r: float = 0.0
    x0: float = 0.0
    u: Optional[tuple] = None
    H_values: Optional[tuple] = None
    u_values: Optional[tuple] = None


@dataclass(frozen=True)
class PhysicsSpec:
    g: float = 0.0
    mu: float = 0.0
    k_l: float = 0.0
    k_t: float = 0.0


@dataclass(frozen=True)
class ControlsSpec:
    cfl: float = 0.9
    t_end: float = 1.0
    integrator: str = SSP_RK2


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    snapshot_every: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """A run's specs; once checked (`built`), the context the whole run reads."""

    mesh: MeshSpec = field(default_factory=MeshSpec)
    boundary: str = "periodic"
    layers: LayersSpec = field(default_factory=LayersSpec)
    bathymetry: BathymetrySpec = field(default_factory=BathymetrySpec)
    init: InitSpec = field(default_factory=InitSpec)
    physics: PhysicsSpec = field(default_factory=PhysicsSpec)
    controls: ControlsSpec = field(default_factory=ControlsSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    h_dry = H_DRY  # read by perfbench's tracer

    @property
    def dx(self) -> float:
        return self.mesh.dx

    @property
    def g(self) -> float:
        return self.physics.g

    @cached_property
    def partition(self) -> LayerPartition:
        if self.layers.fractions is None:
            return LayerPartition.uniform(self.layers.n)
        return LayerPartition(np.array(self.layers.fractions))

    @cached_property
    def built(self) -> tuple[Bathymetry, np.ndarray, np.ndarray]:
        """A frozen scenario keeps `validate_scenario`'s pass, its bed and
        initial (H, q); ConfigError while the scenario is invalid."""
        return validate_scenario(self)

    @property
    def bed(self) -> Bathymetry:
        return self.built[0]


# --- config registry -------------------------------------------------------

# annotation of a spec field -> kind of its config value
_KINDS = {float: "float", int: "int", str: "str", Optional[tuple]: "floats"}


def _derive_registry() -> dict:
    """key -> (value kind, section attr, field attr), in field order.

    Each field of a section spec is the key `section.field`; a plain field
    of Scenario (the boundary) is the key `field.kind` with no section.
    """
    registry = {}
    for name, hint in get_type_hints(Scenario).items():
        if not is_dataclass(hint):
            registry[f"{name}.kind"] = (_KINDS[hint], None, name)
            continue
        for attr, kind in get_type_hints(hint).items():
            registry[f"{name}.{attr}"] = (_KINDS[kind], name, attr)
    return registry


_REGISTRY = _derive_registry()

_REQUIRED = ("mesh.x_min", "mesh.x_max", "mesh.n_cells", "init.kind", "physics.g")
_RANGE_KEYS = ("physics.g", "physics.mu", "bathymetry.z0", "bathymetry.s", "bathymetry.a",
               "bathymetry.values", "init.eta0", "init.eta_l", "init.eta_r", "init.H_values",
               "init.u", "init.u_values")
_SLOPE_KEYS = {"slope": "bathymetry.s", "bump": "bathymetry.a", "table": "bathymetry.values"}


def _value(scn: Scenario, key: str):
    """The value of a config key in a scenario."""
    _, section, attr = _REGISTRY[key]
    return getattr(scn, attr) if section is None else getattr(getattr(scn, section), attr)


# kind of a config value -> its parser; a list of floats skips empty entries
_PARSERS = {"str": str, "int": int, "float": float,
            "floats": lambda raw: tuple(float(p) for p in raw.split(",") if p.strip())}


def parse_scenario(text: str) -> Scenario:
    """Parse a config document; raises ConfigError listing every problem."""
    problems: list[str] = []
    values: dict[str, object] = {}
    lines_seen: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'section.key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _REGISTRY:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r} "
                            f"(first set on line {lines_seen[key]})")
            continue
        kind = _REGISTRY[key][0]
        lines_seen[key] = lineno  # a malformed value is not also a missing one
        try:
            values[key] = _PARSERS[kind](val)
        except ValueError:
            problems.append(f"line {lineno}: {key}: malformed {kind} value {val!r}")

    for key in _REQUIRED:
        if key not in lines_seen:
            problems.append(f"{key}: required key is missing")
    if problems:
        raise ConfigError(problems)

    groups: dict = {}
    for key, value in values.items():
        _, section, attr = _REGISTRY[key]
        groups.setdefault(section, {})[attr] = value
    scn = Scenario()
    scn = replace(scn, **groups.pop(None, {}),
                  **{name: replace(getattr(scn, name), **kw) for name, kw in groups.items()})
    try:
        scn.built
    except ConfigError as exc:  # each problem starts with its key: add the key's line
        raise ConfigError([f"{p} (line {lines_seen[k]})" if (k := p.split(":")[0]) in lines_seen
                           else p for p in exc.problems]) from None
    return scn


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise AssertionError("no boolean config values")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ", ".join(format(v, ".17g") for v in value)
    return str(value)


def format_scenario(scn: Scenario) -> str:
    """Emit a config document that parses back to an equal Scenario."""
    return "".join(f"{key} = {_fmt(value)}\n" for key in _REGISTRY
                   if (value := _value(scn, key)) is not None)


def validate_scenario(scn: Scenario) -> tuple:
    """Raise ConfigError listing every problem of a scenario, each `key: ...`;
    else return the bed and read-only initial (H, q) it built."""
    problems: list[str] = []

    def bad(key: str, message: str):
        problems.append(f"{key}: {message}")

    nonfinite = set()
    for key, (kind, _, _) in _REGISTRY.items():
        if kind in ("float", "floats"):
            value = _value(scn, key)
            values = (value,) if kind == "float" else value
            if values is not None and not all(map(math.isfinite, values)):
                bad(key, f"must be finite, got {_fmt(value)}")
                nonfinite.add(key)

    def out_of_range(key: str, message: str):  # a value reported non-finite is not rechecked
        if key not in nonfinite:
            bad(key, message)

    m = scn.mesh
    if nonfinite.isdisjoint(("mesh.x_min", "mesh.x_max")):
        if m.x_max <= m.x_min:
            bad("mesh.x_max", f"domain [{m.x_min:g}, {m.x_max:g}] is empty")
        elif m.n_cells >= 3 and not (0.0 < m.dx < math.inf):
            bad("mesh.x_max", f"cell width (x_max - x_min) / n_cells = {m.dx:g} "
                "must be finite and positive")
    if m.n_cells < 3:
        bad("mesh.n_cells", f"need at least 3 cells, got {m.n_cells}")

    if scn.boundary not in BOUNDARY_KINDS:
        bad("boundary.kind", f"unknown boundary {scn.boundary!r}, expected one of {BOUNDARY_KINDS}")

    lay = scn.layers
    if lay.n < 1:
        bad("layers.n", f"need at least one layer, got {lay.n}")
    if lay.fractions is not None:
        if len(lay.fractions) != lay.n:
            bad("layers.fractions", f"{len(lay.fractions)} fractions for layers.n = {lay.n}")
        else:
            try:  # the partition's own positivity and sum rules
                scn.partition
            except ValueError as exc:
                out_of_range("layers.fractions", str(exc))

    b = scn.bathymetry
    if b.kind not in BATHYMETRY_KINDS:
        bad("bathymetry.kind", f"unknown kind {b.kind!r}, expected one of {BATHYMETRY_KINDS}")
    elif b.kind == "table":
        if b.values is None:
            bad("bathymetry.values", "required for bathymetry.kind = table")
        elif m.n_cells >= 3 and len(b.values) != m.n_cells:
            bad("bathymetry.values", f"{len(b.values)} values for {m.n_cells} cells")
    if b.kind == "bump" and b.width <= 0:
        out_of_range("bathymetry.width", "bump width must be positive")

    ini = scn.init
    if ini.kind not in INIT_KINDS:
        bad("init.kind", f"unknown kind {ini.kind!r}, expected one of {INIT_KINDS}")
    elif ini.kind == "shear" and ini.u is None:
        bad("init.u", "required for init.kind = shear (one velocity per layer)")
    elif ini.kind == "table":
        if ini.H_values is None:
            bad("init.H_values", "required for init.kind = table")
        elif m.n_cells >= 3 and len(ini.H_values) != m.n_cells:
            bad("init.H_values", f"{len(ini.H_values)} values for {m.n_cells} cells")
        if ini.u_values is None:
            bad("init.u_values", "required for init.kind = table")
        elif m.n_cells >= 3 and lay.n >= 1 and len(ini.u_values) != lay.n * m.n_cells:
            bad("init.u_values",
                f"{len(ini.u_values)} values, expected layers.n * n_cells = {lay.n * m.n_cells}")
    if ini.kind == "table" and ini.H_values is not None and any(v < 0 for v in ini.H_values):
        out_of_range("init.H_values", "depths must be nonnegative")
    if ini.u is not None and ini.kind in INIT_KINDS and lay.n >= 1 and len(ini.u) != lay.n:
        bad("init.u", f"{len(ini.u)} velocities for {lay.n} layers")

    p = scn.physics
    if p.g <= 0.0:
        out_of_range("physics.g", f"gravity must be positive, got {p.g:g}")
    if p.mu < 0:
        out_of_range("physics.mu", "viscosity must be nonnegative")
    for key, value in (("physics.k_l", p.k_l), ("physics.k_t", p.k_t)):
        if value < 0:
            out_of_range(key, f"friction coefficient must be nonnegative, got {value:g}")

    c = scn.controls
    if c.cfl <= 0.0 or c.cfl > 1.0:
        out_of_range("controls.cfl", f"cfl must lie in (0, 1], got {c.cfl:g}")
    if c.t_end <= 0.0:
        out_of_range("controls.t_end", f"t_end must be positive, got {c.t_end:g}")
    if c.integrator not in INTEGRATORS:
        bad("controls.integrator",
            f"unknown integrator {c.integrator!r}, expected one of {INTEGRATORS}")

    if scn.output.snapshot_every < 0:
        out_of_range("output.snapshot_every", "snapshot cadence must be nonnegative")
    if not problems:  # the initial state's HLL flux speed (H u^2 + g H (H + |z_b|)) and
        # pressure H^2 over the cell width, as its first tendencies take them, its
        # potential g (H + |z_b|), even where dry, and the stress mu speed / h that
        # its speed drives across a film's thinnest layer
        with np.errstate(over="ignore", invalid="ignore"):
            zb = bathymetry_values(scn)
            part = scn.partition
            H, q = initial_fields(scn, part, zb)
            h = layer_thicknesses(H, part)
            u = np.abs(np.divide(q, h, out=np.zeros_like(q), where=h > 0.0)).max(axis=0)
            speed, z = u + np.sqrt(p.g * H), H + np.abs(zb)
            flux = ((speed * (H * u * u + p.g * H * z) + H * H) / m.dx + p.g * z
                    + p.mu * speed / (H_DRY * part.fractions.min()))
            finite = np.isfinite(flux).all()
            # the wall law divides by the cube of the bed slope's cosine
            bathy = finite and make_bathymetry(zb, m.dx, scn.boundary)
            steep = finite and not (bathy.cos3 > 0.0).all()
        if not finite:  # name the largest of the values the bed and fields are built from
            key = max(_RANGE_KEYS, key=lambda k: np.abs(_value(scn, k) or 0.0).max())
            bad(key, "puts the initial state's flux, pressure, potential or film stress "
                "beyond the float range")
        elif steep:
            bad(_SLOPE_KEYS[b.kind], "makes the bed so steep that the cube of its slope's "
                "cosine is 0")
    if problems:
        raise ConfigError(problems)
    H.flags.writeable = q.flags.writeable = False
    return bathy, H, q


# --- field construction ----------------------------------------------------

def bathymetry_values(scn: Scenario) -> np.ndarray:
    """Bed elevation sampled at cell centers."""
    b = scn.bathymetry
    x = scn.mesh.x
    if b.kind == "flat":
        return np.full(scn.mesh.n_cells, b.z0)
    if b.kind == "slope":
        return b.z0 + b.s * x
    if b.kind == "bump":
        with np.errstate(over="ignore"):  # far from the bump, in widths, it is exp(-inf) = 0
            return b.z0 + b.a * np.exp(-(((x - b.x0) / b.width) ** 2))
    return np.asarray(b.values, dtype=float)


def initial_fields(scn: Scenario, part: LayerPartition,
                   zb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial (H, q); free surfaces below the bed give dry columns."""
    ini = scn.init
    n = scn.mesh.n_cells
    N = part.n_layers
    if ini.kind in ("lake_at_rest", "shear"):
        H = np.maximum(ini.eta0 - zb, 0.0)
    elif ini.kind == "dam_break":
        eta = np.where(scn.mesh.x < ini.x0, ini.eta_l, ini.eta_r)
        H = np.maximum(eta - zb, 0.0)
    else:  # table
        H = np.asarray(ini.H_values, dtype=float)

    if ini.kind == "table":
        u = np.asarray(ini.u_values, dtype=float).reshape(N, n)
    elif ini.u is not None:
        u = np.repeat(np.asarray(ini.u, dtype=float)[:, None], n, axis=1)
    else:
        u = np.zeros((N, n))

    q = layer_thicknesses(H, part) * u
    q[:, H <= H_DRY] = 0.0
    return H, q
