"""CSV output of snapshot frames and of the audit series.

All numbers are written with 17 significant digits so files are
byte-for-byte reproducible and round-trip to the exact binary floats.
A run writes each frame's state; `full_frame` rebuilds the derived
columns from it, bit for bit as the run computes them.
"""
from __future__ import annotations

import numpy as np

from .energy import layer_energies
from .geometry import build_geometry
from .gridops import widen
from .kinematics import reconstruct_w
from .state import hydrostatic_pressures
from .scenario import Scenario
from .timeloop import Diagnostics, RunResult

# (t, column names, table holding one row per name)
Frame = tuple[float, list[str], np.ndarray]


def snapshot_header(n_layers: int, full: bool = False) -> list[str]:
    """The columns of a state frame, or of the full frame `full_frame` builds."""
    def per_layer(c):
        return [f"{c}_{a + 1}" for a in range(n_layers)]
    G = [f"G_{k}h" for k in range(1, n_layers)]
    if not full:
        return ["x", "zb", "H", *per_layer("u"), *G]
    return ["x", "zb", "H", "eta", *per_layer("u"), *per_layer("w"), *G,
            *per_layer("p"), *per_layer("E")]


def snapshot_frame(t: float, H: np.ndarray, diag: Diagnostics, scn: Scenario) -> Frame:
    """The state frame of depth H: the window's u and G widened with a dry
    bed at rest."""
    a, n = diag.window[0], H.size
    return t, snapshot_header(scn.layers.n), np.vstack(
        [scn.mesh.x, scn.bed.zb, H, widen(diag.u, a, n), widen(diag.G[1:-1], a, n)])


def full_frame(frame: Frame, scn: Scenario) -> Frame:
    """The full frame of a state frame of scn: the surface, w, the midlayer
    pressures and the layer energies rebuilt from H and u over the domain.
    ValueError, saying why, if the frame is not a state frame of scn."""
    t, names, table = frame
    N, n = scn.layers.n, scn.mesh.n_cells
    if names != snapshot_header(N):
        raise ValueError("already in the full layout" if "eta" in names else
                         f"columns {','.join(names)}, not those of {N} layers")
    if table.shape[1] != n:
        raise ValueError(f"{table.shape[1]} cells, the config has {n}")
    if not (np.array_equal(table[0], scn.mesh.x) and np.array_equal(table[1], scn.bed.zb)):
        raise ValueError("its x and zb are not the config's mesh and bed")
    H, u = table[2], table[3:3 + N]
    geom = build_geometry(H, scn.bed, scn.partition)
    w, _ = reconstruct_w(u, geom)
    p_mid, _ = hydrostatic_pressures(geom.h, scn.g)
    return t, snapshot_header(N, full=True), np.vstack(
        [table[:3], geom.z_if[-1], u, w, table[3 + N:], p_mid, layer_energies(u, geom, scn.g)])


def _write_rows(f, rows: np.ndarray, tail: str = "\n") -> None:
    """One CSV line per row of a 2-D table, every value with 17 significant
    digits, then `tail`: "%.17g" formats a Python float exactly as
    format(v, ".17g") does, including nan, inf and negative zero.
    """
    line = ",".join(["%.17g"] * rows.shape[1]) + tail
    for row in rows:
        f.write(line % tuple(row.tolist()))


def write_snapshot(path, frame: Frame) -> None:
    """A cell at rest, every value after H +0.0 with all bits clear, is
    written as its first three values and one fixed tail of ",0"s: "%.17g"
    prints +0.0 as "0", and -0.0, subnormals, nan and inf fail the bit test."""
    t, names, table = frame
    moving = table[3:].view(np.int64).any(axis=0)
    with open(path, "w", newline="\n") as f:
        f.write(f"# t = {float(t):.17g}\n")
        f.write(",".join(names) + "\n")
        cuts = [0, *(np.flatnonzero(np.diff(moving)) + 1).tolist(), moving.size]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if moving[a]:
                _write_rows(f, table[:, a:b].T)
            else:
                _write_rows(f, table[:3, a:b].T, ",0" * (table.shape[0] - 3) + "\n")


def read_snapshot(path) -> Frame:
    """Inverse of write_snapshot: the frame a file holds. ValueError, saying
    why, if the file is not one whole frame, such as a file cut short."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines.pop() != "" or len(lines) < 3 or not lines[0].startswith("# t = "):
        raise ValueError("not a whole snapshot: a time line, a header and rows, "
                         "each ending in a newline")
    names = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"line {i + 3} holds {len(row)} values for {len(names)} columns")
    table = np.array([[float(v) for v in row] for row in rows])
    return float(lines[0][6:]), names, np.ascontiguousarray(table.T)


ENERGY_COLUMNS = ["t", "E_total", "D_G", "R_E", "friction", "residual", "mass"]


def write_energy_series(path, result: RunResult) -> None:
    """Per-step audit rows; the residual of the closing row is nan."""
    res = np.append(result.residuals, np.nan)
    table = np.column_stack([result.times, result.E_total, result.D_G, result.R_E,
                             result.friction, res, result.mass])
    with open(path, "w", newline="\n") as f:
        f.write(",".join(ENERGY_COLUMNS) + "\n")
        _write_rows(f, table)
