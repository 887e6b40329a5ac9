"""CSV output of snapshot frames and of the audit series.

All numbers are written with 17 significant digits so files are
byte-for-byte reproducible and round-trip to the exact binary floats.
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


def snapshot_frame(t: float, H: np.ndarray, diag: Diagnostics,
                   scn: Scenario) -> tuple[float, np.ndarray]:
    """The frame (t, table) of depth H: one table row per snapshot_header
    column, the window's u and G widened with a dry bed at rest, and the
    geometry, w, pressures and energies derived over the domain."""
    a, n = diag.window[0], H.size
    geom = build_geometry(H, scn.bed, scn.partition)
    u = widen(diag.u, a, n)
    w, _ = reconstruct_w(u, geom)
    p_mid, _ = hydrostatic_pressures(geom.h, scn.g)
    return t, np.vstack([scn.mesh.x, scn.bed.zb, H, geom.z_if[-1], u, w,
                         widen(diag.G[1:-1], a, n), p_mid, layer_energies(u, geom, scn.g)])


def _write_rows(f, rows: np.ndarray, tail: str = "\n") -> None:
    """One CSV line per row of a 2-D table, every value with 17 significant
    digits, then `tail`: "%.17g" formats a Python float exactly as
    format(v, ".17g") does, including nan, inf and negative zero.
    """
    line = ",".join(["%.17g"] * rows.shape[1]) + tail
    for row in rows:
        f.write(line % tuple(row.tolist()))


def snapshot_header(n_layers: int) -> list[str]:
    return (["x", "zb", "H", "eta"] + [f"{c}_{a + 1}" for c in "uw" for a in range(n_layers)]
            + [f"G_{k}h" for k in range(1, n_layers)]
            + [f"{c}_{a + 1}" for c in "pE" for a in range(n_layers)])


def write_snapshot(path, frame: tuple[float, np.ndarray]) -> None:
    """A cell at rest, every value after eta +0.0 with all bits clear, is
    written as its first four values and one fixed tail of ",0"s: "%.17g"
    prints +0.0 as "0", and -0.0, subnormals, nan and inf fail the bit test."""
    t, table = frame
    moving = table[4:].view(np.int64).any(axis=0)
    with open(path, "w", newline="\n") as f:
        f.write(f"# t = {float(t):.17g}\n")
        f.write(",".join(snapshot_header((table.shape[0] - 3) // 5)) + "\n")
        cuts = [0, *(np.flatnonzero(np.diff(moving)) + 1).tolist(), moving.size]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if moving[a]:
                _write_rows(f, table[:, a:b].T)
            else:
                _write_rows(f, table[:4, a:b].T, ",0" * (table.shape[0] - 4) + "\n")


ENERGY_COLUMNS = ["t", "E_total", "D_G", "R_E", "friction", "residual", "mass"]


def write_energy_series(path, result: RunResult) -> None:
    """Per-step audit rows; the residual of the closing row is nan."""
    res = np.append(result.residuals, np.nan)
    table = np.column_stack([result.times, result.E_total, result.D_G, result.R_E,
                             result.friction, res, result.mass])
    with open(path, "w", newline="\n") as f:
        f.write(",".join(ENERGY_COLUMNS) + "\n")
        _write_rows(f, table)
