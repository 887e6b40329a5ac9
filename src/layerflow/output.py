"""Snapshot and audit-series CSV output.

All numbers are written with 17 significant digits so files are
byte-for-byte reproducible and round-trip to the exact binary floats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import layer_energies
from .geometry import build_geometry
from .gridops import widen
from .kinematics import reconstruct_w
from .state import hydrostatic_pressures
from .scenario import Scenario
from .timeloop import Diagnostics, RunResult


@dataclass
class Snapshot:
    """One output frame: geometry, velocities and derived diagnostics."""

    t: float
    x: np.ndarray       # (n,)
    zb: np.ndarray      # (n,)
    H: np.ndarray       # (n,)
    eta: np.ndarray     # (n,) free surface
    u: np.ndarray       # (N, n)
    w: np.ndarray       # (N, n)
    G: np.ndarray       # (N-1, n) interior interface transfers
    p: np.ndarray       # (N, n) midpoint pressures
    E: np.ndarray       # (N, n) layer energies


def snapshot_frame(t: float, H: np.ndarray, diag: Diagnostics,
                   scn: Scenario) -> Snapshot:
    """The frame of depth H: the window's u and G widened with a dry bed at
    rest, and the geometry, w, pressures and energies derived over the domain."""
    a, n = diag.window[0], H.size
    geom = build_geometry(H, scn.bed, scn.partition)
    u = widen(diag.u, a, n)
    w, _ = reconstruct_w(u, geom)
    p_mid, _ = hydrostatic_pressures(geom.h, scn.g)
    return Snapshot(
        t=t,
        x=scn.mesh.x,
        zb=scn.bed.zb,
        H=H.copy(),
        eta=geom.z_if[-1],
        u=u,
        w=w,
        G=widen(diag.G[1:-1], a, n),
        p=p_mid,
        E=layer_energies(u, geom, scn.g),
    )


def _write_rows(f, rows: np.ndarray) -> None:
    """One CSV line per row of a 2-D table, every value with 17 significant
    digits: "%.17g" formats a Python float exactly as format(v, ".17g")
    does, including nan, inf and negative zero.
    """
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows:
        f.write(line % tuple(row.tolist()))


def snapshot_header(n_layers: int) -> list[str]:
    cols = ["x", "zb", "H", "eta"]
    cols += [f"u_{a + 1}" for a in range(n_layers)]
    cols += [f"w_{a + 1}" for a in range(n_layers)]
    cols += [f"G_{k}h" for k in range(1, n_layers)]
    cols += [f"p_{a + 1}" for a in range(n_layers)]
    cols += [f"E_{a + 1}" for a in range(n_layers)]
    return cols


def write_snapshot(path, snap: Snapshot) -> None:
    N = snap.u.shape[0]
    table = np.vstack([snap.x, snap.zb, snap.H, snap.eta,
                       snap.u, snap.w, snap.G, snap.p, snap.E])
    with open(path, "w", newline="\n") as f:
        f.write(f"# t = {float(snap.t):.17g}\n")
        f.write(",".join(snapshot_header(N)) + "\n")
        _write_rows(f, table.T)


ENERGY_COLUMNS = ["t", "E_total", "D_G", "R_E", "friction", "residual", "mass"]


def write_energy_series(path, result: RunResult) -> None:
    """Per-step audit rows; the residual of the closing row is nan."""
    res = np.append(result.residuals, np.nan)
    table = np.column_stack([result.times, result.E_total, result.D_G, result.R_E,
                             result.friction, res, result.mass])
    with open(path, "w", newline="\n") as f:
        f.write(",".join(ENERGY_COLUMNS) + "\n")
        _write_rows(f, table)
