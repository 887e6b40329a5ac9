"""Golden outputs: `layerflow run` must reproduce these files byte for byte.

The first three digest sets were recorded before the tendency evaluation
was reorganized to compute each quantity once per stage.  The viscous
wall case, the one golden run whose energy audit reads the boundary work
of the stress field (and so the w the stress closure used), was recorded
before the accepted-state fields moved into `Diagnostics`.  The periodic
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
transmissive case, the one run whose audit reads the boundary work of
interface-placed stresses at an open end, was recorded before the stress
closure took over w, the tractions and the in-layer resultant.  The CSVs carry
17 significant digits, so any change to the arithmetic the stepper
applies, to the audit or to the snapshot schedule shows up here.  A
change that alters them on purpose has to explain every changed digit
and re-record them.
"""
import hashlib

import pytest

from layerflow import cli

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
controls.t_end = 0.02
controls.integrator = forward-euler
output.snapshot_every = 0
"""

VISCOUS_FRICTION_WALL_LAYER_RK2 = """mesh.x_min = 0
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
physics.placement = layer
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
controls.t_end = 0.3
controls.integrator = ssp-rk2
output.snapshot_every = 0.075
"""

GOLDEN = {
    "inviscid_wall_rk2": (INVISCID_WALL_RK2, {
        "energy.csv": "37afad6bdcb910039ecee8dbb6734d3cb5af46ba7fc270afed80a527545d9450",
        "snapshot_0000.csv": "34cba07e2bc77c49b5174c02a9e6cb358830fc68eabd255114341bef19d0005d",
        "snapshot_0001.csv": "00b20ee9b508ae86df16f4e8da6dd45489dc7380805366b892fc74bc79dff55d",
        "snapshot_0002.csv": "e971b8812b0450b7932a1f9e4502a4b992e50f0db623a453e22f6a20c0be6b3c",
        "snapshot_0003.csv": "f7e587c7bae12a9df0ffa0f6a517feb9c32a77fca8a380283f88af28932c5221",
        "snapshot_0004.csv": "b822e9a6005da9fab7f6d2944730239d125c8ee9b60675c679b134502ab69786",
    }),
    "viscous_friction_periodic_rk2": (VISCOUS_FRICTION_PERIODIC_RK2, {
        "energy.csv": "e0217acc3504ef9fcd90bcc920052615ac3cac0212a3246a680300d5a7e90462",
        "snapshot_0000.csv": "d0a148a569a5d162bd9a3c1d474e7e09097456cecfa11e0031890ad07a46d5d5",
        "snapshot_0001.csv": "0a91a2ede09070bd033e66b0d3354b4d9c52d380ab117bd4dcd678d0c44a7a0b",
        "snapshot_0002.csv": "3fbcbfc80450a5261560b8d8f735dfd71accdb9601cd43899446012026412751",
        "snapshot_0003.csv": "db0068ec7d54dac5c29ac354656aacf71cae86ae5c24c47b06a74f3c27ef921a",
    }),
    "viscous_friction_wall_layer_rk2": (VISCOUS_FRICTION_WALL_LAYER_RK2, {
        "energy.csv": "c1fc8e87cc3c0c5fd7fbbd6ac520b446ef7def095d1ac36e4accb4d8903612da",
        "snapshot_0000.csv": "04021eca199e53ec51d6f387512d62d55838f2ad3f230a479b52ba6046c3b022",
        "snapshot_0001.csv": "a46e9ee2ce6158da82e27dfdac36d822910afe125c26afd56cbde03df1838ff7",
        "snapshot_0002.csv": "652c03c074c74a0db0833525dfc0709f8bfa5057e02c7131c3143138f6c50da1",
        "snapshot_0003.csv": "28f46720ee302ba993607fd62972524c36be34167be1500eb0f7ad04fb3fd34d",
    }),
    "viscous_interface_transmissive_rk2": (VISCOUS_INTERFACE_TRANSMISSIVE_RK2, {
        "energy.csv": "ef3adc402a573d7e6959123fa3544133d1a9d4f17d923f840d98475ad14fa247",
        "snapshot_0000.csv": "285bd51e3f3fbfdebf444dea89b0cb796197dff5291599bb427f1531bac28fec",
        "snapshot_0001.csv": "05753b13e9c187435e4b966f96ad9a10d625158f481b33555e7fcf22941606d2",
        "snapshot_0002.csv": "1e3ac508631c843e90541090a7725ea2a4b8428bc0cc41498fb4f86885fc769d",
        "snapshot_0003.csv": "3bf12dd07007345771bbd8dac5510861b43afdd520b68ffa10a145c1d37092bf",
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
        "energy.csv": "d4d2377b2da81d9fb6d294dc9317d7b756a1d15d98c61c56ce6dc7e354dad17c",
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
