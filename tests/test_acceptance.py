"""End-to-end acceptance gate.

One test per built-in criterion; each prints its pass/fail line so a
plain `pytest -v -s tests/test_acceptance.py` doubles as the report.

Each criterion's figures are pinned: its detail text, with wall times
masked, must read as recorded below, so a change to the solver or to the
way a criterion drives it cannot move a figure silently.  A change that
moves one on purpose re-records it and explains the new value.
"""
import re

from layerflow import acceptance

DETAILS = {
    1: "max|u|=2.78e-15 (<=1e-12), max|eta-eta0|=2.22e-16 (<=1e-12), wall=…s (<5s)",
    2: "relative drift=4.44e-16 over 896 steps (<=1e-12)",
    3: "max|u_a-u|=1.42e-15, max|H4-H1|=8.88e-16 (<=1e-10)",
    4: "L1 errors 6.254e-02 -> 3.656e-02, order=0.77 (>=0.7), wall=…s (<30s)",
    5: "max relative step growth=-8.91e-05 (<=1e-12), max D_G=-0.00e+00 (<=0)",
    6: "worst relative gap=5.94e-16 over 1000 states (<=1e-12), signs nonpositive=True",
    7: "worst |int(what) - h w|=9.31e-15 for N in 2,3,5 (<=1e-12)",
    8: "monotone=True, rate=0.09743 vs oracle 0.09743 (gap 0.0%, <=10%), wall=…s (<10s)",
    9: "rhs gap=7.07e-16 (<=1e-14), trajectory gap after 100 steps=1.11e-16 (<=1e-12)",
    10: "upwind terms nonpositive=True, match closed form=True, "
        "anti-upwind witness=39.254 (>0)",
}


def _check(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.detail
    assert re.sub(r"wall=[0-9.]+s", "wall=…s", res.detail) == DETAILS[res.cid]


def test_criterion_01_lake_at_rest():
    _check(acceptance.criterion_1)


def test_criterion_02_mass_conservation():
    _check(acceptance.criterion_2)


def test_criterion_03_layer_collapse():
    _check(acceptance.criterion_3)


def test_criterion_04_dry_dam_break_convergence():
    _check(acceptance.criterion_4)


def test_criterion_05_energy_monotonicity():
    _check(acceptance.criterion_5)


def test_criterion_06_dissipation_identity():
    _check(acceptance.criterion_6)


def test_criterion_07_profile_mean_identity():
    _check(acceptance.criterion_7)


def test_criterion_08_shear_relaxation_rate():
    _check(acceptance.criterion_8)


def test_criterion_09_single_layer_equivalence():
    _check(acceptance.criterion_9)


def test_criterion_10_upwind_energy_optimality():
    _check(acceptance.criterion_10)
