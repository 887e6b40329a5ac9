"""The package's public names: every export resolves."""
import layerflow


def test_every_exported_name_resolves():
    assert [name for name in layerflow.__all__ if not hasattr(layerflow, name)] == []
    assert len(set(layerflow.__all__)) == len(layerflow.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from layerflow import *", namespace)
    assert set(layerflow.__all__) <= set(namespace)


def test_the_checked_scenario_is_the_runs_only_context():
    assert "SimContext" not in layerflow.__all__ and not hasattr(layerflow, "SimContext")
    assert "ctx" not in layerflow.RunResult._fields
