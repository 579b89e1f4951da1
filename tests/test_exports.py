from pathlib import Path

import pytest

import qmetro
from qmetro import estimate, interferom, spinops, squeeze, statelib

SUBMODULES = (spinops, statelib, estimate, interferom, squeeze)


def test_package_exports_exactly_the_submodule_exports():
    exported = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert sorted(qmetro.__all__) == sorted(exported)
    # no name is listed by two submodules, so no star import shadows another
    assert len(set(qmetro.__all__)) == len(qmetro.__all__)


def test_every_export_is_bound():
    for module in (qmetro, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_binds_the_submodule_objects():
    # a wrapper patched over a submodule function must find the package's
    # binding to be that same function
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(qmetro, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qmetro import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qmetro.__all__)


def test_version_declared_once():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "qmetro.__version__"}
