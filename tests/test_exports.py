import qmetro
from qmetro import estimate, interferom, spinops, squeeze, statelib

SUBMODULES = (spinops, statelib, estimate, interferom, squeeze)


def test_package_exports_exactly_the_submodule_exports():
    exported = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert sorted(qmetro.__all__) == sorted(exported)
    assert len(set(qmetro.__all__)) == len(qmetro.__all__)


def test_every_export_is_bound():
    for module in (qmetro, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
