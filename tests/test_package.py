import pwafit
from pwafit import inference, model, objective, optimizer, simulate, smoothing


def test_package_exports_exactly_its_modules_exports():
    modules = (inference, model, objective, optimizer, simulate, smoothing)
    exported = set().union(*(module.__all__ for module in modules))
    assert sorted(pwafit.__all__) == sorted(exported)
    assert all(getattr(pwafit, name) is getattr(m, name) for m in modules for name in m.__all__)
