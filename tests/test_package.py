"""Tests of the package's public surface."""

import smap
from smap import constrained_ls, constraints, errors, filters, linalg, robustness, sim

MODULES = (errors, linalg, filters, constraints, robustness, constrained_ls, sim)


def test_package_exports_exactly_each_modules_all():
    # each module's __all__ is the one list of its public names
    names = [name for module in MODULES for name in module.__all__]
    assert smap.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)  # the seven lists are disjoint
    for module in MODULES:
        for name in module.__all__:
            assert getattr(smap, name) is getattr(module, name), f"{module.__name__}.{name}"
