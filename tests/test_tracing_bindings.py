"""The benchmark tracer's bindings still name what the package imports.

perfbench/tracing.py replaces each (module, name) of BINDINGS with a wrapper;
a name a refactor removes would make every traced pass fail.
"""

import importlib

import pytest

from conftest import load_script

BINDINGS = load_script("perfbench/tracing.py").BINDINGS


@pytest.mark.parametrize("module,name,layer", BINDINGS)
def test_binding_resolves(module, name, layer):
    imported = importlib.import_module(f"symppt.{module}")
    assert callable(getattr(imported, name)), f"symppt.{module}.{name}"


def test_tracer_finds_the_spectrum_class_in_ptrans():
    """install() patches ptrans.Spectrum.from_eigenvalues, a name outside BINDINGS and every __all__."""
    from symppt import combx, ptrans

    assert ptrans.Spectrum is combx.Spectrum
