"""The benchmark tracer's bindings still name what the package imports.

perfbench/tracing.py replaces each (module, name) of BINDINGS with a wrapper;
a name a refactor removes would make every traced pass fail.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("module,name,layer", load_bindings())
def test_binding_resolves(module, name, layer):
    imported = importlib.import_module(f"symppt.{module}")
    assert callable(getattr(imported, name)), f"symppt.{module}.{name}"


def test_tracer_finds_the_spectrum_class_in_ptrans():
    """install() patches ptrans.Spectrum.from_eigenvalues, a name outside BINDINGS and every __all__."""
    from symppt import combx, ptrans

    assert ptrans.Spectrum is combx.Spectrum
