"""The names the benchmark's tracer wraps must exist in the package, so that
renaming a traced function fails here instead of breaking `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from isoquintic.qpoly import Poly

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_traced_functions_exist(layer):
    module = importlib.import_module(f"isoquintic.{layer}")
    for fn in tracer.LAYERS[layer]:
        if fn == "rhs" or fn in tracer.POLY_METHODS:
            continue
        assert callable(getattr(module, fn, None)), f"{layer}.{fn}"


def test_traced_poly_methods_exist():
    for attrs in tracer.POLY_METHODS.values():
        for attr in attrs:
            assert callable(getattr(Poly, attr, None)), f"Poly.{attr}"


def test_orbit_outcome_classes_exist():
    orbits = importlib.import_module("isoquintic.orbits")
    for name in ("EscapedError", "NoReturnError", "StiffnessError"):
        assert issubclass(getattr(orbits, name), orbits.OrbitError)
