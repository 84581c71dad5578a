"""The names the benchmark's tracer wraps must exist in the package, so that
renaming a traced function fails here instead of breaking `--trace 1`; and
every CLI request of the benchmark must print and write the bytes pinned in
`bench/reference.json`, the `orbit` request also with scipy blocked.  The
bench files are read, never written."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isoquintic.qpoly import Poly
from conftest import SRC, requires_numpy

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(module, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{module}.py")
    loaded = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


tracer = load_bench("tracer", "bench_tracer")
oracle = load_bench("oracle", "oracle")  # the name workloads imports it by
workloads = load_bench("workloads", "bench_workloads")


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


# Runs the CLI with its arguments, every import of scipy refused.
NO_SCIPY = """
import runpy, sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, NoScipy())
runpy.run_module("isoquintic.cli", run_name="__main__", alter_sys=True)
"""


def replay(label, tmp_path, *launch):
    """(argv, exit code, stdout digest, CSV digest or None) of the request,
    run as `python *launch *argv` in a fresh working directory, and its
    stderr."""
    argv = workloads.CLI_ARGV[label]
    workdir = Path(workloads.cli_workdir(str(tmp_path)))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *launch, *argv],
                          cwd=workdir, capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    csv = workdir / "out.csv"
    return (argv, proc.returncode, oracle.sha256(proc.stdout),
            oracle.sha256(csv.read_bytes()) if csv.exists() else None
            ), proc.stderr.decode()


def pinned(label):
    want = oracle.load_reference()["cli"][label]
    return (want["argv"], want["exit"], want["stdout_sha256"],
            want["csv_sha256"])


@pytest.mark.parametrize("label", [
    pytest.param(label, marks=requires_numpy if label == "orbit" else ())
    for label in sorted(workloads.CLI_ARGV)])
def test_cli_bytes_match_reference(label, tmp_path):
    """The request has the pinned argv, exit code, stdout and CSV file (or
    none)."""
    got, err = replay(label, tmp_path, "-m", "isoquintic.cli")
    assert got == pinned(label), err


@requires_numpy
def test_orbit_bytes_match_reference_without_scipy(tmp_path):
    """The package steps and finds roots itself: with scipy refused, the
    `orbit` request still has its pinned bytes."""
    got, err = replay("orbit", tmp_path, "-c", NO_SCIPY)
    assert got == pinned("orbit"), err
