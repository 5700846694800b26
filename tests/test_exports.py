"""Each module's __all__ names what it defines, the package re-exports it, and
importing the CLI stays light."""

import importlib
import pkgutil
import subprocess
import sys
import types

import pytest

import fraclab

# Modules whose __all__ the package re-exports, in full.
REEXPORTED = ("errors", "operator", "spectra", "regions", "dynamics", "control", "identity")
MODULES = sorted(m.name for m in pkgutil.iter_modules(fraclab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"fraclab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_exactly_the_module_lists():
    # each module declares its own list; the package names none itself
    expected = {name: importlib.import_module(f"fraclab.{name}").__all__ for name in REEXPORTED}
    assert all(expected.values())
    public = {
        n
        for n, value in vars(fraclab).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {n for names in expected.values() for n in names}
    for name, names in expected.items():
        module = importlib.import_module(f"fraclab.{name}")
        assert all(getattr(fraclab, n) is getattr(module, n) for n in names)


def test_cli_import_leaves_scipy_special_unloaded():
    # quadrature nodes come from numpy; scipy.special would add to every
    # run's start-up time
    code = "import sys, fraclab.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_run_loads_one_openblas_and_no_scipy():
    # the LAPACK routines numpy.linalg lacks come from numpy's own OpenBLAS;
    # scipy would load a second OpenBLAS beside it
    code = (
        "import sys, fraclab.cli; from fraclab import Grid, assemble_operator, compute_spectrum; "
        "compute_spectrum(assemble_operator(Grid(255), 0.5), 10); "
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy'))); "
        "print(len({l.split()[-1] for l in open('/proc/self/maps') if '/libscipy_openblas' in l}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "1"]


def test_forced_evolution_oracle_stays_out_of_the_library():
    # the Simpson forced evolution is a test reference (tests/oracles.py);
    # the library's replay kernel takes its caller's weights
    dynamics = importlib.import_module("fraclab.dynamics")
    assert {"SourceSignal", "schrodinger_forced_evolve", "_simpson_or_trapezoid"}.isdisjoint(vars(dynamics))
