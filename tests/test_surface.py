"""The public surface of circumproj, pinned: adding or removing a name, or
raising the code-line budget, is an explicit edit of this file."""

import ctypes
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

import circumproj
from circumproj import _lapack, affine, analysis, circumcenters, cli, problems, solvers

PUBLIC_NAMES = {
    # affine
    "AffineSubspace", "intersection_subspace", "project_intersection", "residual",
    # analysis
    "AngleReport", "angle_report", "error_bound_constant", "estimate_regularity",
    "friedrichs_cosine", "principal_cosines", "verify_error_bound",
    # circumcenters
    "circumcenter",
    # errors
    "CircumprojError", "DegenerateSystem", "DimensionMismatch", "EmptyIntersection",
    "InconsistentSystem", "InsufficientData", "InvalidCoherence", "InvalidWeights",
    "MissingReference", "NumericalBreakdown",
    # problems
    "GENERATOR_ID", "GenerationDescriptor", "ProblemInstance", "block_count",
    "build_instance", "build_underdetermined_instance", "gaussian_matrix",
    "instance_from_descriptor",
    # solvers
    "IterationTrace", "Method", "SolveResult", "SolverConfig", "Status", "StopRule",
    "cimmino_weights", "crm_step", "estimate_rate", "fspm_step", "pcrm_step", "solve",
    "uniform_weights", "validate_weights",
}


def test_public_names_are_pinned():
    # Submodules become attributes once imported, so they are not counted.
    names = {name for name, value in vars(circumproj).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_retired_names_stay_retired():
    for name in ("direction_basis", "gram_system", "CircumcenterSystem",
                 "angle_report_and_bound"):
        assert not hasattr(circumproj, name)
    for name in ("direction_basis", "angle_report_and_bound", "_bound_holds"):
        assert not hasattr(analysis, name)
    assert not hasattr(circumcenters, "gram_system")
    assert not hasattr(circumproj.AngleReport, "to_json")
    assert "elapsed_s" not in vars(circumproj.IterationTrace())


def test_benchmark_bindings_stay():
    # The benchmark harness calls these bindings by module attribute.
    assert affine.project_intersection is circumproj.project_intersection
    assert solvers.circumcenter is circumcenters.circumcenter
    assert analysis.estimate_regularity is circumproj.estimate_regularity
    assert cli.estimate_regularity is analysis.estimate_regularity
    assert cli.solve is solvers.solve
    assert callable(cli.main)
    for name in ("build_instance", "build_underdetermined_instance", "ProblemInstance"):
        assert getattr(problems, name) is getattr(circumproj, name)
    for name in ("solve", "SolverConfig", "Status"):
        assert getattr(solvers, name) is getattr(circumproj, name)
    U = affine.AffineSubspace([[1.0, 0.0, 0.0]], [2.0])
    assert U.direction_basis().shape == (3, 2)
    assert U.row_space_basis().shape == (3, 1)
    np.testing.assert_array_equal(U.project(np.zeros(3)), [2.0, 0.0, 0.0])


# What moved into _lapack, the one module that calls LAPACK directly.
MOVED_FROM_AFFINE = (
    "QR_CONDITION_LIMIT", "_LAPACK_ERRORS", "_RawQR", "_TRIANGULAR_LEAF", "_WY_PANEL",
    "_apply_q", "_blas_threads", "_certified_cholesky_solve", "_certified_inverse",
    "_certified_tall_solve", "_complement", "_dgeqrf", "_frobenius", "_geqrf",
    "_geqrf_lwork", "_lapack_symbol", "_tri", "_tril", "_triangular_inverse",
    "_triangular_solve", "_triu",
)
MOVED_FROM_PROBLEMS = ("_POOLED_BLOCK_ENTRIES", "_factor_workers")


def test_only_lapack_binds_ctypes_and_numpys_lapack():
    for module in (affine, problems, circumcenters):
        bound = [value for value in vars(module).values()
                 if value is ctypes or value is _umath_linalg]
        assert bound == [], module.__name__
    assert _lapack.ctypes is ctypes and _lapack._umath_linalg is _umath_linalg


def test_moved_names_have_no_shim():
    for module, names in [(affine, MOVED_FROM_AFFINE), (problems, MOVED_FROM_PROBLEMS)]:
        for name in names:
            assert hasattr(_lapack, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_condition_limit_is_defined_once():
    holders = []
    for info in pkgutil.iter_modules(circumproj.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"circumproj.{info.name}")
        if hasattr(module, "QR_CONDITION_LIMIT"):
            holders.append(info.name)
    assert holders == ["_lapack"]


# Code lines as `tools/code_lines.py` counts them: the package total and the
# command line, the module the ROADMAP budgets on its own.
CODE_LINE_BUDGET = {"total": 1362, "cli.py": 306}


def test_code_lines_stay_within_the_budget():
    tool = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    package = Path(circumproj.__file__).parent
    out = subprocess.run([sys.executable, str(tool), str(package)], capture_output=True,
                         text=True, check=True).stdout
    counts = {name: int(count) for count, name in map(str.split, out.splitlines())}
    for name, budget in CODE_LINE_BUDGET.items():
        assert counts[name] <= budget, f"{name}: {counts[name]} code lines, budget {budget}"
