"""The import path: eclim loads scipy only when a kernel needs it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Where scipy may be named: (module, enclosing def) of every scipy kernel.
SCIPY_SITES = {
    ("opcore", "expm"),
    ("opcore", "_top_cuts"),
    ("lindblad", "LindbladGenerator.shifted_superoperator"),
}


def scipy_modules_after(code: str) -> str:
    """The sorted scipy modules loaded after running ``code`` on eclim from src."""
    script = (f"import sys\n{code}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return proc.stdout.splitlines()[-1]


def named_in(tree: ast.Module, name: str):
    """(enclosing def's qualified name or None, node) of each import, name or
    attribute whose first dotted part, or attribute name, is ``name``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        if any(n.split(".")[0] == name for n in names):
            found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_importing_eclim_loads_no_scipy():
    code = ("import eclim, eclim.cli\n"
            f"assert eclim.__file__.startswith({str(SRC)!r}), eclim.__file__")
    assert scipy_modules_after(code) == "[]"


def test_calls_without_a_scipy_kernel_load_no_scipy():
    # rabi and group-qsl certify pencils; speedlimit at d = 4 runs the dual scan
    # below FULL_EIGH_MAX_DIM; none of them needs a matrix exponential.
    code = ("from eclim.cli import main\n"
            "assert main(['rabi', '--omega', '1', '--g', '0.3', '--nu', '0.5',"
            " '--cutoff', '6']) == 0\n"
            "assert main(['group-qsl', '--qubits', '2', '--cx', '1,0,0', '--cy', '0,1,0']) == 0\n"
            "assert main(['speedlimit', '--scenario', 'left', '--qubits', '2',"
            " '--steps', '3']) == 0")
    assert scipy_modules_after(code) == "[]"


def test_scipy_is_named_only_where_a_kernel_needs_it():
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in named_in(tree, "scipy"):
            assert scope is not None, f"{path.name}:{node.lineno} names scipy at module level"
            sites.add((path.stem, scope))
            if (path.stem, scope) == ("opcore", "_top_cuts"):
                # only the subset branch, d > FULL_EIGH_MAX_DIM
                fn = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "_top_cuts")
                branch = next(n for n in ast.walk(fn) if isinstance(n, ast.If)
                              and ast.unparse(n.test) == "d <= FULL_EIGH_MAX_DIM")
                assert branch.orelse[0].lineno <= node.lineno <= branch.orelse[-1].end_lineno
    assert sites == SCIPY_SITES


def test_cholesky_is_called_only_by_the_psd_proof():
    # One owner for the proof of a PSD gate: opcore._proves_psd.
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in named_in(tree, "cholesky"):
            sites.add((path.stem, scope))
    assert sites == {("opcore", "_proves_psd")}


def test_stability_curves_are_built_only_by_their_two_constructors():
    # One curve type: a single matrix's curve or several matrices' joint one.
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for scope, node in named_in(tree, "StabilityCurve"):
            if id(node) in calls:
                sites.add((path.stem, scope))
    assert sites == {("lindblad", "stability_curve"), ("lindblad", "joint_constants")}
