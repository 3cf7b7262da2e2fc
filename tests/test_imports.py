"""Static checks of the source: scipy loads only when a kernel needs it, and no
public definition lives on for its own unit tests alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Where scipy may be named: (module, enclosing def) of every scipy kernel.
SCIPY_SITES = {
    ("opcore", "expm"),
    ("opcore", "_top_cuts"),
    ("lindblad", "LindbladGenerator.shifted_superoperator"),
}

# Public definitions that no library code, benchmark or acceptance criterion
# names, kept on purpose, each with its reason.
UNCALLED_KEPT = {
    "open_speedlimit": "the paper's open-system speed limit; it shares apps._row "
                       "with trotter_run, the Trotter check",
    "reevaluate_seesaw_witness": "the see-saw's re-check of a witness, independent of "
                                 "the solver that found it",
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


def test_the_primal_oracle_names_no_part_of_the_dual_solver():
    # The primal confirms the dual only while it solves its own problem:
    # constrained_rayleigh_max places its probes from its own eigensolves.
    tree = ast.parse((SRC / "eclim" / "norms.py").read_text())
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "constrained_rayleigh_max")
    dual = {"dual_scan", "dual_scan_witness", "EnergyProfile", "_compressed_point", "_top_cuts"}
    assert names_used(fn) & dual == set()


def names_used(node) -> set:
    """Every identifier ``node`` names: names, attribute names and imported names."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            used.update(a.name.split(".")[-1] for a in n.names)
    return used


def test_every_public_definition_is_named_outside_its_unit_tests():
    """Code that only its own unit tests call is dead.

    Each public top-level def and class of src/eclim (but __init__.py) must be
    named by another top-level statement of src/eclim, by perfbench/*.py or by
    an acceptance criterion (tests/test_acceptance.py); __init__'s exports do
    not count.  So must each public method, static method and property of a
    public class, where the other members of its own class count as well.
    The check is by name alone: any same-named identifier in those files
    counts as a use, so a dead definition that shares its name with
    something else passes.
    """
    library = sorted(p for p in (SRC / "eclim").glob("*.py") if p.name != "__init__.py")
    readers = [*library, *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    statements = [(path, stmt) for path in readers
                  for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    uses = [(stmt, names_used(stmt)) for _, stmt in statements]
    defined = [stmt for path, stmt in statements if path in library
               and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")]
    unnamed = {d.name for d in defined
               if not any(d.name in names for stmt, names in uses if stmt is not d)}
    members = [(cls, m) for cls in defined if isinstance(cls, ast.ClassDef)
               for m in cls.body
               if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    unnamed |= {f"{cls.name}.{m.name}" for cls, m in members
                if not any(m.name in names for stmt, names in uses if stmt is not cls)
                and not any(m.name in names_used(other) for other in cls.body if other is not m)}
    assert unnamed == set(UNCALLED_KEPT)
