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

# Where numpy's eigensolves and QR are called: (module, enclosing def) of every
# np.linalg.eigh, np.linalg.eigvalsh and np.linalg.qr.  A new site, or one
# gone, shows here first.
EIGENSOLVE_SITES = {
    ("channels", "kraus_sum_top"),
    ("lindblad", "LindbladGenerator.__post_init__"),
    ("lindblad", "_pencil_omega"),
    ("lindblad", "_ritz_quotients"),
    ("lindblad", "pencil_vector"),
    ("norms", "constrained_rayleigh_max"),
    ("norms", "ecd_norm_seesaw"),
    ("norms", "trace_norm"),
    ("opcore", "EnergyProfile._model_probe"),
    ("opcore", "HermitianMatrix.eigh"),
    ("opcore", "HermitianMatrix.eigvals"),
    ("opcore", "_compressed_point"),
    ("opcore", "_pinned_witness"),
    ("opcore", "_top_cuts"),
    ("opcore", "dual_scan_witness"),
    ("opcore", "psd_order_leq"),
    ("opcore", "require_psd"),
}

# Public definitions and members that no library code, benchmark or acceptance
# criterion reads, kept on purpose, each with its reason.
UNCALLED_KEPT = {
    "open_speedlimit": "the paper's open-system speed limit; it shares apps._row "
                       "with trotter_run, the Trotter check",
    "reevaluate_seesaw_witness": "the see-saw's re-check of a witness, independent of "
                                 "the solver that found it",
    "EnergyBoundReport.energies": "the simulated energies behind worst_margin",
    "EnergyBoundReport.bounds": "the certified bounds behind worst_margin",
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


def test_eigensolves_are_called_only_at_the_listed_sites():
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for kernel in ("eigh", "eigvalsh", "qr"):
            for scope, node in named_in(tree, kernel):
                # no bare or re-imported kernel: only np.linalg.<kernel>, a method
                # of eclim's own (HermitianMatrix.eigh) or scipy's (SCIPY_SITES)
                assert isinstance(node, ast.Attribute), f"{path.name}:{node.lineno}"
                owner = ast.unparse(node.value)
                if owner == "np.linalg":
                    sites.add((path.stem, scope))
                else:
                    assert not owner.endswith("linalg") or owner == "scipy.linalg", \
                        f"{path.name}:{node.lineno} calls {owner}.{kernel}"
    assert sites == EIGENSOLVE_SITES


def test_cholesky_is_called_only_by_the_psd_proof():
    # One owner for the proof of a PSD gate: opcore._proves_psd.
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in named_in(tree, "cholesky"):
            sites.add((path.stem, scope))
    assert sites == {("opcore", "_proves_psd")}


def test_residual_readers_are_attached_only_by_the_affine_verifier():
    # One verifier of an affine certificate: every AffineCertificate that
    # carries a residual is built by AffineCertificate.verify.
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and any(k.arg == "residual" for k in n.keywords)}
        for scope, node in named_in(tree, "AffineCertificate"):
            if id(node) in calls:
                sites.add((path.stem, scope))
    assert sites == {("opcore", "AffineCertificate.verify")}


def test_require_psd_is_named_only_by_the_gates_that_own_a_gap():
    # One operator-inequality check: outside opcore, only the stability floors
    # and the three Gaussian records build a gap of their own (None: the import).
    sites = set()
    for path in sorted((SRC / "eclim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in named_in(tree, "require_psd"):
            if path.stem != "opcore":
                sites.add((path.stem, scope))
    assert sites == {("lindblad", None), ("lindblad", "_floors"), ("gaussian", None),
                     ("gaussian", "GaussianState.__post_init__"),
                     ("gaussian", "GaussianChannel.__post_init__"),
                     ("gaussian", "GaussianGenerator.__post_init__")}


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


def reads(node, names: bool = True) -> set:
    """Every identifier ``node`` reads: attribute reads (Load context), and with
    ``names`` also loaded names and imported names."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            used.add(n.attr)
        elif names and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif names and isinstance(n, (ast.Import, ast.ImportFrom)):
            used.update(a.name.split(".")[-1] for a in n.names)
    return used


def test_every_public_definition_is_named_outside_its_unit_tests():
    """Code that only its own unit tests read is dead.

    Each public top-level def and class of src/eclim (but __init__.py) must be
    read, as a loaded name, an attribute or an import, by another top-level
    statement of src/eclim, by perfbench/*.py or by an acceptance criterion
    (tests/test_acceptance.py); __init__'s exports do not count, and neither
    does a store to a same-named variable.  Each public method, property and
    annotated field of a public class must be read as an attribute in those
    files outside its class, or by another member of its own class.
    """
    library = sorted(p for p in (SRC / "eclim").glob("*.py") if p.name != "__init__.py")
    readers = [*library, *sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    statements = [(path, stmt) for path in readers
                  for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    uses = [(stmt, reads(stmt), reads(stmt, names=False)) for _, stmt in statements]
    defined = [stmt for path, stmt in statements if path in library
               and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not stmt.name.startswith("_")]
    unread = {d.name for d in defined
              if not any(d.name in names for stmt, names, _ in uses if stmt is not d)}
    members = [(cls, m, m.name if isinstance(m, ast.FunctionDef) else m.target.id)
               for cls in defined if isinstance(cls, ast.ClassDef) for m in cls.body
               if isinstance(m, ast.FunctionDef)
               or isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
    unread |= {f"{cls.name}.{name}" for cls, m, name in members if not name.startswith("_")
               and not any(name in attrs for stmt, _, attrs in uses if stmt is not cls)
               and not any(name in reads(other, names=False)
                           for other in cls.body if other is not m)}
    assert unread == set(UNCALLED_KEPT)
