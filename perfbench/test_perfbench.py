"""Tests of the benchmark's own counts, checks and output contract.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, DualityPrimal, OpError, QslSpin7, inputs_digest  # noqa: E402


def traced(wl, seed: int, n_ops: int) -> Tracer:
    inputs = wl.make_inputs(seed)
    wl.prepare(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        records, _, _ = run.run_ops(wl, inputs, count=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(err is None for *_, err in records)
    return tracer


def counts(tracer: Tracer) -> dict:
    out = {name: (st.calls, st.eigensolves, dict(st.extra)) for name, st in tracer.stats.items()}
    out.update(tracer.counts)
    out["linalg"] = (tracer.eigensolves, tracer.eig_work_d3, tracer.unattributed_eigensolves)
    return out


@pytest.mark.parametrize("name", ["trotter-seesaw", "duality-primal"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl = WORKLOADS[name](str(tmp_path))
    first = counts(traced(wl, 7, 3))
    second = counts(traced(wl, 7, 3))
    assert first == second
    assert first["linalg"][0] > 0
    assert first["linalg"][2] == 0  # every eigensolve inside an op has a span


@pytest.mark.parametrize("steps", [3, 5])
def test_speedlimit_op_counts(steps, tmp_path):
    tracer = traced(QslSpin7(str(tmp_path), steps=steps), 3, 1)
    assert tracer.stat("norms.eco_norm").calls == steps - 1
    assert tracer.stat("opcore.dual_scan").calls == steps - 1
    assert tracer.stat("lindblad.min_omega").calls == 26
    assert tracer.stat("cli.main").calls == 1


def test_trotter_op_runs_one_seesaw(tmp_path):
    tracer = traced(WORKLOADS["trotter-seesaw"](str(tmp_path)), 3, 1)
    seesaw = tracer.stat("norms.ecd_norm_seesaw")
    assert seesaw.calls == 1
    assert seesaw.extra["restarts"] > 0
    assert 0 < seesaw.extra["useful_restarts"] <= seesaw.extra["restarts"]
    assert seesaw.extra["iterations"] >= seesaw.extra["restarts"]
    # dual_scan reaches norms through a from-import; the patched binding sees it.
    assert tracer.stat("opcore.dual_scan_witness").calls > 0
    assert tracer.stat("norms.dual_apply_bipartite").calls > 0
    assert tracer.counts.get("apps.expm", 0) > 0


def test_dynamics_op_uses_both_evolution_paths(tmp_path):
    tracer = traced(WORKLOADS["dynamics-grid"](str(tmp_path)), 3, 1)
    assert tracer.counts.get("lindblad.expm", 0) > 0
    assert tracer.counts.get("lindblad.expm_multiply", 0) > 0
    assert tracer.counts.get("gaussian.expm", 0) > 0
    assert {"op.certify", "op.simulate-d16", "op.simulate-fock", "op.gaussian"} <= set(
        tracer.stats)


def test_uninstall_restores_every_binding():
    import eclim.cli  # noqa: F401

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n == "eclim" or n.startswith("eclim.")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}

    before = snapshot()
    eigh, cls_method = np.linalg.eigh, sys.modules["eclim.norms"].CpDifference.dual_apply_bipartite
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["eclim.apps"].eco_norm is not before[("eclim.apps", "eco_norm")]
        assert sys.modules["eclim.channels"].dual_scan is not before[
            ("eclim.channels", "dual_scan")]
        assert np.linalg.eigh is not eigh
    finally:
        tracer.uninstall()
    after = snapshot()
    assert all(after[k] is v for k, v in before.items())
    assert np.linalg.eigh is eigh
    assert sys.modules["eclim.norms"].CpDifference.dual_apply_bipartite is cls_method


def test_no_binding_keeps_an_unwrapped_original():
    import eclim.cli  # noqa: F401
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(orig) for _, _, orig in tracer._patches}
        owners = [m for n, m in sys.modules.items() if n == "eclim" or n.startswith("eclim.")]
        owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
        missed = [(getattr(o, "__name__", o), k) for o in owners
                  for k, v in vars(o).items() if id(v) in originals]
    finally:
        tracer.uninstall()
    assert missed == []


def test_missed_binding_shows_as_unattributed(tmp_path):
    wl = DualityPrimal(str(tmp_path))
    inputs = wl.make_inputs(5)
    wl.prepare(inputs)
    norms = sys.modules["eclim.norms"]
    tracer = Tracer()
    tracer.install()
    try:
        # Undo one patch, as a from-import the tracer did not know about would.
        norms.dual_scan = sys.modules["eclim.opcore"].dual_scan.__wrapped__
        run.run_ops(wl, inputs, count=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.unattributed_eigensolves > 0
    assert tracer.stat("opcore.dual_scan").calls == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digest(name, tmp_path):
    wl = WORKLOADS[name](str(tmp_path))
    a = inputs_digest(name, wl.make_inputs(11))
    assert a == inputs_digest(name, wl.make_inputs(11))
    assert a != inputs_digest(name, wl.make_inputs(12))


def test_duality_check_rejects_primal_above_dual(tmp_path):
    wl = DualityPrimal(str(tmp_path))
    inp = wl.make_inputs(1)[0]
    wl.check(inp, b"1.0 0.9999999999")
    with pytest.raises(OpError):
        wl.check(inp, b"1.0 1.01")
    with pytest.raises(OpError):
        wl.check(inp, b"1.0 0.99")


def test_tail_has_ten_ops_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "duality-primal",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    info = json.loads(lines[-2])["info"]
    assert info["environment"]["blas_threads"] >= 1 and info["inputs_digest"]
    # Time metrics are wall times rescaled by the reference kernel of the same run.
    scale = run.REFERENCE_S / info["reference_median_s"]
    assert result["metrics"]["op_p50_s"]["value"] == pytest.approx(info["wall_op_p50_s"] * scale)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qsl-spin7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
