"""Benchmark for eclim: one closed-loop client, one op at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload qsl-spin7 --seed 1 --seconds 24 --trace 0

Set-up imports eclim from ``src/``, generates the workload's inputs from the
seed and runs one warm-up op, several times, and reports the median.  With
``--trace 0`` ops run back to back for ``--seconds`` (ending on a whole
pass for workloads that cycle a fixed family), a fixed reference kernel is
timed after every op, and the end-to-end metrics are reported in reference
seconds (see ``reference_kernel``).  With ``--trace 1`` a fixed number of
ops, sized from ``--seconds``, runs untraced and then again with the tracer
installed, and the per-layer metrics are reported; their counts repeat
exactly for a seed.
Outputs are checked after the timed region; every op whose input repeats
must give byte-identical output.  The last stdout line is the result JSON;
the line before it records the environment and inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
BLAS_THREADS = 1
# Times are reported as they would read on a host where the reference kernel
# takes this long; the kernel takes about 18 ms on the 2-vCPU x86_64 VM the
# benchmark was built on.
REFERENCE_S = 0.02
REFERENCE_SEED = 20240517


def blas_thread_cap() -> int:
    """Cap BLAS/OpenMP at one thread; must run before numpy is imported.

    threadpoolctl is not available, so the cap goes through the environment.
    One thread rather than one per CPU: on a 2-vCPU x86_64 VM a second
    OpenBLAS thread made no op faster (median of one repeated speedlimit op
    1.12 s with two threads, 1.02 s with one; trotter op 0.38 s against
    0.26 s) and widened the quartile spread of the repeated speedlimit op
    from 4% to 24% of its median.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def environment(threads: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def reference_kernel():
    """A fixed numpy workload, timed between ops to track the host's speed.

    The machine the benchmark was built on is a small shared VM whose speed
    drifts: the same trotter op took 0.26 s, and 0.48 s half an hour later.
    No steal time was reported and thread CPU time drifted with wall time.
    The kernel mixes the two kinds of work eclim's ops do, Python-bound
    4x4 eigensolves and a BLAS-bound 128x128 one, and runs no eclim code,
    so a change to eclim cannot change its time.  Dividing op times by its
    median time in the same run cut the spread between 10-s windows of one
    repeated op from 0.31 to 0.10 (trotter) and from 0.08 to 0.05
    (speedlimit) of their median.
    """
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(REFERENCE_SEED))
    small = [rng.standard_normal((4, 4)) for _ in range(64)]
    small = [(a + a.T) / 2.0 for a in small]
    big = rng.standard_normal((128, 128))
    big = (big + big.T) / 2.0

    def timed() -> float:
        t = time.perf_counter()
        for _ in range(12):
            for a in small:
                np.linalg.eigvalsh(a)
        for _ in range(3):
            np.linalg.eigh(big)
        return time.perf_counter() - t
    return timed


def run_ops(wl, inputs, seconds=None, count=None, tracer=None, reference=None) -> tuple:
    """Closed loop over the inputs; returns (records, wall seconds, reference times).

    A record is (input index, duration, output bytes or None, error or None).
    The reference kernel, when given, is timed after every op.
    """
    records, ref_times = [], []
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (
            time.perf_counter() - start < seconds or i % wl.cycle):
        k = i % len(inputs)
        t = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(inputs[k])
            else:
                with tracer.op(i):
                    out = wl.run(inputs[k], tracer)
            err = None
        except Exception as exc:  # one failed op must not end the run
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append((k, time.perf_counter() - t, out, err))
        if reference is not None:
            ref_times.append(reference())
        i += 1
    return records, time.perf_counter() - start, ref_times


def check_outputs(wl, inputs, records) -> tuple:
    """Check every op after timing; returns (per-record failure flags, run-level error)."""
    from workloads import OpError
    first = {}
    flags = []
    for k, _, out, err in records:
        if err is None:
            try:
                wl.check(inputs[k], out)
                if first.setdefault(k, out) != out:
                    raise OpError("repeated op gave different output bytes")
            except Exception as exc:  # any malformed output is a failed op
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            sys.stderr.write(f"perfbench: {inputs[k].key}: {err}\n")
        flags.append(err is not None)
    run_error = None
    try:
        wl.check_run([(inputs[k], out) for k, out in first.items()])
    except Exception as exc:
        run_error = f"{type(exc).__name__}: {exc}"
    if len(records) - sum(flags) <= len(first):
        run_error = run_error or "no op was repeated, so byte-identity was not checked"
    return flags, run_error


def tail(durations: list) -> tuple:
    """The highest percentile with TAIL_BEYOND ops beyond it: (value, percentile)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, ops: int, traced_p50: float, untraced_p50: float,
                  failed_ratio: float) -> dict:
    s = tracer.stat
    dual = s("opcore.dual_scan")
    seesaw = s("norms.ecd_norm_seesaw")
    return {
        "opcore.dual_scan.calls": metric(dual.calls, "count"),
        "opcore.dual_scan.self_s": metric(dual.self_s, "s"),
        "opcore.dual_scan.eigensolves": metric(dual.eigensolves, "count"),
        "opcore.dual_scan.eigensolves_per_call":
            metric(dual.eigensolves / dual.calls if dual.calls else 0.0, "count"),
        "opcore.dual_scan_witness.calls": metric(s("opcore.dual_scan_witness").calls, "count"),
        "opcore.dual_scan_witness.self_s": metric(s("opcore.dual_scan_witness").self_s, "s"),
        "opcore.dual_scan_witness.total_s": metric(s("opcore.dual_scan_witness").total_s, "s"),
        "norms.eco_norm.calls": metric(s("norms.eco_norm").calls, "count"),
        "norms.eco_norm.self_s": metric(s("norms.eco_norm").self_s, "s"),
        "norms.ecd_norm_seesaw.calls": metric(seesaw.calls, "count"),
        "norms.ecd_norm_seesaw.self_s": metric(seesaw.self_s, "s"),
        "norms.ecd_norm_seesaw.iterations": metric(seesaw.extra.get("iterations", 0), "count"),
        "norms.ecd_norm_seesaw.restarts": metric(seesaw.extra.get("restarts", 0), "count"),
        "norms.ecd_norm_seesaw.useful_restart_ratio": metric(
            seesaw.extra.get("useful_restarts", 0) / seesaw.extra["restarts"]
            if seesaw.extra.get("restarts") else 0.0, "ratio"),
        "norms.dual_apply_bipartite.self_s": metric(s("norms.dual_apply_bipartite").self_s, "s"),
        "norms.eco_norm_primal.calls": metric(s("norms.eco_norm_primal").calls, "count"),
        "norms.eco_norm_primal.self_s": metric(s("norms.eco_norm_primal").self_s, "s"),
        "norms.constrained_rayleigh_max.self_s":
            metric(s("norms.constrained_rayleigh_max").self_s, "s"),
        "lindblad.evolve.calls": metric(s("lindblad.evolve").calls, "count"),
        "lindblad.evolve.self_s": metric(s("lindblad.evolve").self_s, "s"),
        "lindblad.expm.calls": metric(tracer.counts.get("lindblad.expm", 0), "count"),
        "lindblad.expm_multiply.calls":
            metric(tracer.counts.get("lindblad.expm_multiply", 0), "count"),
        "lindblad.min_omega.calls": metric(s("lindblad.min_omega").calls, "count"),
        "lindblad.min_omega.self_s": metric(s("lindblad.min_omega").self_s, "s"),
        "gaussian.semigroup_channel.calls": metric(s("gaussian.semigroup_channel").calls, "count"),
        "gaussian.semigroup_channel.self_s":
            metric(s("gaussian.semigroup_channel").self_s, "s"),
        "gaussian.expm.calls": metric(tracer.counts.get("gaussian.expm", 0), "count"),
        "apps.expm.calls": metric(tracer.counts.get("apps.expm", 0), "count"),
        "apps.speedlimit_run.self_s": metric(s("apps.speedlimit_run").self_s, "s"),
        "apps.trotter_run.self_s": metric(s("apps.trotter_run").self_s, "s"),
        "cli.main.self_s": metric(s("cli.main").self_s, "s"),
        "jsonio.self_s": metric(tracer.module_self_s("jsonio"), "s"),
        "linalg.eigensolves": metric(tracer.eigensolves, "count"),
        "linalg.eig_work_d3": metric(tracer.eig_work_d3, "d3-computed"),
        "linalg.unattributed_eigensolves": metric(tracer.unattributed_eigensolves, "count"),
        "trace.ops": metric(ops, "count"),
        "trace.overhead_ratio": metric(traced_p50 / untraced_p50, "ratio"),
        "ops_failed_ratio": metric(failed_ratio, "ratio"),
    }


def share_table(tracer, op_total_s: float) -> str:
    """Self and inclusive share of op time per traced name, largest first."""
    lines = [f"{'span':<40} {'calls':>8} {'self%':>7} {'incl%':>7} {'eig':>9}"]
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        lines.append(f"{name:<40} {st.calls:>8} {100 * st.self_s / op_total_s:>7.2f} "
                     f"{100 * st.total_s / op_total_s:>7.2f} {st.eigensolves:>9}")
    covered = sum(st.self_s for st in tracer.stats.values())
    lines.append(f"{'(outside every span)':<40} {'':>8} "
                 f"{100 * (op_total_s - covered) / op_total_s:>7.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "eclim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no eclim sources under {SRC}\n")
        return 2
    threads = blas_thread_cap()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, inputs_digest
    from tracer import Tracer
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2

    t0 = time.perf_counter()
    import eclim
    import eclim.cli  # noqa: F401  (the CLI entry point ops go through)
    import_s = time.perf_counter() - t0
    if Path(eclim.__file__).resolve().parent != SRC / "eclim":
        sys.stderr.write(f"perfbench: eclim imported from {eclim.__file__}, not {SRC}\n")
        return 2

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](str(workdir))
        setups, warmups = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = wl.make_inputs(args.seed)
            wl.prepare(inputs)
            warm, _, _ = run_ops(wl, inputs, count=1)
            setups.append(time.perf_counter() - t)
            warmups.extend(warm)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            n = wl.cycle * max(1, round(args.seconds / 2 / (wl.nominal_op_s * wl.cycle)))
            plain, _, _ = run_ops(wl, inputs, count=n)
            tracer = Tracer()
            tracer.install()
            t_trace = time.perf_counter()
            try:
                traced, _, _ = run_ops(wl, inputs, count=n, tracer=tracer)
            finally:
                tracer.uninstall()
            timed = plain + traced
        else:
            timed, wall, ref_times = run_ops(wl, inputs, seconds=args.seconds,
                                             reference=reference_kernel())
        flags, run_error = check_outputs(wl, inputs, warmups + timed)
        failed = sum(flags[len(warmups):])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs_digest": inputs_digest(args.workload, inputs),
            "environment": environment(threads), "ops": len(timed),
            "setup_runs_s": setups, "import_s": import_s}
    if args.trace:
        untraced_p50 = statistics.median(d for _, d, _, _ in plain)
        traced_p50 = statistics.median(d for _, d, _, _ in traced)
        op_total = sum(d for _, d, _, _ in traced)
        metrics = layer_metrics(tracer, n, traced_p50, untraced_p50, failed / len(timed))
        table = share_table(tracer, op_total)
        sys.stderr.write(f"layer shares of {op_total:.3f} s traced op time "
                         f"({n} ops, {args.workload}, seed {args.seed}):\n{table}\n")
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"info": info, "shares": table.splitlines(),
                       "spans": tracer.span_records(t_trace)}, fh)
    else:
        # Wall seconds to reference seconds.
        scale = REFERENCE_S / statistics.median(ref_times)
        wall_durations = [d for _, d, _, _ in timed]
        durations = [d * scale for d in wall_durations]
        tail_s, tail_pct = tail(durations)
        info.update(tail_percentile=tail_pct, tail_samples=len(durations), wall_s=wall,
                    reference_median_s=REFERENCE_S / scale, reference_scale=scale,
                    wall_setup_s=setup_s, wall_op_p50_s=statistics.median(wall_durations))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": metric(setup_s * scale, "s"),
            "op_p50_s": metric(statistics.median(durations), "s"),
            "op_tail_s": metric(tail_s, "s"),
            "ops_per_s": metric((len(timed) - failed) / sum(durations), "1/s"),
            "ops_ok_ratio": metric((len(timed) - failed) / len(timed), "ratio"),
            "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        }
    if run_error:
        sys.stderr.write(f"perfbench: {run_error}\n")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not any(flags) and run_error is None,
                      "attempted": len(timed), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
