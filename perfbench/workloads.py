"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload turns the workload seed into a pool of inputs (files and
argument lists for the CLI, arrays for the library workload), runs one op
at a time through a public entry point, and checks each op's output after
the timed region.  Ops cycle through the pool in order, so op ``i`` always
sees input ``i % len(pool)``; the warm-up op in set-up is input 0 again.

Library functions are reached through their module attribute (``norms.eco_norm``)
and never bound by name here, so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

QSL_STEPS = 5
TROTTER_N = "4,8,16,32,64"
TROTTER_RESTARTS = 16
TROTTER_FAMILY = 16
FAMILY_SEED = 1008
GRID_TIMES = (0.0, 0.5, 1.2)
FOCK_CUTOFF = 60
DYNAMICS_DIM = 16
PRIMAL_RESTARTS = 64
BUDGETS = (0.1, 1.0, 10.0)


@dataclass
class Input:
    """One generated input: what the op runs on, plus the bytes it digests."""

    key: str
    data: dict
    digest_parts: list = field(default_factory=list)


class OpError(Exception):
    """An op's output failed its check."""


# ---------------------------------------------------------------------------
# Wire-format helpers (kept here so inputs never depend on program code).
# ---------------------------------------------------------------------------

def op_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]),
            "entries": [[float(v.real), float(v.imag)] for v in m.reshape(-1)]}


def write_json(path: str, obj) -> bytes:
    data = json.dumps(obj, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d: int) -> np.ndarray:
    a = complex_gaussian(rng, (d, d))
    return (a + a.conj().T) / 2.0


def random_density(rng, d: int) -> np.ndarray:
    a = complex_gaussian(rng, (d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def cli_call(argv: list, out_path: str) -> tuple:
    """Run ``eclim.cli.main`` in-process; return (exit code, output bytes)."""
    from eclim import cli
    code = cli.main(list(argv) + ["--out", out_path])
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
    except FileNotFoundError:
        data = b""
    return code, data


def expect_code(code: int, what: str):
    if code != 0:
        raise OpError(f"{what} exited with {code}")


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    pool = 32
    cycle = 1  # a run ends on a multiple of this many ops
    nominal_op_s = 1.0  # sizes the traced run: ops = seconds / 2 / nominal

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self, seed: int) -> list:
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        return [self.make_input(rng, i) for i in range(self.pool)]

    def make_input(self, rng, i: int) -> Input:
        raise NotImplementedError

    def prepare(self, inputs: list):
        """Build program objects the inputs need, once, in set-up."""

    def run(self, inp: Input, tracer=None) -> bytes:
        raise NotImplementedError

    def check(self, inp: Input, output: bytes):
        """Raise OpError when one op's output is wrong."""

    def check_run(self, checked: list):
        """Raise OpError when the outputs of a whole run are wrong together."""


class QslSpin7(Workload):
    """``eclim speedlimit`` on 7 qubits (d=128), scenarios alternating.

    Five time steps (four ECO budgets on one fixed (M, G)) rather than the
    CLI's 60: a 60-step op takes about 9 s, which would leave two or three
    ops in a run.
    """

    name = "qsl-spin7"
    pool = 64
    nominal_op_s = 0.95

    def __init__(self, workdir: str, steps: int = QSL_STEPS):
        super().__init__(workdir)
        self.steps = steps

    def make_input(self, rng, i):
        scenario = "left" if i % 2 == 0 else "right"
        argv = ["speedlimit", "--qubits", "7", "--tmax", "0.6",
                "--steps", str(self.steps), "--scenario", scenario,
                "--seed", str(int(rng.integers(0, 2 ** 31)))]
        return Input(f"speedlimit-{i}", {"argv": argv, "scenario": scenario},
                     [" ".join(argv).encode()])

    def run(self, inp, tracer=None):
        code, out = cli_call(inp.data["argv"], self.path("out.csv"))
        expect_code(code, "speedlimit")
        return out

    def rows(self, output: bytes) -> list:
        reader = csv.reader(io.StringIO(output.decode()))
        header = next(reader)
        if header != ["time", "actualError", "energyBound", "uniformBound"]:
            raise OpError(f"unexpected header {header}")
        return [[float(x) for x in row] for row in reader]

    def check(self, inp, output):
        rows = self.rows(output)
        if len(rows) != self.steps:
            raise OpError(f"{len(rows)} rows, expected {self.steps}")
        if not all(math.isfinite(v) for row in rows for v in row):
            raise OpError("non-finite value in output")

    def check_run(self, checked):
        last_rows = [self.rows(out)[-1] for inp, out in checked
                     if inp.data["scenario"] == "right"]
        ratios = [energy / uniform for _, _, energy, uniform in last_rows]
        if not ratios or not np.mean(ratios) < 1.0:
            raise OpError(f"right-scenario mean last-row ratio {np.mean(ratios)} not < 1")


class TrotterSeesaw(Workload):
    """``eclim trotter`` on qubit generator pairs with one Lindblad operator each.

    Op cost is set by the generator pair (0.45 s to 7.5 s at 64 restarts on
    seeded pairs, coefficient of variation ~1), so a seeded draw of ~20 pairs
    per run cannot give a steady median.  The pairs are therefore a fixed
    family, drawn once from FAMILY_SEED; the workload seed rotates each op's
    pair by a diagonal unitary that commutes with G = diag(0, 1) (an
    equivalent problem in another frame), rephases its jump operators, and
    picks the see-saw and test-state seed.  Runs consist of whole passes over
    the family.
    """

    name = "trotter-seesaw"
    pool = TROTTER_FAMILY
    cycle = TROTTER_FAMILY
    nominal_op_s = 0.3

    def make_inputs(self, seed):
        family = np.random.Generator(np.random.PCG64(FAMILY_SEED))
        pairs = [[(random_hermitian(family, 2), 0.5 * complex_gaussian(family, (2, 2)))
                  for _ in (1, 2)] for _ in range(self.pool)]
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        return [self.make_input(rng, i, pair) for i, pair in enumerate(pairs)]

    def make_input(self, rng, i, pair):
        frame = np.diag([1.0, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))])
        parts = []
        files = {}
        for j, (h, jump) in enumerate(pair, start=1):
            jump = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * jump
            files[f"gen{j}"] = self.path(f"trotter-{i}-gen{j}.json")
            parts.append(write_json(files[f"gen{j}"], {
                "dim": 2, "hamiltonian": op_json(frame @ h @ frame.conj().T),
                "lindblad": [op_json(frame @ jump @ frame.conj().T)]}))
        files["ref"] = self.path(f"trotter-{i}-ref.json")
        parts.append(write_json(files["ref"], op_json(np.diag([0.0, 1.0]))))
        argv = ["trotter", "--gen1", files["gen1"], "--gen2", files["gen2"],
                "--ref", files["ref"], "--energy", "1", "--time", "1",
                "--n", TROTTER_N, "--states", "10", "--restarts", str(TROTTER_RESTARTS),
                "--seed", str(int(rng.integers(0, 2 ** 31)))]
        parts.append(" ".join(argv[7:]).encode())
        return Input(f"trotter-{i}", {"argv": argv}, parts)

    def run(self, inp, tracer=None):
        code, out = cli_call(inp.data["argv"], self.path("out.json"))
        expect_code(code, "trotter")
        return out

    def check(self, inp, output):
        report = json.loads(output)
        rows = report["rows"]
        if [r["n"] for r in rows] != [int(n) for n in TROTTER_N.split(",")]:
            raise OpError("missing Trotter rows")
        for r in rows:
            if r["status"] == "failed" or not r["lhs"] <= r["rhs"] + 1e-6:
                raise OpError(f"n={r['n']}: lhs {r['lhs']} > rhs {r['rhs']} ({r['status']})")


class DynamicsGrid(Workload):
    """certify + simulate (d=16, dense), simulate (Fock d=61, sparse), gaussian."""

    name = "dynamics-grid"
    pool = 40
    nominal_op_s = 0.5

    def make_input(self, rng, i):
        d = DYNAMICS_DIM
        files = {k: self.path(f"dyn-{i}-{k}.json")
                 for k in ("gen", "rho", "ref", "fgen", "frho", "fref", "ggen", "gstate")}
        parts = []
        # A d=16 open system: random Hamiltonian, one random jump operator,
        # number-like reference spectrum.
        h = random_hermitian(rng, d) / np.sqrt(d)
        jump = 0.4 * complex_gaussian(rng, (d, d)) / np.sqrt(d)
        parts.append(write_json(files["gen"], {
            "dim": d, "hamiltonian": op_json(h), "lindblad": [op_json(jump)]}))
        parts.append(write_json(files["rho"], op_json(random_density(rng, d))))
        parts.append(write_json(files["ref"], op_json(np.diag(np.arange(d, dtype=float)))))

        # Truncated Fock damping from a thermal state (closed form n e^(-kt)).
        n = FOCK_CUTOFF + 1
        kappa = float(rng.uniform(0.5, 1.5))
        nbar = float(rng.uniform(0.5, 1.5))
        lower = np.diag(np.sqrt(np.arange(1, n)), 1)
        q = nbar / (nbar + 1.0)
        parts.append(write_json(files["fgen"], {
            "dim": n, "hamiltonian": op_json(np.zeros((n, n))),
            "lindblad": [op_json(np.sqrt(kappa) * lower)]}))
        parts.append(write_json(files["frho"], op_json(np.diag((1.0 - q) * q ** np.arange(n)))))
        parts.append(write_json(files["fref"], op_json(np.diag(np.arange(n, dtype=float)))))

        # A valid 2-mode Gaussian generator (criterion 5's construction).
        modes = 2
        xdot = rng.standard_normal((2 * modes, 2 * modes))
        sigma = np.block([[np.zeros((modes, modes)), -np.eye(modes)],
                          [np.eye(modes), np.zeros((modes, modes))]])
        b = xdot.T @ sigma + sigma @ xdot
        y = rng.standard_normal((2 * modes, 2 * modes))
        ydot = y @ y.T + (np.linalg.norm(b, 2) + 0.05) * np.eye(2 * modes)
        gnbar = float(rng.uniform(0.0, 2.0))
        parts.append(write_json(files["ggen"], {
            "modes": modes, "xdot": xdot.tolist(), "ydot": ydot.tolist()}))
        parts.append(write_json(files["gstate"], {
            "modes": modes, "gamma": ((2.0 * gnbar + 1.0) * np.eye(2 * modes)).tolist(),
            "beta": [0.0] * (2 * modes)}))

        times = ",".join(repr(t) for t in GRID_TIMES)
        parts.append(times.encode())
        calls = [
            ("certify", ["certify", "--gen", files["gen"], "--ref", files["ref"]]),
            ("simulate-d16", ["simulate", "--gen", files["gen"], "--state", files["rho"],
                              "--ref", files["ref"], "--times", times]),
            ("simulate-fock", ["simulate", "--gen", files["fgen"], "--state", files["frho"],
                               "--ref", files["fref"], "--times", times]),
            ("gaussian", ["gaussian", "--gen", files["ggen"], "--state", files["gstate"],
                          "--times", times]),
        ]
        return Input(f"dyn-{i}", {"calls": calls, "kappa": kappa, "nbar": nbar}, parts)

    def run(self, inp, tracer=None):
        outputs = []
        for part, argv in inp.data["calls"]:
            with tracer.span(f"op.{part}") if tracer else contextlib.nullcontext():
                code, out = cli_call(argv, self.path("out.txt"))
            expect_code(code, part)
            outputs.append(out)
        return b"\n--\n".join(outputs)

    def check(self, inp, output):
        certify, sim, fock, gauss = output.split(b"\n--\n")
        certs = json.loads(certify)["certificates"]
        rows = json.loads(sim)["rows"]
        e_in = rows[0]["energy"]
        for r in rows:
            t = r["time"]
            bound = min(math.exp(c["omega"] * t) * (e_in + c["e0"]) - c["e0"] for c in certs)
            tol = 1e-7 * (1.0 + e_in + min(c["e0"] for c in certs))
            if r["energy"] > bound + tol:
                raise OpError(f"t={t}: energy {r['energy']} above Gronwall bound {bound}")
            if r["trace"] > 1.0 + 1e-9:
                raise OpError(f"t={t}: trace {r['trace']} > 1")
        for r in json.loads(fock)["rows"]:
            closed = inp.data["nbar"] * math.exp(-inp.data["kappa"] * r["time"])
            if r["trace"] > 1.0 + 1e-9 or abs(r["energy"] - closed) > 1e-3:
                raise OpError(f"Fock damping off its closed form at t={r['time']}")
        if len(gauss.decode().strip().splitlines()) != len(GRID_TIMES) + 1:
            raise OpError("gaussian output has the wrong number of rows")


class DualityPrimal(Workload):
    """Library ``eco_norm`` + ``eco_norm_primal`` on random small instances.

    Instance cost is bimodal (about 0.03 s when the energy constraint is
    slack, 0.13 s when it binds), so one op solves one instance of each
    d in [2, 6], with budgets cycling 0.1, 1, 10 across the instances and
    shifting by one per op.  Every op then mixes all three budgets, and the
    op mix is the same in every run whatever the seed.
    """

    name = "duality-primal"
    pool = 48
    nominal_op_s = 0.6

    def make_input(self, rng, i):
        instances, parts = [], []
        for j, d in enumerate(range(2, 7)):
            a = complex_gaussian(rng, (d, d)) / np.sqrt(d)
            w = complex_gaussian(rng, (d, d))
            g = w @ w.conj().T / d
            energy = BUDGETS[(i + j) % len(BUDGETS)]
            seed = int(rng.integers(0, 2 ** 31))
            instances.append({"a": a, "g": g, "energy": energy, "seed": seed})
            parts += [a.tobytes(), g.tobytes(), repr((energy, seed)).encode()]
        return Input(f"primal-{i}", {"instances": instances}, parts)

    def prepare(self, inputs):
        from eclim.opcore import HermitianMatrix, ground_shift
        for inp in inputs:
            for inst in inp.data["instances"]:
                inst["ref"] = ground_shift(HermitianMatrix(inst["g"]))

    def run(self, inp, tracer=None):
        from eclim import norms
        values = []
        for inst in inp.data["instances"]:
            dual, _ = norms.eco_norm(inst["a"], inst["ref"], inst["energy"])
            primal, _ = norms.eco_norm_primal(inst["a"], inst["ref"], inst["energy"],
                                              restarts=PRIMAL_RESTARTS, seed=inst["seed"])
            values.append(f"{dual!r} {primal!r}")
        return "\n".join(values).encode()

    def check(self, inp, output):
        for line in output.decode().splitlines():
            dual, primal = (float(x) for x in line.split())
            scale = max(1.0, abs(dual))
            if (dual - primal) / scale > 1e-6:
                raise OpError(f"duality gap {(dual - primal) / scale:.3e} > 1e-6")
            if (primal - dual) / scale > 1e-9:
                raise OpError(f"primal {primal} above dual {dual}")


WORKLOADS = {w.name: w for w in (QslSpin7, TrotterSeesaw, DynamicsGrid, DualityPrimal)}


def inputs_digest(name: str, inputs: list) -> str:
    h = hashlib.sha256(name.encode())
    for inp in inputs:
        h.update(inp.key.encode())
        for part in inp.digest_parts:
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()
