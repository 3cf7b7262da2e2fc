"""CLI dispatch, wire formats, exit codes, and determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eclim.cli import build_parser, main
from eclim.jsonio import (InputError, format_float, parse_generator, parse_hermitian,
                          parse_matrix, to_json)

SRC = Path(__file__).resolve().parents[1] / "src"


def op_json(m):
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    return {"dim": d, "entries": [[float(m[i, j].real), float(m[i, j].imag)]
                                  for i in range(d) for j in range(d)]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    sx = op_json(np.array([[0, 1], [1, 0]]))
    g = op_json(np.diag([0.0, 1.0]))
    p = 0.4
    ad = {"dim_in": 2, "dim_out": 2, "kraus": [
        op_json(np.diag([1.0, np.sqrt(1 - p)])),
        op_json(np.array([[0.0, np.sqrt(p)], [0.0, 0.0]])),
    ]}
    genx = {"dim": 2, "hamiltonian": op_json(np.array([[0, 1], [1, 0]])), "lindblad": []}
    genz = {"dim": 2, "hamiltonian": op_json(np.diag([1.0, -1.0])), "lindblad": []}
    rho = op_json(np.eye(2) / 2.0)
    gauss_gen = {"modes": 1, "xdot": [[-0.5, 0.0], [0.0, -0.5]],
                 "ydot": [[1.0, 0.0], [0.0, 1.0]]}
    gauss_state = {"modes": 1, "gamma": [[3.0, 0.0], [0.0, 3.0]], "beta": [0.0, 0.0]}
    return {
        "sx": write("sx.json", sx),
        "g": write("g.json", g),
        "ad": write("ad.json", ad),
        "genx": write("genx.json", genx),
        "genz": write("genz.json", genz),
        "rho": write("rho.json", rho),
        "ggen": write("ggen.json", gauss_gen),
        "gstate": write("gstate.json", gauss_state),
        "tmp": tmp_path,
        "write": write,
    }


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEcoNormCommand:
    def test_value(self, files, capsys):
        code, out, _ = run_main(["eco-norm", "--op", files["sx"], "--ref", files["g"],
                                 "--energy", "0.5"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_file(self, files, capsys):
        code, _, err = run_main(["eco-norm", "--op", "nope.json", "--ref", files["g"],
                                 "--energy", "0.5"], capsys)
        assert code == 2
        assert json.loads(err)["code"] == "input_error"

    def test_solver_failure_is_a_numerical_error(self, files, capsys, monkeypatch):
        from eclim import opcore
        monkeypatch.setattr(opcore, "DUAL_MAX_ITER", 0)
        op = files["write"]("n.json", op_json(np.diag([0.0, 1.0])))
        code, out, err = run_main(["eco-norm", "--op", op, "--ref", files["g"],
                                   "--energy", "0.25"], capsys)
        assert code == 3
        assert out == ""
        assert json.loads(err)["code"] == "numerical_error"

    @pytest.mark.parametrize("energy, code, out, err", [
        # 2*g(0)/E, the dual solver's upper-bracket slope, overflows: exit 3, no warning
        ("1e-320", 3, "", to_json({"code": "numerical_error", "message":
                                   "the dual solver's upper bracket 2*g(0)/E overflows "
                                   "at the energy budget E=1e-320"}) + "\n"),
        ("1e-300", 0, '{"value": 2.1213203435596425e-150, "lambda": 4.5, "e0": 0}\n', ""),
    ], ids=["subnormal", "tiny"])
    def test_tiny_budget(self, files, capfd, energy, code, out, err):
        op = files["write"]("a.json", op_json(np.diag([0.0, 0.0, 3.0])))
        g3 = files["write"]("g3.json", op_json(np.diag([0.0, 1.0, 2.0])))
        assert run_main(["eco-norm", "--op", op, "--ref", g3, "--energy", energy],
                        capfd) == (code, out, err)

    def test_dimension_mismatch_names_both(self, files, capsys):
        g3 = files["write"]("g3.json", op_json(np.diag([0.0, 1.0, 2.0])))
        code, _, err = run_main(["eco-norm", "--op", files["sx"], "--ref", g3,
                                 "--energy", "0.5"], capsys)
        assert code == 2
        msg = json.loads(err)["message"]
        assert "2" in msg and "3" in msg


class TestEcdNormCommand:
    def test_cp_exact(self, files, capsys):
        code, out, _ = run_main(["ecd-norm", "--channel", files["ad"], "--ref",
                                 files["g"], "--energy", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)

    def test_seesaw(self, files, capsys):
        code, out, _ = run_main(["ecd-norm", "--channel", files["ad"], "--ref",
                                 files["g"], "--energy", "0.5", "--seesaw",
                                 "--restarts", "4", "--seed", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "seesaw_lower"
        assert data["value"] <= 1.0 + 1e-7


    def test_seesaw_minus(self, files, capsys):
        # X against the identity: |0> has energy 0 and an orthogonal image, so 2
        x = files["write"]("x.json", {"dim_in": 2, "dim_out": 2, "kraus": [
            op_json(np.array([[0, 1], [1, 0]]))]})
        eye = files["write"]("id.json", {"dim_in": 2, "dim_out": 2,
                                         "kraus": [op_json(np.eye(2))]})
        code, out, _ = run_main(["ecd-norm", "--channel", x, "--minus", eye, "--ref",
                                 files["g"], "--energy", "0.5", "--seesaw",
                                 "--restarts", "4", "--seed", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "seesaw_lower"
        assert 2.0 - 1e-6 <= data["value"] <= 2.0 + 1e-7

    def test_minus_requires_seesaw(self, files, capsys):
        code, out, err = run_main(["ecd-norm", "--channel", files["ad"], "--minus",
                                   files["ad"], "--ref", files["g"], "--energy", "0.5"],
                                  capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"code": "input_error",
                                   "message": "--minus requires --seesaw"}


class TestOutputEnergyCommand:
    def test_grid(self, files, capsys):
        code, out, _ = run_main(["output-energy", "--channel", files["ad"],
                                 "--ref-in", files["g"], "--ref-out", files["g"],
                                 "--grid", "0.25,0.5,1.0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["values"] == [pytest.approx(0.6 * e, abs=1e-8)
                                  for e in (0.25, 0.5, 1.0)]

    def test_non_square_kraus_operator(self, files, capsys):
        # The isometry |0> -> |0>, |1> -> |2> into a qutrit, G_out = diag(0, 1, 2):
        # the output energy is twice the input energy.
        iso = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        chan = files["write"]("iso.json", {"dim_in": 2, "dim_out": 3, "kraus": [
            {"rows": 3, "cols": 2, "entries": [[v, 0.0] for v in iso.reshape(-1)]}]})
        g_out = files["write"]("g3.json", op_json(np.diag([0.0, 1.0, 2.0])))
        code, out, err = run_main(["output-energy", "--channel", chan, "--ref-in", files["g"],
                                   "--ref-out", g_out, "--energy", "0.5"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-8)


class TestCertifyAndSimulate:
    def test_certify(self, files, capsys):
        code, out, _ = run_main(["certify", "--gen", files["genx"], "--ref",
                                 files["g"], "--e0-grid", "1.0,3.0",
                                 "--symmetric"], capsys)
        assert code == 0
        certs = json.loads(out)["certificates"]
        assert certs[0]["omega"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert certs[1]["omega"] == pytest.approx(1.0 / np.sqrt(12.0), abs=1e-10)

    def test_certify_residuals_are_the_gap_floors(self, files, capsys):
        from eclim.jsonio import load_file, parse_generator, parse_hermitian
        from eclim.lindblad import dissipation_matrix
        from eclim.opcore import ground_shift
        ref = ground_shift(parse_hermitian(load_file(files["g"]), "reference"))
        m = dissipation_matrix(parse_generator(load_file(files["genx"])), ref).entries
        for symmetric in ([], ["--symmetric"]):
            code, out, _ = run_main(["certify", "--gen", files["genx"], "--ref", files["g"],
                                     "--e0-grid", "0.3,1.0,7.0"] + symmetric, capsys)
            assert code == 0
            for c in json.loads(out)["certificates"]:
                shifted = c["omega"] * (ref.entries + c["e0"] * np.eye(2))
                expect = float(np.linalg.eigvalsh(shifted - m)[0])
                if symmetric:
                    expect = min(expect, float(np.linalg.eigvalsh(shifted + m)[0]))
                assert c["residual"] == expect

    def test_generator_in_k_form(self, files, capsys):
        # K = -iH is the form from_hamiltonian builds; the output must not differ
        genk = files["write"]("genk.json", {"dim": 2, "lindblad": [],
                                            "k": op_json(-1j * np.array([[0, 1], [1, 0]]))})
        outs = []
        for gen in (files["genx"], genk):
            code, out, _ = run_main(["certify", "--gen", gen, "--ref", files["g"],
                                     "--e0-grid", "1.0,3.0"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_an_overflowing_lindblad_operator_is_named(self, files, capfd):
        # pytest turns warnings into errors, so a warning from L*L fails here
        l = np.zeros((2, 2))
        l[1, 0] = 1e200
        gen = files["write"]("gen.json", {"dim": 2, "hamiltonian": op_json(np.zeros((2, 2))),
                                          "lindblad": [op_json(l)]})
        code, out, err = run_main(["certify", "--gen", gen, "--ref", files["g"]], capfd)
        assert (code, out) == (2, "")
        assert err == to_json({"code": "input_error", "message": "generator: Lindblad "
                               "operator 0 is too large: L*L overflows"}) + "\n"

    def test_k_form_dimension_mismatch(self, files, capsys):
        genk = files["write"]("genk.json", {"dim": 3, "k": op_json(np.eye(2))})
        code, _, err = run_main(["certify", "--gen", genk, "--ref", files["g"]], capsys)
        assert code == 2
        assert json.loads(err)["message"] == "generator: k dimension mismatch"

    def test_simulate(self, files, capsys):
        code, out, _ = run_main(["simulate", "--gen", files["genx"], "--state",
                                 files["rho"], "--times", "0.1,0.7", "--ref",
                                 files["g"]], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        for row in rows:
            assert row["energy"] == pytest.approx(0.5, abs=1e-10)
            assert row["trace"] == pytest.approx(1.0, abs=1e-10)


class TestGaussianCommand:
    def test_csv(self, files, capsys):
        code, out, _ = run_main(["gaussian", "--gen", files["ggen"], "--state",
                                 files["gstate"], "--times", "0.5,1.0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,energy,bound"
        t, e, b = (float(x) for x in lines[1].split(","))
        assert e == pytest.approx(np.exp(-0.5), abs=1e-9)
        assert e <= b

    def test_overflowing_bound_is_one_error_line(self, files, capfd):
        # pytest turns warnings into errors, so an overflow warning fails here
        code, out, err = run_main(["gaussian", "--gen", files["ggen"], "--state",
                                   files["gstate"], "--times", "0.5,1e3"], capfd)
        assert code == 3
        assert out == ""
        assert err == to_json({"code": "numerical_error",
                               "message": "cannot emit a non-finite number: the bound at "
                                          "time 1000 is inf"}) + "\n"

    def test_rejects_drift(self, files, capsys):
        bad = files["write"]("bad.json", {"modes": 1, "xdot": [[0, 0], [0, 0]],
                                          "ydot": [[0, 0], [0, 0]],
                                          "alpha": [1.0, 0.0]})
        code, _, err = run_main(["gaussian", "--gen", bad, "--state",
                                 files["gstate"], "--times", "0.5"], capsys)
        assert code == 2
        assert "drift" in json.loads(err)["message"]


class TestBirthAndRabi:
    def test_birth_report(self, files, capsys):
        code, out, _ = run_main(["birth", "--rule", "geometric:2", "--cutoff", "20",
                                 "--times", "1,3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "finite"
        assert data["tau_partial"] == pytest.approx(2.0, abs=1e-5)
        assert data["traces"][1]["trace"] < 0.9

    @pytest.mark.parametrize("rule, tau, verdict", [
        ("power:2", 1.0 + 1.0 / 4.0 + 1.0 / 9.0, "finite"),
        ("constant", 3.0, "diverges"),
        ("explicit:1,2,4", 1.75, "undecided"),
    ])
    def test_birth_rules(self, rule, tau, verdict, capsys):
        code, out, _ = run_main(["birth", "--rule", rule, "--cutoff", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["rule"] == rule
        assert data["tau_partial"] == pytest.approx(tau, rel=1e-15)
        assert data["verdict"] == verdict

    def test_unknown_birth_rule(self, capsys):
        code, out, err = run_main(["birth", "--rule", "cubic:3", "--cutoff", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown rate rule 'cubic:3'" in json.loads(err)["message"]

    def test_rabi(self, files, capsys):
        code, out, _ = run_main(["rabi", "--omega", "1", "--g", "0.3", "--nu", "0.5",
                                 "--cutoff", "25", "--e0", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["within_analytic"] is True
        assert data["omega_certified"] <= 0.3 * 1.001


    def test_rabi_with_an_overflowing_coupling_warns_nothing(self, capfd):
        # The Hermiticity check's norms of these matrices overflow; pytest
        # turns the overflow warning they used to raise into an error.
        code, out, err = run_main(["rabi", "--omega", "1", "--g", "1e200", "--nu", "0.5",
                                   "--cutoff", "10"], capfd)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["within_analytic"] is True
        assert data["omega_certified"] <= 1e200

    def test_rabi_whose_gate_diagonal_overflows_warns_nothing(self):
        # The PSD proof's diagonal sum overflows at d = 11; the proof fails
        # and eigvalsh decides, as before, but numpy used to warn on the sum.
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "eclim.cli", "rabi",
                               "--omega", "1", "--g", "5e306", "--nu", "0.5", "--cutoff", "10"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            '{"omega_certified": 3.5344106572411001e+306, "analytic_bound": '
            '4.9999999999999999e+306, "e0": 2, "residual": 5.628334528115326e+291, '
            '"within_analytic": true}\n')

    @pytest.mark.parametrize("flags, message", [
        (["--omega", "inf"], "Rabi parameter omega must be finite, got inf"),
        (["--g", "nan"], "Rabi parameter g must be finite, got nan"),
        (["--omega", "1e308"], "Rabi parameters omega=1e+308, g=0.3, nu=0.5 overflow H or "
                               "i[H, N] at cutoff 10; reduce them or the cutoff"),
        (["--g", "1e307", "--cutoff", "100"], "Rabi parameters omega=1.0, g=1e+307, nu=0.5 "
                                              "overflow H or i[H, N] at cutoff 100; reduce "
                                              "them or the cutoff"),
        # (|omega| N + |nu|) N is 1.69e308 at N = 13, inside the float range
        (["--omega", "1e306", "--cutoff", "13"], None),
        (["--omega", "1e306", "--cutoff", "14"], "Rabi parameters omega=1e+306, g=0.3, "
                                                 "nu=0.5 overflow H or i[H, N] at cutoff "
                                                 "14; reduce them or the cutoff"),
    ], ids=["omega-inf", "g-nan", "omega-1e308", "g-1e307", "omega-at-edge", "omega-past-edge"])
    def test_rabi_parameters_are_named_before_any_arithmetic(self, flags, message, capfd):
        # pytest turns warnings into errors, so a numpy warning before the line fails here
        args = dict(zip(["--omega", "--g", "--nu", "--cutoff"], ["1", "0.3", "0.5", "10"]))
        args.update(zip(flags[::2], flags[1::2]))
        code, out, err = run_main(["rabi", *(x for kv in args.items() for x in kv)], capfd)
        if message is None:
            assert (code, err) == (0, "")
            assert json.loads(out)["within_analytic"] is True
        else:
            assert (code, out) == (2, "")
            assert err == to_json({"code": "input_error", "message": message}) + "\n"

    def test_rabi_residual_is_the_gap_floor(self, capsys):
        from eclim.lindblad import unitary_dissipation
        from eclim.models import rabi_hamiltonian
        code, out, _ = run_main(["rabi", "--omega", "1", "--g", "0.3", "--nu", "0.5",
                                 "--cutoff", "12", "--e0", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        model = rabi_hamiltonian(1.0, 0.3, 0.5, 12)
        m = model.compress(unitary_dissipation(model.hamiltonian, model.number)).entries
        g = model.compress_reference().entries
        shifted = data["omega_certified"] * (g + data["e0"] * np.eye(len(g)))
        assert data["residual"] == min(float(np.linalg.eigvalsh(shifted - m)[0]),
                                       float(np.linalg.eigvalsh(shifted + m)[0]))


class TestSpeedlimitCommand:
    def test_csv_deterministic(self, files, capsys):
        args = ["speedlimit", "--scenario", "left", "--qubits", "2", "--tmax",
                "0.4", "--steps", "8", "--seed", "11"]
        code1, out1, _ = run_main(args, capsys)
        code2, out2, _ = run_main(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "time,actualError,energyBound,uniformBound"
        assert len(lines) == 9

    def test_zero_steps_is_named_an_empty_grid(self, capfd):
        code, out, err = run_main(["speedlimit", "--scenario", "left", "--qubits", "2",
                                   "--steps", "0"], capfd)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"code": "input_error", "message": "time grid is empty"}

    def test_negative_steps_name_the_flag(self, capfd):
        code, out, err = run_main(["speedlimit", "--scenario", "left", "--qubits", "2",
                                   "--steps", "-3"], capfd)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"code": "input_error",
                                   "message": "--steps must be nonnegative, got -3"}

    def test_overflowing_certified_budget_is_named(self, capfd):
        code, out, err = run_main(["speedlimit", "--scenario", "left", "--qubits", "3",
                                   "--tmax", "1e308", "--steps", "3"], capfd)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        data = json.loads(err)
        assert data["code"] == "input_error"
        assert data["message"].startswith("the certified energy budget f_t(E) is inf at "
                                          "t=5e+307: ")


class TestTrotterCommand:
    def test_report(self, files, capsys):
        code, out, _ = run_main(["trotter", "--gen1", files["genx"], "--gen2",
                                 files["genz"], "--ref", files["g"], "--energy",
                                 "1", "--time", "1", "--n", "4,8", "--restarts",
                                 "8", "--states", "4"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all(r["status"] == "ok" for r in data["rows"])
        assert [r["n"] for r in data["rows"]] == [4, 8]
        assert all(type(r["n"]) is int for r in data["rows"])

    def test_failed_row_exits_one(self, files, capsys, monkeypatch):
        from eclim import apps
        from eclim.norms import CpDifference, EcdEstimate
        monkeypatch.setattr(apps, "ecd_norm_seesaw",
                            lambda *args, **kwargs: EcdEstimate(0.0, "seesaw_lower"))
        monkeypatch.setattr(CpDifference, "exact_cp_upper_bound", lambda *args: 0.0)
        code, out, _ = run_main(["trotter", "--gen1", files["genx"], "--gen2",
                                 files["genz"], "--ref", files["g"], "--energy",
                                 "1", "--time", "1", "--n", "4,8", "--states", "4"], capsys)
        assert code == 1
        assert [r["status"] for r in json.loads(out)["rows"]] == ["failed", "failed"]

    def test_overflowing_budget_raises_no_warning(self, files, capfd):
        # pytest turns warnings into errors, so an overflow warning fails here
        code, out, err = run_main(["trotter", "--gen1", files["genx"], "--gen2",
                                   files["genz"], "--ref", files["g"], "--energy",
                                   "1e308", "--time", "1", "--n", "4,8", "--restarts",
                                   "8", "--states", "4"], capfd)
        assert code == 0
        assert err == ""
        assert all(r["status"] == "ok" for r in json.loads(out)["rows"])

    @pytest.mark.parametrize("steps", ["4", "4,4"])
    def test_one_step_count_has_no_decay_exponent(self, files, capfd, steps):
        code, out, err = run_main(["trotter", "--gen1", files["genx"], "--gen2",
                                   files["genz"], "--ref", files["g"], "--energy",
                                   "1", "--time", "1", "--n", steps, "--restarts",
                                   "8", "--states", "4"], capfd)
        assert code == 0
        assert err == ""
        assert json.loads(out)["decay_exponent"] is None


def _damped_fock_simulation(files, dim: int) -> list:
    """``simulate`` arguments, less --times: H = 0 and L = a on ``dim`` Fock
    levels, the state in the top level, the number operator as reference."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    gen = files["write"]("damped.json", {"dim": dim, "lindblad": [op_json(lower)],
                                         "hamiltonian": op_json(np.zeros((dim, dim)))})
    ref = files["write"]("number.json", op_json(np.diag(np.arange(dim, dtype=float))))
    rho = files["write"]("excited.json", op_json(np.diag(np.eye(dim)[-1])))
    return ["simulate", "--gen", gen, "--state", rho, "--ref", ref]


class TestBadNumbersExitTwo:
    """Non-finite numbers and out-of-range counts are input errors: exit 2 with
    one JSON line on stderr, nothing on stdout, no traceback."""

    TROTTER = ["trotter", "--gen1", "{genx}", "--gen2", "{genz}", "--ref", "{g}",
               "--energy", "1", "--time", "0.5", "--restarts", "2", "--states", "2", "--n"]

    @pytest.mark.parametrize("argv", [
        ["eco-norm", "--op", "{g}", "--ref", "{g}", "--energy", "inf"],
        ["output-energy", "--channel", "{ad}", "--ref-in", "{g}", "--ref-out", "{g}",
         "--energy", "inf"],
        ["ecd-norm", "--channel", "{ad}", "--ref", "{g}", "--energy", "inf", "--seesaw"],
        ["certify", "--gen", "{genx}", "--ref", "{g}", "--e0-grid", "nan"],
        ["certify", "--gen", "{genx}", "--ref", "{g}", "--e0-grid", "1,inf"],
        ["birth", "--rule", "power:1.5", "--cutoff", "10", "--times", "nan"],
        ["rabi", "--omega", "1", "--g", "0.5", "--nu", "0.3", "--cutoff", "10", "--e0", "inf"],
        TROTTER + ["0,4"],
        TROTTER + ["4,-2"],
        TROTTER + [""],
        ["birth", "--rule", "geometric:0.5", "--cutoff", "2000"],
        ["birth", "--rule", "power:400", "--cutoff", "10"],
        ["birth", "--rule", "explicit:1,2", "--cutoff", "10"],
        TROTTER + ["4", "--states", "0"],
        TROTTER + ["4", "--states", "-3"],
        ["speedlimit", "--scenario", "left", "--qubits", "2", "--tmax", "inf",
         "--steps", "3"],
        ["group-qsl", "--qubits", "2", "--cx", "1,0", "--cy", "0,1,0"],
        ["group-qsl", "--qubits", "2", "--cx", "1,2,3,4", "--cy", "0,1,0"],
        ["group-qsl", "--qubits", "2", "--cx", ",", "--cy", "0,1,0"],
    ])
    def test_input_error(self, files, capfd, argv):
        # capfd also sees what LAPACK writes to the file descriptors directly.
        code, out, err = run_main([a.format(**files) for a in argv], capfd)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == "input_error"

    @pytest.mark.parametrize("energy", ["-1", "-1e-3", "nan"])
    def test_trotter_budget_is_named(self, files, capfd, energy):
        argv = [a.format(**files) for a in self.TROTTER if a not in ("--energy", "1")]
        code, out, err = run_main(argv + ["4", f"--energy={energy}"], capfd)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "code": "input_error",
            "message": f"energy budget must be nonnegative and finite, got {float(energy)}"}

    @pytest.mark.parametrize("dim, message", [
        # up to lindblad.DENSE_EXPM_MAX_DIM a dense propagator, which overflows
        (2, "the evolved state at time 1e+300 is not finite"),
        # beyond it the Taylor action, whose step count overflows
        (10, "evolution time 1e+300 is too long: the Taylor step count of ||tA||_1"),
    ])
    def test_simulate_huge_time_is_named(self, files, capfd, dim, message):
        code, out, err = run_main(_damped_fock_simulation(files, dim) + ["--times", "0,1e300"],
                                  capfd)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == "input_error"
        assert json.loads(err)["message"].startswith(message)

    def test_simulate_astronomical_time_exits_two_at_once(self, files, capfd):
        # ||tA||_1 / theta_m is finite, but the Taylor action would take ~1e291 products
        start = time.perf_counter()
        code, out, err = run_main(_damped_fock_simulation(files, 10) + ["--times", "0,1e290"],
                                  capfd)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "input_error"
        assert json.loads(err)["message"].startswith("evolution time 1e+290 is too long")

    @pytest.mark.parametrize("rule, message", [
        ("power:nan", "power rule needs a finite p, got nan"),
        ("geometric:inf", "geometric rule needs a finite r, got inf"),
    ])
    def test_non_finite_birth_parameter_is_named(self, capfd, rule, message):
        code, out, err = run_main(["birth", "--rule", rule, "--cutoff", "10"], capfd)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"code": "input_error", "message": message}

    @pytest.mark.parametrize("cx, cy, message", [
        ("1,0", "0,1,0", "c_x needs three coefficients, got 2"),
        ("1,2,3,4", "0,1,0", "c_x needs three coefficients, got 4"),
        (",", "0,1,0", "c_x needs three coefficients, got 0"),
        ("1,0,0", "1", "c_y needs three coefficients, got 1"),
    ])
    def test_group_qsl_coefficient_count_is_named(self, capfd, cx, cy, message):
        code, out, err = run_main(["group-qsl", "--qubits", "2", "--cx", cx, "--cy", cy],
                                  capfd)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"code": "input_error", "message": message}

    @pytest.mark.parametrize("argv, kernel", [
        (["birth", "--rule", "power:2", "--cutoff", "100000", "--times", "1"], "birth_tau"),
        (["rabi", "--omega", "1", "--g", "0.3", "--nu", "0.5", "--cutoff", "100000"],
         "rabi_hamiltonian"),
    ])
    def test_memory_error_is_named(self, capfd, monkeypatch, argv, kernel):
        # The kernel fails as numpy does when the cutoff's matrices do not fit;
        # nothing that large is allocated.
        from eclim import cli
        message = ("Unable to allocate 74.5 GiB for an array with shape (100001, 100001) "
                   "and data type float64")

        def too_large(*args):
            raise MemoryError(message)
        monkeypatch.setattr(cli, kernel, too_large)
        code, out, err = run_main(argv, capfd)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"code": "input_error", "message": message}


class TestMalformedJsonExitTwo:
    """A JSON field that is missing, of the wrong type or outside the float
    range is an input error: exit 2 with one JSON line on stderr, nothing on
    stdout, no traceback."""

    BIG = "1" + "0" * 400  # an integer too large for a float
    GGEN = '{"modes": 1, "xdot": [[-0.5, 0], [0, -0.5]], "ydot": [[1, 0], [0, 1]]}'
    GSTATE = '{"modes": 1, "gamma": [[1, 0], [0, 1]], "beta": [0, 0]}'
    SX = '{"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}'
    RUNS = {
        "operator": ["eco-norm", "--op", "{bad}", "--ref", "{g}", "--energy", "1"],
        "gaussian generator": ["gaussian", "--gen", "{bad}", "--state", "{gstate}",
                               "--times", "1"],
        "gaussian state": ["gaussian", "--gen", "{ggen}", "--state", "{bad}",
                           "--times", "1"],
        "generator": ["certify", "--gen", "{bad}", "--ref", "{g}"],
        "channel": ["ecd-norm", "--channel", "{bad}", "--ref", "{g}", "--energy", "1"],
        "state": ["simulate", "--gen", "{genx}", "--state", "{bad}", "--times", "0.5",
                  "--ref", "{g}"],
    }

    @pytest.mark.parametrize("kind, text", [
        pytest.param("operator", '{"dim": 2, "entries": [[%s, 0], [0, 0], [0, 0], [1, 0]]}'
                     % BIG, id="entry-too-large"),
        pytest.param("gaussian state", GSTATE.replace('"beta": [0,', '"beta": [%s,' % BIG),
                     id="beta-too-large"),
        pytest.param("gaussian generator", GGEN.replace('"modes": 1', '"modes": 1e400'),
                     id="generator-modes-1e400"),
        pytest.param("gaussian state", GSTATE.replace('"modes": 1', '"modes": 1e400'),
                     id="state-modes-1e400"),
        pytest.param("gaussian generator", '{"modes": 1, "ydot": [[1, 0], [0, 1]]}',
                     id="no-xdot"),
        pytest.param("gaussian state", '{"modes": 1, "beta": [0, 0]}', id="no-gamma"),
        pytest.param("generator", '{"dim": 2, "hamiltonian": %s, "lindblad": 5}' % SX,
                     id="lindblad-not-a-list"),
        pytest.param("channel", '{"dim_in": 2, "dim_out": 2, "kraus": 5}',
                     id="kraus-not-a-list"),
        pytest.param("operator", '{"dim": true, "entries": [[1, 0]]}', id="dim-true"),
        pytest.param("gaussian generator", GGEN.replace('"modes": 1', '"modes": 1.5'),
                     id="generator-modes-1.5"),
        pytest.param("gaussian state", GSTATE.replace('"modes": 1', '"modes": 1.9'),
                     id="state-modes-1.9"),
    ])
    def test_input_error(self, files, capfd, kind, text):
        bad = files["tmp"] / "bad.json"
        bad.write_text(text)
        argv = [a.format(bad=bad, **files) for a in self.RUNS[kind]]
        code, out, err = run_main(argv, capfd)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == "input_error"

    @pytest.mark.parametrize("kind, text, names", [
        pytest.param("state", '{"dim": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]}',
                     ["state: matrix is not Hermitian"], id="state-not-hermitian"),
        pytest.param("gaussian state", '{"modes": 1, "gamma": [[3, 0], [0, 3]]}',
                     ["'beta'"], id="no-beta"),
        pytest.param("channel", '{"kraus": [%s]}' % SX, ["'dim_in'", "'dim_out'"],
                     id="no-dim-in-dim-out"),
    ])
    def test_message_names_the_field(self, files, capfd, kind, text, names):
        bad = files["tmp"] / "bad.json"
        bad.write_text(text)
        argv = [a.format(bad=bad, **files) for a in self.RUNS[kind]]
        code, out, err = run_main(argv, capfd)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        message = json.loads(err)["message"]
        assert message.count("state:") <= 1, message
        assert all(name in message for name in names), message

    I3 = '{"dim": 3, "entries": [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], ' \
         '[0, 0], [1, 0]]}'

    @pytest.mark.parametrize("argv, text, fragment", [
        pytest.param(["birth", "--rule", "explicit:1,x", "--cutoff", "4"], "",
                     "expected a comma-separated number list, got '1,x'", id="float-list"),
        pytest.param(["trotter", "--gen1", "{genx}", "--gen2", "{genz}", "--ref", "{g}",
                      "--energy", "1", "--time", "0.1", "--n", "4,x"], "",
                     "expected a comma-separated integer list, got '4,x'", id="int-list"),
        pytest.param(RUNS["operator"], '{"dim": 2', "is not valid JSON", id="invalid-json"),
        pytest.param(RUNS["channel"], '{"dim_in": 2, "dim_out": 2, "kraus": [%s]}' % I3,
                     "kraus operator shape (3, 3) does not match (dim_out, dim_in) = (2, 2)",
                     id="kraus-shape"),
        pytest.param(RUNS["generator"], '{"hamiltonian": %s}' % SX,
                     "generator JSON needs 'dim'", id="generator-without-dim"),
        pytest.param(RUNS["generator"], '{"dim": 2, "hamiltonian": %s, "k": %s}' % (SX, SX),
                     "exactly one of 'hamiltonian' or 'k'", id="hamiltonian-and-k"),
        pytest.param(RUNS["generator"], '{"dim": 2}',
                     "exactly one of 'hamiltonian' or 'k'", id="neither-hamiltonian-nor-k"),
        pytest.param(RUNS["generator"], '{"dim": 2, "hamiltonian": %s, "lindblad": [%s]}'
                     % (SX, I3), "lindblad operators must be dim x dim", id="lindblad-shape"),
        pytest.param(RUNS["generator"], '{"dim": 3, "hamiltonian": %s}' % SX,
                     "generator: hamiltonian dimension mismatch", id="hamiltonian-dim"),
        # 2**70 is no int64: it takes the entry loop, which accepts it.
        pytest.param(RUNS["operator"], '{"dim": 2, "entries": [[%d, 0], [0, 0], [0, 0], '
                     '[0, 0]]}' % 2 ** 70, None, id="big-int-accepted"),
    ])
    def test_rejections_name_the_input(self, files, capfd, argv, text, fragment):
        bad = files["tmp"] / "bad.json"
        bad.write_text(text)
        code, out, err = run_main([a.format(bad=bad, **files) for a in argv], capfd)
        if fragment is None:
            assert (code, err) == (0, "")
            assert json.loads(out)["value"] == 2.0 ** 70
            return
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        data = json.loads(err)
        assert data["code"] == "input_error"
        assert fragment in data["message"], data["message"]


class TestGroupQslCommand:
    def test_runs(self, files, capsys):
        code, out, _ = run_main(["group-qsl", "--qubits", "2", "--cx", "1,0,0",
                                 "--cy", "0,1,0", "--seed", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] <= data["rhs"]


    @pytest.mark.parametrize("cx, cy", [
        ("1e308,0,0", "0,1,0"),  # A(X) and the ad norm overflow
        ("0,1,0", "1e308,0,0"),
        ("400,0,0", "400,1,0"),  # e^omega overflows
        ("1,0,0", "1e307,0,0"),  # (e^omega - 1)/omega |c_x - c_y| overflows
    ])
    def test_overflowing_coefficients_are_named_without_warnings(self, cx, cy):
        # numpy used to warn four times and LAPACK to print DLASCL errors
        # before the JSON writer failed on an infinite rhs (exit 3).
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "eclim.cli", "group-qsl",
                               "--qubits", "2", "--cx", cx, "--cy", cy],
                              capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert b"DLASCL" not in proc.stderr
        assert proc.stderr.count(b"\n") == 1
        err = json.loads(proc.stderr)
        assert err["code"] == "input_error"
        assert "overflow" in err["message"]

    def test_bound_violation_exits_one(self, capsys, monkeypatch):
        from eclim import cli
        from eclim.lindblad import BoundViolation

        def violated(*args):
            raise BoundViolation("group speed limit violated: 2 > 1")
        monkeypatch.setattr(cli, "group_qsl", violated)
        code, out, err = run_main(["group-qsl", "--qubits", "2", "--cx", "1,0,0",
                                   "--cy", "0,1,0"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"code": "bound_violation",
                                   "message": "group speed limit violated: 2 > 1"}


class TestSelftest:
    def test_exit_zero(self, capsys):
        code, out, _ = run_main(["selftest"], capsys)
        assert code == 0
        assert "selftest: pass" in out


MINIMAL_ARGS = {
    "eco-norm": ["--op", "{sx}", "--ref", "{g}", "--energy", "0.5"],
    "ecd-norm": ["--channel", "{ad}", "--ref", "{g}", "--energy", "0.5"],
    "output-energy": ["--channel", "{ad}", "--ref-in", "{g}", "--ref-out", "{g}",
                      "--energy", "0.5"],
    "certify": ["--gen", "{genx}", "--ref", "{g}"],
    "simulate": ["--gen", "{genx}", "--state", "{rho}", "--times", "0.5", "--ref", "{g}"],
    "gaussian": ["--gen", "{ggen}", "--state", "{gstate}", "--times", "0.5"],
    "birth": ["--rule", "geometric:2", "--cutoff", "10"],
    "rabi": ["--omega", "1", "--g", "0.3", "--nu", "0.5", "--cutoff", "6"],
    "speedlimit": ["--scenario", "left", "--qubits", "2", "--steps", "3"],
    "trotter": ["--gen1", "{genx}", "--gen2", "{genz}", "--ref", "{g}", "--energy", "1",
                "--time", "1", "--n", "4", "--restarts", "2", "--states", "2"],
    "group-qsl": ["--qubits", "2", "--cx", "1,0,0", "--cy", "0,1,0"],
    "selftest": [],
}


class TestOutFile:
    """``--out`` works the same way for every subcommand: main writes every result."""

    def test_every_subcommand_is_covered(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(MINIMAL_ARGS)

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGS))
    def test_out_holds_what_stdout_carries(self, files, capsys, command):
        argv = [command] + [a.format(**files) for a in MINIMAL_ARGS[command]]
        path = files["tmp"] / "result.out"
        code_file, out_file, _ = run_main(argv + ["--out", str(path)], capsys)
        written = path.read_text()
        code, out, _ = run_main(argv, capsys)
        assert code == code_file == 0
        assert out_file == ""
        assert written.strip()
        assert out == written

    @pytest.mark.parametrize("command, handler", [("speedlimit", "eclim.cli.speedlimit_run"),
                                                  ("selftest", "eclim.selftest.run_selftest")])
    @pytest.mark.parametrize("where", ["no_such_directory/x.csv", "."])
    def test_unwritable_out_fails_before_any_handler_runs(self, files, capsys, monkeypatch,
                                                          command, handler, where):
        ran = []
        monkeypatch.setattr(handler, lambda *args: ran.append(args))
        argv = [command] + [a.format(**files) for a in MINIMAL_ARGS[command]]
        code, out, err = run_main(argv + ["--out", str(files["tmp"] / where)], capsys)
        assert (code, out, ran) == (2, "", [])
        assert json.loads(err)["code"] == "input_error"
        assert not (files["tmp"] / "no_such_directory").exists()


class TestRepeatedCalls:
    """One parser serves every call in a process; no call's arguments leak."""

    def test_different_subcommands_back_to_back(self, files, capsys):
        out_path = files["tmp"] / "eco.json"
        code1, out1, _ = run_main(["eco-norm", "--op", files["sx"], "--ref", files["g"],
                                   "--energy", "0.5", "--out", str(out_path)], capsys)
        written = out_path.read_text()
        code2, out2, _ = run_main(["birth", "--rule", "geometric:2", "--cutoff", "10"],
                                  capsys)
        assert code1 == code2 == 0
        assert out1 == ""
        assert json.loads(written)["value"] == pytest.approx(1.0, abs=1e-9)
        assert out_path.read_text() == written
        assert set(json.loads(out2)) == {"rule", "cutoff", "tau_partial", "verdict",
                                         "certificate"}

    def test_same_subcommand_keeps_no_options(self, files, capsys):
        out_path = files["tmp"] / "grid.json"
        base = ["output-energy", "--channel", files["ad"], "--ref-in", files["g"],
                "--ref-out", files["g"]]
        code1, out1, _ = run_main(base + ["--grid", "0.25,0.5", "--out", str(out_path)],
                                  capsys)
        code2, out2, _ = run_main(base + ["--energy", "0.5"], capsys)
        assert code1 == code2 == 0
        assert out1 == ""
        assert set(json.loads(out2)) == {"value", "lambda", "e0"}
        assert set(json.loads(out_path.read_text())) == {"grid", "values", "certificates"}


class TestReadme:
    def test_library_example_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library example", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        # the example's own comment: value == sqrt(4.5)
        assert namespace["value"] == math.sqrt(4.5)


class TestUsageAndVersion:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "eclim" in capsys.readouterr().out

    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "eclim.cli", "--version"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0


class TestWireFormat:
    def test_rejects_nan(self):
        with pytest.raises(InputError):
            parse_matrix({"dim": 1, "entries": [[float("nan"), 0.0]]})

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError):
            parse_matrix({"dim": 2, "entries": [[0.0, 0.0]] * 3})

    def test_rejects_inf(self):
        with pytest.raises(InputError):
            parse_matrix({"dim": 1, "entries": [[float("inf"), 0.0]]})

    def test_parsed_values_match_entry_loop(self):
        def loop(entries, dim):
            out = np.empty((dim, dim), dtype=complex)
            for idx, (re, im) in enumerate(entries):
                out[idx // dim, idx % dim] = complex(re, im)
            return out

        rng = np.random.default_rng(12)
        special = [0, -0.0, 7, -3, True, False, 1.7976931348623157e308,
                   -1e308, 2 ** 60 + 1, 5e-324]
        for dim in (1, 3, 8):
            for mix in (False, True):
                flat = rng.standard_normal(2 * dim * dim).tolist()
                if mix:
                    for i in rng.integers(0, len(flat), size=len(flat) // 2):
                        flat[i] = special[int(rng.integers(0, len(special)))]
                entries = [flat[i:i + 2] for i in range(0, len(flat), 2)]
                data = json.loads(json.dumps({"dim": dim, "entries": entries}))
                got = parse_matrix(data)
                expect = loop(data["entries"], dim)
                assert got.dtype == expect.dtype
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_bad_entries_keep_their_messages(self):
        good = [1.0, 0.0]
        cases = [
            (["1", 0.0], "operator entry 2 must be finite numbers"),
            ([float("nan"), 0.0], "operator entry 2 must be finite numbers"),
            ([0.0, float("inf")], "operator entry 2 must be finite numbers"),
            ([1.0], "operator entry 2 must be a [re, im] pair"),
            ([[1.0, 2.0], [3.0, 4.0]], "operator entry 2 must be finite numbers"),
            (None, "operator entry 2 must be a [re, im] pair"),
            ([None, 1.0], "operator entry 2 must be finite numbers"),
        ]
        for bad, message in cases:
            entries = [good, good, bad, good]
            with pytest.raises(InputError) as exc:
                parse_matrix({"dim": 2, "entries": entries})
            assert str(exc.value) == message
        with pytest.raises(InputError) as exc:
            parse_matrix({"dim": 2, "entries": [good] * 5})
        assert str(exc.value) == "operator needs exactly dim^2 = 4 entries"

    def test_rows_and_cols_give_a_non_square_operator(self):
        entries = [[float(k), -float(k)] for k in range(6)]
        got = parse_matrix({"rows": 3, "cols": 2, "entries": entries})
        assert np.array_equal(got, np.arange(6).reshape(3, 2) * (1 - 1j))
        with pytest.raises(InputError) as exc:
            parse_matrix({"rows": 3, "cols": 2, "entries": entries[:4]})
        assert str(exc.value) == "operator needs exactly rows*cols = 6 entries"
        with pytest.raises(InputError, match="operator rows must be a positive integer"):
            parse_matrix({"rows": 3.0, "cols": 2, "entries": entries})
        with pytest.raises(InputError, match="either 'dim' or 'rows' and 'cols'"):
            parse_matrix({"dim": 2, "rows": 2, "cols": 2, "entries": entries[:4]})
        with pytest.raises(InputError, match="either 'dim' or 'rows' and 'cols'"):
            parse_matrix({"rows": 2, "entries": entries[:4]})

    def test_hermitian_operators_give_dim(self):
        with pytest.raises(InputError, match="reference JSON needs 'dim' and 'entries'"):
            parse_hermitian({"rows": 1, "cols": 1, "entries": [[0.0, 0.0]]}, "reference")

    @pytest.mark.parametrize("dim, ham", [(2.0, np.eye(2)), (True, np.eye(1))])
    def test_generator_dim_is_a_json_integer(self, dim, ham):
        with pytest.raises(InputError, match="generator dimension must be a positive"):
            parse_generator({"dim": dim, "hamiltonian": op_json(ham)})

    def test_seventeen_digit_round_trip(self):
        for value in (1.0 / 3.0, np.pi, 2.0 ** -52, 1e300):
            assert float(format_float(value)) == value

    def test_non_finite_output_is_numerical(self):
        with pytest.raises(RuntimeError):
            format_float(float("nan"))

    def test_to_json_types(self):
        s = to_json({"a": 1, "b": [0.5, True, None], "c": "x"})
        assert json.loads(s) == {"a": 1, "b": [0.5, True, None], "c": "x"}
