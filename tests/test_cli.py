"""CLI dispatch, wire formats, exit codes, and determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from eclim.cli import main
from eclim.jsonio import InputError, format_float, parse_matrix, to_json


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


class TestOutputEnergyCommand:
    def test_grid(self, files, capsys):
        code, out, _ = run_main(["output-energy", "--channel", files["ad"],
                                 "--ref-in", files["g"], "--ref-out", files["g"],
                                 "--grid", "0.25,0.5,1.0"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["values"] == [pytest.approx(0.6 * e, abs=1e-8)
                                  for e in (0.25, 0.5, 1.0)]


class TestCertifyAndSimulate:
    def test_certify(self, files, capsys):
        code, out, _ = run_main(["certify", "--gen", files["genx"], "--ref",
                                 files["g"], "--e0-grid", "1.0,3.0",
                                 "--symmetric"], capsys)
        assert code == 0
        certs = json.loads(out)["certificates"]
        assert certs[0]["omega"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert certs[1]["omega"] == pytest.approx(1.0 / np.sqrt(12.0), abs=1e-10)

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

    def test_rabi(self, files, capsys):
        code, out, _ = run_main(["rabi", "--omega", "1", "--g", "0.3", "--nu", "0.5",
                                 "--cutoff", "25", "--e0", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["within_analytic"] is True
        assert data["omega_certified"] <= 0.3 * 1.001


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


class TestTrotterCommand:
    def test_report(self, files, capsys):
        code, out, _ = run_main(["trotter", "--gen1", files["genx"], "--gen2",
                                 files["genz"], "--ref", files["g"], "--energy",
                                 "1", "--time", "1", "--n", "4,8", "--restarts",
                                 "8", "--states", "4"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all(r["status"] == "ok" for r in data["rows"])


class TestGroupQslCommand:
    def test_runs(self, files, capsys):
        code, out, _ = run_main(["group-qsl", "--qubits", "2", "--cx", "1,0,0",
                                 "--cy", "0,1,0", "--seed", "3"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] <= data["rhs"]


class TestSelftest:
    def test_exit_zero(self, capsys):
        code, out, _ = run_main(["selftest"], capsys)
        assert code == 0
        assert "selftest: pass" in out


class TestUsageAndVersion:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "eclim" in capsys.readouterr().out

    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "eclim.cli", "--version"],
                              capture_output=True, text=True)
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

    def test_seventeen_digit_round_trip(self):
        for value in (1.0 / 3.0, np.pi, 2.0 ** -52, 1e300):
            assert float(format_float(value)) == value

    def test_non_finite_output_is_numerical(self):
        with pytest.raises(RuntimeError):
            format_float(float("nan"))

    def test_to_json_types(self):
        s = to_json({"a": 1, "b": [0.5, True, None], "c": "x"})
        assert json.loads(s) == {"a": 1, "b": [0.5, True, None], "c": "x"}
