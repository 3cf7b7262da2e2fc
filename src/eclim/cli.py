"""Single executable dispatching every subcommand with uniform JSON I/O.

Exit codes: 0 on success, 1 when an asserted bound is violated, 2 on input
errors.  Errors go to stderr as one-line JSON with a stable ``code`` field.
No subcommand reads state beyond its declared flags and files, so reruns
with identical arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import INTERFACE_VERSION, __version__
from .apps import (
    SpeedLimitConfig,
    group_qsl,
    speedlimit_run,
    trotter_run,
)
from .channels import energy_curve, max_output_energy
from .gaussian import evolve_gaussian, gaussian_stability, state_energy
from .jsonio import (
    InputError,
    format_float,
    load_file,
    parse_channel,
    parse_density,
    parse_gaussian_generator,
    parse_gaussian_state,
    parse_generator,
    parse_hermitian,
    parse_matrix,
    to_json,
)
from .lindblad import BoundViolation, default_e0_grid, dissipation_matrix, \
    evolve_grid, min_omega
from .models import BirthRates, birth_epsilons, birth_tau, birth_trace, \
    rabi_certificate, rabi_hamiltonian, spin_system
from .norms import CpDifference, ecd_norm_cp, ecd_norm_seesaw, eco_norm
from .opcore import energy, ground_shift, haar_state, rng_from_seed


def _emit(text: str, out_path: str | None = None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _reference(path: str):
    return ground_shift(parse_hermitian(load_file(path), "reference"))


def _float_list(text: str):
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated number list, got {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise InputError(f"expected finite numbers, got {text!r}")
    return values


def _int_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_rule(text: str) -> BirthRates:
    name, _, arg = text.partition(":")
    if name == "geometric":
        return BirthRates.geometric(float(arg))
    if name == "power":
        return BirthRates.power(float(arg))
    if name == "constant":
        return BirthRates.power(0.0)
    if name == "explicit":
        return BirthRates.from_list(_float_list(arg))
    raise InputError(f"unknown rate rule {text!r}; use geometric:R, power:P, "
                     "constant, or explicit:a,b,c")


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def _cmd_eco_norm(args) -> int:
    op = parse_matrix(load_file(args.op), "operator")
    ref = _reference(args.ref)
    value, cert = eco_norm(op, ref, args.energy)
    _emit(to_json({"value": value, "lambda": cert.lam, "e0": cert.e0}), args.out)
    return 0


def _cmd_ecd_norm(args) -> int:
    chan = parse_channel(load_file(args.channel))
    ref = _reference(args.ref)
    if args.seesaw:
        if args.minus:
            diff = CpDifference.from_channels(chan, parse_channel(load_file(args.minus)))
        else:
            diff = CpDifference.from_channel(chan)
        est = ecd_norm_seesaw(diff, ref, args.energy, ancilla_dim=args.ancilla,
                              restarts=args.restarts, seed=args.seed)
        _emit(to_json({"value": est.value, "kind": est.kind,
                       "restarts_used": est.restarts_used}), args.out)
    else:
        if args.minus:
            raise InputError("--minus requires --seesaw")
        value, cert = ecd_norm_cp(chan, ref, args.energy)
        _emit(to_json({"value": value, "lambda": cert.lam, "e0": cert.e0}), args.out)
    return 0


def _cmd_output_energy(args) -> int:
    chan = parse_channel(load_file(args.channel))
    g_in = _reference(args.ref_in)
    g_out = _reference(args.ref_out)
    if args.grid:
        grid = _float_list(args.grid)
        curve = energy_curve(chan, g_in, g_out, grid)
        _emit(to_json({
            "grid": list(curve.grid),
            "values": list(curve.values),
            "certificates": [{"lambda": c.lam, "e0": c.e0} for c in curve.certificates],
        }), args.out)
    else:
        if args.energy is None:
            raise InputError("provide --energy E or --grid e1,e2,...")
        value, cert = max_output_energy(chan, g_in, g_out, args.energy)
        _emit(to_json({"value": value, "lambda": cert.lam, "e0": cert.e0}), args.out)
    return 0


def _cmd_certify(args) -> int:
    gen = parse_generator(load_file(args.gen))
    ref = _reference(args.ref)
    m = dissipation_matrix(gen, ref)
    grid = _float_list(args.e0_grid) if args.e0_grid else list(default_e0_grid(ref))
    certs = [min_omega(m, ref, e0, symmetric=args.symmetric) for e0 in grid]
    _emit(to_json({"certificates": [
        {"omega": c.omega, "e0": c.e0, "residual": c.residual} for c in certs
    ]}), args.out)
    return 0


def _cmd_simulate(args) -> int:
    gen = parse_generator(load_file(args.gen))
    rho = parse_density(load_file(args.state))
    ref = _reference(args.ref)
    times = _float_list(args.times)
    rows = [{"time": t, "energy": energy(ref, out), "trace": out.trace()}
            for t, out in zip(times, evolve_grid(gen, rho, times))]
    _emit(to_json({"rows": rows}), args.out)
    return 0


def _cmd_gaussian(args) -> int:
    gen = parse_gaussian_generator(load_file(args.gen))
    state = parse_gaussian_state(load_file(args.state))
    times = _float_list(args.times)
    cert = gaussian_stability(gen)
    e0 = state_energy(state)
    lines = ["time,energy,bound"]
    code = 0
    for t in times:
        e_t = state_energy(evolve_gaussian(gen, state, t))
        bound = cert.budget(e0, t)
        lines.append(",".join(format_float(v) for v in (t, e_t, bound)))
        if e_t > bound + 1e-7 * (1.0 + abs(bound)):
            code = 1
    _emit("\n".join(lines) + "\n", args.out)
    return code


def _cmd_birth(args) -> int:
    rates = _parse_rule(args.rule)
    tau, verdict = birth_tau(rates, args.cutoff)
    cert = birth_epsilons(rates, args.cutoff)
    report = {
        "rule": args.rule,
        "cutoff": args.cutoff,
        "tau_partial": tau,
        "verdict": verdict,
        "certificate": {
            "omega": cert.omega,
            "e0": cert.e0,
            "min_residual": min(cert.residuals),
        },
    }
    if args.times:
        rows = []
        for t in _float_list(args.times):
            rows.append({"time": t, "trace": birth_trace(rates, args.cutoff, t)})
        report["traces"] = rows
    _emit(to_json(report), args.out)
    return 0


def _cmd_rabi(args) -> int:
    model = rabi_hamiltonian(args.omega, args.g, args.nu, args.cutoff)
    cert = rabi_certificate(model, args.e0)
    analytic = abs(args.g)
    ok = cert.omega <= analytic * (1.0 + 1e-3) + 1e-12
    _emit(to_json({
        "omega_certified": cert.omega,
        "analytic_bound": analytic,
        "e0": cert.e0,
        "residual": cert.residual,
        "within_analytic": ok,
    }), args.out)
    return 0 if ok else 1


def _cmd_speedlimit(args) -> int:
    grid = np.linspace(0.0, args.tmax, args.steps)
    cfg = SpeedLimitConfig(
        n_qubits=args.qubits,
        scenario=args.scenario,
        time_grid=tuple(grid),
        seed=args.seed,
        first_order=args.first_order,
    )
    rows = speedlimit_run(cfg)
    lines = ["time,actualError,energyBound,uniformBound"]
    for r in rows:
        lines.append(",".join(format_float(v) for v in
                              (r.time, r.actual_error, r.energy_bound, r.uniform_bound)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_trotter(args) -> int:
    gen1 = parse_generator(load_file(args.gen1))
    gen2 = parse_generator(load_file(args.gen2))
    ref = _reference(args.ref)
    report = trotter_run(gen1, gen2, ref, args.energy, args.time,
                         _int_list(args.n), n_states=args.states,
                         seed=args.seed, restarts=args.restarts)
    _emit(to_json({
        "rows": [{"n": r.steps, "lhs": r.lhs_max, "rhs": r.rhs, "status": r.status}
                 for r in report.rows],
        "decay_exponent": report.decay_exponent,
    }), args.out)
    return 1 if report.any_failed else 0


def _cmd_group_qsl(args) -> int:
    spin = spin_system(args.qubits)
    rng = rng_from_seed(args.seed)
    psi = haar_state(spin.dim, rng)
    lhs, rhs = group_qsl(spin, _float_list(args.cx), _float_list(args.cy), psi)
    _emit(to_json({"lhs": lhs, "rhs": rhs, "ok": True}), args.out)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return run_selftest()


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no per-call state."""
    p = argparse.ArgumentParser(
        prog="eclim",
        description="Energy-constrained norms, energy-limitedness certificates, "
                    "and dynamical bounds at desk scale.",
    )
    p.add_argument("--version", action="version",
                   version=f"eclim {__version__} (interface {INTERFACE_VERSION})")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=fn)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    sp = add("eco-norm", _cmd_eco_norm, "energy-constrained operator norm")
    sp.add_argument("--op", required=True)
    sp.add_argument("--ref", required=True)
    sp.add_argument("--energy", type=float, required=True)

    sp = add("ecd-norm", _cmd_ecd_norm, "energy-constrained diamond norm")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--ref", required=True)
    sp.add_argument("--energy", type=float, required=True)
    sp.add_argument("--seesaw", action="store_true")
    sp.add_argument("--minus", default=None, help="cp part subtracted from --channel")
    sp.add_argument("--ancilla", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("output-energy", _cmd_output_energy, "maximal output energy f_T(E)")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--ref-in", dest="ref_in", required=True)
    sp.add_argument("--ref-out", dest="ref_out", required=True)
    sp.add_argument("--energy", type=float, default=None)
    sp.add_argument("--grid", default=None)

    sp = add("certify", _cmd_certify, "stability constants of a generator")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--ref", required=True)
    sp.add_argument("--e0-grid", dest="e0_grid", default=None)
    sp.add_argument("--symmetric", action="store_true",
                    help="certify both time directions (unitary case)")

    sp = add("simulate", _cmd_simulate, "evolve a state under a generator")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("--times", required=True)
    sp.add_argument("--ref", required=True)

    sp = add("gaussian", _cmd_gaussian, "Gaussian semigroup energies and bound")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("--times", required=True)

    sp = add("birth", _cmd_birth, "quantum birth process diagnostics")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--cutoff", type=int, required=True)
    sp.add_argument("--times", default=None)

    sp = add("rabi", _cmd_rabi, "truncated Rabi commutator certificate")
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--cutoff", type=int, required=True)
    sp.add_argument("--e0", type=float, default=2.0)

    sp = add("speedlimit", _cmd_speedlimit, "quantum speed limit comparison CSV")
    sp.add_argument("--scenario", choices=("left", "right"), required=True)
    sp.add_argument("--qubits", type=int, default=7)
    sp.add_argument("--tmax", type=float, default=0.6)
    sp.add_argument("--steps", type=int, default=60)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--first-order", dest="first_order", action="store_true")

    sp = add("trotter", _cmd_trotter, "Trotter error bound check")
    sp.add_argument("--gen1", required=True)
    sp.add_argument("--gen2", required=True)
    sp.add_argument("--ref", required=True)
    sp.add_argument("--energy", type=float, required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--states", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restarts", type=int, default=64)

    sp = add("group-qsl", _cmd_group_qsl, "Lie-group speed limit on spins")
    sp.add_argument("--qubits", type=int, default=7)
    sp.add_argument("--cx", required=True)
    sp.add_argument("--cy", required=True)
    sp.add_argument("--seed", type=int, default=0)

    add("selftest", _cmd_selftest, "run the built-in example suite")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BoundViolation as exc:
        sys.stderr.write(to_json({"code": "bound_violation", "message": str(exc)}) + "\n")
        return 1
    except RuntimeError as exc:
        # A solver that did not converge or a non-finite result: not the input's fault.
        sys.stderr.write(to_json({"code": "numerical_error", "message": str(exc)}) + "\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(to_json({"code": "input_error", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
