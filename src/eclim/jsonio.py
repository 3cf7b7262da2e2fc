"""JSON wire formats shared by every CLI subcommand.

Operator JSON: {"dim": d, "entries": [[re, im], ...]} with d*d entries
row-major.  Channel JSON: {"dim_in": d, "dim_out": e, "kraus": [<op>, ...]}.
Generator JSON: {"dim": d, "hamiltonian": <op|null>, "k": <op|null>,
"lindblad": [<op>, ...]} with exactly one of hamiltonian/k present.
Gaussian JSON: {"modes": n, "xdot": [[..]], "ydot": [[..]]} and states
{"modes": n, "gamma": [[..]], "beta": [..]}.  Readers reject NaN/Inf and
wrong lengths; all emitted numbers carry 17 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .channels import KrausChannel
from .gaussian import GaussianGenerator, GaussianState
from .lindblad import LindbladGenerator
from .opcore import DensityState, HermitianMatrix


class InputError(ValueError):
    """Malformed or inconsistent input; maps to exit code 2."""


def format_float(x) -> str:
    """Round-trippable decimal rendering (17 significant digits)."""
    v = float(x)
    if not math.isfinite(v):
        raise RuntimeError("cannot emit a non-finite number")  # exit code 3
    return format(v, ".17g")


def to_json(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    return json.dumps(obj)


def load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def parse_matrix(data, what: str = "operator") -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise InputError(f"{what} JSON needs 'dim' and 'entries'")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"{what} dimension must be a positive integer")
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise InputError(f"{what} needs exactly dim^2 = {dim * dim} entries")
    out = np.empty((dim, dim), dtype=complex)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{what} entry {idx} must be a [re, im] pair")
        re, im = pair
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (re, im)):
            raise InputError(f"{what} entry {idx} must be finite numbers")
        out[idx // dim, idx % dim] = complex(re, im)
    return out


def matrix_to_json(m) -> dict:
    a = m.entries if hasattr(m, "entries") else np.asarray(m, dtype=complex)
    dim = a.shape[0]
    entries = [[float(a[i, j].real), float(a[i, j].imag)]
               for i in range(dim) for j in range(dim)]
    return {"dim": dim, "entries": entries}


def parse_hermitian(data, what: str = "operator") -> HermitianMatrix:
    try:
        return HermitianMatrix(parse_matrix(data, what))
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from exc


def parse_density(data) -> DensityState:
    try:
        return DensityState(parse_hermitian(data, "state"))
    except ValueError as exc:
        raise InputError(f"state: {exc}") from exc


def parse_channel(data) -> KrausChannel:
    if not isinstance(data, dict) or "kraus" not in data:
        raise InputError("channel JSON needs 'dim_in', 'dim_out', and 'kraus'")
    dim_in, dim_out = data.get("dim_in"), data.get("dim_out")
    ops = [parse_matrix(op, "kraus operator") for op in data["kraus"]]
    if not ops:
        raise InputError("channel needs at least one Kraus operator")
    for op in ops:
        if op.shape != (dim_out, dim_in):
            raise InputError(
                f"kraus operator shape {op.shape} does not match "
                f"(dim_out, dim_in) = ({dim_out}, {dim_in})"
            )
    try:
        return KrausChannel(tuple(ops))
    except ValueError as exc:
        raise InputError(f"channel: {exc}") from exc


def parse_generator(data) -> LindbladGenerator:
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError("generator JSON needs 'dim'")
    ham = data.get("hamiltonian")
    kop = data.get("k")
    if (ham is None) == (kop is None):
        raise InputError("exactly one of 'hamiltonian' or 'k' must be present")
    lindblad = tuple(parse_matrix(op, "lindblad operator")
                     for op in data.get("lindblad", []))
    dim = data["dim"]
    for op in lindblad:
        if op.shape != (dim, dim):
            raise InputError("lindblad operators must be dim x dim")
    try:
        if ham is not None:
            h = parse_hermitian(ham, "hamiltonian")
            if h.dim != dim:
                raise InputError("hamiltonian dimension mismatch")
            return LindbladGenerator.from_hamiltonian(h, lindblad)
        k = parse_matrix(kop, "k")
        if k.shape != (dim, dim):
            raise InputError("k dimension mismatch")
        return LindbladGenerator(k, lindblad)
    except ValueError as exc:
        raise InputError(f"generator: {exc}") from exc


def _real_matrix(data, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be a finite real matrix")
    return arr


def parse_gaussian_generator(data) -> GaussianGenerator:
    if not isinstance(data, dict) or "modes" not in data:
        raise InputError("gaussian generator JSON needs 'modes', 'xdot', 'ydot'")
    for forbidden in ("alpha", "drift", "displacement"):
        if forbidden in data:
            raise InputError("generators with linear drift are not supported")
    try:
        return GaussianGenerator(int(data["modes"]),
                                 _real_matrix(data["xdot"], "xdot"),
                                 _real_matrix(data["ydot"], "ydot"))
    except ValueError as exc:
        raise InputError(f"gaussian generator: {exc}") from exc


def parse_gaussian_state(data) -> GaussianState:
    if not isinstance(data, dict) or "modes" not in data:
        raise InputError("gaussian state JSON needs 'modes', 'gamma', 'beta'")
    beta = np.asarray(data.get("beta"), dtype=float).reshape(-1)
    if not np.all(np.isfinite(beta)):
        raise InputError("beta must be finite")
    try:
        return GaussianState(int(data["modes"]),
                             _real_matrix(data["gamma"], "gamma"), beta)
    except ValueError as exc:
        raise InputError(f"gaussian state: {exc}") from exc
