"""JSON wire formats shared by every CLI subcommand.

Operator JSON: {"dim": d, "entries": [[re, im], ...]} with d*d entries
row-major; a non-Hermitian one may give "rows" and "cols" for "dim".
Channel JSON: {"dim_in": d, "dim_out": e, "kraus": [<op>, ...]}.
Generator JSON: {"dim": d, "hamiltonian": <op|null>, "k": <op|null>,
"lindblad": [<op>, ...]} with exactly one of hamiltonian/k present.
Gaussian JSON: {"modes": n, "xdot": [[..]], "ydot": [[..]]} and states
{"modes": n, "gamma": [[..]], "beta": [..]}, beta required.  The count
fields dim, dim_in, dim_out and modes are positive JSON integers, and the
declared dimensions must match the operators.  Each reader checks the JSON
structure and the counts; the record it builds checks every value, and its
error becomes an InputError named after the object.  Readers reject NaN/Inf
and wrong lengths; all emitted numbers carry 17 significant digits.
"""

from __future__ import annotations

import json
import math
import sys

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


def _count(value, name: str) -> int:
    """A count field (dim, dim_in, dim_out, modes): a positive JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{name} must be a positive integer")
    return value


def _record(what: str, record, *args):
    """Build record(*args); its ValueError, TypeError or OverflowError becomes an
    InputError prefixed by ``what``.  The arguments' own InputErrors come first."""
    try:
        return record(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def parse_matrix(data, what: str = "operator") -> np.ndarray:
    keys = data.keys() if isinstance(data, dict) else set()
    if "entries" not in keys or ("dim" in keys) == ({"rows", "cols"} <= keys):
        raise InputError(f"{what} JSON needs 'entries' and either 'dim' or 'rows' and 'cols'")
    if "dim" in keys:
        rows = cols = _count(data["dim"], f"{what} dimension")
        size = "dim^2"
    else:
        rows, cols = _count(data["rows"], f"{what} rows"), _count(data["cols"], f"{what} cols")
        size = "rows*cols"
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InputError(f"{what} needs exactly {size} = {rows * cols} entries")
    out = np.empty((rows, cols), dtype=complex)
    # Decoded JSON with only finite numbers converts in one step; anything
    # else goes through the entry loop, which names the offending entry.
    try:
        arr = np.array(entries)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if (arr is not None and arr.dtype.kind in "biuf" and arr.shape == (rows * cols, 2)
            and np.all(np.isfinite(arr))):
        out.real = arr[:, 0].reshape(rows, cols)
        out.imag = arr[:, 1].reshape(rows, cols)
        return out
    for idx, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{what} entry {idx} must be a [re, im] pair")
        re, im = pair
        # Also false for an integer too large for a float.
        if not all(isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
                   for v in (re, im)):
            raise InputError(f"{what} entry {idx} must be finite numbers")
        out[idx // cols, idx % cols] = complex(re, im)
    return out


def parse_hermitian(data, what: str = "operator") -> HermitianMatrix:
    if not isinstance(data, dict) or "dim" not in data:  # Hermitian operators are square
        raise InputError(f"{what} JSON needs 'dim' and 'entries'")
    return _record(what, HermitianMatrix, parse_matrix(data, what))


def parse_density(data) -> DensityState:
    return _record("state", DensityState, parse_hermitian(data, "state"))


def parse_channel(data) -> KrausChannel:
    if not isinstance(data, dict) or not {"dim_in", "dim_out", "kraus"} <= data.keys():
        raise InputError("channel JSON needs 'dim_in', 'dim_out', and 'kraus'")
    shape = (_count(data["dim_out"], "channel dim_out"),
             _count(data["dim_in"], "channel dim_in"))
    if not isinstance(data["kraus"], list):
        raise InputError("channel 'kraus' must be a list of operators")
    chan = _record("channel", KrausChannel,
                   tuple(parse_matrix(op, "kraus operator") for op in data["kraus"]))
    if (chan.dim_out, chan.dim_in) != shape:
        raise InputError(f"kraus operator shape {(chan.dim_out, chan.dim_in)} does not "
                         f"match (dim_out, dim_in) = {shape}")
    return chan


def parse_generator(data) -> LindbladGenerator:
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError("generator JSON needs 'dim'")
    dim = _count(data["dim"], "generator dimension")
    ham, kop, ops = data.get("hamiltonian"), data.get("k"), data.get("lindblad", [])
    if (ham is None) == (kop is None):
        raise InputError("exactly one of 'hamiltonian' or 'k' must be present")
    if not isinstance(ops, list):
        raise InputError("generator 'lindblad' must be a list of operators")
    lindblad = tuple(parse_matrix(op, "lindblad operator") for op in ops)
    if any(op.shape != (dim, dim) for op in lindblad):
        raise InputError("lindblad operators must be dim x dim")
    # Dimensions are compared before the record checks dissipativity.
    if ham is not None:
        h = parse_hermitian(ham, "hamiltonian")
        if h.dim != dim:
            raise InputError("generator: hamiltonian dimension mismatch")
        return _record("generator", LindbladGenerator.from_hamiltonian, h, lindblad)
    k = parse_matrix(kop, "k")
    if k.shape != (dim, dim):
        raise InputError("generator: k dimension mismatch")
    return _record("generator", LindbladGenerator, k, lindblad)


def parse_gaussian_generator(data) -> GaussianGenerator:
    if not isinstance(data, dict) or not {"modes", "xdot", "ydot"} <= data.keys():
        raise InputError("gaussian generator JSON needs 'modes', 'xdot', 'ydot'")
    for forbidden in ("alpha", "drift", "displacement"):
        if forbidden in data:
            raise InputError("generators with linear drift are not supported")
    return _record("gaussian generator", GaussianGenerator,
                   _count(data["modes"], "gaussian generator modes"),
                   data["xdot"], data["ydot"])


def parse_gaussian_state(data) -> GaussianState:
    if not isinstance(data, dict) or not {"modes", "gamma", "beta"} <= data.keys():
        raise InputError("gaussian state JSON needs 'modes', 'gamma', 'beta'")
    return _record("gaussian state", GaussianState,
                   _count(data["modes"], "gaussian state modes"),
                   data["gamma"], data["beta"])
