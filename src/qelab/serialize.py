"""JSON wire formats: matrices, states, ciphertexts, experiment results.

Matrices serialize row-major with [re, im] pairs per entry.  Tags are
bitstrings packed into base64 alongside their bit length.  Result
documents are versioned and rendered canonically (sorted keys, fixed
indentation) so identical runs produce byte-identical files.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math

import numpy as np

from .errors import LayoutError, MalformedKeyError
from .quantum import DensityMatrix
from .rng import is_bitstring
from .schemes import Ciphertext

SCHEMA_VERSION = 1


def matrix_to_json(mat: np.ndarray) -> list:
    # Adding 0.0 turns -0.0 into 0.0, so equal matrices give equal bytes.
    mat = np.asarray(mat, dtype=np.complex128)
    return [[[float(v.real) + 0.0, float(v.imag) + 0.0] for v in row] for row in mat]


def _field(data, key: str, kind: type, error: type):
    """`data[key]` of a blob from outside; `error` unless it is a `kind`."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind):
        raise error(f"field {key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def matrix_from_json(data: list) -> np.ndarray:
    """The square matrix `matrix_to_json` writes; anything else is a `LayoutError`."""
    if not isinstance(data, list) or any(
        not isinstance(row, list) or len(row) != len(data) for row in data
    ):
        raise LayoutError("matrix must be a square list of rows")
    for row in data:
        for entry in row:
            if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry))):
                raise LayoutError(f"matrix entry {entry!r} is not a finite [re, im] pair")
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in data],
        dtype=np.complex128,
    )


def state_to_json(state: DensityMatrix) -> dict:
    return {
        "layout": [[r.name, r.qubits] for r in state.layout],
        "matrix": matrix_to_json(state.to_float().mat),
    }


def state_from_json(data: dict) -> DensityMatrix:
    matrix = matrix_from_json(_field(data, "matrix", list, LayoutError))
    layout = _field(data, "layout", list, LayoutError)
    for reg in layout:
        if not (isinstance(reg, list) and len(reg) == 2 and isinstance(reg[0], str)
                and isinstance(reg[1], int) and not isinstance(reg[1], bool)):
            raise LayoutError(f"layout entry {reg!r} is not a [name, qubits] pair")
    return DensityMatrix(matrix, layout)


def bits_to_base64(bits: str) -> str:
    if not is_bitstring(bits):
        raise MalformedKeyError(f"expected a 0/1 string, got {bits!r}")
    padded = bits + "0" * (-len(bits) % 8)
    raw = bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))
    return base64.b64encode(raw).decode("ascii")


def base64_to_bits(data: str, length: int) -> str:
    """The `length` bits packed into `data`; refuses what `bits_to_base64` never writes."""
    if not isinstance(length, int) or isinstance(length, bool) or length < 0:
        raise MalformedKeyError(f"tag length must be a non-negative integer, got {length!r}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:
        raise MalformedKeyError(f"encoded tag is not base64: {data!r}") from exc
    if len(raw) != -(-length // 8):
        raise MalformedKeyError(f"encoded tag holds {len(raw)} bytes, not {length} bits")
    bits = "".join(format(byte, "08b") for byte in raw)
    if "1" in bits[length:]:
        raise MalformedKeyError("encoded tag has nonzero padding bits")
    return bits[:length]


def ciphertext_to_json(ct: Ciphertext) -> dict:
    return {
        "tag_b64": bits_to_base64(ct.tag),
        "tag_len": len(ct.tag),
        "payload": state_to_json(ct.payload),
    }


def ciphertext_from_json(data: dict, cls: type = Ciphertext) -> Ciphertext:
    """A ciphertext of class `cls` (the scheme's, such as `type(ct)`) from its blob."""
    tag = base64_to_bits(
        _field(data, "tag_b64", str, MalformedKeyError),
        _field(data, "tag_len", int, MalformedKeyError),
    )
    return cls(tag, state_from_json(_field(data, "payload", dict, MalformedKeyError)))


# ---------------------------------------------------------------------------
# Experiment result documents
# ---------------------------------------------------------------------------


def result_document(command: str, config: dict, results: list, passed: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "pass": bool(passed),
    }


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def results_to_csv(document: dict) -> str:
    """Flat CSV mirror of the result rows (scalars only; JSON stays primary)."""
    rows = []
    for result in document.get("results", []):
        row = {"command": document["command"]}
        for key, value in sorted(result.items()):
            if isinstance(value, (str, int, float, bool)) or value is None:
                row[key] = value
        rows.append(row)
    if not rows:
        return ""
    fields = sorted({k for row in rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
