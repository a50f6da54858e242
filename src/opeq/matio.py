"""Matrix file format and run reports.

Matrices travel as JSON documents {rows, cols, data} with data a row-major
list of [re, im] pairs. Documents are written by the standard json
module, whose floats are Python's shortest round-trip repr (-0.0 stays
-0.0 and 2.0 stays a float), so emit followed by parse is the identity on
entries, bit for bit. A matrix file is one line. A report is indented by
two spaces, except that a solution's data is one line. The one-line forms
go through json's C encoder, which json.dumps uses only when no indent is
set. Reports are built deterministically, which keeps sweep output
byte-identical for a fixed seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .linalg import InputError

OUTCOMES = ("solved", "unsolvable", "error")

# Stands in for a solution's data in a report's indented text. json writes
# the NUL as \u0000, and no other string of a report that carries a
# solution holds one, so the placeholder's text occurs once.
_DATA_SLOT = "\x00data"


class MatrixFileError(InputError):
    """Malformed or invalid matrix document."""


def matrix_to_doc(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise MatrixFileError("matrix must be 2-D")
    rows, cols = a.shape
    data = np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(rows), "cols": int(cols), "data": data}


def _require(cond: bool, locus: str, msg: str) -> None:
    if not cond:
        raise MatrixFileError(f"{locus}: {msg}")


def _as_number(v, k: int, part: int) -> float:
    """Part `part` of entry k as a finite float; the locus data[k][part] is
    formatted only when a check fails."""
    # bool is an int subclass; reject it explicitly
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise MatrixFileError(f"data[{k}][{part}]: expected a number")
    try:
        f = float(v)
    except OverflowError:
        # an integer literal past the largest double
        raise MatrixFileError(f"data[{k}][{part}]: value overflows the floating-point range") from None
    if not math.isfinite(f):
        raise MatrixFileError(f"data[{k}][{part}]: value must be finite")
    return f


def _entry(pair, k: int) -> complex:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise MatrixFileError(f"data[{k}]: expected a [re, im] pair")
    return complex(_as_number(pair[0], k, 0), _as_number(pair[1], k, 1))


def parse_matrix_doc(doc) -> np.ndarray:
    _require(isinstance(doc, dict), "document", "expected a JSON object")
    for key in ("rows", "cols", "data"):
        _require(key in doc, "document", f"missing field {key!r}")
    rows, cols = doc["rows"], doc["cols"]
    for name, v in (("rows", rows), ("cols", cols)):
        _require(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1,
            name,
            "expected a positive integer",
        )
    data = doc["data"]
    _require(isinstance(data, list), "data", "expected a list")
    _require(len(data) == rows * cols, "data", f"expected {rows * cols} entries, got {len(data)}")
    pairs = _finite_pairs(data, rows * cols)
    if pairs is not None:
        return pairs.view(np.complex128).reshape(rows, cols)
    # the entrywise reference: it reads every other document, and it finds
    # the first bad entry of a refused one and names its locus
    entries = [_entry(pair, k) for k, pair in enumerate(data)]
    return np.array(entries, dtype=np.complex128).reshape(rows, cols)


def _finite_pairs(data: list, count: int) -> np.ndarray | None:
    """data as a (count, 2) float64 array when it is count [re, im] pairs of
    finite int or float numbers, else None. numpy converts an int entry as
    float() does, so every entry has the bits the entrywise loop gives it."""
    try:
        a = np.array(data)
    except ValueError:
        # ragged or too deeply nested
        return None
    if not (
        a.dtype == np.float64
        and a.shape == (count, 2)
        # bool is an int subclass that numpy reads as 0.0 or 1.0
        and set(map(type, itertools.chain.from_iterable(data))) <= {float, int}
        and np.isfinite(a).all()
    ):
        return None
    return a


def parse_matrix_text(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"document: not valid JSON ({exc})") from None
    except ValueError as exc:
        # an integer literal longer than the interpreter converts
        raise MatrixFileError(f"document: number out of range ({exc})") from None
    except RecursionError:
        raise MatrixFileError("document: nested too deeply") from None
    return parse_matrix_doc(doc)


def load_matrix(path: str) -> tuple[np.ndarray, str]:
    """The matrix in the file at `path` and the digest of its text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse_matrix_text(text), digest_text(text)
    except MatrixFileError as exc:
        raise MatrixFileError(f"{path}: {exc}") from None


def emit_json(value) -> str:
    """Serialize to JSON indented by two spaces; a non-finite float or a
    value json cannot encode is refused. Key order is preserved, so
    documents built deterministically emit byte-identical text. An indent
    sends json.dumps to its pure-Python encoder, so bulk data goes through
    :func:`_emit_line` instead."""
    try:
        return json.dumps(value, indent=2, allow_nan=False)
    except (ValueError, TypeError) as exc:
        raise MatrixFileError(f"cannot serialize: {exc}") from None


def _emit_line(value) -> str:
    """Serialize to one line of JSON through json's C encoder. A value it
    refuses is refused by :func:`emit_json`, so the message is the one the
    indented form gives (the C encoder's omits the offending value)."""
    try:
        return json.dumps(value, allow_nan=False)
    except (ValueError, TypeError):
        emit_json(value)
        raise


def emit_matrix(m: np.ndarray) -> str:
    """A matrix file's text: its document on one line."""
    return _emit_line(matrix_to_doc(m)) + "\n"


def save_matrix(path: str, m: np.ndarray) -> None:
    text = emit_matrix(m)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MatrixFileError(f"{path}: {exc.strerror or exc}") from None


def digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunReport:
    """Machine-readable outcome of one command invocation."""

    command: str
    outcome: str
    inputs: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    conditions: list = field(default_factory=list)
    solution: np.ndarray | None = None
    seed: int | None = None
    detail: dict = field(default_factory=dict)
    tool_version: str = __version__

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise InputError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")
        if self.outcome == "solved" and self.command.startswith("solve") and self.solution is None:
            raise InputError("a solved solve-command report needs a solution")

    def to_doc(self) -> dict:
        doc = {
            "command": self.command,
            "inputs": dict(self.inputs),
            "outcome": self.outcome,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "conditions": [
                {
                    "name": c.name,
                    "holds": bool(c.holds),
                    "witness": float(c.witness),
                    "bound": float(c.bound),
                    "detail": c.detail,
                }
                for c in self.conditions
            ],
            "solution": None if self.solution is None else matrix_to_doc(self.solution),
            "seed": self.seed,
            "tool_version": self.tool_version,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc

    def emit(self) -> str:
        """The report indented by :func:`emit_json`, with a solution's data
        on one line: it is encoded alone and written where a placeholder
        sat in the indented text."""
        doc = self.to_doc()
        solution = doc["solution"]
        if solution is None:
            return emit_json(doc) + "\n"
        data = solution["data"]
        solution["data"] = _DATA_SLOT
        head, _, tail = emit_json(doc).partition(json.dumps(_DATA_SLOT))
        return head + _emit_line(data) + tail + "\n"
