"""Machine-readable run reports: JSON check records and 17-digit CSV tables.

A report is a flat list of check records plus an optional convergence
table.  Records carry both the measured value and the tolerance it was
held against; diagnostic records are informational and never affect the
overall pass flag.  CSV output uses 17 significant digits so that reruns
of the same configuration diff clean.

A CSV table is a header and a sized, re-iterable collection of sized
rows.  A string cell reads as itself, an integer cell (any
``numbers.Integral``, bools and numpy integers included) ``%d``, and any
other cell ``%.17g``, whether it is a Python or a numpy scalar.
``write_csv`` renders each row with one ``%`` string built from those
directives and streams the lines to the file.  Row builders hand over a
``_CsvRows`` view of their numpy columns, which yields rows of plain
Python cells (``ndarray.tolist``) a block at a time, so no table is ever
held whole as Python objects.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from . import __version__
from .core import observed_orders

__all__ = [
    "CheckRecord",
    "Report",
    "build_convergence_rows",
    "write_csv",
]

# below this a residual sequence is roundoff, not discretization error
PLATEAU_FLOOR = 1e-12

# rows a _CsvRows view converts to Python cells at a time
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class CheckRecord:
    """One measured value held against one tolerance.

    ``detail`` states the comparison in words (most checks are
    value <= tolerance; probes like positivity say so here).
    Diagnostic records report a value with no pass semantics.
    """

    name: str
    value: float
    tolerance: Optional[float]
    passed: bool
    diagnostic: bool = False
    detail: str = ""

    def as_dict(self) -> dict:
        keys = ("name", "value", "tolerance", "pass", "diagnostic", "detail")
        return dict(zip(keys, astuple(self)))


@dataclass
class Report:
    scenario: str
    checks: list[CheckRecord] = field(default_factory=list)
    convergence: Optional[list[dict]] = None
    seed: int = 0
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        gating = [c.passed for c in self.checks if not c.diagnostic]
        return bool(gating) and all(gating)

    def as_dict(self) -> dict:
        payload = {
            "scenario": self.scenario,
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.convergence is not None:
            payload["convergence"] = self.convergence
        payload["seed"] = self.seed
        payload["runtime_seconds"] = self.runtime_seconds
        payload["version"] = __version__
        payload["pass"] = self.passed
        return payload

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")


def _cell_format(kind: type) -> str:
    """The % directive of a CSV cell of this type."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, numbers.Integral):
        return "%d"
    return "%.17g"


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and one comma-separated line per row of ``rows``.

    ``rows`` yields sized rows (tuples or lists).  Each row is rendered by
    one ``%`` string, built from ``_cell_format`` once per type signature,
    and written as it is rendered.
    """
    formats: dict = {}

    def lines():
        for row in rows:
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = formats[types] = ",".join(map(_cell_format, types)) + "\n"
            yield fmt % tuple(row)

    with open(path, "w") as out:
        out.write(",".join(header) + "\n")
        out.writelines(lines())


def build_convergence_rows(
    hs: Sequence[float], residuals: Sequence[float]
) -> list[dict]:
    """Rows (h, residual, observed_order) from a refinement sequence.

    The order entry is the exponent fitted between consecutive rows; the
    first row has none, and rows at the roundoff plateau (either residual
    below PLATEAU_FLOOR) are marked not applicable rather than fitted.
    """
    hs = [float(h) for h in hs]
    residuals = [float(r) for r in residuals]
    if len(hs) != len(residuals):
        raise ValueError("need one residual per refinement level")
    if len(hs) < 3:
        raise ValueError(
            "need at least 3 refinement levels, got {}".format(len(hs))
        )
    if any(h <= 0 for h in hs):
        raise ValueError("refinement levels must be positive")
    rows = [{"h": hs[0], "residual": residuals[0], "observed_order": None}]
    for i in range(1, len(hs)):
        if min(residuals[i], residuals[i - 1]) <= PLATEAU_FLOOR:
            order = None
        else:
            (order,) = observed_orders(hs[i - 1 : i + 1], residuals[i - 1 : i + 1])
        rows.append({"h": hs[i], "residual": residuals[i], "observed_order": order})
    return rows


# ------------------------------------------------- declared records and the judge

AT_MOST, ABOVE, NEAR, DIAGNOSTIC = "at most", "above", "near", "diagnostic"


class Declared(NamedTuple):
    """One record a check emits: its name, its rule, and the tolerance literal.

    A ``family`` limits the declaration to runs of that family.  A ``scaled``
    tolerance is multiplied by max(1, |magnitude|), for the magnitude the
    runner returns with its value.  The run is refused where the ``Floor``
    it returns is not below the ``floor`` share of the tolerance.
    """

    name: str
    rule: str
    tolerance: Optional[float]
    detail: str
    target: float = 0.0
    family: Optional[str] = None
    scaled: bool = False
    floor: Optional[float] = None


def at_most(
    name: str, tolerance: float, scaled: bool = False, floor: Optional[float] = None
) -> Declared:
    """Pass iff value <= tolerance; a NaN value fails."""
    detail = "pass iff value <= tolerance"
    return Declared(name, AT_MOST, tolerance, detail, scaled=scaled, floor=floor)


def above(name: str, tolerance: float, detail: str, family: Optional[str] = None) -> Declared:
    """Pass iff value is finite and above tolerance; NaN and inf fail."""
    return Declared(name, ABOVE, tolerance, detail, family=family)


def near(name: str, target: float, tolerance: float, detail: str = "") -> Declared:
    """Pass iff |value - target| <= tolerance; a NaN value fails."""
    detail = detail or "pass iff |value - {:g}| <= tolerance".format(target)
    return Declared(name, NEAR, tolerance, detail, target)


def diagnostic(name: str, detail: str, family: Optional[str] = None) -> Declared:
    """A recorded value with no pass semantics."""
    return Declared(name, DIAGNOSTIC, None, detail, family=family)


class Floor(NamedTuple):
    """The ``error`` a correct computation is predicted to read, its ``cause``
    in words, and the ``names`` of the parameters that set it."""

    error: float
    cause: str
    names: tuple


def roundoff(scale: float, terms: str, names: tuple) -> Floor:
    """The floor round-off alone leaves where ``terms`` of size ``scale``
    cancel: machine epsilon times it."""
    cause = "round-off alone where {} reach {:.3g}, machine epsilon times that,"
    return Floor(sys.float_info.epsilon * scale, cause.format(terms, scale), names)


class Measured(NamedTuple):
    """A runner's value together with what only its run knows: a ``detail``
    that replaces the declared one, the ``magnitude`` of a scaled tolerance,
    and the ``Floor`` of a record that declares one."""

    value: float
    detail: str = ""
    magnitude: float = 1.0
    floor: Optional[Floor] = None


def _refuse(params: dict, names: tuple, reason: str) -> NoReturn:
    """Raise ValueError("parameter 'x' = v: reason"), or "parameters 'x' = v,
    'y' = w: reason" when ``names`` holds several, each value from ``params``."""
    given = ", ".join("'{}' = {!r}".format(name, params[name]) for name in names)
    plural = "s" if len(names) > 1 else ""
    raise ValueError("parameter{} {}: {}".format(plural, given, reason)) from None


def judge(declared: Declared, measured) -> CheckRecord:
    """The record of ``declared`` on ``measured``, a value or a ``Measured``."""
    value, detail, magnitude, _ = measured if isinstance(measured, Measured) else Measured(measured)
    value, detail = float(value), detail or declared.detail
    if declared.rule == DIAGNOSTIC:
        return CheckRecord(declared.name, value, None, True, diagnostic=True, detail=detail)
    tolerance = declared.tolerance * (max(1.0, abs(magnitude)) if declared.scaled else 1.0)
    if declared.rule == AT_MOST:
        passed = value <= tolerance
    elif declared.rule == ABOVE:
        passed = math.isfinite(value) and value > tolerance
    else:
        passed = abs(value - declared.target) <= tolerance
    return CheckRecord(declared.name, value, tolerance, passed, detail=detail)


def last_order(rows: list[dict]) -> float:
    """The last observed order of a convergence table; NaN if it fits none."""
    fitted = [r["observed_order"] for r in rows if r["observed_order"] is not None]
    return fitted[-1] if fitted else math.nan


class _CsvRows:
    """CSV rows of equal-length columns, every cell a plain Python scalar.

    A sized, re-iterable view that ``write_csv`` streams: each pass converts
    ``_CSV_BLOCK_ROWS`` rows at a time, so a pass holds one block of Python
    cells, not the whole table.
    """

    __slots__ = ("_columns",)

    def __init__(self, *columns: np.ndarray):
        if len({len(column) for column in columns}) != 1:
            raise ValueError("CSV rows need one or more columns of one length")
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        for lo in range(0, len(self), _CSV_BLOCK_ROWS):
            block = [column[lo : lo + _CSV_BLOCK_ROWS].tolist() for column in self._columns]
            yield from zip(*block)
