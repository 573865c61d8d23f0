"""Machine-readable run reports: JSON check records and 17-digit CSV tables.

A report is a flat list of check records plus an optional convergence
table.  Records carry both the measured value and the tolerance it was
held against; diagnostic records are informational and never affect the
overall pass flag.  CSV output uses 17 significant digits so that reruns
of the same configuration diff clean.

A CSV table is a header and a sized sequence of sized rows.  A string
cell reads as itself, an integer cell (any ``numbers.Integral``, bools and
numpy integers included) ``%d``, and any other cell ``%.17g``, whether it
is a Python or a numpy scalar.  ``write_csv`` renders each row with one
``%`` string built from those directives.  Row builders hand over plain
Python cells (``ndarray.tolist``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

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
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "diagnostic": self.diagnostic,
            "detail": self.detail,
        }


@dataclass
class Report:
    scenario: str
    checks: list[CheckRecord] = field(default_factory=list)
    convergence: Optional[list[dict]] = None
    seed: int = 0
    runtime_seconds: float = 0.0
    version: str = __version__

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
        payload["version"] = self.version
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


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write ``header`` and one comma-separated line per row of ``rows``.

    ``rows`` is a sized sequence of sized rows (tuples or lists).  Each
    row is rendered by one ``%`` string, built from ``_cell_format`` once
    per type signature.
    """
    formats: dict = {}
    lines = [",".join(header)]
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(map(_cell_format, types))
        lines.append(fmt % tuple(row))
    path.write_text("\n".join(lines) + "\n")


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
