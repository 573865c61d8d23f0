"""One runner module per scenario, imported by ``semiprop.cli`` when a check runs.

A runner takes the checked parameters and the seed and returns
``(records, convergence rows or None, {csv stem: (header, rows)})``.
Runner modules import what they share from ``semiprop.report``, never from
``semiprop.cli``: under ``python -m semiprop.cli`` that would run a second
copy of the CLI module.
"""

import math
import sys

# CSV payload: file stem -> (header, row iterable)
RunnerOutput = tuple

_LOG_MAX = math.log(sys.float_info.max)


def _roundoff(scale: float, terms: str) -> tuple[float, str]:
    """The residual round-off alone leaves where ``terms`` of size ``scale``
    cancel, machine epsilon times it, and that cause in words."""
    cause = "round-off alone where {} reach {:.3g}, machine epsilon times that,"
    return sys.float_info.epsilon * scale, cause.format(terms, scale)


def _refuse_predicted(error: float, cause: str, limit: float, params: dict, names: tuple) -> None:
    """Refuse a check that a correct computation could fail.

    ``error`` is what ``cause`` predicts a correct computation reads, and
    ``limit`` is what it must stay below: the check's tolerance, or a share
    of it.  The message names the parameters in ``names``, which set the
    error.  An error that is not finite is refused too.
    """
    if not error < limit:
        given = ", ".join("'{}' = {!r}".format(name, params[name]) for name in names)
        raise ValueError(
            "parameters {}: {} is about {:.3g}, not below {:g}".format(given, cause, error, limit)
        )
