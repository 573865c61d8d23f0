"""One runner module per scenario, imported by ``semiprop.cli`` when a check runs.

A runner takes the checked parameters (a ``report.RunParams``, which also
carries each record's declared tolerance) and the seed, and only measures:
it returns ``({record name: value}, convergence rows or None, {csv stem:
(header, rows)})``, and ``cli.run_scenario`` judges each declared record.
Runner modules import what they share from ``semiprop.report``, never from
``semiprop.cli``: under ``python -m semiprop.cli`` that would run a second
copy of the CLI module.  Every refusal a runner makes goes through ``_refuse``.
"""

import math
import sys
from typing import NoReturn

_LOG_MAX = math.log(sys.float_info.max)


def _refuse(params: dict, names: tuple, reason: str) -> NoReturn:
    """Raise ValueError("parameter 'x' = v: reason"), or "parameters 'x' = v,
    'y' = w: reason" when ``names`` holds several, each value from ``params``."""
    given = ", ".join("'{}' = {!r}".format(name, params[name]) for name in names)
    plural = "s" if len(names) > 1 else ""
    raise ValueError("parameter{} {}: {}".format(plural, given, reason)) from None


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
        _refuse(params, names, "{} is about {:.3g}, not below {:g}".format(cause, error, limit))
