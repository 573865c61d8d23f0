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


def _refuse_below_roundoff(
    scale: float, tolerance: float, params: dict, names: tuple, terms: str
) -> None:
    """Refuse a check that round-off alone could fail.

    ``scale`` is the size of the terms that cancel in a residual held to
    the absolute ``tolerance``; evaluating a correct closed form leaves
    about machine epsilon times it.  The message names the parameters in
    ``names``, which set the scale, and states that floor.  A scale that is
    not finite is refused too.
    """
    floor = sys.float_info.epsilon * scale
    if not floor < tolerance:
        given = ", ".join("'{}' = {!r}".format(name, params[name]) for name in names)
        raise ValueError(
            "parameters {}: the {} reach {:.3g}, so round-off alone leaves a residual "
            "of about {:.3g} (machine epsilon times that), not below the tolerance "
            "{:g}".format(given, terms, scale, floor, tolerance)
        )
