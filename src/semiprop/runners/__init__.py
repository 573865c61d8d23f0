"""One runner module per scenario, imported by ``semiprop.cli`` when a check runs.

A runner takes the checked parameters (a dict), the seed and ``hold(record,
floor)``, and only measures: it holds each floored record to the
``report.Floor`` it predicts before the work that floor bounds, and returns
``({record: value}, convergence rows or None, {csv stem: (header, rows)})``.
Runners import ``semiprop.report``, never ``semiprop.cli`` (``python -m
semiprop.cli`` would load it twice), and refuse only through ``_refuse``.
"""

import math
import sys

from ..report import _refuse

_LOG_MAX = math.log(sys.float_info.max)


def _refusing(params: dict, names: tuple, fn, *args):
    """fn(*args), refusing a ValueError it raises through ``_refuse``, naming ``names``."""
    try:
        return fn(*args)
    except ValueError as exc:
        _refuse(params, names, str(exc))
