"""One runner module per scenario, imported by ``semiprop.cli`` when a check runs.

A runner takes the checked parameters, a plain dict, and the seed, and only
measures: it returns ``({record name: value}, convergence rows or None,
{csv stem: (header, rows)})``.  ``cli.run_scenario`` judges each declared
record, once it has refused a run where the ``report.Floor`` that a record's
``report.Measured`` carries reaches its declared share of the tolerance.
Runner modules import what they share from ``semiprop.report``, never from
``semiprop.cli``: under ``python -m semiprop.cli`` that would run a second
copy of the CLI module.  Every refusal a runner makes goes through
``report._refuse``.
"""

import math
import sys

_LOG_MAX = math.log(sys.float_info.max)
