"""Command-line front end: run one named check and write machine reports.

Grammar:

    semiprop <scenario> <check> [--param value]... [--config path]
             [--out dir] [--seed n] [--sweep path]

Each ``CHECKS`` entry declares every parameter once (default, kind, lower
edge); flags, ``--config`` files and ``--sweep`` lines all pass through it.
Every run writes ``report.json`` (stable key order) into the output
directory, plus CSV tables where the check produces field or trajectory
data.  Exit status is 0 iff every non-diagnostic record passes, 1 if one
fails, 2 on a usage or parameter error.  A ``--sweep`` file lists one
parameter set per line; the sets run one after another, each into its
own subdirectory, and a parameter error fails its own set only.

The runners live in ``semiprop.runners``, one module per scenario, and a
check imports its scenario's module when it first runs: this module loads
no scenario module itself, so a process pays only for the scenarios it
runs.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .report import Declared, Report, _refuse, above, at_most, diagnostic, judge, near, write_csv


# ------------------------------------------------------------- registry


# Each check declares every parameter once, as name: (default, kind, edge).
#   kind  float (a finite real), int (an integer, not a bool), bool, a tuple
#         of the allowed text choices, or [kind] for a list of that kind;
#   edge  None, POSITIVE (greater than 0) or an integer the value must
#         reach; on a list, every element meets it.
# A rule that a library constructor already checks, or one that couples
# parameters, stays with the constructor or the runner.  So that importing
# this module loads no scenario module, the second item of an entry names
# its runner in semiprop.runners.<scenario>, imported when the check first
# runs, and the text choices are literals (a test holds them equal to the
# library's constants).  The last item declares, in order, every record the
# check emits, with its rule, its tolerance literal and, where a correct run
# can read near it, the share of it below which the runner's predicted error
# must stay; the runner only measures.
POSITIVE = "positive"


def _reals(**defaults: float) -> dict:
    """Declarations of finite reals with no edge."""
    return {name: (default, float, None) for name, default in defaults.items()}


_FAMILY = {"family": ("free", ("free", "harmonic"), None), **_reals(mass=1.0, omega=1.0)}
_QUADRATIC = {**_FAMILY, **_reals(x0=0.0)}
_DIMS = ([4, 4], [int], 2)
_LATTICE = {"dims": _DIMS, **_reals(mass=1.0, spacing=1.0)}

CHECKS: dict[tuple[str, str], tuple[dict, str, tuple[Declared, ...]]] = {
    ("quadratic", "hj"): (
        _QUADRATIC, "_run_quadratic_hj",
        (at_most("hamilton-jacobi", 1e-8, floor=1), at_most("consistency", 1e-8)),
    ),
    ("quadratic", "van-vleck"): (
        _FAMILY, "_run_quadratic_van_vleck", (at_most("van-vleck-deviation", 1e-6),)
    ),
    ("quadratic", "prefactor-ode"): (
        {"family": ("driven", ("free", "harmonic", "driven"), None), **_reals(step=1e-4)},
        "_run_quadratic_prefactor",
        (at_most("closed-form-deviation", 1e-8), near("observed-order", 4.0, 0.5)),
    ),
    ("quadratic", "schrodinger-order"): (
        _QUADRATIC, "_run_quadratic_schrodinger", (near("stencil-order", 2.0, 0.3),)
    ),
    ("general-hj", "decoupling"): (
        _reals(c2=1.0, c3=0.0, c4=0.0, hbar=1.0, mass=1.0), "_run_general_decoupling",
        (at_most("decoupling-residual", 1e-8, floor=0.25),),
    ),
    ("general-hj", "exponential"): (
        _reals(amplitude=1.0, slope=1.0, hbar=1.0, mass=1.0), "_run_general_exponential",
        (at_most("hamilton-jacobi", 1e-10, floor=1),
         at_most("decoupling-residual", 1e-12, floor=1)),
    ),
    ("general-hj", "hbar-slope"): (
        {"hbars": ([0.5, 1.0, 2.0], [float], None), **_reals(curvature=0.25, mass=1.0)},
        "_run_general_hbar_slope",
        (near("imaginary-slope", 1.0, 0.01),),
    ),
    ("oracle", "kernel-vs-grid"): (
        {
            "family": ("free", ("free", "harmonic"), None),
            "n_x": (512, int, None),
            "dt": (1e-3, float, POSITIVE),
        },
        "_run_oracle_kernel",
        (
            at_most("kernel-vs-grid", 1e-3),
            above(
                "perturbed-kernel-separation", 1e-2,
                "pass iff value > tolerance (a wrong kernel must stand out)", family="free",
            ),
            # exp(0.01 x^2) barely moves mass on the narrower oscillator grid,
            # so the separation floor is calibrated to the free-particle span
            diagnostic(
                "perturbed-kernel-separation",
                "recorded; the 1e-2 floor applies to the free-particle span", family="harmonic",
            ),
        ),
    ),
    ("cosmo", "de-sitter"): (
        {
            "lam": (3.0, float, POSITIVE),
            "t_end": (1.0, float, POSITIVE),
            "a0": (1.0, float, POSITIVE),
            "csv_stride": (10, int, 1),
            **_reals(step=1e-3),
        },
        "_run_cosmo_de_sitter",
        (at_most("scale-factor-growth", 1e-6, floor=0.5), at_most("friedmann-residual", 1e-8)),
    ),
    ("cosmo", "stiff"): (
        {
            "t_end": (35.0, float, POSITIVE),
            "fit_from": (3.5, float, POSITIVE),
            "csv_stride": (50, int, 1),
            **_reals(phi_dot0=20.0, step=1e-3),
        },
        "_run_cosmo_stiff",
        (
            near("expansion-exponent", 1.0 / 3.0, 1e-3, "pass iff |value - 1/3| <= tolerance"),
            diagnostic(
                "momentum-drift", "relative p_phi drift over the run (truncation transient)"
            ),
        ),
    ),
    ("lattice", "conformal-transport"): (
        {"dims": _DIMS, **_reals(lam=8.0, sigma_const=0.0, spacing=1.0)},
        "_run_lattice_transport",
        (
            diagnostic("curvature-functional", "R[sigma] on this lattice"),
            # 1e-12 max(1, |closed form|)
            at_most("closed-form-deviation", 1e-12, scaled=True),
            at_most("functional-derivative-deviation", 1e-6),
        ),
    ),
    ("lattice", "greens"): (
        {
            **_LATTICE,
            "signature": ("euclidean", ("euclidean", "lorentzian"), None),
            "use_regulator": (False, bool, None),
        },
        "_run_lattice_greens",
        (at_most("defining-property", 1e-8, floor=1), at_most("kernel-symmetry", 1e-12)),
    ),
    ("lattice", "hj-positivity"): (
        {
            **_LATTICE,
            # the functional HJ residual is positive off phi = 0 there only
            "signature": ("euclidean", ("euclidean",), None),
            "draws": (100, int, 1),
            "amplitude": (2.0, float, POSITIVE),
        },
        "_run_lattice_positivity",
        (
            above(
                "minimum-residual", 0.0,
                "pass iff value > tolerance (euclidean residual is positive off phi = 0)",
            ),
            diagnostic(
                "lorentzian-on-shell-residual",
                "recorded for comparison across refinements; no pass threshold",
            ),
        ),
    ),
    ("lattice", "imaginary-part"): (
        {"dims": _DIMS, "draws": (100, int, 1), **_reals(lam=1.3)}, "_run_lattice_imaginary",
        (at_most("imaginary-part-residual", 1e-12, floor=0.5),),
    ),
    ("lattice", "kg-wave"): (
        {
            "dims": ([32], [int], 2),
            "mode": ([3], [int], None),
            "steps": (200, int, None),
            **_reals(mass=0.7, dt=0.05),
        },
        "_run_lattice_kg",
        (at_most("stencil-residual", 1e-8, floor=0.6), at_most("dispersion-tracking", 1e-8)),
    ),
}

SCENARIOS = tuple(sorted({scenario for scenario, _ in CHECKS}))


# --------------------------------------------------- parameter handling


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _checked(subject: str, value, kind, edge):
    """``value`` as its declared kind, or ValueError opening with ``subject``."""
    if isinstance(kind, list) and isinstance(value, (list, tuple)):
        return [
            _checked("{} element {}".format(subject, i), item, kind[0], edge)
            for i, item in enumerate(value)
        ]
    if isinstance(kind, tuple) and str(value) in kind:
        return str(value)
    if kind is bool and str(value).lower() in ("true", "false"):
        return str(value).lower() == "true"
    if kind in (int, float) and isinstance(value, (int, kind)) and not isinstance(value, bool):
        if kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(
                    "{} is an integer too large for a float".format(subject)
                ) from None
            if not math.isfinite(value):
                raise ValueError("{} must be finite, got {!r}".format(subject, value))
        if edge == POSITIVE and not value > 0:
            raise ValueError("{} must be positive, got {!r}".format(subject, value))
        if isinstance(edge, int) and value < edge:
            raise ValueError("{} must be at least {}, got {!r}".format(subject, edge, value))
        return value
    if isinstance(kind, list):
        expected = "a list like [4,4]"
    elif isinstance(kind, tuple):
        expected = "one of {}".format(kind)
    else:
        expected = {bool: "true or false", int: "an integer", float: "a number"}[kind]
    raise ValueError("{} expects {}, got {!r}".format(subject, expected, value))


def _merge_params(scenario: str, check: str, *sources: dict) -> dict:
    """The declared defaults, updated by each source in turn; every value is checked."""
    declared = CHECKS[(scenario, check)][0]
    merged = {name: default for name, (default, _, _) in declared.items()}
    for source in sources:
        for name, raw in source.items():
            if name not in declared:
                raise ValueError(
                    "unknown parameter '{}' for {} {}; valid parameters: {}".format(
                        name, scenario, check, ", ".join(sorted(declared))
                    )
                )
            _, kind, edge = declared[name]
            merged[name] = _checked("parameter '{}'".format(name), raw, kind, edge)
    return merged


def _content_lines(path: Path, kind: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank, non-comment line."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError("cannot read {} file: {}".format(kind, exc)) from None
    lines = [(no, line.strip()) for no, line in enumerate(text.splitlines(), start=1)]
    return [(no, line) for no, line in lines if line and not line.startswith("#")]


def _assignment(text: str, where: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError("{}: expected key=value, got {!r}".format(where, text))
    key, _, raw = text.partition("=")
    return key.strip(), _parse_value(raw.strip())


def _read_key_value_file(path: Path) -> dict:
    return dict(
        _assignment(line, "config file {} line {}".format(path, no))
        for no, line in _content_lines(path, "config")
    )


def _parse_extra_flags(tokens: list[str]) -> dict:
    values = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--") or len(token) == 2:
            raise ValueError(
                "unrecognized argument {!r}; parameters are passed as --name value".format(
                    token
                )
            )
        name = token[2:]
        if "=" in name:
            name, _, raw = name.partition("=")
            values[name] = _parse_value(raw)
            i += 1
            continue
        if i + 1 >= len(tokens):
            raise ValueError("parameter '--{}' is missing a value".format(name))
        values[name] = _parse_value(tokens[i + 1])
        i += 2
    return values


def _read_sweep(path: Path) -> list[dict]:
    """The key=value overrides on each line of a sweep file."""
    overrides = [
        dict(_assignment(token, "sweep line {}".format(no)) for token in line.split())
        for no, line in _content_lines(path, "sweep")
    ]
    if not overrides:
        raise ValueError("sweep file {} has no parameter lines".format(path))
    return overrides


# ------------------------------------------------------------ execution


def run_scenario(
    scenario: str, check: str, params: dict, out_dir: Path, seed: int
) -> Report:
    """Run one check on checked parameters, write report.json and CSV
    payloads into ``out_dir`` (ValueError if it cannot be made), and return the report.

    The runner only measures.  Its third argument, ``hold(record, floor)``,
    refuses the run unless the ``report.Floor`` predicted for a record is below
    the share of its tolerance it declares; each such record is held once.  An
    ``out_dir`` whose nearest existing ancestor, itself included, is not a
    directory is refused before the runner runs.
    """
    for path in (out_dir, *out_dir.parents):
        if os.path.exists(path):
            if not os.path.isdir(path):
                raise ValueError(
                    "--out {} is not a directory: {} exists and is not one".format(out_dir, path)
                )
            break
    _, name, declared = CHECKS[(scenario, check)]
    declared = [d for d in declared if d.family in (None, params.get("family"))]
    module = importlib.import_module(
        "{}.runners.{}".format(__package__, scenario.replace("-", "_"))
    )
    runner = getattr(module, name)
    limits = {d.name: d.floor * d.tolerance for d in declared if d.floor is not None}

    def hold(record: str, floor: tuple) -> None:
        limit = limits.pop(record)
        error, cause, names = floor
        if not error < limit:
            reason = "{} is about {:.3g}, not below {:g}".format(cause, error, limit)
            _refuse(params, names, reason)

    started = time.perf_counter()
    values, convergence, csv_payload = runner(params, seed, hold)
    if limits:
        raise RuntimeError("the runner never held the floor of {}".format(", ".join(limits)))
    report = Report(
        scenario=scenario,
        checks=[judge(d, values[d.name]) for d in declared],
        convergence=convergence,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError("--out {} is not a directory: {}".format(out_dir, exc.strerror)) from None
    report.write_json(out_dir / "report.json")
    for stem, (header, rows) in csv_payload.items():
        write_csv(out_dir / (stem + ".csv"), header, rows)
    if convergence is not None:
        write_csv(
            out_dir / "convergence.csv",
            ["h", "residual", "observed_order"],
            [
                (
                    row["h"],
                    row["residual"],
                    "n/a" if row["observed_order"] is None else row["observed_order"],
                )
                for row in convergence
            ],
        )
    return report


def _print_report(report: Report, out_dir: Path, prefix: str) -> None:
    for record in report.checks:
        if record.diagnostic:
            status = "diag"
            bound = ""
        else:
            status = "PASS" if record.passed else "FAIL"
            bound = " tol={:g}".format(record.tolerance)
        print(
            "{}{:<34} value={:.6e}{} {}".format(
                prefix, record.name, record.value, bound, status
            )
        )
    print(
        "{}overall: {} ({})".format(
            prefix, "PASS" if report.passed else "FAIL", out_dir / "report.json"
        )
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiprop",
        description="run one verification check and write a machine-readable report",
        usage="semiprop <scenario> <check> [--param value]... "
        "[--config path] [--out dir] [--seed n] [--sweep path]",
    )
    parser.add_argument("scenario", help="one of: " + ", ".join(SCENARIOS))
    parser.add_argument("check", help="check name within the scenario")
    parser.add_argument("--config", type=Path, default=None, help="key=value file")
    parser.add_argument("--out", type=Path, default=Path("semiprop-out"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--sweep", type=Path, default=None,
        help="file of key=value lines, one run per line",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if (args.scenario, args.check) not in CHECKS:
        if args.scenario not in SCENARIOS:
            problem = "unknown scenario '{}' (choose from {})".format(
                args.scenario, ", ".join(SCENARIOS)
            )
        else:
            problem = "unknown check '{}' for scenario '{}' (choose from {})".format(
                args.check,
                args.scenario,
                ", ".join(sorted(c for s, c in CHECKS if s == args.scenario)),
            )
        parser.print_usage(sys.stderr)
        print("semiprop: " + problem, file=sys.stderr)
        return 2

    try:
        # checked here, not by the first draw, so that every check refuses it
        if args.seed < 0:
            raise ValueError(
                "parameter 'seed' must be a non-negative integer, got {}".format(args.seed)
            )
        flag_values = _parse_extra_flags(extra)
        file_values = _read_key_value_file(args.config) if args.config else {}
        base_params = _merge_params(
            args.scenario, args.check, file_values, flag_values
        )
        overrides = [{}] if args.sweep is None else _read_sweep(args.sweep)
    except ValueError as exc:
        print("semiprop: {}".format(exc), file=sys.stderr)
        return 2

    status = 0
    for index, override in enumerate(overrides):
        # a sweep run gets a label and its own subdirectory; a single run neither
        label = "" if args.sweep is None else "run-{:03d}".format(index)
        prefix = "[{}] ".format(label) if label else ""
        out_dir = args.out / label
        # a parameter error on one set, declared or found by its runner,
        # fails that set alone
        try:
            params = _merge_params(args.scenario, args.check, base_params, override)
            report = run_scenario(args.scenario, args.check, params, out_dir, args.seed)
        except ValueError as exc:
            print("{}semiprop: {}".format(prefix, exc), file=sys.stderr)
            status = 2
            continue
        _print_report(report, out_dir, prefix)
        if not report.passed:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
