"""The CLI invocations each benchmark workload runs, generated from a seed.

A workload is a fixed list of ``semiprop`` command lines.  Each one is
named ``cli.<scenario>.<check>[.<family|signature|sweep>]``; that name is
also the stem of its per-invocation wall-time metric.  ``outputs`` lists
the files the invocation must leave in its output directory; a missing
one counts the invocation as failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    sweep_lines: tuple[str, ...] = ()


def _check(name: str, argv: str, outputs: str = "") -> Invocation:
    return Invocation(name, tuple(argv.split()), ("report.json",) + tuple(outputs.split()))


def _sweep(name: str, argv: str, lines: list[str]) -> Invocation:
    outputs = []
    for index in range(len(lines)):
        run = "run-{:03d}/".format(index)
        outputs += [run + "report.json", run + "trajectory.csv"]
    return Invocation(name, tuple(argv.split()), tuple(outputs), tuple(lines))


def ode(seed: int) -> list[Invocation]:
    # Long fixed-step RK4 integrations that write almost no CSV: RK4 does
    # nearly all the work, so this isolates the ODE stepper and stays flat
    # for lattice, oracle and report changes.  The last command line runs
    # short de Sitter trajectories through the CLI's 4-thread --sweep pool
    # and writes every step to CSV: the same RK4 and cosmo layers used as
    # many short concurrent runs, so a batched stepper or a change to the
    # pool shows in its own per-invocation time.
    #
    # The seed draws the sweep lines.  Draws change the physics, never the
    # amount of work: every line keeps its step count (t_end / step) and
    # its CSV row count.  lam in [1, 4] and a0 in [0.5, 2] keep the growth
    # and Friedmann gates (1e-6 and 1e-8) passing, with margin up to lam 6
    # and t_end 2.
    rng = random.Random(seed)
    de_sitter = [
        "lam={!r} a0={!r}".format(round(rng.uniform(1.0, 4.0), 6), round(rng.uniform(0.5, 2.0), 6))
        for _ in range(4)
    ]
    return [
        _check("cli.cosmo.stiff", "cosmo stiff", "trajectory.csv"),
        _check(
            "cli.quadratic.prefactor-ode.driven",
            "quadratic prefactor-ode --family driven",
            "convergence.csv",
        ),
        _check(
            "cli.quadratic.prefactor-ode.free",
            "quadratic prefactor-ode --family free",
            "convergence.csv",
        ),
        _check(
            "cli.quadratic.prefactor-ode.harmonic",
            "quadratic prefactor-ode --family harmonic",
            "convergence.csv",
        ),
        _check(
            "cli.cosmo.de-sitter",
            "cosmo de-sitter --t_end 2 --step 2e-4 --csv_stride 100",
            "trajectory.csv",
        ),
        _sweep(
            "cli.cosmo.de-sitter.sweep",
            "cosmo de-sitter --t_end 1 --step 5e-4 --csv_stride 1",
            de_sitter,
        ),
    ]


def fields(seed: int) -> list[Invocation]:
    # Grid and lattice checks above their default sizes: dense lattice
    # linear algebra, the n_x^2 kernel quadrature, Crank-Nicolson and the
    # stencils do the work and RK4 does none.  It is the one workload
    # whose memory grows with problem size.  The seed reaches the two
    # checks that draw random fields.
    s = str(seed)
    return [
        _check("cli.quadratic.hj.free", "quadratic hj --family free"),
        _check("cli.quadratic.hj.harmonic", "quadratic hj --family harmonic"),
        _check("cli.quadratic.van-vleck.free", "quadratic van-vleck --family free"),
        _check("cli.quadratic.van-vleck.harmonic", "quadratic van-vleck --family harmonic"),
        _check(
            "cli.quadratic.schrodinger-order.free",
            "quadratic schrodinger-order --family free",
            "convergence.csv propagator.csv",
        ),
        _check(
            "cli.quadratic.schrodinger-order.harmonic",
            "quadratic schrodinger-order --family harmonic",
            "convergence.csv propagator.csv",
        ),
        _check("cli.general-hj.decoupling", "general-hj decoupling"),
        _check("cli.general-hj.exponential", "general-hj exponential"),
        _check("cli.general-hj.hbar-slope", "general-hj hbar-slope"),
        _check(
            "cli.oracle.kernel-vs-grid.free",
            "oracle kernel-vs-grid --family free --n_x 2048",
        ),
        _check(
            "cli.oracle.kernel-vs-grid.harmonic",
            "oracle kernel-vs-grid --family harmonic --n_x 2048",
        ),
        _check(
            "cli.lattice.greens.euclidean",
            "lattice greens --dims [48,48]",
            "lattice.csv",
        ),
        _check(
            "cli.lattice.greens.lorentzian",
            "lattice greens --dims [32,32] --signature lorentzian --use_regulator true",
            "lattice.csv",
        ),
        _check(
            "cli.lattice.hj-positivity",
            "lattice hj-positivity --dims [32,32] --seed " + s,
            "lattice.csv",
        ),
        _check(
            "cli.lattice.imaginary-part",
            "lattice imaginary-part --dims [32,32] --seed " + s,
            "lattice.csv",
        ),
        _check(
            "cli.lattice.kg-wave",
            "lattice kg-wave --dims [64,64] --mode [3,1]",
            "lattice.csv",
        ),
        _check(
            "cli.lattice.conformal-transport",
            "lattice conformal-transport --dims [16,16]",
            "lattice.csv",
        ),
    ]


WORKLOADS = {"ode": ode, "fields": fields}
