"""The CLI cases, keyed by ``cli.CHECKS``: fuzz edges, refusals and planted
defects.

Each table here is data that a test in ``test_cli.py`` runs through
``cli.main``. A check added to ``CHECKS`` needs a fuzz base and a
parameter-error row, and each gating record needs a planted-defect control
or a place in ``WITHOUT_CONTROL``; ``test_cli.py``'s gate tests hold both.
"""

import dataclasses
import math
from functools import partial

from semiprop import general_hj, quadratic
from semiprop.cli import CHECKS, POSITIVE
from semiprop.lattice import QuadraticFunctional
from semiprop.report import DIAGNOSTIC
from semiprop.runners import general_hj as general_runners
from semiprop.runners import lattice as lattice_runners

# ---------------------------------------------------------------- fuzz

FUZZ_VALUES = [
    "0", "-1", "1e200", "1e-200", "1e-305", "5e-324", "1e400", "1.7e308", "-1.7e308", "abc"
]
FUZZ_LISTS = ["[]", "[0]", "[1.5]", "['a']", "[None]", "[[1]]"]
# The argv each check's fuzz starts from, cheaper than the defaults where
# that matters; an empty base is the defaults. The draw checks take 2 draws,
# to keep the fuzz fast; the quadratic bases are harmonic, where omega matters.
FUZZ_BASES = {
    ("quadratic", "hj"): ["--family", "harmonic"],
    ("quadratic", "van-vleck"): ["--family", "harmonic"],
    ("quadratic", "prefactor-ode"): [],
    ("quadratic", "schrodinger-order"): ["--family", "harmonic"],
    ("general-hj", "decoupling"): [],
    ("general-hj", "exponential"): [],
    ("general-hj", "hbar-slope"): [],
    ("oracle", "kernel-vs-grid"): ["--n_x", "64", "--dt", "0.05"],
    ("cosmo", "de-sitter"): [],
    ("cosmo", "stiff"): ["--t_end", "3.5", "--step", "0.01", "--fit_from", "0.35"],
    ("lattice", "conformal-transport"): [],
    ("lattice", "greens"): [],
    ("lattice", "hj-positivity"): ["--draws", "2"],
    ("lattice", "imaginary-part"): ["--draws", "2"],
    ("lattice", "kg-wave"): ["--dims", "[8]", "--mode", "[1]", "--steps", "10"],
}


# Interior inputs no one-parameter edge reaches: the lattice Green's function
# at masses whose round-off floor reaches its 1e-8 tolerance, and a spacing
# that makes a unit mass null
COMBINED_CASES = [
    ("mass", ["lattice", "greens", "--dims", "[4,4]", "--mass", "3e-5"]),
    ("mass", ["lattice", "greens", "--dims", "[4,4]", "--mass", "5e-5"]),
    ("mass", ["lattice", "greens", "--dims", "[32,32]", "--signature", "lorentzian",
              "--use_regulator", "true", "--mass", "1e-5"]),
    ("mass", ["lattice", "greens", "--dims", "[4,4]", "--signature", "lorentzian",
              "--use_regulator", "true", "--mass", "1e-6"]),
    ("spacing", ["lattice", "greens", "--dims", "[16,16]", "--spacing", "1e-6"]),
]


def edge_values(kind, edge):
    """Each value a declared domain allows at its edge, and the one just outside."""
    if isinstance(kind, tuple):
        return list(kind)
    if kind is bool:
        return ["true", "false"]
    if edge == POSITIVE:
        return ["5e-324", "-5e-324"]
    if edge is not None:
        return [str(edge), str(edge - 1)]
    return []


def fuzz_cases():
    """(parameter, argv) of each fuzz case, each distinct argv once."""
    for (scenario, check), (declared, *_) in CHECKS.items():
        base = [scenario, check] + FUZZ_BASES[(scenario, check)]
        for name, (_, kind, edge) in declared.items():
            if isinstance(kind, list):
                values = FUZZ_LISTS + ["[{}]".format(v) for v in edge_values(kind[0], edge)]
            else:
                values = FUZZ_VALUES + edge_values(kind, edge)
            # an edge value may repeat a fuzz value
            for value in dict.fromkeys(values):
                yield name, base + ["--" + name, value]
    yield from COMBINED_CASES


_KERNEL = ["oracle", "kernel-vs-grid"] + FUZZ_BASES[("oracle", "kernel-vs-grid")]
_STIFF = ["cosmo", "stiff"] + FUZZ_BASES[("cosmo", "stiff")]
# The fuzz cases that exit 1, in fuzz order; every other case exits 0 or 2.
# The cheap kernel-vs-grid and stiff bases miss their tolerances themselves,
# so each of their fuzz values that runs exits 1.
FUZZ_EXIT_ONE = [
    *(["quadratic", "schrodinger-order", "--family", "harmonic", "--mass", mass]
      for mass in ("1e200", "1e-200", "1e-305")),
    _KERNEL + ["--family", "free"],
    _KERNEL + ["--family", "harmonic"],
    *(_STIFF + ["--fit_from", fit_from] for fit_from in ("1e-200", "1e-305", "5e-324")),
    _STIFF + ["--csv_stride", "1"],
    *(_STIFF + ["--phi_dot0", phi_dot0] for phi_dot0 in ("-1", "1e-200", "1e-305", "5e-324")),
]

# ------------------------------------------------------------ refusals

# (argv, text the exit-2 message holds)
PARAMETER_ERRORS = [
    (["lattice", "conformal-transport", "--lam", "abc"], "parameter 'lam'"),
    (["lattice", "conformal-transport", "--no_such", "1"], "unknown parameter 'no_such'"),
    (["lattice", "conformal-transport", "--derivative_tol", "-1"],
     "unknown parameter 'derivative_tol'"),
    (["lattice", "conformal-transport", "--dims", "[4,1]"], "parameter 'dims'"),
    (["oracle", "kernel-vs-grid", "--dt", "0"], "parameter 'dt'"),
    (["oracle", "kernel-vs-grid", "--dt", "5"], "parameter 'dt'"),
    (["lattice", "hj-positivity", "--draws", "0"], "parameter 'draws'"),
    (["lattice", "imaginary-part", "--draws", "0"], "parameter 'draws'"),
    (["quadratic", "hj", "--mass", "-1"], "mass must be positive"),
    (["general-hj", "exponential", "--slope", "0"], "slope b must be nonzero"),
    (["general-hj", "exponential", "--amplitude", "-1"], "amplitude A must be positive"),
    (["general-hj", "exponential", "--mass", "-1"], "mass must be positive"),
    (["general-hj", "exponential", "--hbar", "0"], "hbar must be positive"),
    (["general-hj", "exponential", "--hbar", "-1"], "hbar must be positive"),
    # refused by the RK4 step budget before any history is allocated
    (["cosmo", "stiff", "--t_end", "1e9", "--step", "1.0"], "step 1.0 needs"),
    (["quadratic", "prefactor-ode", "--step", "1e-9"],
     "parameter 'step' = 1e-09: step 1e-09 needs"),
    # a step refusal names the step, and t_end where t_end sets the step count
    (["quadratic", "prefactor-ode", "--step", "0"],
     "parameter 'step' = 0.0: step must be positive"),
    (["cosmo", "stiff", "--step", "0"],
     "parameters 't_end' = 35.0, 'step' = 0.0: step must be positive"),
    (
        ["lattice", "kg-wave", "--dims", "[16,16]", "--mode", "[3,1]",
         "--dt", "0.9", "--steps", "2000"],
        "dt = 0.9 violates the leapfrog CFL bound",
    ),
    (["lattice", "greens", "--mass", "1e200"], "mass must be a nonnegative"),
    (["lattice", "hj-positivity", "--mass", "1e200"], "mass must be a nonnegative"),
    (["lattice", "kg-wave", "--mass", "1e200"], "mass must be a nonnegative"),
    # refused by the node and leapfrog work budgets before anything is allocated;
    # dt 0.5 leaves Crank-Nicolson 2 steps
    (["oracle", "kernel-vs-grid", "--n_x", "4097", "--dt", "0.5"], "n_x 4097 needs"),
    (["lattice", "kg-wave", "--steps", "312500"], "steps 312500 on 32 sites need"),
    # the draws share the leapfrog's budget of site updates, refused before the
    # first; a draw on fewer than 1024 sites is charged 1024
    (["lattice", "hj-positivity", "--draws", "9766"],
     "parameters 'draws' = 9766, 'dims' = [4, 4]: the draws on 16 sites, at 1024 site "
     "updates each, need 10000384, more than the budget of 10000000"),
    (["lattice", "imaginary-part", "--dims", "[64,64]", "--draws", "2442"],
     "parameters 'draws' = 2442, 'dims' = [64, 64]: the draws on 4096 sites, at 4096 site "
     "updates each, need 10002432, more than the budget of 10000000"),
    # refused by the Crank-Nicolson step budget; 1e-320 overflows 1/dt to inf
    (["oracle", "kernel-vs-grid", "--dt", "1e-200"], "parameter 'dt'"),
    (["oracle", "kernel-vs-grid", "--dt", "1e-320"], "parameter 'dt'"),
    # spacing^2 overflows to inf, or underflows so that 4/spacing^2 does
    (["lattice", "greens", "--spacing", "1e200"], "spacing must be"),
    (["lattice", "greens", "--spacing", "1e-200"], "spacing must be"),
    (["lattice", "hj-positivity", "--spacing", "1e-200"], "spacing must be"),
    (["lattice", "conformal-transport", "--spacing", "1e200"], "spacing must be"),
    (["lattice", "conformal-transport", "--spacing", "1e-200"], "spacing must be"),
    (["cosmo", "de-sitter", "--csv_stride", "0"], "parameter 'csv_stride'"),
    (["cosmo", "de-sitter", "--csv_stride", "-1"], "parameter 'csv_stride'"),
    (["cosmo", "stiff", "--csv_stride", "0"], "parameter 'csv_stride'"),
    (["cosmo", "stiff", "--csv_stride", "-1"], "parameter 'csv_stride'"),
    # spacing^4 overflows, or underflows to 0, in the cell volume
    (["lattice", "conformal-transport", "--spacing", "1e100", "--dims", "[4,4,4,4]"],
     "spacing must be"),
    (["lattice", "hj-positivity", "--spacing", "1e100", "--dims", "[4,4,4,4]"],
     "spacing must be"),
    (["lattice", "conformal-transport", "--spacing", "1e-100", "--dims", "[4,4,4,4]"],
     "spacing must be"),
    # dt^2, a0^3 and phi_dot0^2 overflow; dt^2 and a0^3 underflow to 0
    (["lattice", "kg-wave", "--dt", "1e200"], "dt must be positive"),
    (["lattice", "kg-wave", "--dt", "1e-200"], "dt must be positive"),
    (["cosmo", "de-sitter", "--a0", "1e200"], "'a0' = 1e+200"),
    (["cosmo", "de-sitter", "--a0", "1e-200"], "'a0' = 1e-200"),
    (["cosmo", "stiff", "--phi_dot0", "1e200"], "parameter 'phi_dot0'"),
    # the explicit RK4 stages overflow; the run stops early and is refused
    (["cosmo", "stiff", "--phi_dot0", "1e80"], "'phi_dot0' = 1e+80"),
    (["cosmo", "stiff", "--phi_dot0", "1e153"], "'phi_dot0' = 1e+153, 'step' = 0.001"),
    (["general-hj", "decoupling", "--mass", "0"], "mass must be positive"),
    (["general-hj", "decoupling", "--c2", "1e200"], "c2 = (1e+200+0j)"),
    (["general-hj", "exponential", "--slope", "1e200"], "slope b = 1e+200"),
    (["quadratic", "hj", "--family", "harmonic", "--x0", "1e200"], "x0 must be"),
    (["quadratic", "hj", "--family", "free", "--x0", "1e200"], "x0 must be"),
    (["quadratic", "schrodinger-order", "--family", "harmonic", "--x0", "1e200"],
     "x0 must be"),
    (["quadratic", "schrodinger-order", "--family", "free", "--x0", "1e200"],
     "x0 must be"),
    (["lattice", "hj-positivity", "--amplitude", "-1"], "parameter 'amplitude'"),
    # the residual's squares underflow, so a correct field would read 0
    (["lattice", "hj-positivity", "--amplitude", "1e-200"],
     "parameters 'amplitude' = 1e-200, 'spacing' = 1.0, 'mass' = 1.0: the "
     "Hamilton-Jacobi residual on this lattice underflows"),
    (["lattice", "hj-positivity", "--amplitude", "5e-324"],
     "parameters 'amplitude' = 5e-324, 'spacing' = 1.0, 'mass' = 1.0: the "
     "Hamilton-Jacobi residual on this lattice underflows"),
    # the residual's squares overflow; the bound grows with the cell volume
    (["lattice", "hj-positivity", "--amplitude", "1e200"],
     "parameters 'amplitude' = 1e+200, 'spacing' = 1.0, 'mass' = 1.0: the "
     "Hamilton-Jacobi residual on this lattice overflows"),
    (["lattice", "hj-positivity", "--spacing", "1e100"],
     "parameters 'amplitude' = 2.0, 'spacing' = 1e+100, 'mass' = 1.0: the "
     "Hamilton-Jacobi residual on this lattice overflows"),
    (["quadratic", "hj", "--mass", "1e200"], "mass 1e+200 with x0 0.0 takes (dS/dx)^2"),
    (["quadratic", "hj", "--family", "harmonic", "--mass", "1e200"],
     "mass 1e+200 with x0 0.0 takes (dS/dx)^2"),
    (["cosmo", "stiff", "--fit_from", "0"], "parameter 'fit_from'"),
    (["cosmo", "de-sitter", "--t_end", "0"], "parameter 't_end'"),
    (["general-hj", "hbar-slope", "--hbars", "[]"], "hbars must hold"),
    # a float literal that reads as inf, and an integer literal past 1e308
    (["cosmo", "stiff", "--t_end", "1e400"], "parameter 't_end' must be finite"),
    (["quadratic", "hj", "--x0", "1" + "0" * 400], "parameter 'x0' is an integer"),
    # a step longer than the whole RK4 window
    (["cosmo", "de-sitter", "--step", "10"],
     "parameters 't_end' = 1.0, 'step' = 10.0: step 10.0 needs 0.1 steps to cover 1.0, "
     "which round to none"),
    (["quadratic", "prefactor-ode", "--step", "10"],
     "parameter 'step' = 10.0: window [0.0, 0.5] is shorter than one step on both sides "
     "of t0 = 0.0: step = 10.0"),
    # the closed forms overflow on the fixed [-2, 2] grid
    (["general-hj", "decoupling", "--c2", "1000"], "c2 = (1000+0j)"),
    # cos^2, which d2R/dx2 divides by, overflows before cos does
    (["general-hj", "decoupling", "--c2", "300"], "c2 = (300+0j)"),
    (["general-hj", "decoupling", "--c2", "200", "--c3", "0.3"], "c2 = (200+0j)"),
    # every decoupling term vanishes, so the residual reads 0 whatever R is
    (["general-hj", "decoupling", "--c2", "0"],
     "parameters 'c2' = 0.0, 'hbar' = 1.0: every decoupling term, a multiple of hbar c2^2, is 0"),
    (["general-hj", "decoupling", "--c2", "1e-200"], "'c2' = 1e-200, 'hbar' = 1.0: every"),
    (["lattice", "greens", "--dims", "[65,65]"], "dims (65, 65) give 4225 sites"),
    # site counts past 2**64, which a numpy int64 product wraps to 4 and 0
    (["lattice", "greens", "--dims", "[4611686018427387905,4]"],
     "dims (4611686018427387905, 4) give 18446744073709551620 sites"),
    (["lattice", "greens", "--dims", "[4294967296,4294967296]"],
     "dims (4294967296, 4294967296) give 18446744073709551616 sites"),
    # the step alone breaks the run at the default phi_dot0
    (["cosmo", "stiff", "--step", "10"], "'step' = 10.0: the RK4 run overflowed"),
    (["general-hj", "exponential", "--slope", "1000"], "slope b = 1000.0"),
    # list elements are checked against their declared kind
    (["lattice", "kg-wave", "--mode", "['a']"], "parameter 'mode' element 0"),
    (["lattice", "kg-wave", "--mode", "[[1]]"], "parameter 'mode' element 0"),
    (["lattice", "kg-wave", "--mode", "[None]"], "parameter 'mode' element 0"),
    (["lattice", "kg-wave", "--mode", "[1.5]"], "parameter 'mode' element 0"),
    (["lattice", "kg-wave", "--mode", "[True]"], "parameter 'mode' element 0"),
    (["general-hj", "hbar-slope", "--hbars", "[1,2,[3]]"], "parameter 'hbars' element 2"),
    (["general-hj", "hbar-slope", "--hbars", "[1,2,None]"], "parameter 'hbars' element 2"),
    (["general-hj", "hbar-slope", "--hbars", "[1,2,'a']"], "parameter 'hbars' element 2"),
    (["general-hj", "hbar-slope", "--hbars", "[1,2,1e400]"],
     "parameter 'hbars' element 2 must be finite"),
    (["lattice", "greens", "--dims", "[]"], "dims must list at least one extent"),
    # a precondition names every parameter that feeds it
    (["general-hj", "hbar-slope", "--curvature", "1e200"], "parameter 'curvature'"),
    # a curvature at which Im S vanishes leaves no slope to measure
    (["general-hj", "hbar-slope", "--curvature", "0"], "parameter 'curvature'"),
    (["cosmo", "de-sitter", "--lam", "1e200"], "'lam' = 1e+200"),
    (["cosmo", "de-sitter", "--t_end", "1e-200"], "'t_end' = 1e-200, 'step' = 0.001"),
    (["cosmo", "stiff", "--t_end", "1e-200"], "'t_end' = 1e-200, 'step' = 0.001"),
    (["cosmo", "stiff", "--t_end", "1e200"],
     "'t_end' = 1e+200, 'step' = 0.001: step 0.001 needs 1e+203 steps, more than the budget"),
    (["cosmo", "stiff", "--phi_dot0", "1e10"], "'phi_dot0' = 10000000000.0"),
    (["lattice", "conformal-transport", "--sigma_const", "1e200"],
     "parameter 'sigma_const'"),
    (["lattice", "greens", "--mass", "0"], "null at mass = 0"),
    (["lattice", "greens", "--mass", "1e-200"], "null at mass = 1e-200"),
    (["lattice", "hj-positivity", "--mass", "0"], "null at mass = 0"),
    (["lattice", "hj-positivity", "--mass", "1e-200"], "null at mass = 1e-200"),
    (["lattice", "greens", "--use_regulator", "true"], "use_regulator applies"),
    (["lattice", "kg-wave", "--steps", "1"], "got 1 steps"),
    # p_phi(0), which the momentum drift divides by, vanishes
    (["cosmo", "stiff", "--phi_dot0", "0"], "parameter 'phi_dot0'"),
    # omega^2 overflows; the caustics of a huge omega are found without a
    # walk over each of them
    (["quadratic", "hj", "--family", "harmonic", "--omega", "1e200"],
     "omega must keep mass * omega^2 finite"),
    (["quadratic", "schrodinger-order", "--family", "harmonic", "--omega", "1e200"],
     "omega = 1e+200 puts a caustic"),
    (["quadratic", "van-vleck", "--family", "harmonic", "--omega", "1e-200"],
     "omega = 1e-200 puts a valid time node on a caustic"),
    # the action is too small for its mixed finite difference
    (["quadratic", "van-vleck", "--mass", "1e-305"], "action at mass = 1e-305"),
    # the check differences the two-point action over x0 itself
    (["quadratic", "van-vleck", "--x0", "3"], "unknown parameter 'x0' for quadratic van-vleck"),
    # the last RK4 sample misses t_end, where the closed form is taken
    (["cosmo", "de-sitter", "--step", "3e-4"],
     "parameters 'step' = 0.0003, 't_end' = 1.0: the steps end at t = 0.9998999999999999"),
    (["cosmo", "de-sitter", "--step", "7e-4", "--t_end", "2"],
     "parameters 'step' = 0.0007, 't_end' = 2.0"),

]

# (argv, the parameters the exit-2 message names); no warning may fire
OVERFLOWS = [
    # the step count (t_end or the prefactor window) / step is infinite
    (["cosmo", "stiff", "--step", "5e-324"], ["step"]),
    (["cosmo", "de-sitter", "--step", "5e-324"], ["step"]),
    (["quadratic", "prefactor-ode", "--step", "5e-324"], ["step"]),
    # csc(omega t)^2 overflows, or sin(omega t) vanishes
    (["quadratic", "hj", "--family", "harmonic", "--omega", "0"], ["omega"]),
    (["quadratic", "hj", "--family", "harmonic", "--omega", "1e-200"], ["omega"]),
    # the cube a^3 stays finite, the constraint's p_a^2 ~ a^4 H^2 does not
    (["cosmo", "de-sitter", "--lam", "1e5"], ["lam", "a0", "t_end"]),
    # the field is drawn from [-amplitude, amplitude], whose width overflows
    (["lattice", "hj-positivity", "--amplitude", "1e308"], ["amplitude"]),
    # each exp(2 sigma_const) fits the float range, their sum over the sites
    # does not, though (lam / 8) times it would
    (["lattice", "conformal-transport", "--lam", "0.5", "--sigma_const", "354"],
     ["lam", "sigma_const"]),
    # A e^(|b| X_EDGE), the size of V and of (dS/dx)^2 / (2m), overflows
    # while 2 m A e^(|b| X_EDGE) does not, since m < 1/2
    (["general-hj", "exponential", "--amplitude", "1e200", "--slope", "300",
      "--mass", "1e-200"], ["amplitude", "slope"]),
    (["general-hj", "exponential", "--amplitude", "1e300", "--slope", "20",
      "--mass", "1e-10"], ["amplitude", "slope"]),
    # the imaginary-part terms reach |lam| (2 + sin 1) e^4, past the float range
    # from |lam| 1.1588e306; their round-off floor, held before the first draw,
    # refuses them there and just below it
    *((["lattice", "imaginary-part", "--draws", "2", "--lam", lam], ["lam"])
      for lam in ("1.7e308", "-1.7e308", "1.16e306", "-1.16e306", "1.15e306")),

]

# (argv ending in a flag, its values, the interval [low, high) of values
# refused as round-off, text the refusal holds). A correct closed form
# leaves about machine epsilon times its cancelling terms; where that
# reaches the tolerance the check is refused, and every value outside the
# interval exits 0.
ROUND_OFF_FLOORS = [
    (["quadratic", "hj", "--mass"], ["1e{}".format(e) for e in range(13)], (1e7, math.inf),
     "'mass'"),
    (["general-hj", "exponential", "--slope"], [str(b) for b in range(1, 21)], (7, math.inf),
     "'slope'"),
    # the decoupling terms reach hbar b^2 / 8, so at slope 1 hbar 3.6e4 and up
    (["general-hj", "exponential", "--hbar"], ["1e{}".format(e) for e in range(-3, 10)],
     (36029, math.inf), "'hbar'"),
    (["general-hj", "exponential", "--mass", "0.3", "--slope", "5", "--hbar"],
     ["1e{}".format(e) for e in range(-3, 10)], (1441, math.inf), "'slope' = 5.0"),
    # the cos-log decoupling residual reads up to 3.57 epsilons times its
    # largest term, hbar c2^2 here, so it is refused from 4 eps hbar = 1e-8
    (["general-hj", "decoupling", "--hbar"],
     ["1", "1e6", "1e7", "3e7", "1e8", "1e20", "1e200"], (1.126e7, math.inf), "'hbar'"),
    # the imaginary-part terms reach |lam| (2 + sin 1) e^4, refused at half
    # the tolerance from lam 14.5 on; a correct residual fails from about 25
    *(
        (["lattice", "imaginary-part", "--seed", str(seed), "--lam"],
         ["1", "10", "14", "15", "25", "40", "1e2", "1e3", "1e4", "1e5", "1e6"],
         (14.5, math.inf), "'lam'")
        for seed in range(4)
    ),
    # the leapfrog stencil's round-off grows as eps / dt^2: refused below dt
    # 1.92e-4, where 0.6 of its 1e-8 tolerance is reached; it fails from about 8e-5
    (["lattice", "kg-wave", "--dt"],
     ["1e-6", "1e-5", "5e-5", "8e-5", "1e-4", "1.5e-4", "2e-4", "3e-4", "1e-3"], (0.0, 2e-4),
     "'dt'"),
]
# (argv, its whole exit-2 stderr) of one refusal per predicted-error floor:
# each states the floor's cause, its size and the share of the tolerance it
# reaches, and names the parameters that set it
FLOOR_MESSAGES = [
    (["quadratic", "hj", "--mass", "1e7"],
     "parameters 'mass' = 10000000.0, 'x0' = 0.0: round-off alone where the "
     "Hamilton-Jacobi terms reach 3.2e+08, machine epsilon times that, is about "
     "7.11e-08, not below 1e-08"),
    (["general-hj", "decoupling", "--hbar", "1e8"],
     "parameters 'c2' = 1.0, 'c3' = 0.0, 'hbar' = 100000000.0: round-off alone where "
     "the decoupling terms reach 1e+08, machine epsilon times that, is about "
     "2.22e-08, not below 2.5e-09"),
    (["general-hj", "exponential", "--slope", "8"],
     "parameters 'amplitude' = 1.0, 'slope' = 8.0: round-off alone where two "
     "Hamilton-Jacobi terms together reach 1.78e+07, machine epsilon times that, is "
     "about 3.95e-09, not below 1e-10"),
    (["general-hj", "exponential", "--hbar", "1e6"],
     "parameters 'hbar' = 1000000.0, 'slope' = 1.0: round-off alone where two "
     "decoupling terms together reach 1.25e+05, machine epsilon times that, is about "
     "2.78e-11, not below 1e-12"),
    (["cosmo", "de-sitter", "--step", "0.1"],
     "parameters 'lam' = 3.0, 't_end' = 1.0, 'step' = 0.1: RK4's global error t_end "
     "H^5 step^4 exp(H t_end) / 120, H = sqrt(lam / 3), is about 2.27e-06, not below "
     "5e-07"),
    (["lattice", "greens", "--dims", "[4,4]", "--mass", "3e-5"],
     "parameters 'mass' = 3e-05, 'spacing' = 1.0: round-off alone in op @ G, machine "
     "epsilon times max |lambda + i epsilon| max |g|, is about 1.23e-07, not below "
     "1e-08"),
    (["lattice", "imaginary-part", "--lam", "25"],
     "parameter 'lam' = 25.0: round-off alone where the two imaginary-part terms "
     "reach 3.88e+03, machine epsilon times that, is about 8.61e-13, not below 5e-13"),
    (["lattice", "kg-wave", "--dt", "1e-5"],
     "parameter 'dt' = 1e-05: round-off alone where the stencil's time differences "
     "over dt^2 reach 1e+10, machine epsilon times that, is about 2.22e-06, not "
     "below 6e-09"),
]
# the smallest amplitudes whose squares stay normal floats still pass
ROUND_OFF_PASSES = [
    ["lattice", "hj-positivity", "--amplitude", "1e-150"],
    ["lattice", "hj-positivity"],
]

# ----------------------------------------------------- planted defects

# A plant is called before it is patched in, so that it captures the
# function it wraps, and returns (module, attribute, replacement). Each
# defect goes into the object a check certifies; the check, its records and
# their tolerances are untouched.


def _moved_by_1e_3(fn):
    """``fn`` with its value moved by a relative 1e-3."""
    return lambda *args: fn(*args) * (1.0 + 1e-3)


def _greens_kernel(plant):
    """The runner's lattice Green's function with its kernel g replaced by plant(g)."""
    build = lattice_runners.lattice_greens_function

    def planted(config, use_regulator=False):
        kernel = build(config, use_regulator)
        return QuadraticFunctional(plant(kernel.g), config, kernel.regulator)

    return lattice_runners, "lattice_greens_function", planted


def _scaled(g):
    return g * (1.0 + 1e-6)


def _one_site_moved(g):
    g = g.copy()
    g[1, 0] += 1e-10
    return g


def _quadratic_derivative(index):
    """``quadratic._identity_residuals`` with term ``index`` of the family's
    (dS/dt, dS/dx, d2S/dx2, dR/dt, V) moved by a relative 1e-3."""
    identities = quadratic._identity_residuals

    def planted(mass, reach, x0, derivatives):
        def moved():
            terms = list(derivatives())
            terms[index] = terms[index] * (1.0 + 1e-3)
            return tuple(terms)

        return identities(mass, reach, x0, moved)

    return quadratic, "_identity_residuals", planted


def _x0_sign_flipped():
    """``quadratic._identity_residuals`` with 2 x0 d2S/dx2 added to dS/dx: on
    the free particle, m (x + x0) / t in place of m (x - x0) / t."""
    identities = quadratic._identity_residuals

    def planted(mass, reach, x0, derivatives):
        def flipped():
            s_t, s_x, s_xx, *rest = derivatives()
            return (s_t, s_x + 2.0 * x0 * s_xx, s_xx, *rest)

        return identities(mass, reach, x0, flipped)

    return quadratic, "_identity_residuals", planted


def _with_moved_rate(ansatz):
    return dataclasses.replace(ansatz, dR_dt=_moved_by_1e_3(ansatz.dR_dt))


def _cos_log_rate():
    cos_log = general_runners.cos_log_family
    return general_runners, "cos_log_family", lambda **params: _with_moved_rate(cos_log(**params))


def _exponential_rate():
    exponential = general_hj.exponential_family

    def planted(*args):
        ansatz, s_fn, v_fn = exponential(*args)
        return _with_moved_rate(ansatz), s_fn, v_fn

    return general_hj, "exponential_family", planted


def _exponential_slope():
    slope = general_hj._exponential_action_slope
    return general_hj, "_exponential_action_slope", _moved_by_1e_3(slope)


def _doubled_functional():
    check = lattice_runners.conformal_transport_check

    def planted(sigma, lam):
        value, deviation = check(sigma, lam)
        return 2.0 * value, deviation

    return lattice_runners, "conformal_transport_check", planted


# (argv, plant, the record the plant fails, a sibling record that still
# passes or None). The argv exits 0 without the plant and 1 with it.
CONTROLS = [
    # a uniform relative error breaks op @ G = I and keeps G symmetric
    (["lattice", "greens"], partial(_greens_kernel, _scaled),
     "defining-property", "kernel-symmetry"),
    # G(1, 0) moved apart from G(0, 1) by far less than op @ G notices
    (["lattice", "greens"], partial(_greens_kernel, _one_site_moved),
     "kernel-symmetry", "defining-property"),
    (["quadratic", "hj"], partial(_quadratic_derivative, 1), "hamilton-jacobi", "consistency"),
    (["quadratic", "hj"], partial(_quadratic_derivative, 3), "consistency", "hamilton-jacobi"),
    (["quadratic", "hj", "--family", "harmonic"], partial(_quadratic_derivative, 1),
     "hamilton-jacobi", "consistency"),
    (["quadratic", "hj", "--family", "harmonic"], partial(_quadratic_derivative, 3),
     "consistency", "hamilton-jacobi"),
    (["general-hj", "decoupling"], _cos_log_rate, "decoupling-residual", None),
    (["general-hj", "exponential"], _exponential_slope, "hamilton-jacobi", "decoupling-residual"),
    (["general-hj", "exponential"], _exponential_rate, "decoupling-residual", "hamilton-jacobi"),
]


def control_triple(control):
    """The (scenario, check, family, record) a ``CONTROLS`` row covers; the
    family is None for a check without one."""
    argv, _, failing, _ = control
    declared = CHECKS[tuple(argv[:2])][0]
    family = None
    if "family" in declared:
        family = argv[argv.index("--family") + 1] if "--family" in argv else declared["family"][0]
    return (*argv[:2], family, failing)


def gating_triples():
    """(scenario, check, family, record) of every record whose verdict sets
    the exit code, for each family of a check that has families."""
    triples = set()
    for (scenario, check), (declared, _, records) in CHECKS.items():
        families = declared["family"][1] if "family" in declared else (None,)
        for family in families:
            triples.update(
                (scenario, check, family, d.name)
                for d in records
                if d.rule != DIAGNOSTIC and d.family in (None, family)
            )
    return triples


# The gating triples no control covers yet (ROADMAP item 4 empties this set)
WITHOUT_CONTROL = {
    ("quadratic", "van-vleck", "free", "van-vleck-deviation"),
    ("quadratic", "van-vleck", "harmonic", "van-vleck-deviation"),
    *(
        ("quadratic", "prefactor-ode", family, record)
        for family in ("free", "harmonic", "driven")
        for record in ("closed-form-deviation", "observed-order")
    ),
    ("quadratic", "schrodinger-order", "free", "stencil-order"),
    ("quadratic", "schrodinger-order", "harmonic", "stencil-order"),
    ("general-hj", "hbar-slope", None, "imaginary-slope"),
    ("oracle", "kernel-vs-grid", "free", "kernel-vs-grid"),
    ("oracle", "kernel-vs-grid", "free", "perturbed-kernel-separation"),
    ("oracle", "kernel-vs-grid", "harmonic", "kernel-vs-grid"),
    ("cosmo", "de-sitter", None, "scale-factor-growth"),
    ("cosmo", "de-sitter", None, "friedmann-residual"),
    ("cosmo", "stiff", None, "expansion-exponent"),
    ("lattice", "conformal-transport", None, "closed-form-deviation"),
    ("lattice", "conformal-transport", None, "functional-derivative-deviation"),
    ("lattice", "hj-positivity", None, "minimum-residual"),
    ("lattice", "imaginary-part", None, "imaginary-part-residual"),
    ("lattice", "kg-wave", None, "stencil-residual"),
    ("lattice", "kg-wave", None, "dispersion-tracking"),
}

# A plant that fails its check at the defaults but passes at a value where
# the record's absolute tolerance exceeds every term it compares (ROADMAP
# item 15). The run should exit 1, or exit 2 refusing the value; it exits 0.
VACUOUS_PASSES = [
    (["lattice", "conformal-transport", "--sigma_const", "-300"], _doubled_functional),
    (["general-hj", "exponential", "--amplitude", "1e-12"], _exponential_slope),
    (["general-hj", "decoupling", "--hbar", "1e-6"], _cos_log_rate),
    (["quadratic", "hj", "--mass", "1e-7"], partial(_quadratic_derivative, 1)),
]
