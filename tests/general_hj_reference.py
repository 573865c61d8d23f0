"""Closed forms of the log-of-cosine family and a stencil potential recovery.

Test-side references for ``semiprop.general_hj``: the library builds the
action by quadrature, and these helpers give the closed-form action, the
potential it solves, and the quadrature inputs that land on it.
"""

import cmath
from typing import Callable

import numpy as np

from semiprop.core import ComplexField, finite_difference


def recover_potential(S: ComplexField, mass: float = 1.0) -> ComplexField:
    """Potential the action solves: V = -dS/dt - (dS/dx)^2/(2m) nodewise.

    Derivatives are stencil-based, so the recovery is O(h^2) accurate.
    """
    s_t = finite_difference(S, "t", 1)
    s_x = finite_difference(S, "x", 1)
    return ComplexField(grid=S.grid, values=-s_t.values - s_x.values**2 / (2.0 * mass))


def cos_log_action(
    c2: complex, c3: complex = 0.0, f1_const: complex = 1.0, f0_const: complex = 0.0
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Closed-form action of the family: S = -(i/c2) f1 tan(i c2 x + c3) + f0."""
    c2 = complex(c2)
    c3 = complex(c3)

    def s_fn(x, t):
        u = 1j * c2 * np.asarray(x, dtype=complex) + c3
        return -(1j / c2) * complex(f1_const) * np.tan(u) + complex(f0_const) + 0.0 * np.asarray(t)

    return s_fn


def cos_log_recovered_potential(
    c2: complex,
    c3: complex = 0.0,
    f1_const: complex = 1.0,
    mass: float = 1.0,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Potential recovered analytically from the constant-f1 action:

        V = -(f1^2 / 2m) sec^4(i c2 x + c3)

    (the dS/dt and time-dependent terms drop for constant f1, f0 = 0).
    """
    c2 = complex(c2)
    c3 = complex(c3)
    f1c = complex(f1_const)

    def v_fn(x, t):
        u = 1j * c2 * np.asarray(x, dtype=complex) + c3
        return -(f1c**2 / (2.0 * mass)) / np.cos(u) ** 4 + 0.0 * np.asarray(t)

    return v_fn


def cos_log_quadrature_inputs(
    c2: complex,
    c3: complex = 0.0,
    c4: complex = 0.0,
    f1_const: complex = 1.0,
    f0_const: complex = 0.0,
    hbar: float = 1.0,
    mass: float = 1.0,
    x_min: float = 0.0,
) -> tuple[Callable, complex]:
    """f1(t), f0 for build_S_from_R that land on the closed-form action.

    The closed form's f1 multiplies sec^2(u) directly, while the
    quadrature's outer integrand carries e^(-2R); the two agree when the
    quadrature f1 carries the compensating factor e^(2 c4 + i hbar c2^2
    t / m).  The x_min lower limit shifts f0 by the closed form's value
    there.
    """
    c2 = complex(c2)
    c3 = complex(c3)
    rate = 1j * hbar * c2**2 / mass

    def f1_fn(t):
        return complex(f1_const) * np.exp(2.0 * complex(c4) + rate * np.asarray(t))

    u_min = 1j * c2 * x_min + c3
    f0_quad = complex(f0_const) - (1j / c2) * complex(f1_const) * cmath.tan(u_min)
    return f1_fn, f0_quad
