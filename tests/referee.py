"""The 50-digit referee of the exactness tests: coherent-state overlaps,
Gram matrices and quadratic forms on one mpmath context at 50 digits.

It imports nothing from catsim, so no fault of the simulator can reach the
reference it is checked against.  It works on a clone of mpmath's context
and never sets the global precision.  mpmath is imported on the first
`ctx()` call, not when this module loads: a missing mpmath skips only the
tests that call it.  Pytest does not collect this file.  Floats and NumPy
scalars enter the context exactly.
"""

import functools

import pytest


@functools.cache
def ctx():
    """The referee's mpmath context, a clone of `mpmath.mp` at 50 digits."""
    c = pytest.importorskip("mpmath").mp.clone()
    c.dps = 50
    return c


def overlap(x, y):
    """<x|y> of the product coherent states |x_0>|x_1>... and |y_0>|y_1>...:
    exp(sum_m conj(x_m) y_m - (|x_m|^2 + |y_m|^2) / 2)."""
    c = ctx()
    return c.exp(c.fsum(c.conj(a) * b - (c.fabs(a) ** 2 + c.fabs(b) ** 2) / 2 for a, b in zip(x, y)))


def gram(rows):
    """The overlap matrix [<x_j|x_k>] of the amplitude rows x, as nested lists."""
    return [[overlap(xj, xk) for xk in rows] for xj in rows]


def form(v, g):
    """sum_jk conj(v_j) g_jk v_k of the coefficients v on the matrix g."""
    c = ctx()
    return c.fsum(c.conj(vj) * gjk * vk for vj, row in zip(v, g) for gjk, vk in zip(row, v))
