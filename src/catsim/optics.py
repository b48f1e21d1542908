"""Passive and Gaussian optical elements acting on coherent superpositions.

Passive linear optics maps a multimode coherent state |a> to |U a> exactly,
for the unitary U of the network.  Every passive element here (beam
splitter, phase shifter, N-port merge) is that one map, `_passive`,
applied to the amplitude columns of the modes it touches; the
coefficients are left alone.  Displacement is the one Gaussian element:
it shifts a column and multiplies each coefficient by its phase.

Beam splitter convention (the i factors are kept verbatim):

    B(theta)|g>_a |b>_b = |g cos(t) + i b sin(t)>_a |b cos(t) + i g sin(t)>_b

The two-mode Bell-cat resource is the state that a cat and vacuum on
B(pi/4) prepare in this convention, after a compensating phase shift;
`bell_resource` builds it from its closed form, with no optical step.
"""

from __future__ import annotations

import numpy as np

# coherent_overlap stays bound here for bench/tracer.py, which wraps it per module
from .states import CoherentSuperposition, _pair, coherent_overlap  # noqa: F401

__all__ = [
    "beamsplitter",
    "phase_shift",
    "displace",
    "nport_merge",
    "bell_resource",
    "append_modes",
    "tensor",
]


def _passive(cols: np.ndarray, u) -> np.ndarray:
    """The n x n passive unitary u (an array or nested lists) on the (K, n)
    amplitude columns `cols`: out[:, i] = sum_j cols[:, j] * u[i, j],
    summed in j order from the j = 0 product, with the column operand
    first (NumPy's complex product is not bitwise commutative) and no
    matmul, whose rounding follows BLAS.  The columns of the (K, n) result
    are contiguous."""
    out = np.empty((len(u), len(cols)), dtype=complex)
    for acc, row in zip(out, u):
        np.multiply(cols[:, 0], row[0], out=acc)
        for j in range(1, len(row)):
            acc += cols[:, j] * row[j]
    return out.T


def _beamsplitter_u(theta: float) -> list[list[complex]]:
    """U of B(theta) on the mode pair (a, b)."""
    c, sn = np.cos(theta), np.sin(theta)
    return [[c, 1j * sn], [1j * sn, c]]


def _apply(s: CoherentSuperposition, modes: list[int], u) -> np.ndarray:
    """Amplitudes of s after the passive unitary u on `modes` (distinct)."""
    modes = list(modes)
    if not modes or len(set(modes)) != len(modes):
        raise ValueError(f"a passive element needs distinct modes, got {modes}")
    for m in modes:
        s.check_mode(m)
    amps = s.amps.copy()
    # column by column: cheaper than a fancy-index assignment at n <= 2
    for m, col in zip(modes, _passive(s.amps.take(modes, axis=1), u).T):
        amps[:, m] = col
    return amps


def beamsplitter(
    s: CoherentSuperposition, mode_a: int, mode_b: int, theta: float
) -> CoherentSuperposition:
    """Apply B(theta) between mode_a and mode_b."""
    return CoherentSuperposition(s.coeffs, _apply(s, [mode_a, mode_b], _beamsplitter_u(theta)))


def phase_shift(s: CoherentSuperposition, mode: int, theta: float) -> CoherentSuperposition:
    """P(theta): amplitude in `mode` multiplied by e^{i theta}."""
    return CoherentSuperposition(s.coeffs, _apply(s, [mode], [[np.exp(1j * theta)]]))


def displace(s: CoherentSuperposition, mode: int, beta: complex) -> CoherentSuperposition:
    """D(beta)|a> = exp[(beta a* - beta* a)/2] |a + beta>, per term."""
    s.check_mode(mode)
    beta = complex(beta)
    a = s.amps[:, mode]
    phases = np.exp(0.5 * (beta * np.conj(a) - np.conj(beta) * a))
    amps = s.amps.copy()
    amps[:, mode] = a + beta
    return CoherentSuperposition(s.coeffs * phases, amps)


def nport_merge(s: CoherentSuperposition, modes: list[int]) -> CoherentSuperposition:
    """Symmetric N-port merge over `modes`: U = DFT^dagger, whose first
    output, the sum of the N amplitudes over sqrt(N), lands in modes[0].
    Every other output must leave in vacuum, as it does when each term
    carries the same amplitude in every listed mode; those modes are
    dropped.
    """
    modes = list(modes)
    k = np.arange(len(modes))
    amps = _apply(s, modes, np.exp(-2j * np.pi * np.outer(k, k) / len(k)) / np.sqrt(len(k)))
    tol = 1e-9 * (1 + np.max(np.abs(s.amps[:, modes]), initial=0.0))
    if np.max(np.abs(amps[:, modes[1:]]), initial=0.0) > tol:
        raise ValueError("nport_merge requires equal amplitudes across the merged modes")
    return CoherentSuperposition(s.coeffs, np.delete(amps, modes[1:], axis=1))


def bell_resource(alpha: float) -> CoherentSuperposition:
    """Two-mode entangled resource (|a,a> + |-a,-a>)/norm, in that term
    order, normalized in closed form by `states._pair`.

    It is the state that a sqrt(2)a even cat and vacuum on B(pi/4), then
    P(-pi/2) on the second mode, prepare (Jeong & Kim, PRA 65, 042305
    (2002)); the tests check it against that chain.  The gates read the
    same closed form without building the state (`gates._resource`): a
    teleport's Bell table (`gates._bell_step`) and gate_rx.
    """
    return _pair((alpha, alpha), 1, 1)


def append_modes(s: CoherentSuperposition, values: list[complex]) -> CoherentSuperposition:
    """Append product coherent modes |values[0]>|values[1]>... to the state."""
    extra = np.tile(np.asarray(values, dtype=complex), (s.nterms, 1))
    return CoherentSuperposition(s.coeffs, np.concatenate([s.amps, extra], axis=1))


def tensor(x: CoherentSuperposition, y: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product of two superpositions (modes of y appended after x)."""
    kx, ky, m = x.nterms, y.nterms, x.modes + y.modes
    # term j * ky + k is x's term j times y's term k; the broadcast product
    # rounds as the elementwise one does (np.multiply.outer differs at 1 x 1)
    amps = np.empty((kx, ky, m), dtype=complex)
    amps[:, :, : x.modes] = x.amps[:, None]
    amps[:, :, x.modes :] = y.amps
    coeffs = (x.coeffs[:, None] * y.coeffs[None, :]).reshape(kx * ky)
    return CoherentSuperposition(coeffs, amps.reshape(kx * ky, m))
