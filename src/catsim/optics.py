"""Passive and Gaussian optical elements acting on coherent superpositions.

Beam splitter convention (the i factors are kept verbatim):

    B(theta)|g>_a |b>_b = |g cos(t) + i b sin(t)>_a |b cos(t) + i g sin(t)>_b

Target states such as the two-mode Bell-cat resource are reached from this
convention with explicit compensating phase shifts; `bell_resource` below
encapsulates that.
"""

from __future__ import annotations

import functools

import numpy as np

from .states import CoherentSuperposition, cat, coherent_overlap

__all__ = [
    "beamsplitter",
    "phase_shift",
    "displace",
    "displace_physical",
    "nport_split",
    "nport_merge",
    "bell_resource",
    "append_modes",
    "tensor",
    "permute_modes",
]


def _mix(g: np.ndarray, b: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The two output columns of B(theta) on input amplitude columns g, b."""
    c, sn = np.cos(theta), np.sin(theta)
    return g * c + 1j * b * sn, b * c + 1j * g * sn


def beamsplitter(
    s: CoherentSuperposition, mode_a: int, mode_b: int, theta: float
) -> CoherentSuperposition:
    """Apply B(theta) between mode_a and mode_b."""
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    amps = s.amps.copy()
    amps[:, mode_a], amps[:, mode_b] = _mix(s.amps[:, mode_a], s.amps[:, mode_b], theta)
    return CoherentSuperposition(s.coeffs, amps)


def phase_shift(s: CoherentSuperposition, mode: int, theta: float) -> CoherentSuperposition:
    """P(theta): amplitude in `mode` multiplied by e^{i theta}."""
    s.check_mode(mode)
    amps = s.amps.copy()
    amps[:, mode] = amps[:, mode] * np.exp(1j * theta)
    return CoherentSuperposition(s.coeffs, amps)


def _displacement_phases(beta: complex | np.ndarray, a: np.ndarray) -> np.ndarray:
    """Phases exp[(beta a* - beta* a)/2] of D(beta)|a> = phase |a + beta>,
    elementwise over broadcast arrays of beta and a."""
    return np.exp(0.5 * (beta * np.conj(a) - np.conj(beta) * a))


def displace(s: CoherentSuperposition, mode: int, beta: complex) -> CoherentSuperposition:
    """D(beta)|a> = exp[(beta a* - beta* a)/2] |a + beta>, per term."""
    s.check_mode(mode)
    beta = complex(beta)
    a = s.amps[:, mode]
    phases = _displacement_phases(beta, a)
    amps = s.amps.copy()
    amps[:, mode] = a + beta
    return CoherentSuperposition(s.coeffs * phases, amps)


def displace_physical(
    s: CoherentSuperposition, mode: int, beta: complex, strong_amp: float
) -> CoherentSuperposition:
    """Displacement realized by mixing with a strong coherent ancilla on a
    weak beam splitter, then projecting the ancilla onto its nominal
    post-beam-splitter coherent value.

    Converges to `displace` as strong_amp -> infinity.
    """
    if strong_amp <= 0:
        raise ValueError("strong_amp must be > 0")
    beta = complex(beta)
    if beta == 0:
        return s
    theta = abs(beta) / strong_amp
    # i * theta * anc must equal beta, so the ancilla carries the phase
    anc = strong_amp * np.exp(1j * (np.angle(beta) - np.pi / 2))
    with_anc = append_modes(s, [anc])
    mixed = beamsplitter(with_anc, mode, s.modes, theta)
    # nominal ancilla output ignores the weak leakage from the signal mode
    nominal = anc * np.cos(theta)
    return _project_coherent(mixed, s.modes, nominal).normalize()


def _project_coherent(
    s: CoherentSuperposition, mode: int, value: complex
) -> CoherentSuperposition:
    """Contract `mode` with the coherent bra <value| (unnormalized)."""
    ov = coherent_overlap(value, s.amps[:, mode])
    amps = np.delete(s.amps, mode, axis=1)
    return CoherentSuperposition(s.coeffs * ov, amps)


def nport_split(s: CoherentSuperposition, mode: int, n: int) -> CoherentSuperposition:
    """Symmetric N-port splitter: amplitude a in `mode` becomes a/sqrt(N) in
    each of N output modes (N-1 fresh modes appended at the end).

    Implemented directly on amplitudes; internal phases of a physical
    splitter tree are taken as compensated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s.check_mode(mode)
    if n == 1:
        return s
    src = s.amps[:, mode] / np.sqrt(n)
    amps = np.concatenate(
        [s.amps, np.repeat(src[:, None], n - 1, axis=1)], axis=1
    )
    amps[:, mode] = src
    return CoherentSuperposition(s.coeffs, amps)


def nport_merge(s: CoherentSuperposition, modes: list[int]) -> CoherentSuperposition:
    """Inverse of nport_split over `modes`: assumes each term carries the
    same amplitude in every listed mode; the common amplitude times sqrt(N)
    lands in modes[0] and the remaining listed modes are dropped (they exit
    in vacuum).
    """
    modes = list(modes)
    for m in modes:
        s.check_mode(m)
    n = len(modes)
    block = s.amps[:, modes]
    if block.size and np.max(np.abs(block - block[:, :1])) > 1e-9 * (1 + np.max(np.abs(block))):
        raise ValueError("nport_merge requires equal amplitudes across the merged modes")
    amps = s.amps.copy()
    amps[:, modes[0]] = block[:, 0] * np.sqrt(n)
    amps = np.delete(amps, modes[1:], axis=1)
    return CoherentSuperposition(s.coeffs, amps)


@functools.lru_cache(maxsize=1)
def bell_resource(alpha: float) -> CoherentSuperposition:
    """Two-mode entangled resource (|a,a> + |-a,-a>)/norm built from a
    sqrt(2)a cat and vacuum on a 50/50 beam splitter, with the compensating
    -pi/2 phase shift on the second mode.

    The same arithmetic as `beamsplitter` then `phase_shift` on the
    appended vacuum mode, applied to the amplitude columns directly.  The
    resource for the last alpha is cached and returned shared; it is
    immutable, like every state.  One entry is enough because every gate
    of a circuit runs at one alpha.
    """
    big = cat(np.sqrt(2) * alpha, +1)  # validates alpha before any arithmetic
    col = big.amps[:, 0]
    out_a, out_b = _mix(col, np.zeros_like(col), np.pi / 4)
    amps = np.stack([out_a, out_b * np.exp(1j * (-np.pi / 2))], axis=1)
    return CoherentSuperposition(big.coeffs, amps).merge_terms()


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


def permute_modes(s: CoherentSuperposition, order: list[int]) -> CoherentSuperposition:
    """Reorder modes so new mode i is old mode order[i]."""
    if list(order) == list(range(s.modes)):
        return s  # states are immutable
    if sorted(order) != list(range(s.modes)):
        raise ValueError("order must be a permutation of all modes")
    return CoherentSuperposition(s.coeffs, s.amps[:, order])
