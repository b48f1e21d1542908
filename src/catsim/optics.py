"""Passive and Gaussian optical elements acting on coherent superpositions.

Beam splitter convention (the i factors are kept verbatim):

    B(theta)|g>_a |b>_b = |g cos(t) + i b sin(t)>_a |b cos(t) + i g sin(t)>_b

Target states such as the two-mode Bell-cat resource are reached from this
convention with explicit compensating phase shifts; `bell_resource` below
encapsulates that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import CoherentSuperposition, cat, coherent_overlap

__all__ = [
    "BeamSplitterSpec",
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


@dataclass(frozen=True)
class BeamSplitterSpec:
    mode_a: int
    mode_b: int
    theta: float

    def validate(self, n_modes: int) -> None:
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter needs two distinct modes")
        for m in (self.mode_a, self.mode_b):
            if not 0 <= m < n_modes:
                raise IndexError(f"mode {m} out of range for {n_modes}-mode state")


def beamsplitter(s: CoherentSuperposition, spec: BeamSplitterSpec) -> CoherentSuperposition:
    """Apply B(theta) between spec.mode_a and spec.mode_b."""
    spec.validate(s.modes)
    c, sn = np.cos(spec.theta), np.sin(spec.theta)
    amps = s.amps.copy()
    g = amps[:, spec.mode_a].copy()
    b = amps[:, spec.mode_b].copy()
    amps[:, spec.mode_a] = g * c + 1j * b * sn
    amps[:, spec.mode_b] = b * c + 1j * g * sn
    return CoherentSuperposition(s.coeffs.copy(), amps)


def phase_shift(s: CoherentSuperposition, mode: int, theta: float) -> CoherentSuperposition:
    """P(theta): amplitude in `mode` multiplied by e^{i theta}."""
    s.check_mode(mode)
    amps = s.amps.copy()
    amps[:, mode] = amps[:, mode] * np.exp(1j * theta)
    return CoherentSuperposition(s.coeffs.copy(), amps)


def displace(s: CoherentSuperposition, mode: int, beta: complex) -> CoherentSuperposition:
    """D(beta)|a> = exp[(beta a* - beta* a)/2] |a + beta>, per term."""
    s.check_mode(mode)
    beta = complex(beta)
    a = s.amps[:, mode]
    phases = np.exp(0.5 * (beta * np.conj(a) - np.conj(beta) * a))
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
    mixed = beamsplitter(with_anc, BeamSplitterSpec(mode, s.modes, theta))
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
    return CoherentSuperposition(s.coeffs.copy(), amps)


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
    return CoherentSuperposition(s.coeffs.copy(), amps)


def bell_resource(alpha: float) -> CoherentSuperposition:
    """Two-mode entangled resource (|a,a> + |-a,-a>)/norm built from a
    sqrt(2)a cat and vacuum on a 50/50 beam splitter, with the compensating
    -pi/2 phase shift on the second mode."""
    big = cat(np.sqrt(2) * alpha, +1)
    two = append_modes(big, [0.0])
    mixed = beamsplitter(two, BeamSplitterSpec(0, 1, np.pi / 4))
    return phase_shift(mixed, 1, -np.pi / 2).merge_terms()


def append_modes(s: CoherentSuperposition, values: list[complex]) -> CoherentSuperposition:
    """Append product coherent modes |values[0]>|values[1]>... to the state."""
    extra = np.tile(np.asarray(values, dtype=complex), (s.nterms, 1))
    return CoherentSuperposition(s.coeffs.copy(), np.concatenate([s.amps, extra], axis=1))


def tensor(x: CoherentSuperposition, y: CoherentSuperposition) -> CoherentSuperposition:
    """Tensor product of two superpositions (modes of y appended after x)."""
    kx, ky = x.nterms, y.nterms
    coeffs = np.repeat(x.coeffs, ky) * np.tile(y.coeffs, kx)
    amps = np.concatenate(
        [np.repeat(x.amps, ky, axis=0), np.tile(y.amps, (kx, 1))], axis=1
    )
    return CoherentSuperposition(coeffs, amps)


def permute_modes(s: CoherentSuperposition, order: list[int]) -> CoherentSuperposition:
    """Reorder modes so new mode i is old mode order[i]."""
    if sorted(order) != list(range(s.modes)):
        raise ValueError("order must be a permutation of all modes")
    return CoherentSuperposition(s.coeffs.copy(), s.amps[:, order])
