"""Randomized cross-validation of the coherent-superposition representation
against the independent truncated number-basis oracle.

Each check draws random states and parameters from a seeded generator,
runs the same operation through both representations, and records the
worst-case discrepancy.  The suite is the property-based backbone of the
test suite and is also exposed through the command line runner.

A state row (phase shift, displacement, beam splitter, photon-number
conditioning) reads the distance ||to_fock(out) - op(to_fock(s))|| from one
assembled tensor, the difference itself.  Terms whose amplitudes agree on
every mode the element leaves alone share those modes' Fock columns, so
they are like terms: the oracle's operator acts once on each group of the
input's like terms, on the touched modes only, and catsim's terms (+) and
the oracle's groups (-) are collected again before the difference is
assembled.  Collecting and applying a linear truncated operator group by
group are exact on the truncated space; only the order of the sums
changes.  Conditioning touches no mode: the oracle's conditioned terms are
the input's with the counted mode's column replaced by its amplitude of n
photons, so no tensor has an axis for the counted mode.

No row needs the number basis on a mode it only sums over, so every such
mode enters its tensor through `fockoracle._span`, G coordinates in an
orthonormal basis of its G columns instead of d levels: the modes a state
row's element leaves alone, every mode of the conversion norm, of the
conditioned probability and of the inner product (whose two states share
one basis), and every mode but the counted or measured one in photon
statistics, homodyne densities and parity.  The mode an element touches or
a row reads stays in the number basis, as the block of the assembly.  The
change of basis is an isometry on each spanned mode, so every norm, inner
product and marginal is the one the whole number-basis tensor gives, up to
round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fockoracle as fo
from . import measure, optics
from .states import CoherentSuperposition, inner_product

__all__ = ["AuditRow", "run_audit", "AUDIT_CHECKS"]

DIST_TOL = 1e-10
# smallest qubit amplitude the parity checks draw, so alpha_max must reach it
QUBIT_ALPHA_MIN = 0.8


@dataclass(frozen=True)
class AuditRow:
    name: str
    cases: int
    max_error: float
    tolerance: float
    passed: bool


def _random_state(
    rng: np.random.Generator, alpha_max: float, modes_max: int, terms_max: int = 8
) -> CoherentSuperposition:
    m = int(rng.integers(1, modes_max + 1))
    k = int(rng.integers(1, terms_max + 1))
    mags = rng.uniform(0.0, alpha_max, size=(k, m))
    phases = rng.uniform(0.0, 2 * np.pi, size=(k, m))
    amps = mags * np.exp(1j * phases)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return CoherentSuperposition(coeffs, amps).normalize()


def _nmax(*scales: float) -> int:
    return measure.default_nmax(sum(abs(s) for s in scales))


def _amp_scale(s: CoherentSuperposition) -> float:
    return float(np.max(np.abs(s.amps))) if s.amps.size else 0.0


def _norm(v: np.ndarray) -> float:
    """||v||_2 as a fixed-order sum, independent of the BLAS threads."""
    return math.sqrt(fo.fock_norm_squared(v))


def _collect(rows: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Like terms: the distinct amplitude rows, in order of first
    appearance, and the sum of the blocks of each.  Equal rows have equal
    Fock columns, so sum_k cols(rows_k) (x) blocks_k is unchanged."""
    members: dict = {}
    for k, key in enumerate(map(tuple, rows.tolist())):
        members.setdefault(key, []).append(k)
    firsts = [g[0] for g in members.values()]
    out = blocks[firsts]
    for i, group in enumerate(members.values()):
        for k in group[1:]:
            out[i] += blocks[k]
    return rows[firsts], out


def _difference_norm(rows: np.ndarray, blocks: np.ndarray, shape: tuple, n: int) -> float:
    """||sum_k cols(rows_k) (x) blocks_k||_2 from one assembled tensor of
    the like terms `_collect` finds: `rows` holds the (K, U) amplitudes of
    the untouched modes, `blocks` each row's flattened tensor of `shape` on
    the touched modes (() when no mode is touched)."""
    keys, diff = _collect(rows, blocks)
    return _norm(fo._assemble(diff.reshape((-1,) + shape), fo._span(fo._coherent_columns(keys, n))))


def _read_mode(s: CoherentSuperposition, mode: int, n: int) -> tuple[np.ndarray, int]:
    """s's Fock tensor with `mode` in the number basis, as the block of
    every term, and each other mode in the span of its columns, and the
    axis of `mode`: 1 after the first other mode, 0 when there is none."""
    cols = fo._coherent_columns(s.amps, n)
    rest = fo._span(np.delete(cols, mode, axis=1))
    return fo._assemble(s.coeffs[:, None] * cols[:, mode], rest), min(1, rest.shape[1])


def _element_error(s, out, touched, n, apply) -> float:
    """||to_fock(out, n) - apply(to_fock(s, n))||_2 for catsim's output
    `out` of an element on the modes `touched`, from one assembled tensor;
    `apply` is the oracle's operator on a stack (G, d, ..., d) of blocks
    whose touched modes start at axis 1."""
    rest = [m for m in range(s.modes) if m not in touched]
    shape = (n + 1,) * len(touched)
    blocks = fo._products(s.coeffs[:, None], fo._coherent_columns(s.amps[:, touched], n))
    keys, blocks = _collect(s.amps[:, rest], blocks)
    ref = apply(blocks.reshape((-1,) + shape)).reshape(len(blocks), -1)
    mine = fo._products(out.coeffs[:, None], fo._coherent_columns(out.amps[:, touched], n))
    rows = np.concatenate([out.amps[:, rest], keys])
    return _difference_norm(rows, np.concatenate([mine, np.negative(ref, out=ref)]), shape, n)


def _check_conversion_norm(rng, s, alpha_max):
    v = fo._assemble(s.coeffs, fo._span(fo._coherent_columns(s.amps, _nmax(_amp_scale(s)))))
    return abs(fo.fock_norm_squared(v) - 1.0)


def _check_inner_product(rng, s, alpha_max):
    t = _random_state(rng, _amp_scale(s) or 1.0, modes_max=1, terms_max=4)
    if t.modes != s.modes:
        extra = np.tile(t.amps[:, :1], (1, s.modes - t.modes))
        t = CoherentSuperposition(t.coeffs, np.concatenate([t.amps, extra], axis=1))
    n = _nmax(max(_amp_scale(s), _amp_scale(t)))
    exact = inner_product(s, t)
    # one basis for both states: their columns are spanned together
    cols = fo._span(fo._coherent_columns(np.concatenate([s.amps, t.amps]), n))
    oracle = fo.fock_inner(fo._assemble(s.coeffs, cols[: s.nterms]), fo._assemble(t.coeffs, cols[s.nterms :]))
    return abs(exact - oracle)


def _check_phase_shift(rng, s, alpha_max):
    theta = rng.uniform(-np.pi, np.pi)
    mode = int(rng.integers(s.modes))
    n = _nmax(_amp_scale(s))
    out = optics.phase_shift(s, mode, theta)
    return _element_error(s, out, [mode], n, lambda v: fo.fock_phase(v, 1, theta))


def _check_displace(rng, s, alpha_max):
    beta = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    mode = int(rng.integers(s.modes))
    n = _nmax(_amp_scale(s), beta)
    out = optics.displace(s, mode, beta)
    return _element_error(s, out, [mode], n, lambda v: fo.fock_displace(v, 1, beta))


def _check_beamsplitter(rng, s, alpha_max):
    if s.modes < 2:
        s = optics.append_modes(s, [rng.uniform(0, 1.5)])
    theta = rng.uniform(-np.pi, np.pi)
    a, b = (int(m) for m in rng.choice(s.modes, size=2, replace=False))
    # the oracle keeps the photon-number blocks N <= n of the pair.  A term's
    # N is Poisson with mean |alpha_a|^2 + |alpha_b|^2 <= (sqrt(2) scale)^2,
    # so this cutoff holds N to its sub-1e-12 tail; at alpha_max = 4 (mean
    # 32, n = 109) a unit term leaves P(N > n) ~ 4e-27, amplitude ~ 6e-14
    n = _nmax(np.sqrt(2) * _amp_scale(s))
    out = optics.beamsplitter(s, a, b, theta)
    return _element_error(s, out, [a, b], n, lambda v: fo.fock_beamsplitter(v, 1, 2, theta))


def _check_photon_statistics(rng, s, alpha_max):
    mode = int(rng.integers(s.modes))
    n = _nmax(_amp_scale(s))
    exact = measure.photon_statistics(s, mode, n)
    oracle = fo.fock_measure_number(*_read_mode(s, mode, n))
    return float(np.max(np.abs(exact - oracle)))


def _check_photon_conditioning(rng, s, alpha_max):
    mode = int(rng.integers(s.modes))
    n = _nmax(_amp_scale(s))
    stats = measure.photon_statistics(s, mode, n)
    pick = int(np.argmax(stats))
    rec = measure.project_photon_number(s, mode, pick)
    # the oracle's conditioned terms, before normalization
    cols = fo._coherent_columns(s.amps, n)
    coeffs, rest = s.coeffs * cols[:, mode, pick], np.delete(s.amps, mode, axis=1)
    p_or = fo.fock_norm_squared(fo._assemble(coeffs, fo._span(np.delete(cols, mode, axis=1))))
    if p_or <= 0.0:
        raise ValueError(f"zero-probability branch n={pick}")
    err = abs(rec.probability - p_or)
    if rec.state is not None and rec.state.modes > 0:
        rows = np.concatenate([rec.state.amps, rest])
        blocks = np.concatenate([rec.state.coeffs, -coeffs / math.sqrt(p_or)])
        err = max(err, _difference_norm(rows, blocks, (), n))
    return err


def _check_homodyne_pdf(rng, s, alpha_max):
    mode = int(rng.integers(s.modes))
    n = _nmax(_amp_scale(s))
    xs = np.linspace(-(_amp_scale(s) * np.sqrt(2) + 5), _amp_scale(s) * np.sqrt(2) + 5, 41)
    exact = measure.homodyne_pdf(s, mode, xs)
    v, axis = _read_mode(s, mode, n)
    oracle = fo.fock_quadrature_pdf(v, axis, xs)
    return float(np.max(np.abs(exact - oracle)))


def _random_qubit_like(rng, alpha_max):
    """State supported on {+a, -a} in every mode, as parity checks require."""
    a = rng.uniform(QUBIT_ALPHA_MIN, alpha_max)
    m = int(rng.integers(1, 3))
    k = int(rng.integers(1, 5))
    signs = rng.choice([-1.0, 1.0], size=(k, m))
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return CoherentSuperposition(coeffs, signs * a).merge_terms().normalize()


def _check_parity_projection(rng, s, alpha_max):
    s = _random_qubit_like(rng, alpha_max)
    mode = int(rng.integers(s.modes))
    n = _nmax(_amp_scale(s))
    recs = measure.parity_projection(s, mode)
    oracle = fo.fock_measure_number(*_read_mode(s, mode, n))
    p_zero, p_even_nz, p_odd = oracle[0], np.sum(oracle[2::2]), np.sum(oracle[1::2])
    err = max(
        abs(recs["zero"].probability - p_zero),
        abs(recs["even_nonzero"].probability - p_even_nz),
        abs(recs["odd"].probability - p_odd),
    )
    return float(err)


def _check_bell_completeness(rng, s, alpha_max):
    s = _random_qubit_like(rng, alpha_max)
    if s.modes < 2:
        amp = abs(s.amps[0, 0])
        extra = amp * rng.choice([-1.0, 1.0])
        s = optics.append_modes(s, [extra])
    recs = measure.bell_outcomes(s, 0, 1)
    total = sum(r.probability for r in recs.values())
    return abs(total - 1.0)


AUDIT_CHECKS = [
    ("conversion_norm", _check_conversion_norm),
    ("inner_product", _check_inner_product),
    ("phase_shift", _check_phase_shift),
    ("displace", _check_displace),
    ("beamsplitter", _check_beamsplitter),
    ("photon_statistics", _check_photon_statistics),
    ("photon_conditioning", _check_photon_conditioning),
    ("homodyne_pdf", _check_homodyne_pdf),
    ("parity_projection", _check_parity_projection),
    ("bell_completeness", _check_bell_completeness),
]


def run_audit(
    seed: int,
    cases_per_check: int = 20,
    alpha_max: float = 3.0,
    modes_max: int = 3,
) -> list[AuditRow]:
    """Run every registered equivalence check `cases_per_check` times."""
    if cases_per_check < 1:
        raise ValueError("cases_per_check must be >= 1")
    if alpha_max < QUBIT_ALPHA_MIN:
        raise ValueError(f"alpha_max must be >= {QUBIT_ALPHA_MIN}")
    if modes_max < 1:
        raise ValueError("modes_max must be >= 1")
    rows = []
    for index, (name, fn) in enumerate(AUDIT_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        worst = 0.0
        for _ in range(cases_per_check):
            s = _random_state(rng, alpha_max, modes_max)
            worst = max(worst, float(fn(rng, s, alpha_max)))
        rows.append(AuditRow(name, cases_per_check, worst, DIST_TOL, worst <= DIST_TOL))
    return rows
