"""Finite superpositions of multimode coherent states.

A state is a sum of K terms, each a complex coefficient times a product
of M coherent states |a_1,...,a_M>.  Coherent states are not orthogonal,
so every norm, inner product, branch probability and metrology moment is
a quadratic form on the full Gram matrix of pairwise overlaps.  A
two-term state c0|x> + c1|-x> (the cats, the Bell cats, the GHZ probe,
an encoded qubit) is normalized by the exact closed form of its 2 x 2
Gram matrix, `_pair_norm`; every other form is one `_gram_forms` call,
built once per call (a gate's branch table too: `gates` splits the
resource's pair into its two eigen-forms).  No orthogonality
approximation is made anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherentSuperposition",
    "ZeroNormError",
    "coherent_overlap",
    "inner_product",
    "fidelity",
    "coherent",
    "vacuum",
    "cat",
    "bell_cat",
    "ghz_cat",
]

# Terms whose amplitude vectors agree to within this max-norm distance are
# combined into one.  Far below any physical separation (min |2a| >= 2 for
# the encodings used here), far above double-precision noise.
MERGE_TOL = 1e-12

# `merge_terms` sorts terms by Re(sum_m w_m a_m) for these fixed unit
# weights w_m, one per mode, at phases a golden angle apart so that distinct
# register terms (+/-a per mode) seldom project close together; a near tie
# costs one exact comparison, never a wrong merge.  Modes past the 32nd are
# left out of the sort key but still compared exactly.
_MERGE_AXIS = np.exp(2j * np.pi * 0.6180339887498949 * np.arange(1, 33))


class ZeroNormError(ValueError):
    """State (or measurement branch) has vanishing norm."""


def coherent_overlap(a: complex | np.ndarray, b: complex | np.ndarray) -> complex | np.ndarray:
    """Overlap <a|b> of single-mode coherent states, elementwise over
    broadcast arrays of amplitudes (scalars give a scalar).

    <a|b> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b); magnitude <= 1.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.exp(-0.5 * np.abs(a) ** 2 - 0.5 * np.abs(b) ** 2 + np.conj(a) * b)


def _overlap_matrix(amps_x: np.ndarray, amps_y: np.ndarray) -> np.ndarray:
    """Matrix of multimode overlaps O[j,k] = prod_m <x_jm|y_km>."""
    # exponent: -|x_j|^2/2 - |y_k|^2/2 + conj(x_j).y_k summed over modes
    # |a|^2 laid out C-contiguous whatever the layout of the amplitudes, so
    # every row sums in the same (pairwise) order and equal amplitudes give
    # equal bits however they were gathered
    nx = 0.5 * (np.abs(amps_x, order="C") ** 2).sum(axis=1)
    # a norm or a branch table passes one array twice: its half-norms once
    ny = nx if amps_y is amps_x else 0.5 * (np.abs(amps_y, order="C") ** 2).sum(axis=1)
    # in place, so a large K x K exponent costs one allocation, not four
    out = np.conj(amps_x) @ amps_y.T
    out -= nx[:, None]
    out -= ny[None, :]
    return np.exp(out, out=out)


def _gram_forms(
    x_amps: np.ndarray, left: np.ndarray, y_amps: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """sum_jk conj(left[..., j]) O[j, k] right[..., k] for every row of the
    (..., K) stacks `left` and `right`, from the one overlap matrix
    O = _overlap_matrix(x_amps, y_amps)."""
    return np.einsum("...j,...j->...", left.conj() @ _overlap_matrix(x_amps, y_amps), right)


@dataclass(frozen=True)
class CoherentSuperposition:
    """Immutable K-term, M-mode superposition sum_k c_k |a_k1,...,a_kM>.

    `coeffs` has shape (K,), `amps` shape (K, M).  Zero-mode states
    (M == 0) are permitted internally: they arise when every mode of a
    state has been measured and behave as complex scalars.
    """

    coeffs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2:
            if amps.ndim > 2:
                raise ValueError(f"amps must be at most 2-D (terms, modes), got shape {amps.shape}")
            amps = amps.reshape(len(coeffs), -1)
        if amps.shape[0] != coeffs.shape[0]:
            raise ValueError(
                f"{coeffs.shape[0]} coefficients but {amps.shape[0]} amplitude rows"
            )
        finite = np.count_nonzero(np.isfinite(coeffs)) + np.count_nonzero(np.isfinite(amps))
        if finite != coeffs.size + amps.size:
            raise ValueError("non-finite coefficient or amplitude")
        coeffs.flags.writeable = False
        amps.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "amps", amps)

    @property
    def modes(self) -> int:
        return self.amps.shape[1]

    @property
    def nterms(self) -> int:
        return self.coeffs.shape[0]

    def check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.modes:
            raise IndexError(f"mode {mode} out of range for {self.modes}-mode state")

    def norm_squared(self) -> float:
        return float(_gram_forms(self.amps, self.coeffs, self.amps, self.coeffs).real)

    def normalize(self) -> "CoherentSuperposition":
        n2 = self.norm_squared()
        if n2 <= 1e-300:
            raise ZeroNormError("cannot normalize a zero-norm state")
        return CoherentSuperposition(self.coeffs / np.sqrt(n2), self.amps)

    def merge_terms(self) -> "CoherentSuperposition":
        """Combine terms whose amplitude vectors agree to within MERGE_TOL
        (max-norm).  No term is dropped, however small its coefficient.

        Terms are grouped greedily in term order: each term joins the first
        earlier representative it is close to, or else becomes one.  A
        representative keeps its first term's amplitudes, and its
        coefficient is the sum of its terms' coefficients in term order.

        Close pairs are found from one sort of the terms by a fixed real
        projection of their amplitudes (`_MERGE_AXIS`): only pairs whose
        projections lie within a window that provably holds every close
        pair, rounding included, get the exact max-norm test, so no K x K
        table is built and the result does not depend on how BLAS sums.
        """
        k = self.nterms
        if k <= 1:
            return self
        if self.modes == 0:
            # a scalar: all terms are one, summed in term order
            return CoherentSuperposition(np.cumsum(self.coeffs)[-1:], self.amps[:1])
        # Candidate pairs from one sort of the projection p_j = Re(sum_m w_m
        # a_jm) over the first n modes.  A close pair has |p_j - p_k| <=
        # n MERGE_TOL, as |w_m| = 1.  Each computed p is the real parts of n
        # complex products summed, off by at most gamma_(n+1) n max|a| in
        # any summation order.  The window adds 8 times that bound of both
        # terms together, which also covers its own rounding and that of
        # the key differences, so it holds every close pair, and only the
        # exact test below decides.  The 8 is a proof margin, not a tuned
        # value: with 2 in its place every test still passes, because no
        # input rounds a close pair's keys that far apart, but only the
        # margin makes the window hold every close pair by the bound.
        cols = self.amps[:, : len(_MERGE_AXIS)]
        n = cols.shape[1]
        top = float(np.abs(cols).max())
        window = n * (MERGE_TOL + 8 * (n + 1) * 2.0**-52 * (top + MERGE_TOL))
        proj = (cols * _MERGE_AXIS[:n]).real.sum(axis=1)
        order = proj.argsort(kind="stable")
        key = proj[order]
        # the close pairs (lo, hi), lo < hi, among the pairs `lag` apart in
        # sorted order, for every lag up to the first at which no pair lies
        # within the window (none lies within it at a larger lag)
        lo, hi, lag = [], [], 1
        while lag < k and (key[lag:] - key[:-lag] <= window).any():
            if lag == 1:
                rows = self.amps[order]
            # the exact max-norm test
            pos = (np.abs(rows[lag:] - rows[:-lag]).max(axis=1) <= MERGE_TOL).nonzero()[0]
            a, b = order[pos], order[pos + lag]
            lo.append(np.minimum(a, b))
            hi.append(np.maximum(a, b))
            lag += 1
        coeffs, amps = self.coeffs, self.amps
        if lo:
            lo, hi = np.concatenate(lo), np.concatenate(hi)
        if len(lo):
            # label[j]: first term close to term j.  If every label is its
            # own label, the terms with label[j] == j are the greedy
            # representatives.
            label = np.arange(k)
            np.minimum.at(label, hi, lo)
            reps = label == np.arange(k)
            if not reps[label].all():
                # not transitive: greedy scan in term order, each term
                # joining its first close earlier representative
                reps = np.ones(k, dtype=bool)
                for j in np.unique(hi):
                    earlier = lo[hi == j]
                    earlier = earlier[reps[earlier]]
                    label[j] = earlier.min() if len(earlier) else j
                    reps[j] = label[j] == j
            # unbuffered, in term order, onto each representative's own value
            sums = self.coeffs.copy()
            dups = ~reps
            np.add.at(sums, label[dups], self.coeffs[dups])
            coeffs, amps = sums[reps], self.amps[reps]
        if coeffs is self.coeffs:
            return self
        return CoherentSuperposition(coeffs, amps)

    def scaled(self, factor: complex) -> "CoherentSuperposition":
        return CoherentSuperposition(self.coeffs * factor, self.amps)


def inner_product(x: CoherentSuperposition, y: CoherentSuperposition) -> complex:
    """<x|y> via the full cross-Gram sum (no orthogonality assumption)."""
    if x.modes != y.modes:
        raise ValueError(f"mode-count mismatch: {x.modes} vs {y.modes}")
    return complex(_gram_forms(x.amps, x.coeffs, y.amps, y.coeffs))


def fidelity(x: CoherentSuperposition, y: CoherentSuperposition) -> float:
    """|<x|y>|^2 for normalized x, y."""
    return abs(inner_product(x, y)) ** 2


# ---------------------------------------------------------------------------
# constructors

def coherent(*amps: complex) -> CoherentSuperposition:
    """Product coherent state |a_1,...,a_M>."""
    return CoherentSuperposition(np.ones(1, dtype=complex), np.array([amps], dtype=complex))


def vacuum(modes: int = 1) -> CoherentSuperposition:
    return coherent(*([0.0] * modes))


def _pair_norm(sq: float, c0: complex, c1: complex) -> float:
    """Norm of c0|x> + c1|-x> for a product amplitude x with ||x||^2 = sq.

    Its 2 x 2 Gram matrix has off-diagonal <x|-x> = o = e^{-2 sq}, so the
    norm^2 is (|c0|^2 + |c1|^2)(1 - o) + |c0 + c1|^2 o with 1 - o from
    expm1: both terms are >= 0, so nothing cancels.  ZeroNormError at or
    below 1e-300 (as in `normalize`) or NaN."""
    o = math.exp(-2 * sq)
    a0, a1, a01 = abs(c0), abs(c1), abs(c0 + c1)
    n2 = -(a0 * a0 + a1 * a1) * math.expm1(-2 * sq) + a01 * a01 * o
    if not n2 > 1e-300:
        raise ZeroNormError(f"c0|x> + c1|-x> has norm^2 {n2:.3g} at ||x||^2 = {sq:.3g}")
    return math.sqrt(n2)


def _pair(x: tuple, c0: complex, c1: complex) -> CoherentSuperposition:
    """Normalized c0|x> + c1|-x> for a tuple x of per-mode amplitudes, by
    the closed form `_pair_norm`; no Gram matrix is built."""
    n = _pair_norm(sum(abs(v) * abs(v) for v in x), c0, c1)
    return CoherentSuperposition(
        np.array([c0 / n, c1 / n], dtype=complex), np.array([x, [-v for v in x]], dtype=complex)
    )


def cat(alpha: complex, parity: int = +1) -> CoherentSuperposition:
    """Normalized even (parity=+1) or odd (parity=-1) cat |a> +/- |-a>."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    return _pair((alpha,), 1, parity)


def bell_cat(alpha: complex, kind: str = "i") -> CoherentSuperposition:
    """The four normalized two-mode Bell-cat states.

    i:   |-a,-a> + |a,a>      ii:  |-a,-a> - |a,a>
    iii: |-a,a>  + |a,-a>     iv:  |-a,a>  - |a,-a>
    """
    if kind not in ("i", "ii", "iii", "iv"):
        raise ValueError(f"unknown Bell-cat kind {kind!r}")
    a = complex(alpha)
    b = a if kind in ("i", "ii") else -a  # the second mode of the |a, .> term
    return _pair((-a, -b), 1, -1 if kind in ("ii", "iv") else 1)


def ghz_cat(alpha: complex, n_modes: int) -> CoherentSuperposition:
    """N-mode GHZ cat (|a/sqrt(N),...> + |-a/sqrt(N),...>)/norm."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return _pair((complex(alpha) / math.sqrt(n_modes),) * n_modes, 1, 1)
