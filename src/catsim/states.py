"""Finite superpositions of multimode coherent states.

A state is a sum of K terms, each a complex coefficient times a product
of M coherent states |a_1,...,a_M>.  Coherent states are not orthogonal,
so every norm, inner product, branch probability and metrology moment is
one `_gram_forms` call: quadratic forms on the full Gram matrix of
pairwise overlaps, built once per call.  No orthogonality approximation
is made anywhere.
"""

from __future__ import annotations

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

# Coefficients below this fraction of the largest |coeff| are dropped;
# keeps the term count bounded under repeated teleportations.
DROP_THRESHOLD = 1e-14

# Rows of the K x K distance table `merge_terms` builds at a time.  A band
# of K = 128 complex differences is 64 KiB, below glibc's 128 KiB mmap
# threshold, so its temporaries are reused instead of mapped and faulted in
# afresh on every call.
_MERGE_ROWS = 32


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
        (max-norm) and drop negligibly small coefficients.

        Terms are grouped greedily in term order: each term joins the first
        earlier representative it is close to, or else becomes one.  A
        representative keeps its first term's amplitudes, and its
        coefficient is the sum of its terms' coefficients in term order.
        """
        k = self.nterms
        if k <= 1:
            return self
        if self.modes == 0:
            # a scalar: all terms are one, summed in term order
            return CoherentSuperposition(np.cumsum(self.coeffs)[-1:], self.amps[:1])
        # max-norm distances, accumulated mode by mode, a band of rows at a time
        cols = self.amps.T
        close = np.empty((k, k), dtype=bool)
        for band in range(0, k, _MERGE_ROWS):
            rows = slice(band, band + _MERGE_ROWS)
            dist = np.abs(cols[0][rows, None] - cols[0])
            for col in cols[1:]:
                np.maximum(dist, np.abs(col[rows, None] - col), out=dist)
            close[rows] = dist <= MERGE_TOL
        # label[j]: first term close to term j.  If every label is its own
        # label, the terms with label[j] == j are the greedy representatives.
        label = close.argmax(axis=1)
        if not (label[label] == label).all():
            # not transitive: greedy scan (close[j, j] holds, so it stops by j)
            is_rep = np.ones(k, dtype=bool)
            for j in range(k):
                label[j] = (close[j] & is_rep).argmax()
                is_rep[j] = label[j] == j
        reps = label == np.arange(k)
        if reps.all():
            coeffs, amps = self.coeffs, self.amps
        else:
            # unbuffered, in term order, onto each representative's own value
            sums = self.coeffs.copy()
            dups = ~reps
            np.add.at(sums, label[dups], self.coeffs[dups])
            coeffs, amps = sums[reps], self.amps[reps]
        mag = np.abs(coeffs)
        keep = mag >= DROP_THRESHOLD * mag.max()
        if not keep.all() and keep.any():
            coeffs, amps = coeffs[keep], amps[keep]
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


def cat(alpha: complex, parity: int = +1) -> CoherentSuperposition:
    """Normalized even (parity=+1) or odd (parity=-1) cat |a> +/- |-a>."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    s = CoherentSuperposition(
        np.array([1.0, parity], dtype=complex),
        np.array([[alpha], [-alpha]], dtype=complex),
    )
    return s.normalize()


def bell_cat(alpha: complex, kind: str = "i") -> CoherentSuperposition:
    """The four two-mode Bell-cat states.

    i:   |-a,-a> + |a,a>      ii:  |-a,-a> - |a,a>
    iii: |-a,a>  + |a,-a>     iv:  |-a,a>  - |a,-a>
    """
    a = complex(alpha)
    table = {
        "i": ([1, 1], [[-a, -a], [a, a]]),
        "ii": ([1, -1], [[-a, -a], [a, a]]),
        "iii": ([1, 1], [[-a, a], [a, -a]]),
        "iv": ([1, -1], [[-a, a], [a, -a]]),
    }
    if kind not in table:
        raise ValueError(f"unknown Bell-cat kind {kind!r}")
    coeffs, amps = table[kind]
    return CoherentSuperposition(np.array(coeffs, dtype=complex), np.array(amps)).normalize()


def ghz_cat(alpha: complex, n_modes: int) -> CoherentSuperposition:
    """N-mode GHZ cat (|a/sqrt(N),...> + |-a/sqrt(N),...>)/norm."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    a = complex(alpha) / np.sqrt(n_modes)
    amps = np.array([[a] * n_modes, [-a] * n_modes], dtype=complex)
    return CoherentSuperposition(np.array([1.0, 1.0], dtype=complex), amps).normalize()
