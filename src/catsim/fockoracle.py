"""Truncated number-basis simulator used as an independent brute-force
oracle for the coherent-superposition representation.

Deliberately shares no arithmetic code path with the primary modules:
coherent-state coefficients come from a cumulative-product recurrence,
unitaries from generator exponentials in the number basis, and quadrature
densities from the Hermite-function recurrence.

Each unitary is applied through an eigendecomposition that does not depend
on the angle or amplitude, so it is computed once and cached:

- The beam splitter conserves the total photon number N, so its generator
  is block diagonal, and a cutoff of d levels per mode keeps the blocks
  N < d whole.  On them the oracle applies the exact beam splitter; the
  corner n_a + n_b >= d, where the cutoff would cut the blocks, is set to
  0.  A cutoff that holds the pair's total photon number leaves only its
  tail in that corner.  The block of N depends on N alone, so
  `_block_eigh` caches it once for every cutoff above N.
- The displacement is the exponential of its generator truncated to the
  cutoff.  Its generator h(beta) = -i(beta a^dag - beta^* a) equals
  |beta| S h(i) S^dag with S = diag(e^{i n (arg beta - pi/2)}) and the real
  h(i) = a + a^dag, so `_quadrature_eigh` caches one eigendecomposition per
  cutoff, and a call only applies phases to it to form the unitary.  The
  unitary acts by one matrix product over the mode moved to the last axis.

`fock_beamsplitter` copies the two modes to the front of one array, the
(d, d) grid of (n_a, n_b) leading.  In that row-major grid the entry
(n_a, n_b) sits at row n_a d + n_b = N + n_a (d - 1), so the block of N is
one strided view with step d - 1, and each block is transformed in place,
with no gather or scatter; one boolean mask on the grid zeroes the
corner.  All the blocks' eigenvalue phases come from one `exp` call.  The
only array the size of the input that the call makes is its output.

`_block_eigh` and `_quadrature_eigh` are `functools.lru_cache`s bounded by
entry counts: the keys an audit at the command line's largest `alpha_max`,
4, asks for.  Its beam splitter's cutoffs reach d = 110 levels per mode,
whose blocks N = 1..109 serve every cutoff up to it and hold 3.5 MiB, and
its displacement's reach d = 107, one basis per cutoff, at most 3.4 MB in
all.  So the audit evicts no entry and decomposes none twice.  An entry
holds up to d^2 numbers, so a library call at cutoffs far above the
audit's keeps up to 109 blocks of its own size.

Every tensor is made by one assembly, `_assemble`: a sum over G groups,
each a block on the modes an element touches times the Fock columns of the
modes it leaves alone.  `to_fock` is the case with no touched mode, a
group per term and its coefficient for the block, and builds the whole
d^M tensor (a state of no mode is the sum of its coefficients).  The
assembly writes the first group straight into the tensor and adds the
others in group order, each a rounded product formed in one reused
buffer, rather than contracting over the groups with a matrix product:
BLAS fuses the multiply and the add, which leaves a residue of about 1e-17
where a cat's amplitudes of the opposite parity must cancel to exactly 0.

A norm, an inner product or a marginal needs no number basis on a mode it
only sums over.  `_span` moves such a mode's G columns of d levels into an
orthonormal basis Q of their span, min(d, G) coordinates each, by one
batched Householder QR.  The tensor has no component outside span Q, and Q
is an isometry, so that sum is the same in the new coordinates: the change
is exact up to round-off, and Householder QR's backward error is of the
size of the columns' own rounding (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 19).  Two tensors whose inner product is read
share one basis, spanned from both sets of columns.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .states import CoherentSuperposition

__all__ = [
    "to_fock",
    "fock_norm_squared",
    "fock_inner",
    "fock_phase",
    "fock_displace",
    "fock_beamsplitter",
    "fock_measure_number",
    "fock_quadrature_pdf",
]

def _coherent_columns(amps: np.ndarray, n_max: int) -> np.ndarray:
    """<n|alpha> for n = 0..n_max along a new last axis, for every
    amplitude in `amps`: one cumulative product of the recurrence steps
    c_0 = exp(-|alpha|^2/2), c_n = c_{n-1} alpha/sqrt(n)."""
    steps = np.empty(amps.shape + (n_max + 1,), dtype=complex)
    steps[..., 0] = np.exp(-0.5 * np.abs(amps) ** 2)
    steps[..., 1:] = amps[..., None] / np.sqrt(np.arange(1.0, n_max + 1))
    return np.cumprod(steps, axis=-1)


def _products(head: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row's outer product head[k] (x) cols[k, 0] (x) cols[k, 1] ...,
    flattened: the (K, B) head and the (K, U, d) columns give (K, B d^U),
    every entry rounded in the product order head * col_0 * col_1 ..."""
    for m in range(cols.shape[1]):
        head = (head[:, :, None] * cols[:, m, None, :]).reshape(len(head), -1)
    return head


def _assemble(blocks: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_g col_g0 (x) block_g (x) col_g1 (x) ... (x) col_g(U-1): the G
    blocks (G, *shape), each a tensor on the modes an element touches, times
    the (G, U, d) Fock columns of the U modes it leaves alone.  The axes are
    the first untouched mode, the block's, then the other untouched modes;
    with U = 0 the result is the sum of the blocks."""
    if cols.shape[1] == 0:
        return blocks.sum(axis=0)
    d = cols.shape[2]
    # the block times the columns of untouched modes 1..U-1, flattened
    tail = _products(blocks.reshape(len(blocks), -1), cols[:, 1:])
    # write the first group, then add each other group's product, formed in
    # one reused buffer, in group order
    data = np.empty((d,) + blocks.shape[1:] + (d,) * (cols.shape[1] - 1), dtype=complex)
    rows = data.reshape(d, -1)
    np.multiply(cols[0, 0, :, None], tail[0], out=rows)
    term = np.empty_like(rows)
    for k in range(1, len(tail)):
        rows += np.multiply(cols[k, 0, :, None], tail[k], out=term)
    return data


def _span(cols: np.ndarray) -> np.ndarray:
    """The (G, U, d) Fock columns of U modes in an orthonormal basis of each
    mode's column span, (G, U, min(d, G)).  One batched Householder QR:
    column g of mode u is Q_u R_u[:, g], so its coordinates are R_u[:, g]."""
    return np.linalg.qr(cols.transpose(1, 2, 0), mode="r").transpose(2, 0, 1)


def to_fock(s: CoherentSuperposition, n_max: int) -> np.ndarray:
    """The (n_max + 1,) * M number-basis amplitudes of s, one axis per mode:
    every term's coefficient is a block on no mode."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _assemble(s.coeffs, _coherent_columns(s.amps, n_max))


def _floats(v: np.ndarray) -> np.ndarray:
    """The float64 view of complex v, its real and imaginary parts along a
    new last axis."""
    return np.ascontiguousarray(v, dtype=complex).view(np.float64).reshape(np.shape(v) + (2,))


def _sum_squares(v: np.ndarray, keep: tuple[int, ...] = ()) -> np.ndarray:
    """sum |v|^2 over every axis not in `keep`, read as the squares of the
    float64 view's entries: a fixed-order sum with no temporary the size of
    v, unlike np.abs(v) ** 2, and no BLAS dot, whose rounding follows the
    thread count."""
    x = _floats(v)
    axes = list(range(x.ndim))
    return np.einsum(x, axes, x, axes, list(keep))


def fock_norm_squared(v: np.ndarray) -> float:
    return float(_sum_squares(v))


def fock_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """<x|y> from the (2, 2) products p[i, j] = sum x_i y_j of the float64
    views' parts: one fixed-order einsum with no temporary the size of x,
    unlike np.vdot, whose BLAS dot rounds differently with the thread
    count."""
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    axes = list(range(x.ndim))
    p = np.einsum(_floats(x), axes + [x.ndim], _floats(y), axes + [x.ndim + 1], [x.ndim, x.ndim + 1])
    return complex(p[0, 0] + p[1, 1], p[0, 1] - p[1, 0])


def _frozen_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a real symmetric matrix, read-only for caching."""
    evals, evecs = np.linalg.eigh(h)
    evals.flags.writeable = evecs.flags.writeable = False
    return evals, evecs


# entry counts that hold every key an audit at the command line's alpha
# cap, 4, asks for: the beam splitter's cutoff reaches d = 110 levels, the
# blocks N = 1..109, and the displacement's d = 107, one basis per cutoff
@functools.lru_cache(maxsize=109)
def _block_eigh(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a b^dag + a^dag b on the states
    |n_a, total - n_a> with n_a = 0..total, the whole block of `total`."""
    na = np.arange(1, total + 1)
    # <na-1, nb+1 | a b^dag | na, nb> = sqrt(na (N - na + 1))
    off = np.sqrt(na * (total - na + 1.0))
    return _frozen_eigh(np.diag(off, 1) + np.diag(off, -1))


@functools.lru_cache(maxsize=107)
def _quadrature_eigh(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the truncated a + a^dag on d levels."""
    off = np.sqrt(np.arange(1.0, d))
    return _frozen_eigh(np.diag(off, 1) + np.diag(off, -1))


def _eig_apply(evecs: np.ndarray, phases: np.ndarray, x: np.ndarray) -> None:
    """x <- E diag(phases) E^T x in place, for a real orthogonal E and the
    (n, 2r) float64 view x of a complex (n, r) array, whose rows may be
    strided: each real factor multiplies the interleaved real and imaginary
    parts as one real matrix."""
    y = evecs.T @ x
    yc = y.view(np.complex128)
    yc *= phases[:, None]
    np.matmul(evecs, y, out=x)


def fock_phase(v: np.ndarray, mode: int, theta: float) -> np.ndarray:
    n = np.arange(v.shape[mode])
    phases = np.exp(1j * theta * n)
    shape = [1] * v.ndim
    shape[mode] = len(n)
    return v * phases.reshape(shape)


def fock_displace(v: np.ndarray, mode: int, beta: complex) -> np.ndarray:
    """exp(beta a^dag - beta^* a) = exp(i h(beta)), from the eigenbasis of
    the truncated h(beta) = |beta| S (a + a^dag) S^dag with
    S = diag(e^{i n (arg beta - pi/2)})."""
    d = v.shape[mode]
    evals, evecs = _quadrature_eigh(d)
    w = np.exp(1j * (np.angle(beta) - 0.5 * np.pi) * np.arange(d))[:, None] * evecs
    u = (w * np.exp(1j * abs(beta) * evals)) @ w.conj().T
    return np.moveaxis(np.moveaxis(v, mode, -1) @ u.T, -1, mode)


def fock_beamsplitter(
    v: np.ndarray, mode_a: int, mode_b: int, theta: float
) -> np.ndarray:
    """exp[i theta (a b^dag + a^dag b)], applied exactly on every
    total-photon-number block N < d that the cutoff of d levels per mode
    keeps whole; the corner n_a + n_b >= d is set to 0."""
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    d = v.shape[mode_a]
    if v.shape[mode_b] != d:
        raise ValueError("beam splitter needs the same cutoff on both modes")
    if d == 1:  # only N = 0, on which the generator is 0
        return v.copy()
    data = np.moveaxis(v, (mode_a, mode_b), (0, 1)).copy()
    n = np.arange(d)
    data[n[:, None] + n >= d] = 0
    # (n_a, n_b) is row n_a d + n_b = N + n_a (d - 1) of the flattened grid,
    # so the block of N over n_a = 0..N is a view with step d - 1, and the
    # blocks 1..N-1 below it hold N (N + 1) / 2 - 1 eigenvalues.  The
    # generator is 0 on N = 0
    rows = data.reshape(d * d, -1).view(np.float64)
    eigs = [_block_eigh(total) for total in range(1, d)]
    phases = np.exp(1j * theta * np.concatenate([evals for evals, _ in eigs]))
    for total, (_, evecs) in enumerate(eigs, 1):
        start = total * (total + 1) // 2 - 1
        _eig_apply(evecs, phases[start : start + total + 1], rows[total : total * d + 1 : d - 1])
    return np.moveaxis(data, (0, 1), (mode_a, mode_b))


def fock_measure_number(v: np.ndarray, mode: int) -> np.ndarray:
    return _sum_squares(v, (mode,))


def _hermite_functions(xs: np.ndarray, n_max: int) -> np.ndarray:
    """psi_n(x) for n = 0..n_max (rows) under x = (a + a^dag)/sqrt(2)."""
    out = np.empty((n_max + 1, len(xs)))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xs * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * xs * out[n]
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    return out


def fock_quadrature_pdf(v: np.ndarray, mode: int, xs: np.ndarray) -> np.ndarray:
    """Marginal x-quadrature density of `mode` on the grid xs."""
    xs = np.asarray(xs, dtype=float)
    psi = _hermite_functions(xs, v.shape[mode] - 1)
    amp = np.tensordot(psi, v, axes=([0], [mode]))  # (x, rest...)
    return _sum_squares(amp, (0,))
