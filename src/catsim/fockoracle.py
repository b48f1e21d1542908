"""Truncated number-basis simulator used as an independent brute-force
oracle for the coherent-superposition representation.

Deliberately shares no arithmetic code path with the primary modules:
coherent-state coefficients come from a cumulative-product recurrence,
unitaries from truncated generator exponentials, and quadrature densities
from the Hermite-function recurrence.

Each unitary is the exponential of its generator truncated to the cutoff,
applied through an eigendecomposition that does not depend on the angle
or amplitude, so it is computed once and cached:

- The beam splitter conserves the total photon number N, so its truncated
  generator is block diagonal; the block of N over n_a = lo..hi depends
  only on (N, lo, hi).  `_block_eigh` caches it.  Blocks with lo = 0 are
  untruncated and shared by every cutoff above N.
- The displacement generator h(beta) = -i(beta a^dag - beta^* a) equals
  |beta| S h(i) S^dag with S = diag(e^{i n (arg beta - pi/2)}) and the real
  h(i) = a + a^dag, so `_quadrature_eigh` caches one eigendecomposition per
  cutoff, and a call only applies phases to it to form the unitary.

`fock_beamsplitter` copies the two modes to the front of one array, the
(d, d) grid of (n_a, n_b) leading.  In that row-major grid the entry
(n_a, n_b) sits at row n_a d + n_b = N + n_a (d - 1), so the block of N is
one strided view with step d - 1, and each block is transformed in place,
with no gather or scatter.  All the blocks' eigenvalue phases come from one
`exp` call.  The only array the size of the input that the call makes is
its output.

`_block_eigh` and `_quadrature_eigh` are least-recently-used caches, each
bounded by the bytes it holds, `_BLOCK_BYTES` = 12 MiB, since an entry's
size ranges from 1 to d^2 numbers.  At the command line's largest
`alpha_max`, 4, the audit's cutoffs reach d = 110 levels per mode; all 217
blocks of that cutoff hold 6.9 MiB, so the budget holds them with room for
the shared lower blocks.  A benchmark round at alpha <= 2 (d <= 58) asks
for about 7 MB of distinct blocks, which the budget holds whole, so no
block is decomposed twice in a round.  The quadrature bases of every
cutoff up to d = 110 hold about 3.6 MB, so none is ever evicted.  Both
caches have a `cache_clear`.

Every d^M tensor is made by one assembly, `_assemble`: a sum over groups,
each a block on the modes an element touches times the Fock columns of the
modes it leaves alone.  `to_fock` is the case with no touched mode, a
group per term and its coefficient for the block.  An audit state row
passes the difference of catsim's and the oracle's like-term groups, so it
builds one tensor, the difference.  The assembly writes the first group straight into the
tensor and adds the others one at a time, each a rounded product, rather
than contracting over the groups with a matrix product: BLAS fuses the
multiply and the add, which leaves a residue of about 1e-17 where a cat's
amplitudes of the opposite parity must cancel to exactly 0.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict

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

_BLOCK_BYTES = 12 << 20
# complex entries of `_assemble`'s output summed at a time (256 KiB): the
# slab and the product being added hold 512 KiB, well inside a 2 MiB L2
_SLAB = 1 << 14


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
    # write the first group and add the others into the rows of the first
    # untouched mode a slab of rows at a time, so the slab and the group
    # being added stay in cache
    data = np.empty((d,) + blocks.shape[1:] + (d,) * (cols.shape[1] - 1), dtype=complex)
    rows = data.reshape(d, -1)
    step = max(1, _SLAB // rows.shape[1])
    term = np.empty((min(step, d), rows.shape[1]), dtype=complex)
    for i in range(0, d, step):
        slab = rows[i : i + step]
        np.multiply(cols[0, 0, i : i + step, None], tail[0], out=slab)
        for k in range(1, len(tail)):
            slab += np.multiply(cols[k, 0, i : i + step, None], tail[k], out=term[: len(slab)])
    return data


def to_fock(s: CoherentSuperposition, n_max: int) -> np.ndarray:
    """The (n_max + 1,) * M number-basis amplitudes of s, one axis per mode:
    every term's coefficient is a block on no mode."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if s.modes == 0:
        return np.array(sum(s.coeffs.tolist(), 0j))
    return _assemble(s.coeffs, _coherent_columns(s.amps, n_max))


def _sum_squares(v: np.ndarray, keep: tuple[int, ...] = ()) -> np.ndarray:
    """sum |v|^2 over every axis not in `keep`, read as the squares of the
    float64 view's entries: a fixed-order sum with no temporary the size of
    v, unlike np.abs(v) ** 2, and no BLAS dot, whose rounding follows the
    thread count."""
    x = np.ascontiguousarray(v, dtype=complex).view(np.float64).reshape(np.shape(v) + (2,))
    axes = list(range(x.ndim))
    return np.einsum(x, axes, x, axes, list(keep))


def fock_norm_squared(v: np.ndarray) -> float:
    return float(_sum_squares(v))


def fock_inner(x: np.ndarray, y: np.ndarray) -> complex:
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    # a fixed-order sum, unlike np.vdot, whose BLAS dot rounds differently
    # with the thread count
    return complex(np.sum(x.conj() * y))


def _frozen_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a real symmetric matrix, read-only for caching."""
    evals, evecs = np.linalg.eigh(h)
    evals.flags.writeable = evecs.flags.writeable = False
    return evals, evecs


def _lru_bytes(max_bytes: int):
    """functools.lru_cache for functions returning a tuple of arrays, bounded
    by the bytes those arrays hold rather than by an entry count."""

    def decorate(fn):
        entries: OrderedDict = OrderedDict()
        held = 0

        @functools.wraps(fn)
        def cached(*key):
            nonlocal held
            if key in entries:
                entries.move_to_end(key)
                return entries[key]
            value = entries[key] = fn(*key)
            held += sum(a.nbytes for a in value)
            while held > max_bytes:
                held -= sum(a.nbytes for a in entries.popitem(last=False)[1])
            return value

        def cache_clear() -> None:
            nonlocal held
            entries.clear()
            held = 0

        cached.cache_clear = cache_clear
        cached.cache_bytes = lambda: held
        return cached

    return decorate


@_lru_bytes(_BLOCK_BYTES)
def _block_eigh(total: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a b^dag + a^dag b on the states
    |n_a, total - n_a> with n_a = lo..hi."""
    na = np.arange(lo + 1, hi + 1)
    # <na-1, nb+1 | a b^dag | na, nb> = sqrt(na (N - na + 1))
    off = np.sqrt(na * (total - na + 1.0))
    return _frozen_eigh(np.diag(off, 1) + np.diag(off, -1))


@_lru_bytes(_BLOCK_BYTES)
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
    if mode == v.ndim - 1:  # one product over the trailing axis
        out = v.reshape(-1, d) @ u.T
    else:  # a stack of products on the middle axis of (before, mode, after)
        out = u @ v.reshape(math.prod(v.shape[:mode]), d, -1)
    return out.reshape(v.shape)


def fock_beamsplitter(
    v: np.ndarray, mode_a: int, mode_b: int, theta: float
) -> np.ndarray:
    """exp[i theta (a b^dag + a^dag b)], applied exactly within each
    total-photon-number block of the truncated two-mode space."""
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    d = v.shape[mode_a]
    if d == 1:  # the generator is 0 on one level per mode
        return v.copy()
    data = np.moveaxis(v, (mode_a, mode_b), (0, 1)).copy()
    # (n_a, n_b) is row n_a d + n_b = N + n_a (d - 1) of the flattened grid,
    # so the block of N over n_a = lo..hi is a view with step d - 1.  N = 0
    # and N = 2d - 2 are 1 x 1 blocks on which the generator is 0
    rows = data.reshape(d * d, -1).view(np.float64)
    blocks = [(n, max(0, n - d + 1), min(n, d - 1)) for n in range(1, 2 * d - 2)]
    eigs = [_block_eigh(*block) for block in blocks]
    phases = np.exp(1j * theta * np.concatenate([evals for evals, _ in eigs]))
    start = 0
    for (n, lo, hi), (_, evecs) in zip(blocks, eigs):
        stop = start + hi - lo + 1
        _eig_apply(evecs, phases[start:stop], rows[n + lo * (d - 1) : n + hi * (d - 1) + 1 : d - 1])
        start = stop
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
