"""Dense complex linear algebra for finite-dimensional quantum states.

Conventions used throughout the package:

* The trace norm is the *unnormalized* one, ``||A||_1 = tr sqrt(A^dag A)``,
  so two orthogonal pure states are at trace distance 2.  Much of the
  literature divides by 2; we do not.
* Density matrices may be subnormalized (``0 < tr rho <= 1``).  The
  generalized fidelity and the purified distance account for the missing
  weight, which is what the smoothing machinery in :mod:`memloss.entropy`
  relies on.
* Fidelity is ``F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1``; for a pure
  first argument this reduces to ``sqrt(<phi|sigma|phi>)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dgemm, zherk

HERMITICITY_TOL = 1e-10
ISOMETRY_TOL = 1e-9
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12
# The most complex entries (256 MiB) that a caller's count or dimension may
# size: an identity channel's Kraus array made dense, a time grid, a
# recurrence scan's steps, and the Haar states of one sampling call
MAX_ENTRIES = 1 << 24

# trace_distances: complex entries of the outer products G_i G_i^dag held
# per block of samples (512 KiB; at d = 64, r = 4 twice that held 2 MB more
# at the same speed, half of it ran 10 % slower), and root-finding sweeps
# before a sample falls back to the dense eigensolve
SECULAR_BLOCK = 1 << 15
SECULAR_MAX_SWEEPS = 30
# Evolver's sparse path: entries held per window of times by the two
# accumulators of each time and the block of Chebyshev vectors that one
# matrix product adds to them, each as large as the evolved columns, and
# also by the window's table of coefficients, two rows of real entries per
# time (4 MiB of real or 8 MiB of complex entries; on one BLAS thread a
# 61-time N = 14 lightcone took 0.96 s with it, 1.31 s with half, and 0.86 s
# with twice as much, which raised its peak RSS by 13 MB), the longest
# series chebyshev_coefficients takes (its FFT on twice as many points
# holds 8 MiB of complex entries), and the log of its term cut-off
CHEBYSHEV_BLOCK = 1 << 19
CHEBYSHEV_MAX_TERMS = 1 << 18
_LOG_CUTOFF = math.log(5e-17)
_EPS = float(np.finfo(float).eps)

# Pauli matrices, indexed 0..3 as (I, X, Y, Z).
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered list of named tensor factors, e.g. ``[("S", 4), ("E", 16)]``."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(n), int(d)) for n, d in self.factors)
        object.__setattr__(self, "factors", factors)
        names = [n for n, _ in factors]
        if len(set(names)) != len(names):
            raise ValueError("factor names must be unique")
        if any(d < 1 for _, d in factors):
            raise ValueError("factor dimensions must be positive")

    @classmethod
    def of(cls, *factors: tuple[str, int]) -> "SubsystemLayout":
        return cls(tuple(factors))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    def dim_of(self, name: str) -> int:
        for n, d in self.factors:
            if n == name:
                return d
        raise KeyError(f"unknown factor {name!r}")

    def restrict(self, keep: Iterable[str]) -> "SubsystemLayout":
        keep = set(keep)
        unknown = keep - set(self.names)
        if unknown:
            raise KeyError(f"unknown factors {sorted(unknown)}")
        return SubsystemLayout(tuple(f for f in self.factors if f[0] in keep))


def as_matrix(x) -> np.ndarray:
    """The matrix of a state given as a :class:`DensityMatrix` or an array."""
    if isinstance(x, DensityMatrix):
        return x.data
    return np.asarray(x, dtype=complex)


def hermiticity_deviation(a) -> float:
    """``max |a - a^dag| / max(1, max |a|)`` of a dense or sparse matrix.

    Infinite when an entry of ``a`` is nan or infinite, which ``max |a|``
    reveals before the difference is formed.  Every input check reads a
    deviation as ``not deviation <= tol``, which a nan fails.
    """
    if not a.size:
        return 0.0
    scale = float(abs(a).max())
    if not math.isfinite(scale):
        return math.inf
    return float(abs(a - a.conj().T).max()) / max(1.0, scale)


def isometry_deviation(v: np.ndarray) -> float:
    """``max |v^dag v - I|`` of an (n, d) array, by the entry; nan when ``v``
    is empty, and nan or infinite when an entry is (it reaches the diagonal).

    ``zherk`` on the F-contiguous view ``v.T`` forms one triangle of
    ``v.T v* = conj(v^dag v)`` without a copy of ``v``, at half the flops of
    the full product; the other triangle stays zero, so its entries count as
    ``|0 - 0|`` and the maximum is the same as over the whole matrix.
    """
    if not v.size:
        return math.nan
    g = zherk(1.0, v.T)
    g.flat[:: len(g) + 1] -= 1.0
    return float(np.abs(g).max())


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite matrix with trace in (0, 1] and a factor layout.

    The eigenvalues found by the positive-semidefinite check are kept for
    :meth:`spectrum`, so ``data`` is a value: a read-only array, copied from
    the one given where it shares that array's memory, so that no later
    write by the caller can make it disagree with the kept spectrum.
    """

    data: np.ndarray
    layout: SubsystemLayout
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
        if isinstance(self.data, np.ndarray) and np.may_share_memory(data, self.data):
            data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        d = self.layout.dim
        if data.shape != (d, d):
            raise ValueError(f"data shape {data.shape} does not match layout dim {d}")
        if not hermiticity_deviation(data) <= HERMITICITY_TOL:
            raise ValueError("density matrix is not finite and Hermitian within tolerance")
        scale = max(1.0, float(np.abs(data).max(initial=0.0)))
        evals = np.linalg.eigvalsh(data)
        if evals.min(initial=0.0) < -EIGENVALUE_TOL * scale:
            raise ValueError("density matrix has a negative eigenvalue")
        tr = float(data.trace().real)
        if not 0.0 < tr <= 1.0 + TRACE_TOL:
            raise ValueError(f"trace {tr} outside (0, 1]")
        spectrum = np.clip(evals[::-1], 0.0, None)
        spectrum.flags.writeable = False
        object.__setattr__(self, "_spectrum", spectrum)

    @classmethod
    def single(cls, data, name: str = "A") -> "DensityMatrix":
        data = np.asarray(data, dtype=complex)
        return cls(data, SubsystemLayout.of((name, data.shape[0])))

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def trace(self) -> float:
        return float(self.data.trace().real)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending, with tiny negatives clamped to zero: a
        copy of those the construction found."""
        return self._spectrum.copy()

    def marginal(self, *keep: str) -> "DensityMatrix":
        return partial_trace(self, keep)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices (or vectors)."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not in ``keep``; kept factors stay in order."""
    keep = set(keep)
    layout = rho.layout
    unknown = keep - set(layout.names)
    if unknown:
        raise KeyError(f"unknown factors {sorted(unknown)}")
    dims = layout.dims
    drop = [i for i, n in enumerate(layout.names) if n not in keep]
    t = rho.data.reshape(dims + dims)
    nfac = len(dims)
    for pos in sorted(drop, reverse=True):
        t = np.trace(t, axis1=pos, axis2=pos + nfac)
        nfac -= 1
    new_layout = layout.restrict(keep)
    d = new_layout.dim
    return DensityMatrix(t.reshape(d, d), new_layout)


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``h = v @ diag(w) @ v^dag`` and unitary ``v``.
    """
    h = as_matrix(h)
    if not hermiticity_deviation(h) <= HERMITICITY_TOL:
        raise ValueError("matrix is not finite and Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])


def _series_terms(z: float) -> int:
    """The term count K of :func:`chebyshev_coefficients` at ``z``, or
    ``CHEBYSHEV_MAX_TERMS + 1`` where K would pass that cap (its term bound
    is still at or above the cut-off there) or ``z`` is not finite."""
    half, cap, k = abs(z) / 2, CHEBYSHEV_MAX_TERMS, 1
    if half:
        if not cap * math.log(half) - math.lgamma(cap + 1) < _LOG_CUTOFF:
            return cap + 1
        while k * math.log(half) - math.lgamma(k + 1) >= _LOG_CUTOFF:
            k += 1
    return k


def chebyshev_coefficients(z: float) -> np.ndarray:
    """``c_k = (2 - delta_k0) (-i)^k J_k(z)`` for k < K: ``exp(-i z x) =
    sum_k c_k T_k(x)`` on [-1, 1] (Jacobi-Anger).

    K is the least count with ``2 (|z|/2)^K / K! < 1e-16``.  That bounds
    ``|c_K|``, and as it forces ``K + 1 > |z|`` the terms after it fall by
    more than half each, so the whole tail ``sum_{k>=K} |c_k|`` is below
    2e-16.  The c_k are the cosine coefficients of ``exp(-i z cos theta)``,
    read off its FFT on 2K points, where the aliased terms lie in that tail.
    A z below about 1e-16 (0 included) gives the single term ``cos z``.  A z
    whose K would pass ``CHEBYSHEV_MAX_TERMS`` (``|z|`` above about 1.9e5),
    or that is not finite, is a ValueError before any term is counted.
    """
    k = _series_terms(z)
    if k > CHEBYSHEV_MAX_TERMS:
        raise ValueError(f"time step too long: z = a dt = {z:g} needs more than "
                         f"{CHEBYSHEV_MAX_TERMS} Chebyshev terms")
    theta = np.pi / k * np.arange(2 * k)
    c = np.fft.fft(np.exp(-1j * z * np.cos(theta)))[:k] / k
    c[0] /= 2
    return c


class Evolver:
    """``U(t) = exp(-iHt)`` applied to blocks of state columns.

    :meth:`evolve` is the one evolution routine of each path; :meth:`apply`
    is its single-time case and :meth:`unitary` that case on the identity.
    The type of ``h`` picks the path.  A dense Hamiltonian is diagonalized
    once, and every time is assembled from its eigenpairs.  A sparse one is
    never diagonalized: ``exp(-iH dt)`` acts on columns x as the Chebyshev
    series ``sum_{k<K} c_k(a dt) T_k(H/a) x`` (Tal-Ezer and Kosloff, J.
    Chem. Phys. 81, 3967, 1984).  :meth:`evolve` groups consecutive times
    into windows, and one three-term recurrence for the ``T_k(H/a) x`` of a
    window's anchor (x0, or the last state of the window before) serves
    every time in it: each time sums the vectors with its own coefficients,
    ``dt`` being its offset from the anchor, a block of vectors at a time
    by real matrix products.  ``a``, the largest absolute row sum of H,
    bounds its spectrum (Gershgorin), so ``||T_k(H/a)|| <= 1``; the
    coefficients and their count K come from ``z = a dt`` alone
    (:func:`chebyshev_coefficients`), before any product is taken.  A time
    is thus exact up to the coefficient tail ``sum_{k>=K} |c_k| < 2e-16``
    times the column norm, plus rounding, and as the maps are unitary these
    errors add up from window to window.  A Hamiltonian without imaginary
    entries (every spin chain) runs the recurrence in real arithmetic: on
    the columns' real part where their imaginary part is zero (the t = 0
    columns of the special states), else on their float view.
    """

    def __init__(self, h):
        if sparse.issparse(h):
            h = sparse.csr_array(h, dtype=complex)
            self.radius = float(abs(h).sum(axis=1).max())
            # the recurrence's matrix 2H/a, built once; where 2/a is not
            # finite (a zero or subnormal) a time below dt = 1e292 has a
            # single Chebyshev term and never multiplies by it
            scale = 2.0 / self.radius if self.radius else math.inf
            h2 = h * scale if math.isfinite(scale) else h
            if not h2.data.imag.any():
                h2 = sparse.csr_array((np.ascontiguousarray(h2.data.real), h2.indices,
                                       h2.indptr), shape=h2.shape)
            self.h2 = h2
            self.eigenvalues = self.eigenvectors = None
        else:
            self.h2 = None
            self.eigenvalues, self.eigenvectors = hermitian_eig(h)

    def unitary(self, t: float) -> np.ndarray:
        d = len(self.eigenvalues) if self.h2 is None else self.h2.shape[0]
        return self.apply(np.eye(d, dtype=complex), t)

    def apply(self, x0: np.ndarray, t: float) -> np.ndarray:
        """``U(t) @ x0`` for a block of columns, without forming ``U(t)``.

        A state ``x0 x0^dag`` of rank r evolves as its d x r columns at
        O(d^2 r) cost (dense) or O(nnz(H) r) per Chebyshev term (sparse)
        instead of the O(d^3) of ``U rho U^dag``.
        """
        return next(self.evolve(x0, (t,)))

    def evolve(self, x0: np.ndarray, times):
        """Yields ``U(t) @ x0`` for each t of ``times``, in their order.

        The dense path projects ``x0`` on the eigenbasis once and applies
        the phases of each time to that.  The sparse path evolves windows of
        consecutive times, each from its anchor: x0 at t = 0 first, then the
        last state yielded by the window before.  A window of n distinct
        times runs one recurrence of K terms, K that of its longest offset
        from the anchor, and sums 2n vectors per term by matrix products
        (:meth:`_window`).  It therefore holds at most as many times as
        keep ``2n`` within the mean count of nonzeros per row of H, so that
        the sums cost no more arithmetic than the recurrence's sparse
        products; as many as keep the 4n vectors of the accumulators and the
        block, and the ``2n x K`` coefficient table, each within
        ``CHEBYSHEV_BLOCK`` entries; and it ends before a time whose series
        from the anchor would pass ``CHEBYSHEV_MAX_TERMS`` terms.  A window
        holds one time at least.  A time equal to the one before it, or to
        its anchor's, yields that state itself (x0 itself at t = 0).
        """
        if self.h2 is None:
            v = self.eigenvectors
            coeffs = v.conj().T @ x0
            for t in times:
                yield v @ (np.exp(-1j * self.eigenvalues * t)[:, None] * coeffs)
            return
        times = list(times)
        size = max(1, min(CHEBYSHEV_BLOCK // (4 * max(1, np.size(x0))),
                          self.h2.nnz // (2 * max(1, self.h2.shape[0]))))
        y, t_y, start = x0, 0.0, 0
        while start < len(times):
            anchor, t_anchor = y, t_y
            rows, coeffs, terms, end = {}, [], 1, start
            while end < len(times):
                t = times[end]
                if t != t_anchor and t not in rows:
                    z = self.radius * (t - t_anchor)
                    k = _series_terms(z)
                    if rows and (len(rows) == size or k > CHEBYSHEV_MAX_TERMS
                                 or 2 * (len(rows) + 1) * max(k, terms) > CHEBYSHEV_BLOCK):
                        break
                    rows[t], terms = len(coeffs), max(k, terms)
                    coeffs.append(chebyshev_coefficients(z))
                end += 1
            sums = self._window(anchor, coeffs) if coeffs else None
            for t in times[start:end]:
                if t != t_y:
                    if t == t_anchor:
                        y = anchor
                    else:
                        y = 1j * sums[rows[t], 1]
                        y += sums[rows[t], 0]
                        y = y.reshape(np.shape(anchor))
                    t_y = t
                yield y
            start, sums = end, None   # freed before the next window's

    def _window(self, x: np.ndarray, coeffs) -> np.ndarray:
        """``sum_k c_k T_k(H/a) x`` for each coefficient array c of
        ``coeffs``, as an (n, 2, x.size) array that holds the sums with the
        real parts of c, then with the imaginary ones.  The sums are complex
        where the recurrence ran on complex columns, or on the float view of
        complex ones, and real where it ran on real columns.

        The vectors are held in a block of 2n, as many as the accumulators,
        so that each full block's real matrix product, ``dgemm`` in place on
        the transposed (Fortran-ordered) views, reads no more of the
        accumulators than of the vectors.
        """
        n, terms = len(coeffs), max(c.size for c in coeffs)
        x = np.asarray(x).reshape(self.h2.shape[0], -1)
        pairs = self.h2.dtype == complex or (np.iscomplexobj(x) and x.imag.any())
        if pairs:
            x = np.ascontiguousarray(x, dtype=complex)
            u = x if self.h2.dtype == complex else x.view(float)
        else:
            u = np.asarray(x.real, dtype=float)
        c = np.zeros((n, 2, terms))
        for row, ck in zip(c, coeffs):
            row[:, :ck.size] = ck.real, ck.imag
        c = c.reshape(2 * n, terms)
        block = np.empty((min(terms, 2 * n), *u.shape), u.dtype)
        acc = np.zeros((2 * n, u.size * u.itemsize // 8))

        def add(lo: int, m: int) -> None:
            v = block[:m].reshape(m, -1).view(float)
            if acc.size:   # dgemm refuses an empty block of columns
                dgemm(1.0, v.T, c[:, lo:lo + m].T, 1.0, acc.T, overwrite_c=True)

        # T_0 = x, T_1 = (H/a) x, T_{k+1} = 2 (H/a) T_k - T_{k-1}, with 2/a
        # folded into the matrix; block row k % len(block) holds T_k
        block[0] = u
        if terms > 1:
            np.multiply(self.h2 @ block[0], 0.5, out=block[1])
        for k in range(2, terms):
            j = k % len(block)
            if not j:
                add(k - len(block), len(block))
            np.subtract(self.h2 @ block[j - 1], block[j - 2], out=block[j])
        last = (terms - 1) % len(block) + 1
        add(terms - last, last)
        acc = acc.reshape(n, 2, -1)
        return acc.view(complex) if pairs else acc


def trace_norm(a) -> float:
    """Unnormalized trace norm (sum of singular values) of any matrix."""
    return float(np.linalg.svd(as_matrix(a), compute_uv=False).sum())


def trace_distance(rho, sigma) -> float:
    """``||rho - sigma||_1`` in the unnormalized convention (max value 2).

    Both arguments are Hermitian (states), so their difference is too, and
    its trace norm is the sum of its absolute eigenvalues: an ``eigvalsh``,
    which reads one triangle, in place of the SVD of :func:`trace_norm`.
    It is the dense path and the oracle of :func:`trace_distances`, which
    takes many low-rank states against one.
    """
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def secular_path(d: int, r: int) -> bool:
    """Whether :func:`trace_distances` takes d x r factors by the secular
    path, which decomposes sigma; ``2 r^2 >= d`` takes the dense one."""
    return 2 * r * r < d


def trace_distances(ys, sigma) -> np.ndarray:
    """``||y_s y_s^dag - sigma||_1`` for each d x r factor of a stack ``ys``
    of shape (n, d, r), against one state ``sigma``.

    A stack with ``2 r^2 >= d`` costs one :func:`trace_distance` of a d x d
    difference per sample, with the eigensolves batched.  Below that
    (:func:`secular_path`), where it measured faster on one BLAS thread
    (d = 4 to 256, r = 1 to 12), the d x d eigenproblem becomes r x r ones,
    the low-rank update of a diagonal matrix (Golub, SIAM Rev. 15, 318,
    1973; Bunch, Nielsen and Sorensen, Numer. Math. 31, 31, 1978): with
    ``sigma = V diag(t) V^dag`` and ``G = V^dag y``, the difference
    ``A = G G^dag - diag(t)`` has at most r positive eigenvalues, and
    ``||A||_1 = 2 sum_{l>0} l - tr A`` (:func:`_secular_distances`).  That
    path takes the samples in blocks of ``SECULAR_BLOCK / (d r^2)``, which
    caps its extra memory, and computes each sample from its own data alone,
    so a sample's distance does not depend on the rest of the stack.  A
    sample whose root search has not converged within ``SECULAR_MAX_SWEEPS``
    sweeps takes the dense path, and so do all samples when ``sigma`` has an
    eigenvalue below zero beyond rounding.
    """
    ys = np.asarray(ys, dtype=complex)
    s = as_matrix(sigma)
    _, d, r = ys.shape
    if s.shape != (d, d):
        raise ValueError(f"dimension mismatch: {d} x {r} factors vs {s.shape}")
    return _trace_distances(ys, s, np.linalg.eigh(s) if secular_path(d, r) else None)


def _trace_distances(ys: np.ndarray, s: np.ndarray, eig) -> np.ndarray:
    """:func:`trace_distances` of a complex stack ``ys`` against a matrix
    ``s`` of matching shape, given ``eig = np.linalg.eigh(s)`` where
    :func:`secular_path` holds (None elsewhere): a caller that takes several
    stacks against one ``s`` decomposes it once."""
    n, d, r = ys.shape
    dist, ok = np.empty(n), np.zeros(n, dtype=bool)
    if eig is not None:
        t, v = eig
        if t[0] >= -d * _EPS * abs(t[-1]):
            t, vh = np.clip(t, 0.0, None), v.conj().T
            size = max(1, SECULAR_BLOCK // (d * r * r))
            for lo in range(0, n, size):
                block = slice(lo, lo + size)
                dist[block], ok[block] = _secular_distances(vh @ ys[block], t)
    # the dense path for SECULAR_BLOCK / d^2 samples at a time, in one
    # batched eigvalsh; each y y^dag is the same 2-D product as
    # trace_distance's callers form, so the values are its own bit for bit
    rest = np.flatnonzero(~ok)
    size = max(1, SECULAR_BLOCK // (d * d))
    for block in (rest[lo:lo + size] for lo in range(0, len(rest), size)):
        outer = np.stack([ys[i] @ ys[i].conj().T for i in block])
        outer -= s
        dist[block] = np.abs(np.linalg.eigvalsh(outer)).sum(axis=1)
    return dist


def _secular_distances(g: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||G G^dag - diag(t)||_1`` for each d x r slice G of ``g``, with
    ``t >= 0`` ascending, and whether the slice's root search converged.

    For ``l > 0``, ``A - l`` has as many positive eigenvalues as
    ``M(l) = G^dag (diag(t) + l)^-1 G`` has eigenvalues above 1 (inertia of
    the Schur complement), so the j-th largest eigenvalue of A is the root of
    ``mu_j(l) = 1``, mu_j the j-th largest eigenvalue of ``M(l)``, which
    decreases in l.  Each (slice, j) is a branch, bracketed in
    ``(floor, s_j^2 + floor]`` by the squared singular values ``s_j^2`` of G
    (Weyl: ``A <= G G^dag``); ``floor`` is a few ulps of the scale.  A branch
    starts at the j-th Ritz value of A on ``span{G, diag(t) G}``, a lower
    bound by interlacing, and takes Newton steps on ``1/mu_j - 1``, which is
    linear where one pole of M dominates and concave for j = 1, with
    ``mu_j' = -u_j^dag G^dag (diag(t) + l)^-2 G u_j``.  A step that leaves
    the bracket bisects it instead.  A branch stops once ``|mu_j - 1|`` is
    within a few r ulps of ``||M||``, or its step or bracket within a few
    ulps of l; it counts as 0 when ``s_j^2 <= floor`` or ``mu_j <= 1`` at a
    point below ``2 floor``, as its eigenvalue lies below that point.
    """
    m, d, r = g.shape
    trace_a = (g.conj() * g).real.sum(axis=(1, 2)) - t.sum()
    top = np.linalg.eigvalsh(g.conj().transpose(0, 2, 1) @ g)[:, ::-1]
    q = np.linalg.qr(np.concatenate([g, t[:, None] * g], axis=2))[0]
    qh = q.conj().transpose(0, 2, 1)
    qg = qh @ g
    ritz = np.linalg.eigvalsh(qg @ qg.conj().transpose(0, 2, 1) - qh @ (t[:, None] * q))
    floor = r * _EPS * np.maximum(top[:, :1], t[-1])
    # o[s, i, (j, k)] = conj(G_ij) G_ik as real pairs, so that
    # M(l) = sum_i o[s, i] / (t_i + l) is one real product per slice
    o = (g.conj()[:, :, :, None] * g[:, :, None, :]).reshape(m, d, r * r).view(float)

    lo = np.repeat(floor, r, axis=1)
    hi = top + lo
    live = top > lo
    x = np.where(live, np.clip(ritz[:, :-r - 1:-1], lo, hi), lo)
    root = np.zeros((m, r))
    col = np.arange(r)[::-1, None]
    for _ in range(SECULAR_MAX_SWEEPS):
        s = np.flatnonzero(live.any(axis=1))
        if not s.size:
            break
        xs, los, his = x[s], lo[s], hi[s]
        inv = 1.0 / (t + xs[:, :, None])
        mm = (np.concatenate([inv, inv * inv], axis=1) @ o[s]).view(complex)
        mm = mm.reshape(len(s), 2 * r, r, r)
        mu, u = np.linalg.eigh(mm[:, :r])
        mu_j = np.take_along_axis(mu, col[None], axis=2)[..., 0]
        u_j = np.take_along_axis(u, col[None, :, None], axis=3)
        slope = -(u_j.conj() * (mm[:, r:] @ u_j)).real.sum(axis=(2, 3))
        above = mu_j > 1.0
        empty = ~above & (xs <= 2.0 * floor[s])
        los, his = np.where(above, xs, los), np.where(above, his, xs)
        nxt = xs + mu_j * (1.0 - mu_j) / np.minimum(slope, -np.finfo(float).tiny)
        nxt = np.where((nxt > los) & (nxt < his), nxt, 0.5 * (los + his))
        hit = np.abs(mu_j - 1.0) <= 4 * r * _EPS * np.maximum(mu[:, :, -1], 1.0)
        done = hit | (np.abs(nxt - xs) <= 4 * _EPS * xs) | (his - los <= 4 * _EPS * his)
        act = live[s]
        root[s] = np.where(act & done & ~empty, np.where(hit, xs, nxt), root[s])
        act &= ~(done | empty)
        live[s], x[s], lo[s], hi[s] = act, np.where(act, nxt, xs), los, his
    # a trace norm is not negative; rounding can take an A near 0 below it
    return np.maximum(2.0 * root.sum(axis=1) - trace_a, 0.0), ~live.any(axis=1)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    w, v = np.linalg.eigh(a)
    if w.min(initial=0.0) < -EIGENVALUE_TOL * scale:
        raise ValueError("matrix is not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """``F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1``.

    Equals ``|<phi|psi>|`` for pure inputs and ``sqrt(<phi|sigma|phi>)``
    when the first argument is pure.
    """
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.svd(_psd_sqrt(a) @ _psd_sqrt(b), compute_uv=False).sum())


def purified_distance(rho, sigma) -> float:
    """``sqrt(1 - Fbar^2)`` with the generalized fidelity.

    ``Fbar(rho, sigma) = F(rho, sigma) + sqrt((1 - tr rho)(1 - tr sigma))``
    extends the fidelity to subnormalized states.
    """
    a, b = as_matrix(rho), as_matrix(sigma)
    tra, trb = float(a.trace().real), float(b.trace().real)
    if tra > 1.0 + TRACE_TOL or trb > 1.0 + TRACE_TOL:
        raise ValueError("purified distance requires trace <= 1")
    fbar = fidelity(a, b) + np.sqrt(max(0.0, 1.0 - tra) * max(0.0, 1.0 - trb))
    return float(np.sqrt(max(0.0, 1.0 - fbar * fbar)))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_states(d: int, seeds) -> np.ndarray:
    """Haar-random unit vectors, one row per seed (an int, None or a
    Generator, as for :func:`haar_state`), each drawn from its own stream.

    Each row is a normalized complex Gaussian vector, its global phase fixed
    deterministically (largest-magnitude component made real positive),
    which leaves the distribution on rays unchanged.  The rows are
    normalized and phase-fixed together; a row's squared norm is the two
    strided dot products of its real and imaginary parts, and its phase is
    applied one row times one scalar, so a row does not depend on how many
    are drawn with it.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    seeds = list(seeds)
    g = np.empty((len(seeds), 2, d))
    for row, seed in zip(g, seeds):
        # the real parts, then the imaginary parts
        _rng(seed).standard_normal(out=row)
    v = g[:, 0] + 1j * g[:, 1]
    sq = (np.matmul(v.real[:, None, :], v.real[:, :, None])
          + np.matmul(v.imag[:, None, :], v.imag[:, :, None]))
    v /= np.sqrt(sq[:, 0])
    pivots = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
    for row, phase in zip(v, np.exp(-1j * np.angle(pivots))):
        row *= phase
    return v


def indexed_haar_states(d: int, seed: int, indices) -> np.ndarray:
    """Haar-random unit vectors, row i drawn from ``default_rng([seed, i])``
    alone, so that it does not depend on which other indices are drawn."""
    return haar_states(d, [np.random.default_rng([seed, i]) for i in indices])


def check_draws(n: int, d: int) -> None:
    """A ValueError if ``n`` Haar states of dimension ``d`` pass MAX_ENTRIES."""
    if n * d > MAX_ENTRIES:
        raise ValueError(f"{n} samples of dimension {d}: at most {MAX_ENTRIES} entries")


def haar_state(d: int, seed=None) -> np.ndarray:
    """Haar-random unit vector: the one row of :func:`haar_states`."""
    return haar_states(d, [seed])[0]


def haar_unitary(d: int, seed=None) -> np.ndarray:
    """Haar-random unitary: QR of a Ginibre draw with phase-fixed diagonal."""
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_density(d: int, seed=None, rank: int | None = None, name: str = "A") -> DensityMatrix:
    """Random density matrix from a normalized Ginibre draw."""
    rng = _rng(seed)
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return DensityMatrix.single(m / m.trace().real, name)


def max_entangled(d: int) -> DensityMatrix:
    """``|Phi><Phi|``, ``|Phi> = d^{-1/2} sum_i |i>|i>`` on two d-dim factors."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return DensityMatrix(np.outer(v, v.conj()),
                         SubsystemLayout.of(("A", d), ("B", d)))


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix.single(np.eye(d, dtype=complex) / d)
