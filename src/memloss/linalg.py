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
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.linalg.blas import zherk

HERMITICITY_TOL = 1e-10
ISOMETRY_TOL = 1e-9
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

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
    """Positive semidefinite matrix with trace in (0, 1] and a factor layout."""

    data: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
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
        """Eigenvalues, descending, with tiny negatives clamped to zero."""
        w = np.linalg.eigvalsh(self.data)[::-1]
        return np.clip(w, 0.0, None)

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


def chebyshev_coefficients(z: float) -> np.ndarray:
    """``c_k = (2 - delta_k0) (-i)^k J_k(z)`` for k < K: ``exp(-i z x) =
    sum_k c_k T_k(x)`` on [-1, 1] (Jacobi-Anger).

    K is the least count with ``2 (|z|/2)^K / K! < 1e-16``.  That bounds
    ``|c_K|``, and as it forces ``K + 1 > |z|`` the terms after it fall by
    more than half each, so the whole tail ``sum_{k>=K} |c_k|`` is below
    2e-16.  The c_k are the cosine coefficients of ``exp(-i z cos theta)``,
    read off its FFT on 2K points, where the aliased terms lie in that tail.
    A z below about 1e-16 (0 included) gives the single term ``cos z``.
    """
    half, k = abs(z) / 2, 1
    if half:
        while k * math.log(half) - math.lgamma(k + 1) >= math.log(5e-17):
            k += 1
    theta = np.pi / k * np.arange(2 * k)
    c = np.fft.fft(np.exp(-1j * z * np.cos(theta)))[:k] / k
    c[0] /= 2
    return c


class Evolver:
    """``U(t) = exp(-iHt)`` applied to blocks of state columns.

    The type of ``h`` picks the path.  A dense Hamiltonian is diagonalized
    once, and every time is assembled from its eigenpairs.  A sparse one is
    never diagonalized: ``exp(-iH dt)`` acts on the columns as the Chebyshev
    series ``sum_{k<K} c_k T_k(H/a)`` (Tal-Ezer and Kosloff, J. Chem. Phys.
    81, 3967, 1984), run by the three-term recurrence, and :meth:`evolve`
    steps the columns from each time to the next.  ``a``, the largest
    absolute row sum of H, bounds its spectrum (Gershgorin), so
    ``||T_k(H/a)|| <= 1``; the coefficients and their count K come from
    ``z = a dt`` alone (:func:`chebyshev_coefficients`), before any product
    is taken.  A step is thus exact up to the coefficient tail
    ``sum_{k>=K} |c_k| < 2e-16`` times the column norm, plus rounding, and
    as the steps are unitary these errors add up along a scan.
    """

    def __init__(self, h):
        if sparse.issparse(h):
            self.hamiltonian = sparse.csr_array(h, dtype=complex)
            self.radius = float(abs(self.hamiltonian).sum(axis=1).max())
            self.eigenvalues = self.eigenvectors = None
        else:
            self.hamiltonian = None
            self.eigenvalues, self.eigenvectors = hermitian_eig(h)

    def unitary(self, t: float) -> np.ndarray:
        if self.hamiltonian is not None:
            return self.apply(np.eye(self.hamiltonian.shape[0], dtype=complex), t)
        phases = np.exp(-1j * self.eigenvalues * t)
        v = self.eigenvectors
        return (v * phases) @ v.conj().T

    def apply(self, x0: np.ndarray, t: float) -> np.ndarray:
        """``U(t) @ x0`` for a block of columns, without forming ``U(t)``.

        A state ``x0 x0^dag`` of rank r evolves as its d x r columns at
        O(d^2 r) cost (dense) or O(nnz(H) r) per Chebyshev term (sparse)
        instead of the O(d^3) of ``U rho U^dag``.
        """
        if self.hamiltonian is not None:
            return self._step(x0, t)
        phases = np.exp(-1j * self.eigenvalues * t)
        v = self.eigenvectors
        return v @ (phases[:, None] * (v.conj().T @ x0))

    def evolve(self, x0: np.ndarray, times):
        """Yields ``U(t) @ x0`` for each t of ``times``, in their order.

        The sparse path steps the columns from the previous time by
        ``t_k - t_{k-1}``, so a scan costs one short step per time, not one
        evolution from 0; a time equal to the previous one (0 first of all)
        yields the columns unchanged.
        """
        if self.hamiltonian is None:
            for t in times:
                yield self.apply(x0, t)
            return
        y, prev = x0, 0.0
        for t in times:
            y, prev = self._step(y, t - prev), t
            yield y

    def _step(self, x: np.ndarray, dt: float) -> np.ndarray:
        if dt == 0:
            return x
        c = chebyshev_coefficients(self.radius * dt)
        y = c[0] * x
        if c.size > 1:
            # T_{k+1} = 2 (H/a) T_k - T_{k-1}, with 2/a folded into the matrix
            h2 = self.hamiltonian * (2.0 / self.radius)
            prev, cur = x, 0.5 * (h2 @ x)
            y += c[1] * cur
            for ck in c[2:]:
                prev, cur = cur, h2 @ cur - prev
                y += ck * cur
        return y


def trace_norm(a) -> float:
    """Unnormalized trace norm (sum of singular values) of any matrix."""
    return float(np.linalg.svd(as_matrix(a), compute_uv=False).sum())


def trace_distance(rho, sigma) -> float:
    """``||rho - sigma||_1`` in the unnormalized convention (max value 2).

    Both arguments are Hermitian (states), so their difference is too, and
    its trace norm is the sum of its absolute eigenvalues: an ``eigvalsh``,
    which reads one triangle, in place of the SVD of :func:`trace_norm`.
    """
    a, b = as_matrix(rho), as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


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


def haar_state(d: int, seed=None) -> np.ndarray:
    """Haar-random unit vector: a normalized complex Gaussian vector.

    The global phase is fixed deterministically (largest-magnitude component
    made real positive), which leaves the distribution on rays unchanged.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = _rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    pivot = int(np.argmax(np.abs(v)))
    v *= np.exp(-1j * np.angle(v[pivot]))
    return v


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


def max_entangled(d: int, names: tuple[str, str] = ("A", "B")) -> DensityMatrix:
    """``|Phi><Phi|``, ``|Phi> = d^{-1/2} sum_i |i>|i>`` on two d-dim factors."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return DensityMatrix(np.outer(v, v.conj()),
                         SubsystemLayout.of((names[0], d), (names[1], d)))


def maximally_mixed(d: int, name: str = "A") -> DensityMatrix:
    return DensityMatrix.single(np.eye(d, dtype=complex) / d, name)
