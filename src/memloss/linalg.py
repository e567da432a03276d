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

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

HERMITICITY_TOL = 1e-10
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


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.data
    if isinstance(x, PureState):
        return x.density().data
    return np.asarray(x, dtype=complex)


def _herm_deviation(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max(initial=0.0))


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
        scale = max(1.0, float(np.abs(data).max(initial=0.0)))
        if _herm_deviation(data) > HERMITICITY_TOL * scale:
            raise ValueError("density matrix is not Hermitian within tolerance")
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


@dataclass(frozen=True)
class PureState:
    """Normalized state vector with a factor layout."""

    amplitudes: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.layout.dim:
            raise ValueError("amplitude length does not match layout dim")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")

    @classmethod
    def single(cls, amplitudes, name: str = "A") -> "PureState":
        amplitudes = np.asarray(amplitudes, dtype=complex)
        return cls(amplitudes, SubsystemLayout.of((name, amplitudes.shape[0])))

    @property
    def dim(self) -> int:
        return self.layout.dim

    def density(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.layout)

    def marginal(self, *keep: str) -> DensityMatrix:
        return partial_trace(self.density(), keep)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices (or vectors)."""
    return np.kron(_raw(a), _raw(b))


def _raw(x) -> np.ndarray:
    if isinstance(x, DensityMatrix):
        return x.data
    if isinstance(x, PureState):
        return x.amplitudes
    return np.asarray(x, dtype=complex)


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
    h = _as_matrix(h)
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    if _herm_deviation(h) > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])


class Evolver:
    """``U(t) = exp(-iHt)`` applied to blocks of state columns.

    The type of ``h`` picks the path.  A dense Hamiltonian is diagonalized
    once, and every time is assembled from its eigenpairs.  A sparse one is
    never diagonalized: ``expm_multiply`` (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 2011) acts with ``exp(-iH dt)`` on the columns alone, and
    :meth:`evolve` steps them from each time to the next.
    """

    def __init__(self, h):
        if sparse.issparse(h):
            self.generator = sparse.csr_array(h, dtype=complex) * -1j
            self.eigenvalues = self.eigenvectors = None
        else:
            self.generator = None
            self.eigenvalues, self.eigenvectors = hermitian_eig(h)

    def unitary(self, t: float) -> np.ndarray:
        if self.generator is not None:
            return self.apply(np.eye(self.generator.shape[0], dtype=complex), t)
        phases = np.exp(-1j * self.eigenvalues * t)
        v = self.eigenvectors
        return (v * phases) @ v.conj().T

    def apply(self, x0: np.ndarray, t: float) -> np.ndarray:
        """``U(t) @ x0`` for a block of columns, without forming ``U(t)``.

        A state ``x0 x0^dag`` of rank r evolves as its d x r columns at
        O(d^2 r) cost (dense) or O(nnz(H) r) per Taylor term (sparse)
        instead of the O(d^3) of ``U rho U^dag``.
        """
        if self.generator is not None:
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
        if self.generator is None:
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
        return expm_multiply(self.generator * dt, x)


def trace_norm(a) -> float:
    """Unnormalized trace norm (sum of singular values) of any matrix."""
    return float(np.linalg.svd(_as_matrix(a), compute_uv=False).sum())


def trace_distance(rho, sigma) -> float:
    """``||rho - sigma||_1`` in the unnormalized convention (max value 2).

    Both arguments are Hermitian (states), so their difference is too, and
    its trace norm is the sum of its absolute eigenvalues: an ``eigvalsh``,
    which reads one triangle, in place of the SVD of :func:`trace_norm`.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
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
    a, b = _as_matrix(rho), _as_matrix(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.svd(_psd_sqrt(a) @ _psd_sqrt(b), compute_uv=False).sum())


def purified_distance(rho, sigma) -> float:
    """``sqrt(1 - Fbar^2)`` with the generalized fidelity.

    ``Fbar(rho, sigma) = F(rho, sigma) + sqrt((1 - tr rho)(1 - tr sigma))``
    extends the fidelity to subnormalized states.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
    tra, trb = float(a.trace().real), float(b.trace().real)
    if tra > 1.0 + TRACE_TOL or trb > 1.0 + TRACE_TOL:
        raise ValueError("purified distance requires trace <= 1")
    fbar = fidelity(a, b) + np.sqrt(max(0.0, 1.0 - tra) * max(0.0, 1.0 - trb))
    return float(np.sqrt(max(0.0, 1.0 - fbar * fbar)))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_state(d: int, seed=None, name: str = "A") -> PureState:
    """Haar-random pure state via a normalized complex Gaussian vector.

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
    return PureState.single(v, name)


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


def max_entangled(d: int, names: tuple[str, str] = ("A", "B")) -> PureState:
    """``d^{-1/2} sum_i |i>|i>`` across two d-dimensional factors."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return PureState(v, SubsystemLayout.of((names[0], d), (names[1], d)))


def maximally_mixed(d: int, name: str = "A") -> DensityMatrix:
    return DensityMatrix.single(np.eye(d, dtype=complex) / d, name)
