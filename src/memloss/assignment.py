"""Product-basis quality of an energy eigenbasis and the no-thermalization
bound it implies.

For a joint Hamiltonian on S (x) E and a system state phi, the overlap
table ``f[k, j] = |<E_k| phi (x) j>|`` measures how close each eigenvector
is to a product state over phi.  The bottleneck score delta(phi) is the
best achievable worst overlap over injective assignments of the d_E product
labels to distinct eigenvectors; above 1/sqrt(2) it caps how far the system
can ever drift from phi when the environment starts maximally mixed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import HamiltonianSpec
from .linalg import (ISOMETRY_TOL, check_draws, fidelity, hermitian_eig,
                     indexed_haar_states, isometry_deviation, kron, trace_distance,
                     trace_distances)

# coupling_for_delta stops this close to its target, or after this many bisections
COUPLING_TOL, COUPLING_MAX_ITER = 1e-4, 60


@dataclass
class AssignmentResult:
    delta_phi: float
    assignment: dict[int, int]   # eigenvector index k -> product label j
    overlaps: np.ndarray


def check_phi(phi, d_s: int) -> np.ndarray:
    """phi as a flat vector; ValueError unless it has ``d_s`` amplitudes
    and norm 1."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if phi.size != d_s:
        raise ValueError(f"phi has {phi.size} amplitudes, S has dimension {d_s}")
    if not abs(np.linalg.norm(phi) - 1.0) <= 1e-9:
        raise ValueError("phi is not normalized")
    return phi


def overlap_matrix(eig_vectors, phi, e_basis=None) -> np.ndarray:
    """Overlap table ``f[k, j] = |<E_k| phi (x) e_j>|``.

    ``eig_vectors`` has eigenvectors as columns (d_S d_E of them); ``phi``
    lives on S.  ``e_basis`` defaults to the computational basis of E.
    Columns have squared entries summing to 1 (completeness).
    """
    v = np.asarray(eig_vectors, dtype=complex)
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError("eigenvector matrix must be square")
    if not isometry_deviation(v) <= ISOMETRY_TOL:
        raise ValueError("eigenvectors are not orthonormal")
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(phi) - 1.0) <= 1e-9:
        raise ValueError("phi is not normalized")
    d_s = phi.shape[0]
    d_e, rem = divmod(n, d_s)
    if rem:
        raise ValueError("total dimension not divisible by dim(phi)")
    if e_basis is None:
        e_basis = np.eye(d_e, dtype=complex)
    else:
        e_basis = np.asarray(e_basis, dtype=complex)
        if e_basis.shape != (d_e, d_e):
            raise ValueError("environment basis must be d_E x d_E")
        if not isometry_deviation(e_basis) <= ISOMETRY_TOL:
            raise ValueError("environment basis is not orthonormal")
    # products[:, j] = phi (x) e_j
    products = np.kron(phi[:, None], e_basis)
    return np.abs(v.conj().T @ products)


def _perfect_matching(adj: np.ndarray) -> dict[int, int] | None:
    """Matching of every column into a distinct row, or None.

    ``adj[k, j]`` marks an allowed (row, column) pair; scipy's
    Hopcroft-Karp matcher gives the row of each column, -1 if unmatched.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import maximum_bipartite_matching

    row_of = maximum_bipartite_matching(sparse.csr_array(adj), perm_type="row")
    if (row_of < 0).any():
        return None
    return {int(k): j for j, k in enumerate(row_of)}


def delta_phi(overlaps) -> AssignmentResult:
    """Bottleneck assignment: max over injective label->eigenvector maps of
    the minimum overlap along the map.

    Binary search on the sorted overlap values; each feasibility test asks
    for a perfect matching of all columns using only entries >= threshold.
    Eigenvectors left unmatched can be paired with the remaining product
    labels arbitrarily, since the objective only scores the phi-block, so
    the partial matching always extends to a full injection.
    """
    f = np.asarray(overlaps, dtype=float)
    n_rows, n_cols = f.shape
    if n_rows < n_cols:
        raise ValueError("need at least as many eigenvectors as product labels")
    values = np.unique(f)
    # invariant: a matching exists at values[lo] (every entry reaches the
    # smallest value), and none at values[hi] (hi = len is past the top)
    lo, hi = 0, len(values)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _perfect_matching(f >= values[mid]) is not None:
            lo = mid
        else:
            hi = mid
    theta = float(values[lo])
    witness = _perfect_matching(f >= theta)
    return AssignmentResult(delta_phi=theta, assignment=witness, overlaps=f)


def delta_phi_exhaustive(overlaps) -> float:
    """Brute force over all injective assignments; oracle for small sizes."""
    f = np.asarray(overlaps, dtype=float)
    n_rows, n_cols = f.shape
    best = 0.0
    cols = np.arange(n_cols)
    for rows in itertools.permutations(range(n_rows), n_cols):
        best = max(best, float(f[list(rows), cols].min()))
    return best


def delta_best_match(overlaps) -> float:
    """Per-column best overlap, ignoring injectivity (diagnostic only).

    Upper-bounds :func:`delta_phi`; coincides with it when the columns'
    best rows happen to be distinct.
    """
    f = np.asarray(overlaps, dtype=float)
    return float(f.max(axis=0).min())


def memory_bound(delta: float):
    """All-times trace-distance bound ``4 delta sqrt(1 - delta^2)``.

    The bound is nontrivial (< 2) only for ``delta > 1/sqrt(2)``; the second
    return value flags validity.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    bound = float(4.0 * delta * np.sqrt(max(0.0, 1.0 - delta * delta)))
    return bound, bool(delta > 1.0 / np.sqrt(2.0))


def spec_delta_phi(spec: HamiltonianSpec, phi) -> AssignmentResult:
    """delta(phi) of a Hamiltonian spec's eigenbasis.

    A sparse spec (a spin chain) evolves without eigenvectors, so its
    matrix is diagonalized densely here: the assignment needs all of them.
    phi is checked against S first.
    """
    phi = check_phi(phi, spec.d_s)
    vecs = spec.evolver.eigenvectors
    if vecs is None:
        vecs = hermitian_eig(spec.matrix.toarray())[1]
    return delta_phi(overlap_matrix(vecs, phi))


@dataclass
class AbsenceReport:
    delta_phi: float
    bound: float
    bound_valid: bool
    deterministic_max_distance: float
    min_fidelity_margin: float   # min over times of F(tau_S(t), phi) - (2 delta^2 - 1)
    radius: float                # bound + d_S/sqrt(d_E) + d_E^{-1/3}
    mc_exceed_fraction: float
    mc_bound: float              # e^{-d_E^{1/3}/16}
    mc_asserted: bool
    times: list[float]
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def verify_absence(spec: HamiltonianSpec, phi, times, n_env_samples: int = 20,
                   seed: int = 0) -> AbsenceReport:
    """Check the no-thermalization bound on a concrete Hamiltonian.

    Deterministic part: with the environment maximally mixed, the reduced
    system state never leaves the ``4 delta sqrt(1-delta^2)`` ball around
    phi, and the intermediate fidelity bound ``F >= 2 delta^2 - 1`` holds at
    each sampled time.  Monte-Carlo part: for Haar-random pure environment
    states the excursion radius gains ``d_S/sqrt(d_E) + d_E^{-1/3}``; the
    exceedance probability bound ``e^{-d_E^{1/3}/16}`` is vacuous below
    astronomically large d_E, so the fraction is reported and only asserted
    when the bound is informative.
    """
    if spec.omega_e is not None:
        raise ValueError("analysis assumes the full environment space")
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one time")
    if n_env_samples < 0:
        raise ValueError(f"need a number of samples >= 0, got {n_env_samples}")
    check_draws(n_env_samples, spec.d_e)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    result = spec_delta_phi(spec, phi)
    bound, valid = memory_bound(result.delta_phi)

    d_s, d_e = spec.d_s, spec.d_e
    radius = bound + d_s / np.sqrt(d_e) + d_e ** (-1.0 / 3.0)
    mc_bound = float(np.exp(-(d_e ** (1.0 / 3.0)) / 16.0))
    # columns phi (x) the flat environment's basis / sqrt(d_E), then one
    # column phi (x) psi_i per Haar-random environment state
    psis = indexed_haar_states(d_e, seed, range(n_env_samples))
    x0 = kron(phi[:, None], np.column_stack([np.eye(d_e) / np.sqrt(d_e), psis.T]))
    phi_dm = np.outer(phi, phi.conj())
    fid_floor = 2.0 * result.delta_phi ** 2 - 1.0
    max_dist = 0.0
    min_margin = np.inf
    exceed = 0
    for t, y in zip(times, spec.evolver.evolve(x0, times)):
        flat = y[:, :d_e].reshape(d_s, -1)
        tau_s = flat @ flat.conj().T
        max_dist = max(max_dist, trace_distance(tau_s, phi_dm))
        min_margin = min(min_margin, fidelity(tau_s, phi_dm) - fid_floor)
        samples = y[:, d_e:].T.reshape(-1, d_s, d_e)   # S marginals m m^dag
        exceed += int((trace_distances(samples, phi_dm) > radius).sum())
    total = n_env_samples * len(times)
    frac = exceed / total if total else 0.0
    return AbsenceReport(delta_phi=result.delta_phi, bound=bound,
                         bound_valid=valid,
                         deterministic_max_distance=float(max_dist),
                         min_fidelity_margin=float(min_margin),
                         radius=float(radius),
                         mc_exceed_fraction=float(frac), mc_bound=mc_bound,
                         mc_asserted=mc_bound < 1.0, times=times, seed=seed)


def coupling_for_delta(make_spec, phi, target: float, g_lo: float,
                       g_hi: float) -> float:
    """Bisect the coupling strength g until delta(phi) is within
    ``COUPLING_TOL`` of ``target``.

    ``make_spec(g)`` builds the Hamiltonian; delta is assumed to cross the
    target monotonically between the brackets (checked).
    """

    def delta_at(g: float) -> float:
        return spec_delta_phi(make_spec(g), phi).delta_phi

    d_lo, d_hi = delta_at(g_lo), delta_at(g_hi)
    if not (min(d_lo, d_hi) <= target <= max(d_lo, d_hi)):
        raise ValueError("target delta not bracketed by the couplings")
    sign = 1.0 if d_lo >= d_hi else -1.0
    for _ in range(COUPLING_MAX_ITER):
        mid = 0.5 * (g_lo + g_hi)
        d_mid = delta_at(mid)
        if abs(d_mid - target) <= COUPLING_TOL:
            return mid
        if sign * (d_mid - target) > 0:
            g_lo = mid
        else:
            g_hi = mid
    return 0.5 * (g_lo + g_hi)
