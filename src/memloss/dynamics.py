"""Hamiltonian dynamics, the special states tau/tilde-tau, and the four
entropic memory criteria with dimension certificates and scans."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .entropy import h_max_smooth, h_min_smooth
from .linalg import (
    HERMITICITY_TOL,
    ISOMETRY_TOL,
    MAX_ENTRIES,
    DensityMatrix,
    Evolver,
    SubsystemLayout,
    hermiticity_deviation,
    isometry_deviation,
    kron,
    trace_distance,
)

# the most sites of a spin chain: its arrays take about 24 (n + 1) 2^n bytes
MAX_CHAIN_SITES = 18

MEMORY_LOST = "memory_lost"
MEMORY_RETAINED = "memory_retained"
INCONCLUSIVE = "inconclusive"


@dataclass
class CriterionVerdict:
    """Outcome of one entropic comparison at one time.

    ``margin`` is how far the comparison holds in the direction that fires
    the verdict: ``rhs - lhs`` for memory lost, ``lhs - rhs`` for memory
    retained.  The verdict fires exactly when ``margin > 0``, and only
    where the conservative soundness direction of the smoothed entropies
    supports it; the criteria-scan output reports the margin, so a
    stricter threshold can be applied there.
    """

    time: float
    lhs: float
    rhs: float
    margin: float
    epsilon: float
    verdict: str


@dataclass(eq=False)
class HamiltonianSpec:
    """Joint Hamiltonian on a two-factor [S, E] layout plus the macroscopic
    subspaces and reference initial states the criteria need.

    ``matrix`` is a dense array or a scipy sparse matrix (spin chains); its
    type picks the :class:`Evolver` path.

    ``omega_s`` / ``omega_e`` are isometries (orthonormal columns) into S
    resp. E; ``None`` means the full space.  ``psi_e`` is the environment
    state used by :func:`tau_SE`; ``phi_s`` the system state used by
    :func:`tilde_tau_SE`.
    """

    matrix: np.ndarray
    layout: SubsystemLayout
    omega_s: np.ndarray | None = None
    omega_e: np.ndarray | None = None
    psi_e: np.ndarray | None = None
    phi_s: np.ndarray | None = None
    kind: str = "explicit"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if sparse.issparse(self.matrix):
            self.matrix = sparse.csr_array(self.matrix, dtype=complex)
        else:
            self.matrix = np.asarray(self.matrix, dtype=complex)
        if tuple(self.layout.names) != ("S", "E"):
            raise ValueError("layout must consist of factors ('S', 'E')")
        d = self.layout.dim
        if self.matrix.shape != (d, d):
            raise ValueError("Hamiltonian dimension does not match layout")
        if not hermiticity_deviation(self.matrix) <= HERMITICITY_TOL:
            raise ValueError("Hamiltonian is not finite and Hermitian")
        for attr, dim in (("omega_s", self.d_s), ("omega_e", self.d_e)):
            iso = getattr(self, attr)
            if iso is not None:
                iso = np.asarray(iso, dtype=complex)
                if iso.ndim != 2 or iso.shape[0] != dim:
                    raise ValueError(f"{attr} needs {dim} rows, got shape {iso.shape}")
                if not isometry_deviation(iso) <= ISOMETRY_TOL:
                    raise ValueError(f"{attr} columns are not orthonormal")
                setattr(self, attr, iso)
        for attr, dim in (("psi_e", self.d_e), ("phi_s", self.d_s)):
            vec = getattr(self, attr)
            if vec is not None:
                vec = np.asarray(vec, dtype=complex).reshape(-1)
                if vec.size != dim:
                    raise ValueError(f"{attr} needs {dim} entries, got {vec.size}")
                if not abs(np.linalg.norm(vec) - 1.0) <= 1e-10:
                    raise ValueError(f"{attr} is not normalized")
                setattr(self, attr, vec)

    # -- dimensions ---------------------------------------------------------

    @property
    def d_s(self) -> int:
        return self.layout.dim_of("S")

    @property
    def d_e(self) -> int:
        return self.layout.dim_of("E")

    @property
    def d_omega_s(self) -> int:
        return self.d_s if self.omega_s is None else self.omega_s.shape[1]

    @property
    def d_omega_e(self) -> int:
        return self.d_e if self.omega_e is None else self.omega_e.shape[1]

    @cached_property
    def evolver(self) -> Evolver:
        return Evolver(self.matrix)

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, matrix, d_s: int, d_e: int, **kw) -> "HamiltonianSpec":
        layout = SubsystemLayout.of(("S", d_s), ("E", d_e))
        return cls(matrix=matrix, layout=layout, kind="explicit", **kw)

    @classmethod
    def spin_chain(cls, n_sites: int, s_sites, model: str = "tfi",
                   j: float = 1.0, h_field: float = 1.0,
                   bond_couplings=None, **kw) -> "HamiltonianSpec":
        """1-D nearest-neighbor chain with S = a contiguous prefix of sites.

        ``model`` is "tfi" (transverse-field Ising,
        ``-j sum sz sz - h sum sx``) or "heisenberg"
        (``j sum (sx sx + sy sy + sz sz) - h sum sz``); ``bond_couplings``
        optionally scales each of the n-1 bonds (setting the S-E bond to 0
        decouples system and environment).  The matrix is sparse (CSR), with
        2^n (n + 1) nonzeros at most, and ``n_sites <= MAX_CHAIN_SITES``.
        """
        if n_sites > MAX_CHAIN_SITES:
            raise ValueError(f"chain of {n_sites} sites: at most {MAX_CHAIN_SITES} are supported")
        ell = s_sites if isinstance(s_sites, int) else len(s_sites)
        if not 0 < ell < n_sites:
            raise ValueError("S must be a proper nonempty prefix")
        if not isinstance(s_sites, int) and sorted(s_sites) != list(range(ell)):
            raise ValueError("S must be a contiguous prefix of chain sites")
        bonds = np.ones(n_sites - 1) if bond_couplings is None else np.asarray(
            bond_couplings, dtype=float)
        if bonds.shape != (n_sites - 1,):
            raise ValueError("need one coupling per bond")
        if model not in ("tfi", "heisenberg"):
            raise ValueError(f"unknown model {model!r}")
        # basis state k holds site i in bit n - 1 - i (site 0 leads): its Z
        # eigenvalue is z[i, k] = +-1, and X flips it (k xor 1 << bit)
        k = np.arange(2 ** n_sites)
        bit = n_sites - 1 - np.arange(n_sites)
        z = 1.0 - 2.0 * ((k >> bit[:, None]) & 1)
        coupling = (-1.0 if model == "tfi" else 1.0) * j * bonds
        diag = np.zeros(k.size)
        for b in range(n_sites - 1):
            diag += coupling[b] * (z[b] * z[b + 1])
        if model == "tfi":
            rows = [k] * (n_sites + 1)
            cols = [k] + [k ^ m for m in 1 << bit]
            vals = [diag] + [np.full(k.size, -h_field)] * n_sites
        else:
            for i in range(n_sites):
                diag -= h_field * z[i]
            # XX + YY is 2 on the swap of a bond's two sites where they differ
            flips = [k[z[b] != z[b + 1]] for b in range(n_sites - 1)]
            rows = [k] + flips
            cols = [k] + [f ^ (3 << bit[b + 1]) for b, f in enumerate(flips)]
            vals = [diag] + [np.full(f.size, coupling[b] * 2.0) for b, f in enumerate(flips)]
        vals = np.concatenate(vals)
        keep = vals != 0   # a zero coupling or field stores no entries
        h = sparse.coo_array((vals[keep], (np.concatenate(rows)[keep],
                                           np.concatenate(cols)[keep])),
                             shape=(k.size, k.size)).tocsr()
        layout = SubsystemLayout.of(("S", 2 ** ell), ("E", 2 ** (n_sites - ell)))
        meta = {"n_sites": n_sites, "s_sites": ell, "model": model,
                "j": float(j), "h_field": float(h_field),
                "bond_couplings": bonds.tolist()}
        return cls(matrix=h, layout=layout, kind="spin_chain", meta=meta, **kw)

    @classmethod
    def coupled_product(cls, h_s, h_e, h_int, g: float, **kw) -> "HamiltonianSpec":
        """``H = H_S (x) I + I (x) H_E + g H_int`` on the product space."""
        h_s = np.asarray(h_s, dtype=complex)
        h_e = np.asarray(h_e, dtype=complex)
        h_int = np.asarray(h_int, dtype=complex)
        d_s, d_e = h_s.shape[0], h_e.shape[0]
        h = (kron(h_s, np.eye(d_e)) + kron(np.eye(d_s), h_e) + g * h_int)
        layout = SubsystemLayout.of(("S", d_s), ("E", d_e))
        meta = {"g": g, "h_s": h_s, "h_e": h_e, "h_int": h_int}
        return cls(matrix=h, layout=layout, kind="coupled_product", meta=meta, **kw)


# ---------------------------------------------------------------------------
# The special states.  Each is ``x0 x0^dag`` for d x d_Omega columns x0, so
# it evolves as ``U(t) x0`` and its marginals come from the reshaped columns.
# ---------------------------------------------------------------------------


def _flat_columns(dim: int, iso: np.ndarray | None) -> np.ndarray:
    """Columns x with ``x x^dag = pi_Omega``, the flat state on the subspace."""
    cols = np.eye(dim, dtype=complex) if iso is None else iso
    return cols / np.sqrt(cols.shape[1])


def _tau_columns(spec: HamiltonianSpec) -> np.ndarray:
    if spec.psi_e is None:
        raise ValueError("spec has no environment state psi_e")
    return kron(_flat_columns(spec.d_s, spec.omega_s), spec.psi_e[:, None])


def _tilde_columns(spec: HamiltonianSpec) -> np.ndarray:
    if spec.phi_s is None:
        raise ValueError("spec has no system state phi_s")
    return kron(spec.phi_s[:, None], _flat_columns(spec.d_e, spec.omega_e))


def _evolved(spec: HamiltonianSpec, x0: np.ndarray, t: float) -> DensityMatrix:
    y = spec.evolver.apply(x0, t)
    return DensityMatrix(y @ y.conj().T, spec.layout)


def tau_SE(spec: HamiltonianSpec, t: float) -> DensityMatrix:
    """``U(t) (pi_{Omega_S} (x) |psi><psi|_E) U(t)^dag``."""
    return _evolved(spec, _tau_columns(spec), t)


def tilde_tau_SE(spec: HamiltonianSpec, t: float) -> DensityMatrix:
    """``U(t) (|phi><phi|_S (x) pi_{Omega_E}) U(t)^dag``."""
    return _evolved(spec, _tilde_columns(spec), t)


def _squared_singular_values(m: np.ndarray) -> np.ndarray:
    """Spectrum of ``m m^dag``, descending, zero-padded to its dimension
    (``h_min_smooth`` reads the dimension off the spectrum's length)."""
    sv = np.linalg.svd(m, compute_uv=False)
    return np.pad(sv * sv, (0, m.shape[0] - sv.size))


def _marginal_spectra(y: np.ndarray, d_s: int, d_e: int) -> tuple[np.ndarray, np.ndarray]:
    """S and E spectra of ``y y^dag`` on S (x) E, from its d x r columns."""
    cols = y.reshape(d_s, d_e, -1)
    return (_squared_singular_values(cols.reshape(d_s, -1)),
            _squared_singular_values(cols.swapaxes(0, 1).reshape(d_e, -1)))


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------


def _criteria(spec: HamiltonianSpec, y: np.ndarray, t: float,
              eps: float) -> tuple[CriterionVerdict, CriterionVerdict]:
    s, e = _marginal_spectra(y, spec.d_s, spec.d_e)
    hmin_s, hmax_s = h_min_smooth(s, eps), h_max_smooth(s, eps)
    hmin_e, hmax_e = h_min_smooth(e, eps), h_max_smooth(e, eps)

    def verdict(lhs, rhs, margin, fired):
        return CriterionVerdict(time=t, lhs=lhs, rhs=rhs, margin=margin, epsilon=eps,
                                verdict=fired if margin > 0.0 else INCONCLUSIVE)

    # hmax(S) <~ hmin(E) fires memory lost, hmin(S) >~ hmax(E) memory retained
    return (verdict(hmax_s, hmin_e, hmin_e - hmax_s, MEMORY_LOST),
            verdict(hmin_s, hmax_e, hmin_s - hmax_e, MEMORY_RETAINED))


def _criteria_scan(spec: HamiltonianSpec, x0: np.ndarray, times,
                   eps: float) -> list[tuple[CriterionVerdict, CriterionVerdict]]:
    times = list(times)
    return [_criteria(spec, y, t, eps)
            for t, y in zip(times, spec.evolver.evolve(x0, times))]


def system_criteria(spec: HamiltonianSpec, t: float,
                    eps: float = 0.05) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Memory-of-system-state criteria on ``tau_SE(t)``.

    The first verdict compares ``H_max^eps(S) <~ H_min^eps(E)`` (fires:
    memory lost); the second ``H_min^eps(S) >~ H_max^eps(E)`` (fires:
    memory retained).  Both use the conservative bound directions, so a
    fired verdict is sound.
    """
    return system_criteria_scan(spec, (t,), eps)[0]


def system_criteria_scan(spec: HamiltonianSpec, times, eps: float = 0.05
                         ) -> list[tuple[CriterionVerdict, CriterionVerdict]]:
    """:func:`system_criteria` at each of ``times``, evolving the columns
    along the time grid (:meth:`Evolver.evolve`)."""
    return _criteria_scan(spec, _tau_columns(spec), times, eps)


def env_criteria(spec: HamiltonianSpec, t: float,
                 eps: float = 0.05) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Memory-of-environment-microstate criteria on ``tilde_tau_SE(t)``.

    The same two comparisons as :func:`system_criteria`: the first fires
    when the output is independent of the environment microstate (that
    memory is lost), the second when it depends on it (memory retained).
    """
    return _criteria_scan(spec, _tilde_columns(spec), (t,), eps)[0]


def dimension_certificates(spec: HamiltonianSpec) -> tuple[bool, bool]:
    """All-times certificates from dimension counting alone.

    system: ``log2 d_{Omega_S} > 2 log2 d_E`` guarantees the
    memory-retained criterion at every time; env: ``log2 d_{Omega_E} >
    2 log2 d_S`` guarantees environment-independence at every time.
    """
    system_cert = np.log2(spec.d_omega_s) > 2.0 * np.log2(spec.d_e)
    env_cert = np.log2(spec.d_omega_e) > 2.0 * np.log2(spec.d_s)
    return bool(system_cert), bool(env_cert)


# ---------------------------------------------------------------------------
# Scans.
# ---------------------------------------------------------------------------


@dataclass
class LightconeScan:
    times: np.ndarray
    h_max_env: np.ndarray          # H_max^eps(E) per time
    deficit_sys: np.ndarray        # log2 d_S - H_min^eps(S) per time
    t_star: float | None           # first time the memory-lost criterion fires
    slope_env: float               # fitted initial growth rate of H_max^eps(E)
    slope_sys: float               # fitted initial growth rate of the S deficit
    epsilon: float


def lightcone_scan(spec: HamiltonianSpec, times, eps: float = 0.05) -> LightconeScan:
    """Entropy-deficit scan for a nearest-neighbor chain with contiguous S.

    The fitted initial slopes are empirical proxies for the boundary-times-
    velocity growth rate; no formal Lieb-Robinson bound is computed.
    """
    if spec.kind != "spin_chain":
        raise ValueError("lightcone_scan needs a spin-chain spec with contiguous S")
    times = np.asarray(times, dtype=float)
    log_ds = float(np.log2(spec.d_s))
    h_max_env = np.empty_like(times)
    deficit = np.empty_like(times)
    t_star = None
    scan = system_criteria_scan(spec, times.tolist(), eps)
    for i, (t, (lost, retained)) in enumerate(zip(times, scan)):
        h_max_env[i] = retained.rhs
        deficit[i] = log_ds - retained.lhs
        if t_star is None and lost.verdict == MEMORY_LOST:
            t_star = float(t)

    def initial_slope(values):
        # fit over the initial rise, before the curve saturates
        cut = values < 0.5 * max(values.max(), 1e-12)
        k = max(int(cut.sum()), 2)
        coef = np.polyfit(times[:k], values[:k], 1)
        return float(coef[0])

    return LightconeScan(times=times, h_max_env=h_max_env, deficit_sys=deficit,
                         t_star=t_star, slope_env=initial_slope(h_max_env),
                         slope_sys=initial_slope(deficit), epsilon=eps)


# ---------------------------------------------------------------------------
# JSON codec for Hamiltonian specs (the CLI's config format).
# ---------------------------------------------------------------------------


def spec_to_dict(spec: HamiltonianSpec) -> dict:
    from .serialize import encode_complex_matrix, encode_complex_vector

    out: dict = {"kind": spec.kind}
    if spec.kind == "spin_chain":
        m = spec.meta
        out.update(n_sites=m["n_sites"], s_sites=m["s_sites"], model=m["model"],
                   j=m["j"], h_field=m["h_field"],
                   bond_couplings=list(m["bond_couplings"]))
    elif spec.kind == "coupled_product":
        m = spec.meta
        out.update(g=m["g"], h_s=encode_complex_matrix(m["h_s"]),
                   h_e=encode_complex_matrix(m["h_e"]),
                   h_int=encode_complex_matrix(m["h_int"]))
    else:
        matrix = spec.matrix.toarray() if sparse.issparse(spec.matrix) else spec.matrix
        out.update(matrix=encode_complex_matrix(matrix), d_s=spec.d_s, d_e=spec.d_e)
    for attr in ("omega_s", "omega_e"):
        iso = getattr(spec, attr)
        if iso is not None:
            out[attr] = encode_complex_matrix(iso)
    for attr in ("psi_e", "phi_s"):
        vec = getattr(spec, attr)
        if vec is not None:
            out[attr] = encode_complex_vector(vec)
    return out


# the keys of each kind of spec object, besides the ones every kind takes
_SPEC_KEYS = {"spin_chain": {"n_sites", "s_sites", "model", "j", "h_field", "bond_couplings"},
              "coupled_product": {"h_s", "h_e", "h_int", "g"},
              "explicit": {"matrix", "d_s", "d_e"}}


def spec_from_dict(d: dict) -> HamiltonianSpec:
    from .serialize import (decode_complex_matrix, decode_complex_vector, reject_unknown_keys,
                            require_float, require_int)

    kind = d.get("kind", "explicit")
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}")
    decoders = {"omega_s": decode_complex_matrix, "omega_e": decode_complex_matrix,
                "psi_e": decode_complex_vector, "phi_s": decode_complex_vector}
    reject_unknown_keys(d, _SPEC_KEYS[kind] | decoders.keys() | {"kind"})
    extras = {attr: decode(d[attr]) for attr, decode in decoders.items()
              if d.get(attr) is not None}
    if kind == "spin_chain":
        return HamiltonianSpec.spin_chain(
            n_sites=require_int(d["n_sites"]), s_sites=require_int(d["s_sites"]),
            model=d.get("model", "tfi"), j=require_float(d.get("j", 1.0)),
            h_field=require_float(d.get("h_field", 1.0)),
            bond_couplings=None if d.get("bond_couplings") is None
            else [require_float(b) for b in d["bond_couplings"]], **extras)
    if kind == "coupled_product":
        return HamiltonianSpec.coupled_product(
            decode_complex_matrix(d["h_s"]), decode_complex_matrix(d["h_e"]),
            decode_complex_matrix(d["h_int"]), g=require_float(d["g"]),
            **extras)
    return HamiltonianSpec.explicit(
        decode_complex_matrix(d["matrix"]), require_int(d["d_s"]), require_int(d["d_e"]),
        **extras)


@dataclass
class RecurrenceScan:
    t_rec: float | None
    distance_at_rec: float | None
    min_distance: float
    argmin_time: float
    verdict_at_rec: CriterionVerdict | None


def recurrence_scan(spec: HamiltonianSpec, t_max: float, step: float,
                    tol: float = 1e-6, eps: float = 0.05) -> RecurrenceScan:
    """Scan for the first return of ``tau_SE(t)`` to its initial state.

    The grid is ``step * k`` for ``k = 1, 2, ...`` up to ``t_max``, which a
    relative rounding slack of 1e-9 keeps on the grid.  Absence of a
    recurrence within the horizon is a valid result (``t_rec = None``).
    When one is found, the memory-retained verdict at that time is attached.
    """
    if spec.layout.dim > 64:
        raise ValueError("recurrence scan limited to total dimension <= 64")
    if not 0.0 <= eps < 1.0:  # checked first: a scan that finds no return never smooths
        raise ValueError("epsilon must be in [0, 1)")
    if not 0.0 < step <= t_max:
        raise ValueError("recurrence grid needs 0 < step <= t_max")
    n_steps = np.floor(t_max / step * (1.0 + 1e-9))  # infinite for a step of 1e-310
    if not n_steps <= MAX_ENTRIES:
        raise ValueError(f"recurrence grid of {n_steps:.6g} steps: at most {MAX_ENTRIES}")
    grid = step * np.arange(1.0, n_steps + 1.0)
    # the reference is the t = 0 state of the same evolution
    states = spec.evolver.evolve(_tau_columns(spec), [0.0, *grid])
    y0 = next(states)
    tau0 = y0 @ y0.conj().T
    best, best_t = np.inf, 0.0
    for t, y in zip(grid, states):
        dist = trace_distance(y @ y.conj().T, tau0)
        if dist < best:
            best, best_t = dist, t
        if dist < tol:
            _, retained = _criteria(spec, y, t, eps)
            return RecurrenceScan(t_rec=float(t), distance_at_rec=float(dist),
                                  min_distance=float(best), argmin_time=float(best_t),
                                  verdict_at_rec=retained)
    return RecurrenceScan(t_rec=None, distance_at_rec=None,
                          min_distance=float(best), argmin_time=float(best_t),
                          verdict_at_rec=None)
