"""Output checks for the benchmark workloads.

Each check compares a memloss output with a computation made here, with
numpy and scipy only, or with a property the method must have.  No check
compares against a stored copy of an earlier output.  A check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

BITS_TOL = 1e-9       # entropies computed in closed form or bracketed
SDP_BITS_TOL = 1e-6   # the barrier solver stops at a 1e-7 duality gap
DIST_TOL = 1e-9       # trace distances
# States that come out of dense products (an evolution, a Choi state) have
# trace 1 only to rounding, and h_min_smooth turns a trace deficit of a few
# ulps into a rise of up to 4e-9 bits (the sqrt((1 - tr rho)(1 - tr sigma))
# fidelity term).  Checks on entropies of such states, whose trace the
# output does not show, allow 1e-8 bits: a hundredth of the 1e-6-bit
# corruption the tests require them to catch.
ROUNDING_BITS_TOL = 1e-8


def h_min_bits(lam) -> float:
    return float(-np.log2(np.max(lam)))


def h_max_bits(lam) -> float:
    lam = np.clip(np.asarray(lam, dtype=float), 0.0, None)
    return float(2.0 * np.log2(np.sqrt(lam).sum()))


def smoothing_gain(eps: float) -> float:
    """``log2 1/(1-eps^2)``: what smoothing adds to a flat state's H_min."""
    return float(np.log2(1.0 / (1.0 - eps * eps)))


def flat_h_min_smooth(d: int, trace: float, eps: float) -> float:
    """Smoothed min-entropy of the flat spectrum ``trace/d * ones(d)``.

    With every eigenvalue capped at m the generalized fidelity is
    ``sqrt(trace d m) + sqrt((1 - trace)(1 - d m))``; writing
    ``d m = cos^2 theta`` and ``trace = cos^2 alpha`` it equals
    ``cos(theta - alpha)``, so the smallest feasible cap is
    ``cos^2(alpha + arccos sqrt(1 - eps^2)) / d``.  At trace 1 this is
    ``log2 d + gain``; a trace a few ulps below 1 raises it by nanobits.
    """
    alpha = np.arcsin(np.sqrt(max(0.0, 1.0 - trace)))
    theta = alpha + np.arccos(np.sqrt(1.0 - eps * eps))
    return float(np.log2(d) - np.log2(np.cos(theta) ** 2))


def _off(value: float, expected: float, tol: float) -> bool:
    return not abs(value - expected) <= tol


# ---------------------------------------------------------------------------
# chain-scan
# ---------------------------------------------------------------------------


def tfi_hamiltonian(n_sites: int, j: float, h: float) -> np.ndarray:
    """Dense ``-j sum Z_i Z_{i+1} - h sum X_i``; site 0 is the leading factor."""
    dim = 2 ** n_sites
    idx = np.arange(dim)
    bits = (idx[:, None] >> (n_sites - 1 - np.arange(n_sites))) & 1
    z = 1 - 2 * bits
    ham = np.zeros((dim, dim), dtype=complex)
    ham[idx, idx] = -j * (z[:, :-1] * z[:, 1:]).sum(axis=1)
    for site in range(n_sites):
        ham[idx, idx ^ (1 << (n_sites - 1 - site))] -= h
    return ham


def chain_spectra(ham: np.ndarray, d_s: int, t: float):
    """S and E spectra of ``U (pi_S x |0><0|_E) U^dag`` with ``U = expm(-iHt)``."""
    d_e = ham.shape[0] // d_s
    u = sla.expm(-1j * t * ham)
    psi = u[:, ::d_e].T.reshape(d_s, d_s, d_e)   # psi[k] = U|k>_S|0>_E as (s, e)
    rho_s = np.einsum("kse,kte->st", psi, psi.conj()) / d_s
    rho_e = np.einsum("kse,ksf->ef", psi, psi.conj()) / d_s
    return np.linalg.eigvalsh(rho_s), np.linalg.eigvalsh(rho_e)


def check_criteria_scan(rows, times, spectra, d_s: int, eps: float) -> list[str]:
    """``criteria-scan`` rows against spectra from an independent evolution.

    ``h_min(S) <= lhs <= log2 d_S + gain``, ``rhs <= h_max(E)``, the margin
    is ``lhs - rhs``, and the verdict at t = 0 is ``memory_retained``.
    """
    problems = []
    if len(rows) != len(times):
        return [f"{len(rows)} rows for {len(times)} times"]
    ceiling = np.log2(d_s) + smoothing_gain(eps)
    for row, t, (lam_s, lam_e) in zip(rows, times, spectra):
        lhs, rhs = row["lhs_bits"], row["rhs_bits"]
        if row["t"] != t:
            problems.append(f"row time {row['t']} != {t}")
        if lhs < h_min_bits(lam_s) - ROUNDING_BITS_TOL or lhs > ceiling + ROUNDING_BITS_TOL:
            problems.append(f"t={t}: lhs {lhs} outside [{h_min_bits(lam_s)}, {ceiling}]")
        if rhs > h_max_bits(lam_e) + ROUNDING_BITS_TOL:
            problems.append(f"t={t}: rhs {rhs} above h_max(E) {h_max_bits(lam_e)}")
        if _off(row["margin_bits"], lhs - rhs, ROUNDING_BITS_TOL):
            problems.append(f"t={t}: margin {row['margin_bits']} != lhs - rhs")
        retained = row["verdict"] == "memory_retained"
        if retained != (lhs - rhs > 0.0):
            problems.append(f"t={t}: verdict {row['verdict']} with margin {lhs - rhs}")
        if row["verdict"] not in ("memory_retained", "memory_lost", "inconclusive"):
            problems.append(f"t={t}: unknown verdict {row['verdict']}")
        if t == 0.0:
            if not retained:
                problems.append(f"t=0: verdict {row['verdict']}, not memory_retained")
            if _off(lhs, ceiling, ROUNDING_BITS_TOL) or _off(rhs, 0.0, ROUNDING_BITS_TOL):
                problems.append(f"t=0: flat S / pure E give ({ceiling}, 0), got ({lhs}, {rhs})")
    return problems


def check_lightcone(rows, times, spectra, d_s: int, eps: float,
                    criteria_rows) -> list[str]:
    """``lightcone`` rows: ``h_max_env <= h_max(E)`` and
    ``-gain <= deficit_sys <= log2 d_S - h_min(S)``; ``h_max_env`` equals the
    criteria scan's ``rhs`` at the same time."""
    problems = []
    if len(rows) != len(times):
        return [f"{len(rows)} rows for {len(times)} times"]
    log_ds = np.log2(d_s)
    for i, (row, t, (lam_s, lam_e)) in enumerate(zip(rows, times, spectra)):
        env, deficit = row["h_max_env_bits"], row["deficit_sys_bits"]
        if row["t"] != t:
            problems.append(f"row time {row['t']} != {t}")
        if env > h_max_bits(lam_e) + ROUNDING_BITS_TOL:
            problems.append(f"t={t}: h_max_env {env} above h_max(E) {h_max_bits(lam_e)}")
        hi = log_ds - h_min_bits(lam_s)
        if deficit < -smoothing_gain(eps) - ROUNDING_BITS_TOL or deficit > hi + ROUNDING_BITS_TOL:
            problems.append(f"t={t}: deficit {deficit} outside [{-smoothing_gain(eps)}, {hi}]")
        if _off(env, criteria_rows[i]["rhs_bits"], ROUNDING_BITS_TOL):
            problems.append(f"t={t}: h_max_env {env} != criteria rhs "
                            f"{criteria_rows[i]['rhs_bits']}")
    return problems


# ---------------------------------------------------------------------------
# iid-memory
# ---------------------------------------------------------------------------


def check_single_copy(lam_s, lam_e, p: float) -> list[str]:
    """Marginals of the dilated flat input: ``[1/2, 1/2]`` and
    ``[1-p, p/3, p/3, p/3]``."""
    problems = []
    want_s = np.array([0.5, 0.5])
    want_e = np.sort([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    for label, got, want in (("S", lam_s, want_s), ("E", lam_e, want_e)):
        got = np.sort(np.asarray(got, dtype=float))
        if got.shape != want.shape or np.abs(got - want).max() > 1e-12:
            problems.append(f"p={p}: {label} spectrum {got.tolist()} != {want.tolist()}")
    return problems


def check_iid(values, p: float, eps: float, traces_s) -> list[list[str]]:
    """Per-copy checks; ``values[n-1] = (hmin_S, hmax_S, hmin_E, hmax_E)`` of
    n copies and ``traces_s[n-1]`` the trace of ``S^n``.
    Returns one problem list per n.

    * flat ``S^n``: ``h_min^eps`` is the flat closed form at that trace
      (``n + gain`` at trace 1) and ``h_max^eps <= n``;
    * ``h_min^eps(E^n) >= n H_min(E)`` and ``h_max^eps(E^n) <= n H_max(E)``;
    * each added copy raises ``h_min^eps(E^n)`` by ``[H_min(E), log2 4]``.
    """
    lam_e = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    hmin_e1, hmax_e1 = h_min_bits(lam_e), h_max_bits(lam_e)
    out = []
    for n, (hmin_s, hmax_s, hmin_e, hmax_e) in enumerate(values, start=1):
        problems = []
        flat = flat_h_min_smooth(2 ** n, traces_s[n - 1], eps)
        if _off(hmin_s, flat, BITS_TOL):
            problems.append(f"p={p} n={n}: h_min(S^n) {hmin_s} != {flat}")
        if hmax_s > n + BITS_TOL:
            problems.append(f"p={p} n={n}: h_max(S^n) {hmax_s} > {n}")
        if hmin_e < n * hmin_e1 - BITS_TOL:
            problems.append(f"p={p} n={n}: h_min(E^n) {hmin_e} < {n * hmin_e1}")
        if hmax_e > n * hmax_e1 + BITS_TOL:
            problems.append(f"p={p} n={n}: h_max(E^n) {hmax_e} > {n * hmax_e1}")
        if n > 1:
            step = hmin_e - values[n - 2][2]
            if step < hmin_e1 - BITS_TOL or step > 2.0 + BITS_TOL:
                problems.append(f"p={p} n={n}: step {step} outside [{hmin_e1}, 2]")
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# channel-bound
# ---------------------------------------------------------------------------


def weyl_depolarizing_kraus(d: int, q: float) -> list[np.ndarray]:
    """``T(rho) = (1-q) rho + q I/d`` as d^2 Weyl-Heisenberg Kraus operators."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    kraus = []
    for a in range(d):
        for b in range(d):
            w = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            weight = 1.0 - q + q / d ** 2 if a == b == 0 else q / d ** 2
            kraus.append(np.sqrt(weight) * w)
    return kraus


def isotropic_h_min_bits(d: int, fidelity: float) -> float:
    """``H_min(A'|B) = -log2(d F)`` of an isotropic Choi state with
    ``F = <Phi|J|Phi> >= 1/d^2``."""
    return float(-np.log2(d * fidelity))


def choi_matrix(kraus) -> np.ndarray:
    """``sum_k (I x K_k)|Phi><Phi|(I x K_k)^dag`` on ``A' x B``."""
    d_a = kraus[0].shape[1]
    vecs = np.array([np.asarray(k).T.reshape(-1) for k in kraus]) / np.sqrt(d_a)
    return vecs.T @ vecs.conj()


def choi_bracket(kraus) -> tuple[float, float]:
    """``-log2 lambda_max(J) - log2 d_B <= H_min(A'|B) <= -log2(d_A <Phi|J|Phi>)``."""
    d_b, d_a = kraus[0].shape
    if d_a != d_b:
        raise ValueError("the upper end needs equal input and output dimensions")
    choi = choi_matrix(kraus)
    phi = np.eye(d_a).reshape(-1) / np.sqrt(d_a)
    lower = -np.log2(np.linalg.eigvalsh(choi)[-1]) - np.log2(d_b)
    upper = -np.log2(d_a * float(np.real(phi @ choi @ phi)))
    return float(lower), float(upper)


def check_decoupling(report: dict, expected_bits: float | None = None,
                     bracket: tuple[float, float] | None = None) -> list[str]:
    """A ``decoupling`` report: the SDP value against a closed form or a
    bracket, ``bound = 2^{-bits/2}``, and the empirical mean at most the
    bound plus three standard errors."""
    problems = []
    bits, bound = report["bound_bits"], report["bound"]
    if expected_bits is not None and _off(bits, expected_bits, SDP_BITS_TOL):
        problems.append(f"H_min(A'|B) {bits} != closed form {expected_bits}")
    if bracket is not None and not (bracket[0] - SDP_BITS_TOL <= bits
                                    <= bracket[1] + SDP_BITS_TOL):
        problems.append(f"H_min(A'|B) {bits} outside bracket {list(bracket)}")
    if _off(bound, 2.0 ** (-bits / 2.0), 1e-12 * max(1.0, bound)):
        problems.append(f"bound {bound} != 2^(-{bits}/2)")
    n = report["n_samples"]
    limit = bound + 3.0 * report["empirical_std"] / np.sqrt(n)
    if report["empirical_mean"] > limit:
        problems.append(f"mean {report['empirical_mean']} above bound + 3 sigma/sqrt(n) {limit}")
    return problems


def converse_lhs(h_max_joint: float, eps: float, delta: float) -> float:
    shift = np.sqrt(2.0 * delta) + 4.0 * eps
    return float(h_max_joint + np.log2(1.0 / (1.0 - shift * shift))
                 + np.log2(2.0 / (eps * eps)))


def check_converse(result: dict, d: int, eps: float, delta: float,
                   h_max_joint: float | None = None,
                   h_max_joint_ceiling: float | None = None,
                   tol: float = BITS_TOL) -> list[str]:
    """A ``converse`` result for a channel with a flat output marginal.

    ``rhs = log2 d + gain``; ``lhs`` is ``h_max_joint`` plus both closed-form
    penalties; ``h_max_joint`` equals its closed form or stays below the
    unsmoothed ceiling; ``fires`` is ``lhs < rhs``; a fired result carries a
    trial average within ``[0, 2(1-1/d)]``.  ``tol`` bounds the entropy
    comparisons: ``ROUNDING_BITS_TOL`` where the output marginal is built by
    dense products, ``BITS_TOL`` where its spectrum is exact.
    """
    problems = []
    rhs = np.log2(d) + smoothing_gain(eps)
    joint = result["h_max_joint"]
    if _off(result["h_min_output"], rhs, tol):
        problems.append(f"h_min_output {result['h_min_output']} != {rhs}")
    if h_max_joint is not None and _off(joint, h_max_joint, tol):
        problems.append(f"h_max_joint {joint} != {h_max_joint}")
    if h_max_joint_ceiling is not None and joint > h_max_joint_ceiling + tol:
        problems.append(f"h_max_joint {joint} above h_max {h_max_joint_ceiling}")
    if _off(result["lhs"], converse_lhs(joint, eps, delta), tol):
        problems.append(f"lhs {result['lhs']} != {converse_lhs(joint, eps, delta)}")
    if result["fires"] != (result["lhs"] < result["h_min_output"]):
        problems.append(f"fires={result['fires']} with lhs {result['lhs']}")
    if result["fires"]:
        trial = result["trial_min_avg"]
        if trial is None or not 0.0 <= trial <= 2.0 * (1.0 - 1.0 / d) + DIST_TOL:
            problems.append(f"trial_min_avg {trial} outside [0, {2 * (1 - 1 / d)}]")
        elif result["empirical_ok"] != (trial > delta / 2.0):
            problems.append(f"empirical_ok={result['empirical_ok']} with trial {trial}")
    return problems


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------


def check_samples(mean: float, samples, d: int, exact: float | None = None) -> list[str]:
    """Sample distances are at most ``2(1-1/d)`` (contractivity), equal
    ``exact`` when the channel fixes it, and average to ``mean``."""
    problems = []
    samples = np.asarray(samples, dtype=float)
    ceiling = 2.0 * (1.0 - 1.0 / d)
    if samples.max() > ceiling + DIST_TOL or samples.min() < 0.0:
        problems.append(f"sample distance outside [0, {ceiling}]: "
                        f"[{samples.min()}, {samples.max()}]")
    if exact is not None and np.abs(samples - exact).max() > DIST_TOL:
        problems.append(f"sample distances {samples.min()}..{samples.max()} != {exact}")
    if _off(mean, float(samples.mean()), DIST_TOL):
        problems.append(f"mean {mean} != sample average {samples.mean()}")
    return problems


def product_overlaps(ham: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``f[k, j] = |<E_k| phi x j>|`` from numpy's eigenvectors of ``ham``."""
    _, vecs = np.linalg.eigh(ham)
    d_s = phi.shape[0]
    d_e = ham.shape[0] // d_s
    blocks = vecs.reshape(d_s, d_e, -1)
    return np.abs(np.einsum("sjk,s->kj", blocks.conj(), phi))


def has_perfect_matching(allowed: np.ndarray) -> bool:
    """Every product label (column) matched to a distinct eigenvector (row)."""
    graph = csr_matrix(allowed.T.astype(np.int8))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match >= 0).all())


def check_absence(report: dict, overlaps: np.ndarray, tol: float = 1e-9) -> list[str]:
    """delta(phi) is the bottleneck value of ``overlaps`` (a perfect matching
    exists at delta, none above it), above ``1/sqrt 2``, and the deterministic
    distance and fidelity results respect ``4 delta sqrt(1-delta^2)``."""
    problems = []
    delta = report["delta_phi"]
    if not has_perfect_matching(overlaps >= delta - tol):
        problems.append(f"no perfect matching at delta {delta}")
    if has_perfect_matching(overlaps > delta + tol):
        problems.append(f"a perfect matching exists above delta {delta}")
    if not delta > 1.0 / np.sqrt(2.0):
        problems.append(f"delta {delta} not above 1/sqrt(2)")
    bound = 4.0 * delta * np.sqrt(max(0.0, 1.0 - delta * delta))
    if report["deterministic_max_distance"] > bound + tol:
        problems.append(f"max distance {report['deterministic_max_distance']} above {bound}")
    if report["min_fidelity_margin"] < -tol:
        problems.append(f"fidelity margin {report['min_fidelity_margin']} < 0")
    return problems
