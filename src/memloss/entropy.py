"""One-shot and von Neumann entropies, smoothing, conditional min-entropy.

All entropies are in bits.  Smoothing is over *subnormalized* states within
purified distance epsilon; because of the subnormalization slack the smoothed
min-entropy of a normalized state can exceed ``log2 d`` by up to
``log2 1/(1 - eps^2)``.

Soundness directions: :func:`h_min_smooth` returns the optimum over the
states that commute with rho, in closed form (one quadratic root per number
of capped eigenvalues, all from prefix sums), and is thus a certified
*lower* bound on the smoothed min-entropy; :func:`h_max_smooth` (tail
removal) is a certified *upper* bound on the smoothed max-entropy.
Criterion consumers can use both conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .linalg import EIGENVALUE_TOL, DensityMatrix, as_matrix

SDP_MAX_DIM = 256
SDP_STAGE_STEPS = 60   # Newton steps per centering stage before it gives up


def spectrum_of(x) -> np.ndarray:
    """Descending eigenvalue vector of a state; 1-D input is passed through."""
    if isinstance(x, DensityMatrix):
        return x.spectrum()
    a = np.asarray(x)
    if a.ndim == 1:
        lam = np.sort(a.real)[::-1]
    else:
        lam = np.linalg.eigvalsh(a)[::-1].real
    # written so that a nan (whose comparisons are all false) fails them
    top = lam.max(initial=0.0)
    if not 0.0 < top < np.inf:
        raise ValueError("spectrum is empty, zero or not finite")
    if not -EIGENVALUE_TOL * max(1.0, top) <= lam.min():
        raise ValueError("negative eigenvalue beyond tolerance")
    return np.clip(lam, 0.0, None)


def h_min(rho) -> float:
    """Min-entropy ``-log2 max_j lambda_j``."""
    return float(-np.log2(spectrum_of(rho)[0]))


def h_max(rho) -> float:
    """Max-entropy (Renyi-1/2) ``2 log2 sum_j sqrt(lambda_j)``."""
    return float(2.0 * np.log2(np.sqrt(spectrum_of(rho)).sum()))


def shannon(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    if p.min(initial=0.0) < -EIGENVALUE_TOL:
        raise ValueError("negative probability beyond tolerance")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0]
    # + 0.0 turns the -0.0 of a deterministic distribution into +0.0
    return float(-(nz * np.log2(nz)).sum() + 0.0)


def von_neumann(rho) -> float:
    """von Neumann entropy in bits."""
    return shannon(spectrum_of(rho))


def _smooth_target(eps: float) -> float:
    if not 0.0 <= eps < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    return float(np.sqrt(1.0 - eps * eps))


def h_min_smooth(rho, eps: float) -> float:
    """Smoothed min-entropy via the optimal commuting candidate, in closed form.

    Returns ``-log2 m`` for the smallest spectral ceiling m at which some
    subnormalized state, diagonal in rho's eigenbasis with all eigenvalues
    at most m, is within purified distance eps of rho.  By the KKT
    conditions the best such state caps the top j eigenvalues at m and
    scales the rest, ``sigma_i = min(m, c lambda_i)`` with
    ``c = (1 - j m) / W_j``, ``W_j = T_j + s``, ``T_j = sum_{i>=j} lambda_i``
    and slack ``s = 1 - tr rho``; it is feasible for
    ``lambda_j / (W_j + j lambda_j) <= m <= 1/j``.  With
    ``P_j = sum_{i<j} sqrt(lambda_i)`` its generalized fidelity is
    ``F_j(m) = sqrt(m) P_j + sqrt((1 - j m) W_j)``, so the smallest ceiling
    of piece j is the smaller root in ``u = sqrt(m)`` of
    ``(P_j^2 + j W_j) u^2 - 2 F P_j u + F^2 - W_j = 0`` clamped to the
    piece's feasibility floor; the pieces exhaust the commuting candidates.
    """
    lam = spectrum_of(rho)
    target = _smooth_target(eps)
    if eps == 0.0:
        return float(-np.log2(lam[0]))
    slack = max(0.0, 1.0 - float(lam.sum()))
    j = np.arange(1, lam.size + 1)  # piece j = 0 is sigma = lam, ceiling lam[0]
    # extended-precision running sums: a float64 one drifts by up to j ulps
    p = np.cumsum(np.sqrt(lam), dtype=np.longdouble).astype(float)
    w = np.cumsum(lam[:0:-1], dtype=np.longdouble)[::-1].astype(float)
    w = np.append(w, 0.0) + slack
    nxt = np.append(lam[1:], 0.0)  # lambda_j, the largest uncapped eigenvalue
    floor = np.divide(nxt, w + j * nxt, out=np.zeros(lam.size), where=nxt > 0.0)
    # quarter discriminant and the smaller root, in the form that keeps its
    # digits at the all-at-cap piece (W_j = s, a near-tangent root)
    disc = w * (p * p + j * (w - target * target))
    root = (target * target - w) / (target * p + np.sqrt(np.maximum(disc, 0.0)))
    # F_j rises at its floor (slope P_j - j sqrt(lambda_j) >= 0 in u), so a
    # root below the floor means the floor itself reaches the target
    m = np.maximum(np.square(np.maximum(root, 0.0)), floor)
    ok = (disc >= 0.0) & (j * m <= 1.0)
    return float(-np.log2(min(float(lam[0]), float(m[ok].min(initial=np.inf)))))


def h_max_smooth(rho, eps: float) -> float:
    """Smoothed max-entropy upper bound via tail removal.

    Greedily zeroes the smallest eigenvalues (the last one partially, the
    largest never) while the purified distance stays at most eps, and
    returns the max-entropy of the surviving subnormalized spectrum.
    """
    lam = spectrum_of(rho)
    target = _smooth_target(eps)
    if eps == 0.0:
        return h_max(lam)
    # F = sum_i sqrt(lam_i sigma_i); keeping sigma_i = lam_i contributes lam_i.
    fid = float(lam.sum())
    sqrt_sum = float(np.sqrt(lam).sum())
    for x in lam[:0:-1]:  # ascending tail, largest eigenvalue excluded
        if x == 0.0:
            continue
        if fid - x >= target:
            fid -= x
            sqrt_sum -= np.sqrt(x)
        else:
            # partial removal of this eigenvalue: sigma = s <= x
            root = target - (fid - x)
            sqrt_sum -= np.sqrt(x)
            if root > 0.0:
                s = root * root / x
                sqrt_sum += np.sqrt(s)
            break
    return float(2.0 * np.log2(sqrt_sum))


def _grid_max_fidelity(lam: np.ndarray, m: float, points: int,
                       stages: int) -> float:
    """Best generalized fidelity to ``lam`` over a refining grid of candidate
    spectra confined to [0, m]^d; candidates over the unit trace budget are
    scaled back onto it."""
    d = lam.size
    slack = max(0.0, 1.0 - float(lam.sum()))
    lo = np.zeros(d)
    hi = np.full(d, m)
    best = -1.0
    for _ in range(stages):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(d)]
        grids = np.meshgrid(*axes, indexing="ij")
        sigma = np.stack([g.reshape(-1) for g in grids], axis=1)
        trace = sigma.sum(axis=1)
        sigma = sigma / np.clip(trace, 1.0, None)[:, None]
        trace = np.clip(trace, None, 1.0)
        fid = np.sqrt(sigma * lam[None, :]).sum(axis=1)
        fid += np.sqrt(slack * np.clip(1.0 - trace, 0.0, None))
        idx = int(np.argmax(fid))
        best = max(best, float(fid[idx]))
        center = np.stack([g.reshape(-1) for g in grids], axis=1)[idx]
        cell = (hi - lo) / (points - 1)
        lo = np.clip(center - 2.0 * cell, 0.0, m)
        hi = np.clip(center + 2.0 * cell, 0.0, m)
    return best


def h_min_smooth_oracle(rho, eps: float, points: int = 33, stages: int = 5,
                        m_iters: int = 50) -> float:
    """Brute-force certification of :func:`h_min_smooth` for d <= 3.

    Bisects the spectral ceiling m; each feasibility test maximizes the
    generalized fidelity over a refining grid of candidate spectra in
    [0, m]^d with the trace budget enforced by rescaling.  Shares no code
    path with the structured water-filling search.
    """
    lam = spectrum_of(rho)
    if lam.size > 3:
        raise ValueError("oracle is restricted to d <= 3")
    if eps == 0.0:
        return float(-np.log2(lam[0]))
    target = _smooth_target(eps)
    lo, hi = 0.0, float(lam[0])
    for _ in range(m_iters):
        mid = 0.5 * (lo + hi)
        if _grid_max_fidelity(lam, mid, points, stages) >= target:
            hi = mid
        else:
            lo = mid
    return float(-np.log2(hi))


def h_max_smooth_oracle(rho, eps: float, grid: int = 20_001) -> float:
    """Brute-force scan over tail-removal candidates; certifies
    :func:`h_max_smooth`.

    For every count k of fully removed tail eigenvalues and a grid of
    partial removals of the next one, keeps the feasible candidate with the
    smallest surviving max-entropy.
    """
    lam = spectrum_of(rho)
    target = _smooth_target(eps)
    if eps == 0.0:
        return h_max(lam)
    best = 2.0 * np.log2(np.sqrt(lam).sum())
    d = lam.size
    for k in range(d - 1):  # k eigenvalues of the ascending tail fully removed
        tail = lam[d - k:] if k else lam[:0]
        removed = float(tail.sum())
        next_val = lam[d - 1 - k]
        if next_val == 0.0:
            fid = 1.0 - removed
            if fid >= target:
                val = 2.0 * np.log2(np.sqrt(lam[: d - 1 - k]).sum())
                best = min(best, val)
            continue
        s_grid = np.linspace(0.0, next_val, grid)
        fid = 1.0 - removed - next_val + np.sqrt(next_val * s_grid)
        ok = fid >= target
        if not ok.any():
            continue
        keep_sqrt = float(np.sqrt(lam[: d - 1 - k]).sum())
        vals = 2.0 * np.log2(keep_sqrt + np.sqrt(s_grid[ok]))
        best = min(best, float(vals.min()))
    return float(best)


# ---------------------------------------------------------------------------
# Conditional min-entropy SDP:  2^{-H_min(A|B)} = min tr sigma_B
#                               s.t. I_A (x) sigma_B >= rho_AB.
# Solved with a deterministic log-barrier Newton iteration.
# ---------------------------------------------------------------------------


@dataclass
class SdpResult:
    value: float          # H_min(A|B) in bits
    sigma: np.ndarray     # optimal conditioning operator
    gap: float            # duality gap bound on tr sigma
    converged: bool       # every centering stage stopped before its cap
    newton_steps: int     # Newton steps taken over all stages


def _newton_system(chol: np.ndarray, d_a: int, d_b: int,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier in the complex entries of sigma.

    From the Cholesky factor of ``I_A (x) sigma - rho`` it builds
    ``P = (I_A (x) sigma - rho)^-1``.  The gradient is ``G = t I - tr_A P``
    and the Hessian is the map ``D -> tr_A[P (I_A (x) D) P]``, as a matrix
    ``H[(b, d), (j, k)] = sum_{a, c} P[a, b, c, j] P[c, k, a, d]``: one
    product of two reshaped copies of P.
    """
    inv, info = linalg.lapack.zpotri(chol, lower=1)
    if info:
        raise np.linalg.LinAlgError("singular barrier matrix")
    p = (np.tril(inv) + np.tril(inv, -1).conj().T).reshape(d_a, d_b, d_a, d_b)
    grad = t * np.eye(d_b) - np.einsum("abad->bd", p)
    left = p.transpose(1, 3, 0, 2).reshape(d_b * d_b, d_a * d_a)   # [(b, j), (a, c)]
    right = p.transpose(2, 0, 1, 3).reshape(d_a * d_a, d_b * d_b)  # [(a, c), (k, d)]
    hess = (left @ right).reshape(d_b, d_b, d_b, d_b).transpose(0, 3, 1, 2)
    return 0.5 * (grad + grad.conj().T), hess.reshape(d_b * d_b, d_b * d_b)


def min_entropy_sdp(rho_ab, d_a: int, d_b: int, gap_tol: float = 1e-7,
                    max_dim: int = SDP_MAX_DIM) -> SdpResult:
    """Conditional min-entropy of a bipartite state via barrier Newton.

    The start ``sigma = (lambda_max(rho) + 0.1) I_B`` is strictly feasible;
    the barrier parameter is grown until the duality gap on ``tr sigma``
    is below ``gap_tol``.  Each centering stage stops once half the Newton
    decrement is below ``max(1e-11, 1e-13 |f|)``, the rounding floor of the
    barrier value f, which grows with t; a stage that runs out its
    ``SDP_STAGE_STEPS`` steps, or whose line search fails, clears
    ``converged``.
    """
    rho = as_matrix(rho_ab)
    n = d_a * d_b
    if rho.shape != (n, n):
        raise ValueError("state dimension does not match d_a * d_b")
    if n > max_dim:
        raise ValueError(f"dimension {n} exceeds solver envelope {max_dim}")

    eye_a = np.eye(d_a)

    def factor(sig):
        """Cholesky factor of ``I_A (x) sig - rho``; None outside the cone."""
        try:
            return np.linalg.cholesky(np.kron(eye_a, sig) - rho)
        except np.linalg.LinAlgError:
            return None

    def barrier(sig, chol, t):
        return t * sig.trace().real - 2.0 * np.log(np.diagonal(chol).real).sum()

    lam_max = float(np.linalg.eigvalsh(rho)[-1])
    sigma = (lam_max + 0.1) * np.eye(d_b, dtype=complex)
    chol = factor(sigma)
    t = 1.0
    steps = 0
    converged = True
    while True:
        # Newton centering at barrier parameter t.
        f = barrier(sigma, chol, t)
        for _ in range(SDP_STAGE_STEPS):
            grad, hess = _newton_system(chol, d_a, d_b, t)
            delta = np.linalg.solve(hess, -grad.reshape(-1)).reshape(d_b, d_b)
            delta = 0.5 * (delta + delta.conj().T)
            decrement = -float(np.vdot(grad, delta).real)
            if decrement / 2.0 < max(1e-11, 1e-13 * abs(f)):
                break
            s = 1.0
            for _ in range(60):
                trial = sigma + s * delta
                chol1 = factor(trial)
                if chol1 is not None:
                    f1 = barrier(trial, chol1, t)
                    if f1 <= f - 0.25 * s * decrement:
                        break
                s *= 0.5
            else:
                converged = False
                break
            sigma, chol, f = trial, chol1, f1
            steps += 1
        else:
            converged = False
        if n / t <= gap_tol:
            break
        t *= 20.0

    value = float(sigma.trace().real)
    return SdpResult(value=float(-np.log2(value)), sigma=sigma, gap=n / t,
                     converged=converged, newton_steps=steps)


def h_min_cond(rho: DensityMatrix, eps: float = 0.0, gap_tol: float = 1e-7) -> float:
    """``H_min(A|B)`` of a two-factor state, conditioning on the second factor.

    For ``eps > 0`` the value is improved over the restricted family
    ``(1 - delta) rho`` with ``delta <= eps^2``, giving
    ``H_min(A|B) + log2 1/(1 - eps^2)`` -- a lower bound on the smoothed
    quantity, not the full-ball optimum.  Raises ``RuntimeError`` when the
    SDP solve did not converge.
    """
    if len(rho.layout.factors) != 2:
        raise ValueError("h_min_cond expects a two-factor layout [A, B]")
    d_a, d_b = rho.layout.dims
    result = min_entropy_sdp(rho.data, d_a, d_b, gap_tol=gap_tol)
    if not result.converged:
        raise RuntimeError(f"conditional min-entropy SDP did not converge "
                           f"({result.newton_steps} Newton steps, gap {result.gap:.1e})")
    value = result.value
    if eps > 0.0:
        value += float(np.log2(1.0 / (1.0 - eps * eps)))
    return value


# ---------------------------------------------------------------------------
# Classical conditioning (cq states) and the equal-weight pure-block closed
# form H_min^eps(A|R) = log2 1/(1 - eps^2).
# ---------------------------------------------------------------------------


def h_min_cond_cq(blocks, eps: float = 0.0) -> float:
    """Conditional min-entropy of ``sum_i w_i rho_A^(i) (x) |i><i|_R``.

    At eps = 0 this is ``-log2 sum_i w_i lambda_max(rho_i)``.  For eps > 0
    only the equal-weight pure-block case is supported, where the optimal
    smoothing ansatz ``sigma_i = (1 - eps^2)/n |psi_i><psi_i|`` gives the
    closed form ``log2 1/(1 - eps^2)``.
    """
    weights = np.array([w for w, _ in blocks], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("block weights must sum to 1")
    states = [as_matrix(r) for _, r in blocks]
    if eps == 0.0:
        tops = np.array([np.linalg.eigvalsh(s)[-1].real for s in states])
        return float(-np.log2((weights * tops).sum()))
    if not 0.0 < eps < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    n = len(blocks)
    equal = np.allclose(weights, 1.0 / n, atol=1e-9)
    pure = all(abs((s @ s).trace().real - s.trace().real ** 2) < 1e-9 for s in states)
    if not (equal and pure):
        raise ValueError("eps > 0 requires equal-weight pure blocks")
    mu = (1.0 - eps * eps) / n
    return float(-np.log2(n * mu))


def cq_ansatz_optimum(n: int, eps: float) -> float:
    """Numerical optimization of the pure-block smoothing ansatz.

    Maximizes ``-log2 sum_i mu_i`` over ``mu >= 0`` subject to the purified
    distance constraint ``(1/sqrt(n)) sum_i sqrt(mu_i) >= sqrt(1 - eps^2)``;
    independent check of the closed form in :func:`h_min_cond_cq`.  It works
    in ``u = sqrt(mu)``, where the objective ``sum u^2`` is smooth and the
    constraint linear, so the line search never meets the infinite slope of
    ``sqrt`` at zero.
    """
    # imported here, not with the package: a fifth of its modules for one check
    from scipy import optimize

    target = _smooth_target(eps)
    root_n = np.sqrt(n)
    cons = [{"type": "ineq",
             "fun": lambda u: u.sum() / root_n - target,
             "jac": lambda u: np.full(n, 1.0 / root_n)}]
    res = optimize.minimize(lambda u: u @ u, np.ones(n), jac=lambda u: 2.0 * u,
                            method="SLSQP", bounds=[(0.0, 1.0)] * n,
                            constraints=cons,
                            options={"ftol": 1e-14, "maxiter": 500})
    if not res.success:
        raise RuntimeError(f"ansatz optimizer failed: {res.message}")
    return float(-np.log2(res.fun))


def default_chain_correction(eps: float) -> float:
    """Default stand-in for the unspecified O(log 1/eps) chain-rule constant."""
    if eps == 0.0:
        return 0.0
    return float(2.0 * np.log2(2.0 / eps))


def chain_bounds(rho: DensityMatrix, eps: float, correction=None) -> tuple[float, float]:
    """Two lower bounds on ``H_min^eps(A|B)`` from unconditional quantities.

    bound1: ``H_min^eps(AB) - log2 d_B``.
    bound2: ``H_min^{eps/4}(AB) - H_max^{eps/4}(B) - corr(eps)`` where the
    correction constant is caller-supplied (default
    :func:`default_chain_correction`).
    """
    if len(rho.layout.factors) != 2:
        raise ValueError("chain_bounds expects a two-factor layout [A, B]")
    corr = default_chain_correction if correction is None else correction
    d_b = rho.layout.dims[1]
    b_name = rho.layout.names[1]
    marg_b = rho.marginal(b_name)
    bound1 = h_min_smooth(rho, eps) - float(np.log2(d_b))
    bound2 = h_min_smooth(rho, eps / 4.0) - h_max_smooth(marg_b, eps / 4.0) - corr(eps)
    return bound1, bound2


@dataclass
class EntropyReport:
    """Entropy bundle for one marginal at one time."""

    h_min: float
    h_max: float
    von_neumann: float
    h_min_smooth: float
    h_max_smooth: float
    epsilon: float
    subject: tuple[str, ...] = field(default_factory=tuple)


def entropy_report(rho: DensityMatrix, eps: float,
                   subject: tuple[str, ...] | None = None) -> EntropyReport:
    lam = spectrum_of(rho)
    return EntropyReport(
        h_min=h_min(lam),
        h_max=h_max(lam),
        von_neumann=von_neumann(lam),
        h_min_smooth=h_min_smooth(lam, eps),
        h_max_smooth=h_max_smooth(lam, eps),
        epsilon=eps,
        subject=tuple(subject) if subject is not None else rho.layout.names,
    )
