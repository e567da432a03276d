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

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .linalg import EIGENVALUE_TOL, DensityMatrix, as_matrix

SDP_MAX_DIM = 256
SDP_GAP_TOL = 1e-10    # certified duality gap, relative to tr sigma, at which the solve stops
SDP_MAX_STEPS = 50     # predictor-corrector steps before the solve gives up
_STEP_FRACTION = 0.98  # share of the way to the cone's boundary that a step goes
# step lengths tried first, largest first, then halved; late steps stop
# just short of a full step, so the grid is finest near 1
_STEP_GRID = (1.0, 0.98, 0.93, 0.8, 0.6)
# the smoothing oracles' grids: points per axis, refinement stages and ceiling
# bisections (h_min), partial removals of an eigenvalue (h_max)
_ORACLE_POINTS, _ORACLE_STAGES, _ORACLE_BISECTIONS = 33, 5, 50
_ORACLE_REMOVALS = 20_001


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


def _grid_max_fidelity(lam: np.ndarray, m: float) -> float:
    """Best generalized fidelity to ``lam`` over a refining grid of candidate
    spectra confined to [0, m]^d; candidates over the unit trace budget are
    scaled back onto it."""
    d = lam.size
    slack = max(0.0, 1.0 - float(lam.sum()))
    lo = np.zeros(d)
    hi = np.full(d, m)
    best = -1.0
    for _ in range(_ORACLE_STAGES):
        axes = [np.linspace(lo[i], hi[i], _ORACLE_POINTS) for i in range(d)]
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
        cell = (hi - lo) / (_ORACLE_POINTS - 1)
        lo = np.clip(center - 2.0 * cell, 0.0, m)
        hi = np.clip(center + 2.0 * cell, 0.0, m)
    return best


def h_min_smooth_oracle(rho, eps: float) -> float:
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
    for _ in range(_ORACLE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if _grid_max_fidelity(lam, mid) >= target:
            hi = mid
        else:
            lo = mid
    return float(-np.log2(hi))


def h_max_smooth_oracle(rho, eps: float) -> float:
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
        s_grid = np.linspace(0.0, next_val, _ORACLE_REMOVALS)
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
#                               s.t. S = I_A (x) sigma_B - rho_AB >= 0,
# whose dual is  max tr(rho X)  s.t.  X >= 0, tr_A X = I_B  (Koenig, Renner
# and Schaffner, arXiv:0807.1338).  Any feasible pair brackets the value,
# -log2 tr sigma <= H_min(A|B) <= -log2 tr(rho X), and the gap
# tr sigma - tr(rho X) = tr(S X) is certified by the pair itself.  Solved
# by a feasible primal-dual predictor-corrector: the HKM direction
# (Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 6, 342, 1996)
# with Mehrotra's corrector.
# ---------------------------------------------------------------------------


@dataclass
class SdpResult:
    value: float          # H_min(A|B) in bits, -log2 tr sigma: the sound side
    sigma: np.ndarray     # primal point, I_A (x) sigma - rho passes Cholesky
    x: np.ndarray         # dual point, X >= 0 with tr_A X = I_B
    gap: float            # certified duality gap tr sigma - tr(rho X)
    converged: bool       # gap <= SDP_GAP_TOL tr sigma within SDP_MAX_STEPS, certified
    newton_steps: int     # predictor-corrector steps taken


def check_sdp_envelope(d_a: int, d_b: int) -> None:
    """ValueError unless the state ``d_a d_b`` and the Schur complement
    ``d_b^2`` are both within ``SDP_MAX_DIM``: :func:`min_entropy_sdp`
    holds dense matrices of both sizes."""
    for what, n in (("dimension", d_a * d_b), ("Schur complement dimension", d_b * d_b)):
        if n > SDP_MAX_DIM:
            raise ValueError(f"{what} {n} exceeds solver envelope {SDP_MAX_DIM}")


def _real_field(rho: np.ndarray) -> bool:
    """Whether the solve is tried on ``Re rho``: its imaginary part is at
    rounding level, ``max |Im rho| <= n eps max |rho|``."""
    scale = rho.shape[0] * np.finfo(float).eps * float(abs(rho).max(initial=0.0))
    return float(abs(rho.imag).max(initial=0.0)) <= scale


def min_entropy_sdp(rho_ab, d_a: int, d_b: int) -> SdpResult:
    """Conditional min-entropy of a bipartite state, with a certified gap.

    A state whose imaginary part is at rounding level (:func:`_real_field`)
    is solved on ``Re rho`` in real arithmetic; the result stands only if
    it is certified against the input rho, else the complex solve runs.
    A real symmetric ``X >= 0`` with ``tr_A X = I_B`` is dual-feasible for
    rho, and ``tr(rho X) = tr(Re rho X)``, since ``Im rho`` is antisymmetric;
    the primal side is the complex Cholesky of ``I_A (x) sigma - rho``.  So
    ``sigma`` and ``x`` are real arrays when the real solve stood.
    """
    rho = as_matrix(rho_ab)
    n = d_a * d_b
    if rho.shape != (n, n):
        raise ValueError("state dimension does not match d_a * d_b")
    check_sdp_envelope(d_a, d_b)
    if _real_field(rho):
        result = _certified(rho, d_a, d_b, *_interior_point(
            np.ascontiguousarray(rho.real), d_a, d_b))
        if result.converged:
            return result
    return _certified(rho, d_a, d_b, *_interior_point(rho, d_a, d_b))


def _certified(rho, d_a: int, d_b: int, sigma, x, steps: int) -> SdpResult:
    """The solve's end point, checked against the input rho: ``converged``
    needs a gap ``tr sigma - Re tr(rho^dag X)`` of at most ``SDP_GAP_TOL
    tr sigma``, Cholesky factors of ``I_A (x) sigma - rho`` and of X, and
    ``tr_A X = I_B`` to 1e-12.  It shares no code with the solve it checks."""
    tr_sigma = float(sigma.trace().real)
    gap = tr_sigma - float(np.vdot(rho, x).real)
    slack = np.negative(rho)
    np.einsum("abad->abd", slack.reshape(d_a, d_b, d_a, d_b))[...] += sigma
    tr_a = np.einsum("abad->bd", x.reshape(d_a, d_b, d_a, d_b))
    converged = bool(
        gap <= SDP_GAP_TOL * tr_sigma
        and abs(tr_a - np.eye(d_b)).max() <= 1e-12
        and all(linalg.get_lapack_funcs("potrf", (m,))(m)[1] == 0 for m in (slack, x)))
    return SdpResult(value=float(-np.log2(tr_sigma)), sigma=sigma, x=x, gap=gap,
                     converged=converged, newton_steps=steps)


def _interior_point(rho: np.ndarray, d_a: int, d_b: int):
    """``(sigma, X, steps)`` of the solve on rho, in rho's number field.

    Starts from the strictly feasible pair ``sigma = (lambda_max(rho) + 0.1)
    I_B``, ``X = I / d_A`` and follows the central path ``S X = mu I``.  Each
    step factors ``S`` and the positive-definite Schur complement
    ``D -> tr_A sym(S^-1 (I_A (x) D) X)`` once, solves with it twice
    (Mehrotra's predictor, then the corrector), and moves ``X`` and
    ``sigma`` each at most a full step and at most ``_STEP_FRACTION`` of
    the way to the cone's boundary, as read off trial Cholesky
    factorizations.  The solve stops once the gap ``tr sigma - tr(rho X)``
    is at most ``SDP_GAP_TOL tr sigma``, after ``SDP_MAX_STEPS`` steps, or
    at a Schur complement that fails Cholesky or a step that cannot move.
    """
    n = d_a * d_b
    # LAPACK's routines for rho's field: d* for a real state, z* for a complex one
    potrf, potri, potrs = linalg.get_lapack_funcs(("potrf", "potri", "potrs"), (rho,))

    def tr_a(m):
        """Partial trace over A of an n x n matrix."""
        return np.einsum("abad->bd", m.reshape(d_a, d_b, d_a, d_b))

    def factor(m) -> bool:
        """Cholesky in place: m's lower triangle becomes L with ``L L^dag = m``.

        ``m.T`` is Fortran-ordered, so LAPACK writes into m without a copy;
        its upper factor U (``U^dag U = m^T``) is L read in C order.
        """
        return potrf(m.T, lower=0, overwrite_a=1, clean=0)[1] == 0

    def lift(out, sig):
        """``I_A (x) sig - rho`` written into out."""
        np.negative(rho, out=out)
        np.einsum("abad->abd", out.reshape(d_a, d_b, d_a, d_b))[...] += sig
        return out

    def times_x(ds, out):
        """``(I_A (x) ds) X`` written into out."""
        np.matmul(ds, x.reshape(d_a, d_b, n), out=out.reshape(d_a, d_b, n))
        return out

    def direction(y):
        """``-X - sym(P y)``, with ``P = S^-1`` and ``sym(m) = (m + m^dag) / 2``."""
        dx = p @ y
        dx += np.conjugate(dx.T, out=trial)
        dx *= -0.5
        dx -= x
        return dx

    def solve(rhs):
        """The Hermitian ds with ``tr_A sym(P (I_A (x) ds) X) = rhs``."""
        ds = potrs(schur, 2.0 * rhs.reshape(-1), lower=1)[0].reshape(d_b, d_b)
        return 0.5 * (ds + ds.conj().T)

    def reach(point, grid) -> float:
        """First t of grid, then of its halvings, at which ``point(t)``,
        written into trial, passes Cholesky; 0.0 when none down to 1e-8 does."""
        for t in grid:
            if factor(point(t)):
                return t
        while t > 1e-8:
            t *= 0.5
            if factor(point(t)):
                return t
        return 0.0

    def steps_to_boundary(dx, ds, grid):
        """Step lengths of X along dx and of sigma along ds."""
        a_x = reach(lambda t: np.add(x, np.multiply(dx, t, out=trial), out=trial), grid)
        a_s = reach(lambda t: lift(trial, sigma + t * ds), grid)
        return a_x, a_s

    # n x n arrays: rho, x, fac (S's factor, then P = S^-1), trial (the
    # step-length trials and scratch) and at most three more at a time
    eye_b = np.eye(d_b)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    sigma = (float(np.linalg.eigvalsh(rho)[-1]) + 0.1) * np.eye(d_b, dtype=rho.dtype)
    x = np.eye(n, dtype=rho.dtype) / d_a
    fac = lift(np.empty((n, n), dtype=rho.dtype), sigma)
    trial = np.empty_like(fac)
    factor(fac)  # S >= 0.1 I
    steps = 0
    while True:
        # rounding in the Schur solves leaves tr_A X off I_B; the congruence
        # by I_A (x) C^-1, with C C^dag = tr_A X, restores it, so the gap
        # below is certified by a dual-feasible X
        inv = linalg.solve_triangular(np.linalg.cholesky(tr_a(x)), eye_b, lower=True)
        times_x(inv, trial)
        np.matmul(trial.reshape(n, d_a, d_b), inv.conj().T, out=x.reshape(n, d_a, d_b))
        x += np.conjugate(x.T, out=trial)
        x *= 0.5
        tr_sigma = float(sigma.trace().real)
        gap = tr_sigma - float(np.vdot(rho, x).real)
        if gap <= SDP_GAP_TOL * tr_sigma or steps == SDP_MAX_STEPS:
            break
        # P = S^-1 in place of S's factor, the upper triangle from the lower
        potri(fac.T, lower=0, overwrite_c=1)
        p = fac
        np.copyto(p, np.conjugate(p.T, out=trial), where=upper)
        # Schur complement: H[(b, d), (j, k)] = sum_{a, c} P[a, b, c, j] X[c, k, a, d]
        # is the map D -> tr_A[P (I (x) D) X]; its (b, d) <-> (j, k)
        # transpose-conjugate is D -> tr_A[X (I (x) D) P], and the sum of the
        # two is twice the HKM map.  Written conjugated in C order, the sum
        # is read in Fortran order as itself and factored in place.
        left = p.reshape(d_a, d_b, d_a, d_b).transpose(1, 3, 0, 2).reshape(d_b * d_b, -1)
        right = x.reshape(d_a, d_b, d_a, d_b).transpose(2, 0, 1, 3).reshape(-1, d_b * d_b)
        prod = (left @ right).reshape(d_b, d_b, d_b, d_b)  # [b, j, k, d]
        del left, right
        schur = np.conjugate(prod.transpose(0, 3, 1, 2))
        schur += prod.transpose(3, 0, 2, 1)
        del prod
        schur = schur.reshape(d_b * d_b, d_b * d_b).T
        if potrf(schur, lower=1, overwrite_a=1, clean=0)[1]:
            break
        # predictor: the affine direction, centering target 0
        ds = solve(-eye_b)
        dx = direction(times_x(ds, np.empty_like(x)))
        a_x, a_s = steps_to_boundary(dx, ds, _STEP_GRID)
        gap_aff = (gap + a_s * float(ds.trace().real)
                   - a_x * float(np.vdot(rho, dx).real))
        target = min(1.0, (max(gap_aff, 0.0) / gap) ** 3) * gap / n
        # corrector: the predictor's second-order term (I (x) ds) dx and
        # the centering term target * P
        z = np.matmul(ds, dx.reshape(d_a, d_b, n)).reshape(n, n)
        del dx
        pz = np.matmul(p.reshape(d_a, d_b, n), z.reshape(n, d_a, d_b).transpose(1, 0, 2)).sum(axis=0)
        ds = solve(target * tr_a(p) - eye_b - 0.5 * (pz + pz.conj().T))
        z += times_x(ds, trial)
        dx = direction(z)
        del z
        dx += np.multiply(p, target, out=trial)
        a_x, a_s = steps_to_boundary(dx, ds, (1.0 / _STEP_FRACTION,) + _STEP_GRID)
        if not (a_x and a_s):
            break
        moved = sigma + min(1.0, _STEP_FRACTION * a_s) * ds
        if not factor(lift(fac, moved)):
            break
        sigma = moved
        dx *= min(1.0, _STEP_FRACTION * a_x)
        x += dx
        del dx
        steps += 1
    return sigma, x, steps


def h_min_cond(rho: DensityMatrix, eps: float = 0.0) -> float:
    """``H_min(A|B)`` of a two-factor state, conditioning on the second factor.

    For ``eps > 0`` the value is improved over the restricted family
    ``(1 - delta) rho`` with ``delta <= eps^2``, giving
    ``H_min(A|B) + log2 1/(1 - eps^2)`` -- a lower bound on the smoothed
    quantity, not the full-ball optimum.  Raises ``RuntimeError`` when the
    SDP solve did not converge.
    """
    if len(rho.layout.factors) != 2:
        raise ValueError("h_min_cond expects a two-factor layout [A, B]")
    _smooth_target(eps)  # checks 0 <= eps < 1 before the solve
    d_a, d_b = rho.layout.dims
    result = min_entropy_sdp(rho.data, d_a, d_b)
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


def chain_bounds(rho: DensityMatrix) -> float:
    """Chain-rule lower bound ``H_min(AB) - log2 d_B`` on ``H_min(A|B)``.

    ``rho_AB <= m I_AB`` gives ``rho_AB <= I_A (x) m I_B``, a feasible point
    of the conditional SDP of trace ``m d_B``, so the bound needs only the
    joint spectrum.
    """
    if len(rho.layout.factors) != 2:
        raise ValueError("chain_bounds expects a two-factor layout [A, B]")
    return h_min(rho) - float(np.log2(rho.layout.dims[1]))
