import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloss import entropy
from memloss.channels import Channel, depolarizing
from memloss.entropy import (
    _smooth_target,
    chain_bounds,
    cq_ansatz_optimum,
    h_max,
    h_max_smooth,
    h_max_smooth_oracle,
    h_min,
    h_min_cond,
    h_min_cond_cq,
    h_min_smooth,
    h_min_smooth_oracle,
    min_entropy_sdp,
    shannon,
    spectrum_of,
    von_neumann,
)
from memloss.linalg import (
    DensityMatrix,
    SubsystemLayout,
    haar_state,
    max_entangled,
    maximally_mixed,
    random_density,
)


def schmidt_state(lam, names=("A", "B")):
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    amps = np.zeros(d * d, dtype=complex)
    for i, l in enumerate(lam):
        amps[i * d + i] = np.sqrt(l)
    return DensityMatrix(np.outer(amps, amps.conj()),
                         SubsystemLayout.of((names[0], d), (names[1], d)))


def cq_state(blocks):
    """sum_i w_i rho_i (x) |i><i| on layout [A, R]."""
    n = len(blocks)
    d = blocks[0][1].data.shape[0]
    m = np.zeros((d * n, d * n), dtype=complex)
    for i, (w, rho) in enumerate(blocks):
        for a in range(d):
            for b in range(d):
                m[a * n + i, b * n + i] = w * rho.data[a, b]
    return DensityMatrix(m, SubsystemLayout.of(("A", d), ("R", n)))


# ---------------------------------------------------------------------------
# Reference: h_min_smooth as a bisection on the ceiling with a Python loop
# over the split k at every step, kept verbatim from before the closed form.
# The bisection scores the plain cap and the budget-exhausting water-fills
# only: the exact optimum when tr lam >= 1, but it misses the candidates that
# leave weight to the slack of a subnormalized spectrum.
# ---------------------------------------------------------------------------


def _best_capped_fidelity(lam: np.ndarray, m: float) -> float:
    """Largest generalized fidelity to ``lam`` over commuting candidates with
    every eigenvalue at most m and trace at most 1.

    Candidates: the plain cap ``min(lambda_i, m)`` and the water-filled
    allocations ``min(m, t lambda_i)`` that spend the full unit budget; each
    is feasible, so the maximum is a valid (and in fact optimal) choice.
    """
    s = float(lam.sum())
    slack = max(0.0, 1.0 - s)
    cap = np.minimum(lam, m)
    best = float(np.sqrt(lam * cap).sum()
                 + np.sqrt(slack * max(0.0, 1.0 - cap.sum())))
    d = lam.size
    sqrt_lam = np.sqrt(lam)
    if d * m <= 1.0:
        # budget cannot be exhausted: every entry sits at the cap
        best = max(best, float(np.sqrt(m) * sqrt_lam.sum()
                               + np.sqrt(slack * (1.0 - d * m))))
        return best
    # top-k entries at the cap, the rest proportional to lambda
    prefix_sqrt = np.concatenate(([0.0], np.cumsum(sqrt_lam)))
    suffix_sum = np.concatenate((np.cumsum(lam[::-1])[::-1], [0.0]))
    for k in range(d):
        tail = suffix_sum[k]
        rest = 1.0 - k * m
        if rest <= 0.0 or tail <= 0.0:
            break
        t = rest / tail
        sigma_tail = np.minimum(m, t * lam[k:])
        fid = np.sqrt(m) * prefix_sqrt[k] + float(np.sqrt(lam[k:] * sigma_tail).sum())
        spent = k * m + float(sigma_tail.sum())
        fid += np.sqrt(slack * max(0.0, 1.0 - spent))
        best = max(best, float(fid))
    return best


def h_min_smooth_loop(rho, eps: float, bisection_tol: float = 1e-14) -> float:
    """Smoothed min-entropy via the optimal commuting candidate.

    Finds the smallest spectral ceiling m for which some subnormalized
    state, diagonal in the eigenbasis of rho with all eigenvalues at most
    m, stays within purified distance eps of rho; returns ``-log2 m``.
    The search caps the large eigenvalues and water-fills the freed weight
    over the rest, which exhausts the commuting candidates.
    """
    lam = spectrum_of(rho)
    if eps == 0.0:
        _smooth_target(eps)
        return float(-np.log2(lam[0]))
    target = _smooth_target(eps)
    lo, hi = 0.0, float(lam[0])
    for _ in range(200):
        if hi - lo <= bisection_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if _best_capped_fidelity(lam, mid) >= target:
            hi = mid
        else:
            lo = mid
    return float(-np.log2(hi))


# ---------------------------------------------------------------------------
# Reference: the conditional min-entropy SDP with the Newton step in a real
# orthonormal basis of Hermitian matrices and an unblocked einsum Hessian,
# kept from before the complex-coordinate step, absolute centering stop
# included.
# ---------------------------------------------------------------------------


def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal real basis of d x d Hermitian matrices, shape (d^2, d, d)."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    m = 0
    for i in range(d):
        basis[m, i, i] = 1.0
        m += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            basis[m, i, j] = inv_sqrt2
            basis[m, j, i] = inv_sqrt2
            m += 1
            basis[m, i, j] = -1j * inv_sqrt2
            basis[m, j, i] = 1j * inv_sqrt2
            m += 1
    return basis


def min_entropy_sdp_basis(rho, d_a: int, d_b: int, gap_tol: float = 1e-7) -> float:
    """``H_min(A|B)`` in bits by barrier Newton in the Hermitian basis."""
    rho = np.asarray(rho, dtype=complex)
    n = d_a * d_b
    basis = _hermitian_basis(d_b)
    eye_a = np.eye(d_a, dtype=complex)
    lam_max = float(np.linalg.eigvalsh(rho)[-1])
    sigma = (lam_max + 0.1) * np.eye(d_b, dtype=complex)

    def barrier(sig, t):
        m = np.kron(eye_a, sig) - rho
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return None, None
        logdet = 2.0 * np.log(np.diagonal(chol).real).sum()
        return t * sig.trace().real - logdet, chol

    t = 1.0
    while True:
        for _ in range(60):
            f0, chol = barrier(sigma, t)
            inv_m = np.linalg.inv(np.kron(eye_a, sigma) - rho)
            p4 = inv_m.reshape(d_a, d_b, d_a, d_b)
            pb = np.einsum("abad->bd", p4)
            grad = (t * np.einsum("mii->m", basis)
                    - np.einsum("bd,mdb->m", pb, basis)).real
            tensor = np.einsum("alci,cjak->ijkl", p4, p4)
            half = np.tensordot(basis, tensor, axes=([1, 2], [0, 1]))
            hess = np.tensordot(half, basis, axes=([1, 2], [1, 2])).real
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ step)
            delta = np.tensordot(step, basis, axes=1)
            if decrement / 2.0 < 1e-11:
                break
            s = 1.0
            for _ in range(60):
                f1, chol1 = barrier(sigma + s * delta, t)
                if chol1 is not None and f1 <= f0 - 0.25 * s * decrement:
                    break
                s *= 0.5
            else:
                raise AssertionError("reference line search failed")
            sigma = sigma + s * delta
        if n / t <= gap_tol:
            break
        t *= 20.0
    return float(-np.log2(sigma.trace().real))


def weyl_depolarizing_choi(d: int, q: float) -> DensityMatrix:
    """Choi state of ``T(rho) = (1-q) rho + q I/d`` built from its d^2
    Weyl-Heisenberg Kraus operators; isotropic with ``F = 1 - q + q/d^2``."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    kraus = [np.sqrt(1.0 - q + q / d**2 if a == b == 0 else q / d**2)
             * np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
             for a in range(d) for b in range(d)]
    return Channel.from_kraus(kraus).choi().state


PROPERTY = settings(max_examples=100, deadline=None)


def assert_certified(res, rho, d_a: int, d_b: int, exact: float | None = None):
    """The SDP's primal and dual points are strictly feasible and bracket
    ``H_min(A|B)``, the closed form ``exact`` when given included."""
    np.linalg.cholesky(np.kron(np.eye(d_a), res.sigma) - rho)
    np.linalg.cholesky(res.x)
    tr_a = np.einsum("abad->bd", res.x.reshape(d_a, d_b, d_a, d_b))
    assert abs(tr_a - np.eye(d_b)).max() <= 1e-12
    assert res.gap == res.sigma.trace().real - np.vdot(rho, res.x).real
    lower = -np.log2(res.sigma.trace().real)
    upper = -np.log2(np.vdot(rho, res.x).real)
    assert lower == res.value
    assert lower <= upper
    if exact is not None:
        assert lower - 1e-12 <= exact <= upper + 1e-12


@st.composite
def spectra(draw):
    """Descending spectra with d <= 256, some with ties, zeros or a trace
    below 1; normalized ones sum to 1 only up to rounding."""
    d = draw(st.integers(1, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = np.sort(rng.dirichlet(np.full(d, draw(st.sampled_from([0.05, 0.5, 1.0, 5.0])))))[::-1]
    if draw(st.booleans()):  # ties
        lam = np.round(lam * d) + 1.0
    lam[d - draw(st.integers(0, d - 1)):] = 0.0  # zero tail, never all zero
    return draw(st.sampled_from([1.0, 0.9])) * lam / lam.sum()


def candidates(lam, m):
    """Every candidate spectrum that h_min_smooth scores at ceiling m, built
    explicitly: for each j with j m <= 1, the top j entries at the cap and
    the rest ``min(m, c lambda_i)`` with ``c = (1 - j m) / (T_j + s)``,
    which leaves the weight ``c s`` to the slack ``s = 1 - tr lam``."""
    slack = max(0.0, 1.0 - lam.sum())
    out = []
    for j in range(lam.size + 1):
        rest, weight = 1.0 - j * m, lam[j:].sum() + slack
        if rest < 0.0:
            break
        c = rest / weight if weight > 0.0 else 0.0
        out.append(np.concatenate((np.full(j, m), np.minimum(m, c * lam[j:]))))
    return out


def best_candidate(lam, m):
    return max(candidates(lam, m), key=lambda c: generalized_fidelity(lam, c))


def generalized_fidelity(lam, sigma):
    return float(np.sqrt(lam * sigma).sum()
                 + np.sqrt(max(0.0, 1.0 - lam.sum()) * max(0.0, 1.0 - sigma.sum())))


def iid_memory_spectrum(p, n):
    """E^n of the depolarizing memory's environment marginal (4^n entries)."""
    lam = depolarizing(p).dilation_state(maximally_mixed(2)).marginal("E").spectrum()
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, lam)
    return out


class TestPlainEntropies:
    def test_flat(self):
        for d in (2, 3, 8):
            pi = maximally_mixed(d)
            assert abs(h_min(pi) - np.log2(d)) < 1e-12
            assert abs(h_max(pi) - np.log2(d)) < 1e-10
            assert abs(von_neumann(pi) - np.log2(d)) < 1e-10

    def test_pure(self):
        psi = haar_state(5, 0)
        psi = np.outer(psi, psi.conj())
        assert abs(h_min(psi)) < 1e-10
        # h_max picks up the square root of the eigenvalue noise floor
        assert abs(h_max(psi)) < 1e-7

    def test_examples(self):
        assert abs(h_min(np.diag([0.75, 0.25])) - np.log2(4 / 3)) < 1e-12
        assert abs(h_max(np.diag([0.5, 0.5, 0.0])) - 1.0) < 1e-12
        assert shannon([1, 0, 0, 0]) == 0.0
        assert abs(shannon([0.25] * 4) - 2.0) < 1e-12

    def test_hashing_point(self):
        p = 0.1893
        assert abs(shannon([1 - p, p / 3, p / 3, p / 3]) - 1.0) < 5e-4

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entropy_of", [
        h_min, h_max, von_neumann, lambda lam: h_min_smooth(lam, 0.05),
        lambda lam: h_max_smooth(lam, 0.05)],
        ids=["h_min", "h_max", "von_neumann", "h_min_smooth", "h_max_smooth"])
    def test_nonfinite_spectrum_rejected(self, entropy_of, entry):
        with pytest.raises(ValueError):
            entropy_of(np.array([0.5, entry]))

    def test_ordering_thousand_draws(self):
        for seed in range(1000):
            lam = random_density(4, seed).spectrum()
            lo, mid, hi = h_min(lam), von_neumann(lam), h_max(lam)
            assert lo <= mid + 1e-10 <= hi + 2e-10


class TestSmoothing:
    def test_eps_zero(self):
        rho = random_density(3, 7)
        assert h_min_smooth(rho, 0.0) == h_min(rho)
        assert h_max_smooth(rho, 0.0) == h_max(rho)

    def test_pure_state_values(self):
        one = np.array([1.0])
        for eps in (0.05, 0.1, 0.3):
            assert abs(h_min_smooth(one, eps) - np.log2(1 / (1 - eps**2))) < 1e-10
            assert h_max_smooth(one, eps) == 0.0

    def test_flat_state_boost(self):
        for d in (2, 3):
            for eps in (0.05, 0.2):
                want = np.log2(d) + np.log2(1 / (1 - eps**2))
                assert abs(h_min_smooth(maximally_mixed(d), eps) - want) < 1e-9

    def test_two_level_tail_removal(self):
        # the small eigenvalue is fully removable once eps covers the
        # purified distance of the removal; the survivor is subnormalized
        delta = 0.2
        lam = np.array([1 - delta**2, delta**2])
        val = h_max_smooth(lam, 1.5 * delta)
        assert abs(val - np.log2(1 - delta**2)) < 1e-12
        assert abs(val) < 0.06

    def test_monotone_in_eps(self):
        for seed in range(10):
            lam = random_density(4, seed).spectrum()
            grid = np.arange(0.0, 0.31, 0.01)
            mins = [h_min_smooth(lam, e) for e in grid]
            maxs = [h_max_smooth(lam, e) for e in grid]
            assert all(a <= b + 1e-10 for a, b in zip(mins, mins[1:]))
            assert all(a >= b - 1e-10 for a, b in zip(maxs, maxs[1:]))

    def test_bounds_vs_unsmoothed(self):
        for seed in range(10):
            lam = random_density(3, seed).spectrum()
            assert h_min_smooth(lam, 0.1) >= h_min(lam) - 1e-12
            assert h_max_smooth(lam, 0.1) <= h_max(lam) + 1e-12

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    def test_min_oracle_agreement(self, eps):
        rng = np.random.default_rng(17)
        for i in range(4):
            lam = np.sort(rng.dirichlet(np.ones(2 + i % 2)))[::-1]
            for trace in (1.0, 0.9):
                a = h_min_smooth(trace * lam, eps)
                b = h_min_smooth_oracle(trace * lam, eps)
                assert abs(a - b) < 1e-4

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
    def test_max_oracle_agreement(self, eps):
        rng = np.random.default_rng(23)
        for i in range(4):
            lam = np.sort(rng.dirichlet(np.ones(2 + i % 2)))[::-1]
            a = h_max_smooth(lam, eps)
            b = h_max_smooth_oracle(lam, eps)
            assert abs(a - b) < 1e-4


class TestSmoothingAgainstLoop:
    """h_min_smooth against the bisection it replaced."""

    @PROPERTY
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.5])
    @given(lam=spectra())
    def test_matches_loop(self, eps, lam):
        new, loop = h_min_smooth(lam, eps), h_min_smooth_loop(lam, eps)
        if lam.sum() < 0.95:
            # drawn at trace 0.9: the loop's candidates leave nothing to the
            # slack, so it is sound but loose
            assert new >= loop - 1e-12
            return
        # drawn at trace 1, whose float sum can round to 1 - s with s a few
        # ulps.  Slack adds at most sqrt(s) to any candidate's fidelity, so
        # the optimum lies between the loop's value (a subset of the
        # candidates) and the zero-slack optimum at a target lowered by
        # sqrt(s), where the loop is exact; at s = 0 the two bounds meet
        assert new >= loop - 1e-11
        slack = max(0.0, 1.0 - lam.sum())
        lowered = np.sqrt(1.0 - eps * eps) - np.sqrt(slack)
        eps_lowered = eps if slack == 0.0 else np.sqrt(1.0 - lowered * lowered)
        assert new <= h_min_smooth_loop(lam, eps_lowered) + 1e-11

    def test_rounding_slack_is_used_exactly(self):
        # a normalized spectrum whose float sum is 1 - 1.1e-16, with a zero
        # tail: its optimum caps the 100 nonzero eigenvalues at m and leaves
        # 1 - 100 m to the slack, while the loop, as d m <= 1 here, caps all
        # 130 entries and leaves only 1 - 130 m, about 1.4e-8 bits worse
        lam = np.sort(np.random.default_rng(11).dirichlet(np.full(130, 5.0)))[::-1]
        lam[100:] = 0.0
        lam = lam / lam.sum()
        assert 0.0 < 1.0 - lam.sum() < 1e-15
        m, m_loop = 2.0 ** -h_min_smooth(lam, 0.5), 2.0 ** -h_min_smooth_loop(lam, 0.5)
        assert 130 * m_loop <= 1.0 and m_loop > m * (1.0 + 1e-9)
        target = np.sqrt(0.75)
        assert generalized_fidelity(lam, best_candidate(lam, m)) >= target - 1e-12
        assert generalized_fidelity(lam, best_candidate(lam, m * (1.0 - 1e-9))) < target

    @pytest.mark.parametrize("seed, p_mid, n", [(5, 0.70, 5), (6, 0.50, 6)])
    def test_matches_loop_on_iid_memory_spectra(self, seed, p_mid, n):
        p = p_mid + np.random.default_rng(seed).uniform(-0.002, 0.002)
        lam = np.sort(iid_memory_spectrum(p, n))[::-1]
        assert lam.size == 4 ** n
        assert abs(h_min_smooth(lam, 0.05) - h_min_smooth_loop(lam, 0.05)) < 1e-10

    @PROPERTY
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.5])
    @given(lam=spectra())
    def test_result_is_certified(self, eps, lam):
        # the best candidate at the returned ceiling is a feasible smoothing
        # of lam within purified distance eps
        m = 2.0 ** -h_min_smooth(lam, eps)
        sigma = best_candidate(lam, m)
        assert sigma.max() <= m * (1.0 + 1e-12)
        # water-filling spends the unit budget exactly, so up to rounding
        assert sigma.sum() <= 1.0 + 1e-12
        assert generalized_fidelity(lam, sigma) >= np.sqrt(1.0 - eps * eps) - 1e-12

    @PROPERTY
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.5])
    @given(lam=spectra())
    def test_result_is_tight(self, eps, lam):
        # no candidate reaches the target at a ceiling 1e-9 below the result
        m = 2.0 ** -h_min_smooth(lam, eps) * (1.0 - 1e-9)
        assert generalized_fidelity(lam, best_candidate(lam, m)) < np.sqrt(1.0 - eps * eps)

    @pytest.mark.parametrize("seed, d", [(349, 199), (1221, 79), (2257, 202)])
    def test_subnormalized_ceiling_is_certified_and_tight(self, seed, d):
        # trace-0.9 spectra on which the bisection over a candidate family
        # that jumps at d m = 1 returned an uncertified ceiling
        rng = np.random.default_rng(seed)
        assert int(rng.integers(2, 257)) == d
        lam = np.sort(rng.dirichlet(np.full(d, 0.5)))[::-1]
        lam = 0.9 * lam / lam.sum()
        m = 2.0 ** -h_min_smooth(lam, 0.5)
        target = np.sqrt(0.75)
        assert generalized_fidelity(lam, best_candidate(lam, m)) >= target - 1e-12
        # and no smaller ceiling is: the closed form is the optimum
        assert generalized_fidelity(lam, best_candidate(lam, m * (1.0 - 1e-9))) < target


class TestConditionalSdp:
    def test_product(self):
        a = random_density(3, 2, name="A")
        b = random_density(2, 3, name="B")
        dm = DensityMatrix(np.kron(a.data, b.data),
                           SubsystemLayout.of(("A", 3), ("B", 2)))
        assert abs(h_min_cond(dm) - h_min(a)) < 1e-6

    def test_max_entangled(self):
        for d in (2, 3):
            psi = max_entangled(d)
            assert abs(h_min_cond(psi) + np.log2(d)) < 1e-6

    def test_pure_schmidt(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            lam = rng.dirichlet(np.ones(3))
            psi = schmidt_state(lam)
            assert abs(h_min_cond(psi) + h_max(lam)) < 1e-6

    def test_cq_agreement(self):
        rng = np.random.default_rng(8)
        blocks = [(0.5, random_density(2, rng)), (0.5, random_density(2, rng))]
        dm = cq_state(blocks)
        assert abs(h_min_cond(dm) - h_min_cond_cq(blocks)) < 1e-6

    def test_gap_reported(self):
        res = min_entropy_sdp(max_entangled(2).data, 2, 2)
        assert res.gap <= 1e-7
        assert res.converged
        assert res.newton_steps > 0

    @PROPERTY
    @given(d_a=st.integers(1, 3), d_b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           rank=st.integers(1, 9))
    def test_matches_basis_reference(self, d_a, d_b, seed, rank):
        n = d_a * d_b
        rho = random_density(n, seed, rank=min(rank, n)).data
        res = min_entropy_sdp(rho, d_a, d_b)
        assert res.converged
        # at its default 1e-7 gap the oracle itself sits up to 7e-8 bits
        # below the optimum, which the solver reaches
        assert abs(res.value - min_entropy_sdp_basis(rho, d_a, d_b, gap_tol=1e-12)) < 1e-9

    @PROPERTY
    @given(d_a=st.integers(1, 3), d_b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           rank=st.integers(1, 9))
    def test_certified_bracket(self, d_a, d_b, seed, rank):
        rho = random_density(d_a * d_b, seed, rank=min(rank, d_a * d_b)).data
        res = min_entropy_sdp(rho, d_a, d_b)
        assert res.converged
        assert_certified(res, rho, d_a, d_b)

    @PROPERTY
    @given(d_a=st.integers(1, 3), d_b=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           rank=st.integers(1, 9), rounding=st.booleans())
    def test_real_state_takes_real_field(self, d_a, d_b, seed, rank, rounding):
        # a real state, or one whose imaginary part is antisymmetric and at
        # rounding level, is solved in real arithmetic and certified
        # against the complex input
        n = d_a * d_b
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, min(rank, n)))
        rho = (g @ g.T / np.sum(g * g)).astype(complex)
        if rounding:
            noise = rng.uniform(-1.0, 1.0, (n, n))
            rho += 1e-17 * 1j * (noise - noise.T)
        res = min_entropy_sdp(rho, d_a, d_b)
        assert res.converged
        assert res.sigma.dtype == res.x.dtype == np.float64
        assert abs(res.value - min_entropy_sdp_basis(rho, d_a, d_b, gap_tol=1e-12)) < 1e-9
        assert_certified(res, rho, d_a, d_b)

    def test_field_rule(self):
        rho = max_entangled(2).data
        assert entropy._real_field(rho)
        assert entropy._real_field(rho + 1e-17j * np.diag([1.0, -1.0, 1.0, -1.0]))
        assert not entropy._real_field(rho + 1e-12j * np.diag([1.0, -1.0, 1.0, -1.0]))
        assert not entropy._real_field(np.full((4, 4), np.nan, dtype=complex))

    def test_complex_fallback(self, monkeypatch):
        # (|00> + i|11>)/sqrt(2): Re rho is classically correlated, with
        # H_min(A|B) = 0 against -1, so the real solve's sigma fails the
        # complex Cholesky of I (x) sigma - rho and the complex solve runs
        amps = np.array([1.0, 0.0, 0.0, 1j]) / np.sqrt(2.0)
        rho = np.outer(amps, amps.conj())
        real = entropy._certified(rho, 2, 2, *entropy._interior_point(
            np.ascontiguousarray(rho.real), 2, 2))
        assert not real.converged
        assert abs(real.value) < 1e-9
        monkeypatch.setattr(entropy, "_real_field", lambda rho: False)
        complex_only = min_entropy_sdp(rho, 2, 2)
        monkeypatch.setattr(entropy, "_real_field", lambda rho: True)
        res = min_entropy_sdp(rho, 2, 2)
        assert res.sigma.dtype == res.x.dtype == np.complex128
        for field in ("value", "gap", "converged", "newton_steps"):
            assert getattr(res, field) == getattr(complex_only, field)
        assert np.array_equal(res.sigma, complex_only.sigma)
        assert np.array_equal(res.x, complex_only.x)
        assert res.converged
        assert_certified(res, rho, 2, 2, -1.0)

    @pytest.mark.parametrize("q", np.random.default_rng(808).uniform(0.3, 0.9, 10),
                             ids=lambda q: f"{q:.4f}")
    def test_weyl_closed_form(self, q):
        d = 16
        rho = weyl_depolarizing_choi(d, q).data
        res = min_entropy_sdp(rho, d, d)
        assert res.converged
        assert res.newton_steps <= 60
        # the Weyl Choi state is real up to rounding: the real field stood
        assert res.sigma.dtype == res.x.dtype == np.float64
        exact = -np.log2(d * (1.0 - q + q / d**2))
        assert abs(res.value - exact) < 1e-9
        assert_certified(res, rho, d, d, exact)

    def test_capped_stage_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(entropy, "SDP_MAX_STEPS", 1)
        psi = max_entangled(2)
        res = min_entropy_sdp(psi.data, 2, 2)
        assert not res.converged
        with pytest.raises(RuntimeError, match="did not converge"):
            h_min_cond(psi)

    def test_envelope(self):
        with pytest.raises(ValueError):
            min_entropy_sdp(np.eye(512) / 512, 32, 16)
        # n = 256 is inside, but the Schur complement would be 16384^2
        with pytest.raises(ValueError, match="Schur complement dimension 16384"):
            min_entropy_sdp(np.eye(256) / 256, 2, 128)

    def test_conditional_chain(self):
        # -log2 min(dA,dB) <= H_min(A|B) <= H(A|B) <= log2 dA
        for seed in range(100):
            rho = random_density(4, 1000 + seed)
            dm = DensityMatrix(rho.data, SubsystemLayout.of(("A", 2), ("B", 2)))
            hmin = h_min_cond(dm)
            hab = von_neumann(dm) - von_neumann(dm.marginal("B"))
            assert -1.0 - 1e-6 <= hmin <= hab + 1e-6
            assert hab <= 1.0 + 1e-10

    def test_eps_shift(self):
        psi = max_entangled(2)
        base = h_min_cond(psi)
        shifted = h_min_cond(psi, eps=0.1)
        assert abs(shifted - base - np.log2(1 / 0.99)) < 1e-9


class TestCqClosedForm:
    def test_eps_zero_mixed(self):
        rng = np.random.default_rng(4)
        blocks = [(0.3, random_density(3, rng)), (0.7, random_density(3, rng))]
        tops = [b.spectrum()[0] for _, b in blocks]
        want = -np.log2(0.3 * tops[0] + 0.7 * tops[1])
        assert abs(h_min_cond_cq(blocks) - want) < 1e-12

    def test_single_flat_block(self):
        blocks = [(1.0, maximally_mixed(4))]
        assert abs(h_min_cond_cq(blocks) - 2.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_pure_blocks_closed_form(self, n, eps):
        rng = np.random.default_rng(n)
        blocks = [(1.0 / n, np.outer(v, v.conj()))
                  for v in (haar_state(3, rng) for _ in range(n))]
        want = np.log2(1 / (1 - eps**2))
        assert abs(h_min_cond_cq(blocks, eps) - want) < 1e-9
        assert abs(cq_ansatz_optimum(n, eps) - want) < 1e-9

    @pytest.mark.parametrize("n", range(1, 33))
    def test_ansatz_optimizer_converges(self, n):
        # includes (8, 0.0) and (8, 0.2), where optimizing over mu itself
        # stopped on a failed line search
        for eps in np.round(np.linspace(0.0, 0.9, 46), 2):
            want = np.log2(1 / (1 - eps**2))
            assert abs(cq_ansatz_optimum(n, eps) - want) < 1e-12

    def test_rejects_unequal_weights(self):
        rng = np.random.default_rng(1)
        blocks = [(w, np.outer(v, v.conj()))
                  for w, v in ((0.4, haar_state(2, rng)), (0.6, haar_state(2, rng)))]
        with pytest.raises(ValueError):
            h_min_cond_cq(blocks, eps=0.1)


class TestChainBounds:
    def test_product_with_flat_b(self):
        a = random_density(2, 9, name="A")
        dm = DensityMatrix(np.kron(a.data, np.eye(3) / 3),
                           SubsystemLayout.of(("A", 2), ("B", 3)))
        assert abs(chain_bounds(dm) - h_min(a)) < 1e-10

    def test_max_entangled_tight(self):
        psi = max_entangled(2)
        assert abs(chain_bounds(psi) + 1.0) < 1e-10
        assert abs(h_min_cond(psi) + 1.0) < 1e-6

    def test_lower_bounds_sdp(self):
        for seed in range(100):
            rho = random_density(4, 2000 + seed)
            dm = DensityMatrix(rho.data, SubsystemLayout.of(("A", 2), ("B", 2)))
            assert chain_bounds(dm) <= h_min_cond(dm) + 1e-6


class TestReport:
    def test_fields(self):
        rho = maximally_mixed(4)
        hmin, hmax, vn = h_min(rho), h_max(rho), von_neumann(rho)
        hmin_s, hmax_s = h_min_smooth(rho, 0.05), h_max_smooth(rho, 0.05)
        assert hmin <= vn + 1e-10 <= hmax + 2e-10
        assert hmin_s >= hmin
        assert hmax_s <= hmax
        boost = np.log2(1 / (1 - 0.05**2))
        assert -boost - 1e-9 <= hmax_s
        assert hmin_s <= 2.0 + boost + 1e-9


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize serves cq_ansatz_optimum alone, a check routine, and
    # would be a fifth of the modules a fresh ``import memloss`` loads;
    # scipy.sparse.csgraph serves delta_phi alone and is imported there;
    # scipy.sparse.linalg and scipy.special serve no memloss code at all
    src = os.path.dirname(os.path.dirname(entropy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, memloss; print(sorted(m for m in sys.modules if m in "
             "('scipy.optimize', 'scipy.sparse.csgraph', 'scipy.sparse.linalg', "
             "'scipy.special')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
