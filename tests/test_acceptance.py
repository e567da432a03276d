"""End-to-end acceptance checks, one per numbered claim.

Each test prints a single PASS/FAIL line before asserting, so the verdict
table survives in the captured output either way.

Criterion 12 checks the per-copy trend of the smoothed min-entropy
``h_n = H_min^eps(rho^{(x)n})`` that the smoothing definition guarantees:
every added copy raises ``h_n`` by at least ``H_min(rho)`` and by at most
``log2 d``, and the flat qubit follows the closed form
``n + log2(1/(1-eps^2))``.  The plain claim that ``h_n / n`` is
nondecreasing is false at small n: the fixed smoothing budget adds a
strictly decreasing ``log2(1/(1-eps^2))/n`` bonus, and even without it the
rate first falls towards ``H_min(rho)`` before the asymptotic equipartition
property pulls it up to ``H(rho)`` as n grows.  The count of non-monotone
states is reported, not asserted.
"""

import time
from functools import reduce

import numpy as np
import pytest

from memloss.assignment import (
    coupling_for_delta,
    delta_phi,
    delta_phi_exhaustive,
    overlap_matrix,
    verify_absence,
)
from memloss.channels import Channel, depolarizing, iid_threshold
from memloss.decoupling import (
    avg_output_distance,
    concentration_check,
    converse_check,
    decoupling_bound,
)
from memloss.dynamics import (
    MEMORY_LOST,
    MEMORY_RETAINED,
    HamiltonianSpec,
    dimension_certificates,
    env_criteria,
    lightcone_scan,
    system_criteria,
)
from memloss.entropy import (
    cq_ansatz_optimum,
    h_max,
    h_max_smooth,
    h_max_smooth_oracle,
    h_min,
    h_min_cond_cq,
    h_min_smooth,
    h_min_smooth_oracle,
    shannon,
    von_neumann,
)
from memloss.linalg import (
    DensityMatrix,
    SubsystemLayout,
    haar_state,
    haar_unitary,
    hermitian_eig,
    maximally_mixed,
    random_density,
)

P_C = 0.1892896249152317


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_depolarizing_threshold():
    t0 = time.perf_counter()
    p_c = iid_threshold(depolarizing, 0.01, 0.5, tol=1e-8)
    elapsed = time.perf_counter() - t0
    ok = abs(p_c - 0.1893) <= 1e-4 and elapsed < 1.0
    assert report(1, ok, f"p_c={p_c:.6f}, {elapsed:.2f}s")


def test_criterion_2_hashing_consistency():
    gap = abs(shannon([1 - P_C] + [P_C / 3] * 3) - 1.0)

    def coherent_info(p):
        choi = depolarizing(p).choi().state
        return von_neumann(choi.marginal("B")) - von_neumann(choi)

    below, above = coherent_info(P_C - 0.02), coherent_info(P_C + 0.02)
    ok = gap < 1e-5 and below > 0 and above < 0
    assert report(2, ok, f"|H-1|={gap:.2e}, I_c={below:+.4f}/{above:+.4f}")


def test_criterion_3_equal_weight_pure_blocks():
    rng = np.random.default_rng(14)
    worst = 0.0
    for n in (2, 4, 8):
        blocks = [(1.0 / n, np.outer(v, v.conj()))
                  for v in (haar_state(3, rng) for _ in range(n))]
        for eps in (0.0, 0.1, 0.3):
            want = np.log2(1.0 / (1.0 - eps * eps))
            worst = max(worst, abs(h_min_cond_cq(blocks, eps) - want),
                        abs(cq_ansatz_optimum(n, eps) - want))
    ok = worst < 1e-9
    assert report(3, ok, f"worst deviation {worst:.2e} bits")


def test_criterion_4_decoupling_bound_grid():
    channels = [Channel.identity(2)]
    channels += [depolarizing(p)
                 for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75)]
    dims = [(2, 2), (2, 4), (4, 2), (4, 4), (16, 2), (16, 4)]
    rng = np.random.default_rng(200)
    randoms = []
    for i in range(20):
        d_a, d_e = dims[i % len(dims)]
        env = haar_state(d_e, rng)
        randoms.append(Channel.from_stinespring(env, haar_unitary(d_a * d_e, rng)))
    worst_slack = np.inf
    for ch in channels + randoms:
        mean, std, _ = avg_output_distance(ch, 200, seed=17)
        bound = decoupling_bound(ch).sdp_bound
        worst_slack = min(worst_slack, bound + 3 * std / np.sqrt(200) - mean)
    mean03, _, _ = avg_output_distance(depolarizing(0.3), 200, seed=17)
    ok = worst_slack >= 0 and abs(mean03 - 0.600) <= 0.015
    assert report(4, ok, f"min bound-mean slack {worst_slack:.4f}, "
                         f"p=0.3 mean {mean03:.4f}")


def test_criterion_5_concentration():
    # constant-output channel at d_A = 256: every output equals the average,
    # so H_min(A'|B) of the Choi state is log2 d_A analytically and the only
    # sample spread is the injected measurement noise
    bound = 2.0 ** (-0.5 * np.log2(256))
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.0, 0.1, 2000)
    res = concentration_check(samples, bound, delta=0.5, d_a=256)
    small = concentration_check(samples, bound, delta=0.5, d_a=16)
    ok = (res.passed is True and res.tail_fraction <= 2 * np.exp(-4.0)
          and small.vacuous and small.passed is None)
    assert report(5, ok, f"tail {res.tail_fraction:.4f} <= "
                         f"{res.tail_bound:.4f}; d_A=16 skipped={small.vacuous}")


def test_criterion_6_converse():
    ch = Channel.from_kraus([0.5 * s
                             for s in np.array([np.eye(2),
                                                [[0, 1], [1, 0]],
                                                [[0, -1j], [1j, 0]],
                                                [[1, 0], [0, -1]]],
                                               dtype=complex)])
    never = all(not converse_check(ch, eps, delta).fires
                for eps in (0.02, 0.05, 0.1)
                for delta in (0.001, 0.01, 0.05))
    res = converse_check(Channel.identity(2048), 0.05, 0.001, n_samples=50,
                         seed=0)
    ok = never and res.fires and res.trial_min_avg > 0.001 / 2 and res.empirical_ok
    assert report(6, ok, f"depolarizing never fires={never}; identity "
                         f"lhs={res.lhs:.4f} < rhs={res.h_min_output:.4f}, "
                         f"trial min avg {res.trial_min_avg:.4f}")


def test_criterion_7_entropy_properties():
    ordering = True
    monotone = True
    for seed in range(1000):
        lam = random_density(4, seed).spectrum()
        lo, mid, hi = h_min(lam), von_neumann(lam), h_max(lam)
        ordering &= lo <= mid + 1e-10 <= hi + 2e-10
        grid = (0.0, 0.05, 0.1, 0.2, 0.3)
        mins = [h_min_smooth(lam, e) for e in grid]
        maxs = [h_max_smooth(lam, e) for e in grid]
        monotone &= all(a <= b + 1e-10 for a, b in zip(mins, mins[1:]))
        monotone &= all(a >= b - 1e-10 for a, b in zip(maxs, maxs[1:]))
    symmetry = 0.0
    for seed in range(20):
        psi = haar_state(9, 500 + seed)
        dm = DensityMatrix(np.outer(psi, psi.conj()),
                           SubsystemLayout.of(("A", 3), ("B", 3)))
        a, b = dm.marginal("A"), dm.marginal("B")
        symmetry = max(symmetry, abs(h_min(a) - h_min(b)),
                       abs(h_max(a) - h_max(b)))
    oracle_gap = 0.0
    rng = np.random.default_rng(21)
    for i in range(4):
        lam = np.sort(rng.dirichlet(np.ones(2 + i % 2)))[::-1]
        for eps in (0.05, 0.1, 0.3):
            oracle_gap = max(
                oracle_gap,
                abs(h_min_smooth(lam, eps) - h_min_smooth_oracle(lam, eps)),
                abs(h_max_smooth(lam, eps) - h_max_smooth_oracle(lam, eps)))
    ok = ordering and monotone and symmetry < 1e-10 and oracle_gap < 1e-4
    assert report(7, ok, f"symmetry {symmetry:.1e}, oracle gap "
                         f"{oracle_gap:.1e} bits")


def test_criterion_8_criteria_sanity():
    rng = np.random.default_rng(300)

    def random_h(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2

    fires_t0 = True
    for d_omega in (2, 3, 4):
        iso = np.eye(4, dtype=complex)[:, :d_omega]
        spec = HamiltonianSpec.explicit(random_h(16), 4, 4, omega_s=iso,
                                        psi_e=haar_state(4, rng))
        _, retained = system_criteria(spec, 0.0, 0.05)
        fires_t0 &= (retained.verdict == MEMORY_RETAINED
                     and retained.lhs - retained.rhs > -1e-9)
        spec_e = HamiltonianSpec.explicit(random_h(16), 4, 4, omega_e=iso,
                                          phi_s=haar_state(4, rng))
        independent, _ = env_criteria(spec_e, 0.0, 0.05)
        fires_t0 &= (independent.verdict == MEMORY_LOST
                     and independent.margin > -1e-9)

    certs_sound = True
    for _ in range(10):
        spec = HamiltonianSpec.explicit(random_h(128), 32, 4,
                                        psi_e=haar_state(4, rng))
        assert dimension_certificates(spec)[0]
        for t in rng.uniform(0.0, 50.0, 50):
            _, retained = system_criteria(spec, float(t), 0.05)
            certs_sound &= retained.verdict == MEMORY_RETAINED
    for _ in range(10):
        spec = HamiltonianSpec.explicit(random_h(128), 4, 32,
                                        phi_s=haar_state(4, rng))
        assert dimension_certificates(spec)[1]
        for t in rng.uniform(0.0, 50.0, 50):
            independent, _ = env_criteria(spec, float(t), 0.05)
            certs_sound &= independent.verdict == MEMORY_LOST
    ok = fires_t0 and certs_sound
    assert report(8, ok, f"t=0 firing={fires_t0}, certificates={certs_sound}")


def test_criterion_9_lightcone_monotone():
    times = np.linspace(0.0, 6.0, 61)
    t_stars = []
    for ell in (2, 3, 4):
        d_e = 2 ** (8 - ell)
        spec = HamiltonianSpec.spin_chain(8, ell, model="tfi", j=1.0,
                                          h_field=1.0, psi_e=np.eye(d_e)[0])
        t_stars.append(lightcone_scan(spec, times, eps=0.05).t_star)
    ok = (None not in t_stars and t_stars == sorted(t_stars))
    assert report(9, ok, f"t* = {t_stars}")


def test_criterion_10_absence_of_thermalization():
    rng = np.random.default_rng(12)
    g0 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h_int = (g0 + g0.conj().T) / 2
    phi = np.array([1.0, 0.0])

    def make(g):
        return HamiltonianSpec.coupled_product(
            np.diag([0.0, 1.3]), np.diag([0.0, 0.7, 1.9, 2.8]), h_int, g)

    g_star = coupling_for_delta(make, phi, 0.95, 0.0, 0.4)
    rep = verify_absence(make(g_star), phi, np.linspace(0.0, 100.0, 100),
                         n_env_samples=5, seed=4)
    rep0 = verify_absence(make(0.0), phi, np.linspace(0.0, 100.0, 100),
                          n_env_samples=1, seed=4)
    ok = (rep.delta_phi > 1.0 / np.sqrt(2.0)
          and rep.deterministic_max_distance <= 1.1866 + 1e-8
          and rep.min_fidelity_margin >= 0.0
          and rep0.deterministic_max_distance <= 1e-10)
    assert report(10, ok, f"delta={rep.delta_phi:.4f}, max dist "
                          f"{rep.deterministic_max_distance:.4f} <= "
                          f"{rep.bound:.4f}; probabilistic radius "
                          f"{rep.radius:.3f} reported, not asserted")


def test_criterion_11_bottleneck_exact():
    rng = np.random.default_rng(400)
    mismatches = 0
    for _ in range(200):
        d_s = int(rng.choice([2, 2, 2, 3, 4]))
        d_e = int(rng.choice([2, 3, 4]))
        while d_s * d_e > 8:
            d_e = int(rng.integers(2, 8 // d_s + 1))
        n = d_s * d_e
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        _, v = hermitian_eig((g + g.conj().T) / 2)
        phi = haar_state(d_s, rng)
        f = overlap_matrix(v, phi)
        if delta_phi(f).delta_phi != delta_phi_exhaustive(f):
            mismatches += 1
    ok = mismatches == 0
    assert report(11, ok, f"{mismatches}/200 mismatches")


def test_criterion_12_per_copy_trend():
    # Bounds on the step h_{n+1} - h_n, each also within the commuting
    # candidates that h_min_smooth searches:
    # * at least H_min(rho): sigma_n (x) rho smooths rho^{(x)n+1} with the
    #   same fidelity, and its top eigenvalue is m_n lambda_max;
    # * at most log2 d: tracing one copy out of a smoothing of rho^{(x)n+1}
    #   smooths rho^{(x)n}, with top eigenvalue at most d m_{n+1}.
    # h_n / n itself need not be monotone (see the module docstring).
    eps, tol = 0.05, 1e-9
    copies = np.arange(1, 9)
    bonus = np.log2(1.0 / (1.0 - eps * eps))

    def smoothed(lam, n):
        spectrum = reduce(np.kron, [lam] * n)
        return h_min_smooth(np.sort(spectrum)[::-1], eps)

    low_slack = high_slack = np.inf
    non_monotone = 0
    for seed in range(20):
        p = float(random_density(2, 700 + seed).spectrum()[0])
        lam = np.array([p, 1.0 - p])
        h = np.array([smoothed(lam, n) for n in copies])
        steps = np.diff(h)
        low_slack = min(low_slack, float((steps - h_min(lam)).min()))
        high_slack = min(high_slack, float((np.log2(lam.size) - steps).min()))
        rates = h / copies
        non_monotone += bool(np.any(rates[1:] < rates[:-1] - 1e-12))
    flat = np.array([0.5, 0.5])
    flat_gap = max(abs(smoothed(flat, n) - (n + bonus)) for n in copies)
    ok = low_slack >= -tol and high_slack >= -tol and flat_gap <= tol
    assert report(12, ok, f"step slack {low_slack:.1e} above H_min, "
                          f"{high_slack:.1e} below log2 d; flat-state gap "
                          f"{flat_gap:.1e} bits; {non_monotone}/20 states "
                          f"non-monotone per copy, reported, not asserted")
