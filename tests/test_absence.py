import json

import numpy as np
import pytest

from memloss.assignment import (
    coupling_for_delta,
    delta_best_match,
    delta_phi,
    delta_phi_exhaustive,
    memory_bound,
    overlap_matrix,
    spec_delta_phi,
    verify_absence,
)
from memloss.dynamics import HamiltonianSpec
from memloss.linalg import hermitian_eig

H_S = np.diag([0.0, 1.3])
H_E = np.diag([0.0, 0.7, 1.9, 2.8])
PHI = np.array([1.0, 0.0])


def interaction():
    rng = np.random.default_rng(12)
    g0 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return (g0 + g0.conj().T) / 2


def make_spec(g):
    return HamiltonianSpec.coupled_product(H_S, H_E, interaction(), g)


class TestOverlapMatrix:
    def test_product_hamiltonian_columns_one_hot(self):
        _, v = hermitian_eig(make_spec(0.0).matrix)
        f = overlap_matrix(v, PHI)
        assert f.shape == (8, 4)
        # each product state phi (x) j is itself an eigenvector
        assert np.allclose(np.sort(f, axis=0)[-1], 1.0, atol=1e-10)
        assert np.allclose(np.sort(f, axis=0)[:-1], 0.0, atol=1e-10)

    def test_columns_are_normalized(self):
        rng = np.random.default_rng(50)
        _, v = hermitian_eig(make_spec(0.3).matrix)
        f = overlap_matrix(v, PHI)
        assert np.allclose((f**2).sum(axis=0), 1.0, atol=1e-10)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        f2 = overlap_matrix(v, phi)
        assert np.allclose((f2**2).sum(axis=0), 1.0, atol=1e-10)

    def test_custom_environment_basis(self):
        _, v = hermitian_eig(make_spec(0.1).matrix)
        u = np.linalg.qr(np.random.default_rng(51).standard_normal((4, 4)))[0]
        f = overlap_matrix(v, PHI, e_basis=u)
        assert np.allclose((f**2).sum(axis=0), 1.0, atol=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            overlap_matrix(np.ones((4, 4)), PHI)
        with pytest.raises(ValueError):
            overlap_matrix(np.eye(4), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            overlap_matrix(np.eye(4), np.ones(3) / np.sqrt(3))
        # orthonormal columns, but not a basis of E: fewer or more rows
        for e_basis in (np.eye(2)[:, :1], np.eye(3)[:, :2]):
            with pytest.raises(ValueError):
                overlap_matrix(np.eye(4), PHI, e_basis=e_basis)

    def test_spec_phi_must_fit_s(self):
        # a phi of d_E = 4 amplitudes divides d_S d_E = 8, so overlap_matrix
        # alone would read it as a 4 x 2 split; the spec's S has dimension 2
        spec = make_spec(0.2)
        for phi in (np.eye(4)[0], np.eye(8)[0], np.ones(1)):
            with pytest.raises(ValueError, match="phi has .* S has dimension 2"):
                spec_delta_phi(spec, phi)

    def test_perturbative_deficit_scaling(self):
        # for weak coupling the worst column deficit 1 - max_k f[k, j]
        # grows quadratically in g
        def deficit(g):
            _, v = hermitian_eig(make_spec(g).matrix)
            f = overlap_matrix(v, PHI)
            return (1.0 - f.max(axis=0)).max()

        ratio = deficit(0.004) / deficit(0.002)
        assert 3.2 < ratio < 4.8


class TestBottleneck:
    def test_hand_example(self):
        res = delta_phi(np.array([[0.9, 0.2], [0.3, 0.8]]))
        assert res.delta_phi == pytest.approx(0.8)
        assert res.assignment == {0: 0, 1: 1}

    def test_forced_off_diagonal(self):
        # both columns prefer row 0; injectivity forces the weaker pairing
        res = delta_phi(np.array([[0.9, 0.8], [0.1, 0.5]]))
        assert res.delta_phi == pytest.approx(0.5)
        assert delta_best_match(np.array([[0.9, 0.8], [0.1, 0.5]])) == pytest.approx(0.8)

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            rows = int(rng.integers(2, 9))
            cols = int(rng.integers(1, min(rows, 4) + 1))
            drawn = rng.random((rows, cols))
            # one decimal makes ties: the bisection over the distinct values
            # meets repeated entries and tables whose top value is feasible
            for f in (drawn, drawn.round(1)):
                res = delta_phi(f)
                assert res.delta_phi == delta_phi_exhaustive(f)
                chosen = [f[k, j] for k, j in res.assignment.items()]
                assert min(chosen) == res.delta_phi
                assert len(set(res.assignment.values())) == cols

    def test_long_augmenting_paths(self):
        # a cyclic staircase: column j may use rows j and j + 1, the last
        # column row 0; scanning rows in order, the last column's augmenting
        # path runs back through all the others, deeper than a recursive
        # matcher's stack allows
        n = 1200
        f = np.zeros((n, n))
        cols = np.arange(n)
        f[cols, cols] = 0.9
        f[(cols + 1) % n, cols] = 0.9
        res = delta_phi(f)
        assert res.delta_phi == 0.9
        assert len(res.assignment) == n
        assert sorted(res.assignment.values()) == list(range(n))
        assert min(f[k, j] for k, j in res.assignment.items()) == 0.9

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(78)
        f = rng.random((5, 3))
        base = delta_phi(f).delta_phi
        g = f.copy()
        g[2, 1] = min(1.0, g[2, 1] + 0.3)
        assert delta_phi(g).delta_phi >= base

    def test_more_columns_than_rows(self):
        with pytest.raises(ValueError):
            delta_phi(np.ones((2, 3)))

    def test_best_match_dominates(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            f = rng.random((6, 4))
            assert delta_best_match(f) >= delta_phi(f).delta_phi


class TestMemoryBound:
    def test_values(self):
        assert memory_bound(1.0) == (0.0, True)
        b, valid = memory_bound(1.0 / np.sqrt(2.0))
        assert b == pytest.approx(2.0)
        assert not valid
        b95, valid95 = memory_bound(0.95)
        assert b95 == pytest.approx(4 * 0.95 * np.sqrt(1 - 0.95**2))
        assert b95 < 1.1866 and valid95

    def test_range_check(self):
        with pytest.raises(ValueError):
            memory_bound(1.5)


class TestVerifyAbsence:
    def test_decoupled_system_never_moves(self):
        rep = verify_absence(make_spec(0.0), PHI, np.linspace(0, 50, 20),
                             n_env_samples=3, seed=4)
        assert rep.delta_phi == pytest.approx(1.0, abs=1e-9)
        assert rep.deterministic_max_distance < 1e-10
        assert rep.bound < 1e-8
        # at delta = 1 the fidelity floor is exactly met, never crossed
        assert rep.min_fidelity_margin == pytest.approx(0.0, abs=1e-10)

    def test_tuned_coupling_respects_bound(self):
        g_star = coupling_for_delta(make_spec, PHI, 0.95, 0.0, 0.4)
        assert g_star == pytest.approx(0.047266, abs=5e-4)
        rep = verify_absence(make_spec(g_star), PHI, np.linspace(0, 100, 50),
                             n_env_samples=6, seed=4)
        assert rep.delta_phi == pytest.approx(0.95, abs=1e-3)
        assert rep.bound_valid
        assert rep.deterministic_max_distance <= rep.bound + 1e-8
        assert rep.min_fidelity_margin >= 0.0
        assert rep.radius == pytest.approx(rep.bound + 2 / 2 + 4 ** (-1 / 3))
        assert rep.mc_asserted == (rep.mc_bound < 1.0)
        assert rep.mc_exceed_fraction <= rep.mc_bound

    def test_radius_arithmetic(self):
        rep = verify_absence(
            HamiltonianSpec.explicit(np.zeros((128, 128)), 2, 64), PHI,
            [0.0], n_env_samples=1, seed=0)
        assert rep.radius == pytest.approx(rep.bound + 2 / 8 + 64 ** (-1 / 3))
        assert rep.mc_bound == pytest.approx(np.exp(-4 / 16))

    def test_rejects_restricted_environment(self):
        spec = HamiltonianSpec.explicit(np.zeros((4, 4)), 2, 2,
                                        omega_e=np.eye(2, dtype=complex)[:, :1])
        with pytest.raises(ValueError):
            verify_absence(spec, PHI, [0.0])

    @pytest.mark.parametrize("times, n_env_samples, message", [
        ([], 1, "at least one time"),
        ([0.0, 1.0], -3, "samples >= 0"),
        ([0.0], 2 ** 22 + 1, "at most 16777216 entries"),
    ])
    def test_rejects_bad_counts(self, times, n_env_samples, message):
        # no times used to report an infinite fidelity margin, and -3
        # samples an exceedance fraction of -0.0
        with pytest.raises(ValueError, match=message):
            verify_absence(make_spec(0.0), PHI, times, n_env_samples=n_env_samples)

    def test_report_json(self):
        rep = verify_absence(make_spec(0.0), PHI, [0.0, 1.0], n_env_samples=1,
                             seed=2)
        obj = json.loads(rep.to_json())
        assert set(obj) == {"delta_phi", "bound", "bound_valid",
                            "deterministic_max_distance",
                            "min_fidelity_margin", "radius",
                            "mc_exceed_fraction", "mc_bound", "mc_asserted",
                            "times", "seed"}
        assert obj["times"] == [0.0, 1.0]


class TestCouplingSearch:
    def test_unbracketed_target(self):
        with pytest.raises(ValueError):
            coupling_for_delta(make_spec, PHI, 0.2, 0.0, 0.05)

    def test_spec_delta_decreases_with_coupling(self):
        d0 = spec_delta_phi(make_spec(0.0), PHI).delta_phi
        d1 = spec_delta_phi(make_spec(0.2), PHI).delta_phi
        assert d0 > d1
