import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from memloss import assignment, linalg
from memloss.dynamics import (
    INCONCLUSIVE,
    MEMORY_LOST,
    MEMORY_RETAINED,
    HamiltonianSpec,
    _marginal_spectra,
    _tau_columns,
    _tilde_columns,
    dimension_certificates,
    env_criteria,
    lightcone_scan,
    recurrence_scan,
    spec_from_dict,
    spec_to_dict,
    system_criteria,
    system_criteria_scan,
    tau_SE,
    tilde_tau_SE,
)
from memloss.entropy import h_max, h_max_smooth, h_min, h_min_smooth
from memloss.linalg import (PAULI, Evolver, SubsystemLayout, chebyshev_coefficients, haar_state,
                            kron, trace_distance)

PROPERTY = settings(max_examples=30, deadline=None)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def dense_specs():
    """Chaotic dense couplings with a small system and a big environment,
    plus the mirrored version used for the environment-side criteria."""
    rng = np.random.default_rng(9)
    h = random_hermitian(32, rng)
    psi = haar_state(16, rng)
    small_sys = HamiltonianSpec.explicit(h, 2, 16, psi_e=psi)
    h2 = random_hermitian(32, rng)
    big_sys = HamiltonianSpec.explicit(h2, 16, 2,
                                       phi_s=haar_state(16, rng))
    return small_sys, big_sys


class TestSpecValidation:
    def test_layout_names_enforced(self):
        lay = SubsystemLayout.of(("A", 2), ("B", 2))
        with pytest.raises(ValueError):
            HamiltonianSpec(matrix=np.zeros((4, 4)), layout=lay)

    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.explicit(np.array([[0, 1], [0, 0]], dtype=float), 1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.explicit(np.zeros((3, 3)), 2, 2)

    def test_psi_e_normalization(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.explicit(np.zeros((4, 4)), 2, 2, psi_e=[1.0, 1.0])

    def test_omega_orthonormality(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.explicit(np.zeros((4, 4)), 2, 2,
                                     omega_s=np.ones((2, 2)))

    @pytest.mark.parametrize("field", [
        {"omega_s": np.eye(3)[:, :1]}, {"omega_e": np.eye(3)[:, :2]},
        {"omega_s": np.eye(2)[0]}, {"psi_e": np.eye(3)[0]}, {"phi_s": np.eye(4)[0]}],
        ids=["omega_s", "omega_e", "omega_s-vector", "psi_e", "phi_s"])
    def test_reference_dimensions_enforced(self, field):
        # a wrong size would otherwise pass until a matmul in the criteria
        with pytest.raises(ValueError, match="needs 2"):
            HamiltonianSpec.explicit(np.diag([0.0, 1.0, 2.0, 3.0]), 2, 2, **field)

    def test_chain_prefix_enforced(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.spin_chain(4, [1, 2])
        with pytest.raises(ValueError):
            HamiltonianSpec.spin_chain(4, 4)

    @pytest.mark.parametrize("n_sites", [19, 25, 48, 64, 10 ** 12])
    def test_oversized_chain_refused_before_allocation(self, monkeypatch, n_sites):
        # about 24 (n + 1) 2^n bytes: 21 GB at n = 25, 2 PiB at n = 48
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated the chain")

        monkeypatch.setattr(np, "arange", forbidden)
        monkeypatch.setattr(np, "ones", forbidden)
        with pytest.raises(ValueError, match=f"chain of {n_sites} sites: at most 18"):
            HamiltonianSpec.spin_chain(n_sites, 1)

    def test_huge_prefix_refused_before_listing_it(self):
        # the prefix length is compared with the chain before a list of
        # that many sites is made
        with pytest.raises(ValueError, match="proper nonempty prefix"):
            HamiltonianSpec.spin_chain(4, 10 ** 12)

    def test_chain_bond_count(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.spin_chain(4, 2, bond_couplings=[1.0, 1.0])

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            HamiltonianSpec.spin_chain(4, 2, model="xy")


class TestSpecialStates:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.spec = HamiltonianSpec.explicit(
            random_hermitian(8, rng), 2, 4,
            psi_e=haar_state(4, 31),
            phi_s=haar_state(2, 32))

    def test_tau_at_time_zero(self):
        tau = tau_SE(self.spec, 0.0)
        psi = self.spec.psi_e
        want = kron(np.eye(2) / 2, np.outer(psi, psi.conj()))
        assert np.allclose(tau.data, want, atol=1e-12)

    def test_tilde_at_time_zero(self):
        tau = tilde_tau_SE(self.spec, 0.0)
        phi = self.spec.phi_s
        want = kron(np.outer(phi, phi.conj()), np.eye(4) / 4)
        assert np.allclose(tau.data, want, atol=1e-12)

    def test_joint_spectrum_time_invariant(self):
        lam0 = tau_SE(self.spec, 0.0).spectrum()
        for t in (0.7, 3.1, 12.0):
            assert np.allclose(tau_SE(self.spec, t).spectrum(), lam0, atol=1e-10)

    def test_missing_reference_states(self):
        bare = HamiltonianSpec.explicit(np.zeros((4, 4)), 2, 2)
        with pytest.raises(ValueError):
            tau_SE(bare, 0.0)
        with pytest.raises(ValueError):
            tilde_tau_SE(bare, 0.0)

    def test_purification_duality(self):
        # purifying the system input with a reference R makes the global
        # state pure, so the RS and E marginals share min/max entropies
        spec, t = self.spec, 1.7
        u = spec.evolver.unitary(t)
        psi = spec.psi_e
        amps = np.zeros((2, 8), dtype=complex)
        for i in range(2):
            amps[i] = u @ kron(np.eye(2)[i].astype(complex), psi) / np.sqrt(2)
        global_rho = np.outer(amps.ravel(), amps.ravel().conj())
        tau = np.einsum("abad->bd", global_rho.reshape(2, 8, 2, 8))
        assert np.allclose(tau, tau_SE(spec, t).data, atol=1e-12)
        t6 = global_rho.reshape(2, 2, 4, 2, 2, 4)
        rho_rs = np.einsum("rsaqta->rsqt", t6).reshape(4, 4)
        rho_e = tau_SE(spec, t).marginal("E").data
        assert abs(h_min(rho_rs) - h_min(rho_e)) < 1e-10
        assert abs(h_max(rho_rs) - h_max(rho_e)) < 1e-8


class TestCriteria:
    def test_small_system_loses_memory(self):
        spec, _ = dense_specs()
        times = np.linspace(0.5, 20, 40)[::5]
        for t in times:
            lost, retained = system_criteria(spec, float(t), 0.05)
            assert lost.verdict == MEMORY_LOST
            assert lost.margin > 0
            assert retained.verdict == INCONCLUSIVE

    def test_time_zero_retained(self):
        spec, _ = dense_specs()
        lost, retained = system_criteria(spec, 0.0, 0.05)
        assert retained.verdict == MEMORY_RETAINED
        assert lost.verdict == INCONCLUSIVE
        # flat 2-level system against a pure environment: one full bit
        assert retained.lhs - retained.rhs > 0.99

    def test_big_system_keeps_env_dependence(self):
        _, spec = dense_specs()
        for t in np.linspace(0.5, 20, 40)[::5]:
            independent, dependent = env_criteria(spec, float(t), 0.05)
            assert dependent.verdict == MEMORY_RETAINED
            assert independent.verdict == INCONCLUSIVE

    def test_verdicts_never_conflict(self):
        spec, _ = dense_specs()
        for t in np.linspace(0.0, 20, 21):
            lost, retained = system_criteria(spec, float(t), 0.05)
            assert not (lost.verdict == MEMORY_LOST
                        and retained.verdict == MEMORY_RETAINED)

    def test_noninteracting_product(self):
        h_s = np.diag([0.0, 1.3])
        h_e = np.diag([0.0, 0.7, 1.9, 2.8])
        spec = HamiltonianSpec.coupled_product(
            h_s, h_e, np.zeros((8, 8)), g=0.0, psi_e=np.eye(4)[0])
        for t in (0.0, 1.0, 2.5, 7.0):
            tau = tau_SE(spec, t)
            assert np.allclose(tau.marginal("S").data, np.eye(2) / 2, atol=1e-12)
            assert abs(tau.marginal("E").spectrum()[0] - 1.0) < 1e-12
            _, retained = system_criteria(spec, t, 0.05)
            assert retained.verdict == MEMORY_RETAINED


class TestCertificates:
    def test_arithmetic(self):
        z = np.zeros((128, 128))
        assert dimension_certificates(HamiltonianSpec.explicit(z, 32, 4)) == (True, False)
        assert dimension_certificates(HamiltonianSpec.explicit(z, 4, 32)) == (False, True)
        assert dimension_certificates(
            HamiltonianSpec.explicit(np.zeros((16, 16)), 4, 4)) == (False, False)

    def test_subspace_dimensions_count(self):
        iso = np.eye(32, dtype=complex)[:, :4]
        spec = HamiltonianSpec.explicit(np.zeros((128, 128)), 32, 4, omega_s=iso)
        assert dimension_certificates(spec) == (False, False)

    def test_system_certificate_sound(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(128, rng)
        spec = HamiltonianSpec.explicit(h, 32, 4,
                                        psi_e=haar_state(4, rng))
        assert dimension_certificates(spec)[0]
        for t in rng.uniform(0, 50, 6):
            _, retained = system_criteria(spec, float(t), 0.05)
            assert retained.verdict == MEMORY_RETAINED
            assert retained.lhs - retained.rhs > 1.0

    def test_env_certificate_sound(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(128, rng)
        spec = HamiltonianSpec.explicit(h, 4, 32,
                                        phi_s=haar_state(4, rng))
        assert dimension_certificates(spec)[1]
        for t in rng.uniform(0, 50, 6):
            independent, _ = env_criteria(spec, float(t), 0.05)
            assert independent.verdict == MEMORY_LOST
            assert independent.margin > 1.0


class TestLightcone:
    def test_needs_chain(self):
        spec = HamiltonianSpec.explicit(np.zeros((4, 4)), 2, 2, psi_e=[1, 0])
        with pytest.raises(ValueError):
            lightcone_scan(spec, [0.0, 1.0])

    def test_firing_time_grows_with_block_size(self):
        times = np.linspace(0, 6, 61)
        t_stars = []
        for ell in (2, 3, 4):
            d_e = 2 ** (8 - ell)
            spec = HamiltonianSpec.spin_chain(8, ell, model="tfi", j=1.0,
                                              h_field=1.0, psi_e=np.eye(d_e)[0])
            scan = lightcone_scan(spec, times, eps=0.05)
            assert scan.t_star is not None
            assert abs(scan.h_max_env[0]) < 1e-6
            assert abs(scan.deficit_sys[0]) < 0.01
            assert scan.slope_env > 0 and scan.slope_sys > 0
            t_stars.append(scan.t_star)
        assert t_stars == sorted(t_stars)
        assert t_stars[0] == pytest.approx(2.5, abs=1e-9)
        assert t_stars[2] == pytest.approx(4.0, abs=1e-9)

    def test_cut_boundary_bond_freezes_environment(self):
        spec = HamiltonianSpec.spin_chain(4, 2, model="tfi",
                                          bond_couplings=[1.0, 0.0, 1.0],
                                          psi_e=np.eye(4)[0])
        scan = lightcone_scan(spec, np.linspace(0, 5, 11), eps=0.05)
        assert scan.t_star is None
        assert np.abs(scan.h_max_env).max() < 1e-6

    def test_initial_slope_independent_of_chain_length(self):
        # Lieb-Robinson: until the light cone from the S-E boundary reaches
        # the far end, the chain's length does not change t* or the initial
        # growth of H_max(E) beyond exponentially small tails
        times = np.linspace(0, 6, 61)
        scans = [lightcone_scan(HamiltonianSpec.spin_chain(
                     n, 2, psi_e=np.eye(1, 2 ** (n - 2))[0]), times, eps=0.05)
                 for n in (8, 10, 12, 14)]
        assert [scan.t_star for scan in scans] == [2.5, 2.5, 2.5, 2.5]
        slopes = [scan.slope_env for scan in scans]
        assert slopes[0] == pytest.approx(1.1669, abs=1e-4)
        assert max(slopes) - min(slopes) < 1e-7
        # the far end is felt later: the curves part after t*
        assert np.abs(scans[2].h_max_env - scans[0].h_max_env)[times > 4].max() > 0.01


class TestRecurrence:
    def spec(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        return HamiltonianSpec.explicit(np.diag([0.0, 1.0, 1.0, 2.0]), 2, 2,
                                        psi_e=plus)

    def test_integer_spectrum_returns_at_two_pi(self):
        scan = recurrence_scan(self.spec(), 7.0, 2 * np.pi / 100, tol=1e-8)
        assert scan.t_rec == pytest.approx(2 * np.pi, abs=1e-9)
        assert scan.distance_at_rec < 1e-8
        assert scan.verdict_at_rec.verdict == MEMORY_RETAINED

    def test_state_actually_moves_before_recurring(self):
        spec = self.spec()
        tau0 = tau_SE(spec, 0.0)
        assert trace_distance(tau_SE(spec, np.pi), tau0) > 0.1

    def test_no_recurrence_inside_horizon(self):
        scan = recurrence_scan(self.spec(), 3.0, 2 * np.pi / 100, tol=1e-8)
        assert scan.t_rec is None
        assert scan.min_distance > 1e-8
        assert 0 < scan.argmin_time <= 3.0

    def test_horizon_is_scanned(self):
        # the state returns at t_max = 7 steps of 1100.1 and nowhere before;
        # a running sum of the steps overshoots that horizon by 2 ulps
        step = 1100.1
        t_max = 7 * step
        omega = 2 * np.pi / t_max
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        spec = HamiltonianSpec.explicit(np.diag([0.0, omega, omega, 2 * omega]),
                                        2, 2, psi_e=plus)
        scan = recurrence_scan(spec, t_max, step, tol=1e-8)
        assert scan.t_rec == t_max

    @pytest.mark.parametrize("chain", [False, True])
    def test_reference_and_verdict_from_the_scan(self, chain):
        # a complex psi_e and a tolerance the first grid time meets: the
        # distance is to tau_SE(0), and the verdict is that of tau_SE(t_rec)
        psi_e = haar_state(4, 51)
        spec = (HamiltonianSpec.spin_chain(3, 1, model="heisenberg", psi_e=psi_e) if chain
                else HamiltonianSpec.explicit(random_hermitian(8, np.random.default_rng(50)),
                                              2, 4, psi_e=psi_e))
        scan = recurrence_scan(spec, 1.0, 0.3, tol=2.5)
        assert scan.t_rec == 0.3
        want = trace_distance(tau_SE(spec, 0.3), tau_SE(spec, 0.0))
        assert want > 0.1
        assert scan.distance_at_rec == pytest.approx(want, abs=1e-12)
        _, retained = system_criteria(spec, 0.3)
        assert scan.verdict_at_rec.lhs == pytest.approx(retained.lhs, abs=1e-12)
        assert scan.verdict_at_rec.rhs == pytest.approx(retained.rhs, abs=1e-12)

    def test_dimension_limit(self):
        spec = HamiltonianSpec.explicit(np.zeros((128, 128)), 32, 4,
                                        psi_e=np.eye(4)[0])
        with pytest.raises(ValueError):
            recurrence_scan(spec, 1.0, 0.1)

    @pytest.mark.parametrize("t_max, step, eps, message", [
        (3.0, 2 * np.pi / 100, 1.5, r"epsilon must be in \[0, 1\)"),
        (3.0, 2 * np.pi / 100, -0.1, r"epsilon must be in \[0, 1\)"),
        (2.0 ** 24 + 1.0, 1.0, 0.05, "at most 16777216"),
        (1.0, 1e-310, 0.05, "at most 16777216"),
    ])
    def test_refused_before_the_scan(self, monkeypatch, t_max, step, eps, message):
        # an epsilon that no recurrence reaches used to pass unchecked, and
        # a grid's steps are counted before np.arange makes them
        def forbidden(*args, **kwargs):
            raise AssertionError("made the grid")

        monkeypatch.setattr(np, "arange", forbidden)
        with pytest.raises(ValueError, match=message):
            recurrence_scan(self.spec(), t_max, step, eps=eps)


class TestCodec:
    def test_explicit_round_trip(self):
        rng = np.random.default_rng(40)
        spec = HamiltonianSpec.explicit(
            random_hermitian(8, rng), 2, 4,
            psi_e=haar_state(4, 41),
            phi_s=haar_state(2, 42),
            omega_e=np.eye(4, dtype=complex)[:, :2])
        back = spec_from_dict(spec_to_dict(spec))
        assert np.allclose(back.matrix, spec.matrix)
        assert np.allclose(back.psi_e, spec.psi_e)
        assert np.allclose(back.phi_s, spec.phi_s)
        assert np.allclose(back.omega_e, spec.omega_e)
        assert back.layout.names == ("S", "E") and back.d_e == 4

    def test_sparse_explicit_round_trip(self):
        # a sparse matrix is written out dense and read back dense
        spec = HamiltonianSpec.spin_chain(3, 1, psi_e=np.eye(4)[0])
        bare = HamiltonianSpec.explicit(spec.matrix, 2, 4, psi_e=spec.psi_e)
        back = spec_from_dict(spec_to_dict(bare))
        assert isinstance(back.matrix, np.ndarray)
        assert np.array_equal(back.matrix, spec.matrix.toarray())

    def test_chain_round_trip(self):
        spec = HamiltonianSpec.spin_chain(5, 2, model="heisenberg", j=0.7,
                                          h_field=0.2,
                                          bond_couplings=[1, 1, 0.5, 1],
                                          psi_e=np.eye(8)[0])
        back = spec_from_dict(spec_to_dict(spec))
        assert np.allclose(back.matrix.toarray(), spec.matrix.toarray())
        assert back.meta["model"] == "heisenberg"
        assert back.kind == "spin_chain"

    def test_coupled_product_round_trip(self):
        rng = np.random.default_rng(43)
        spec = HamiltonianSpec.coupled_product(
            np.diag([0.0, 1.3]), np.diag([0.0, 0.7, 1.9, 2.8]),
            random_hermitian(8, rng), g=0.1, phi_s=np.eye(2)[0])
        back = spec_from_dict(spec_to_dict(spec))
        assert np.allclose(back.matrix, spec.matrix)
        assert back.meta["g"] == 0.1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spec_from_dict({"kind": "banana"})

    @pytest.mark.parametrize("kind, key", [
        ("spin_chain", "h_feild"), ("spin_chain", "matrix"), ("coupled_product", "G"),
        ("explicit", "n_sites"), ("explicit", "omega_S")])
    def test_unknown_key_rejected(self, kind, key):
        # each kind takes its own keys and the shared references, no other
        specs = {"spin_chain": HamiltonianSpec.spin_chain(4, 1, h_field=0.3),
                 "coupled_product": HamiltonianSpec.coupled_product(
                     np.diag([0.0, 1.0]), np.diag([0.0, 2.0]), np.eye(4), g=0.1),
                 "explicit": HamiltonianSpec.explicit(np.eye(4), 2, 2, psi_e=np.eye(2)[0])}
        d = spec_to_dict(specs[kind])
        assert spec_from_dict(d).kind == kind
        with pytest.raises(ValueError, match=f"unknown key\\(s\\) '{key}'"):
            spec_from_dict(dict(d, **{key: 1.0}))


# ---------------------------------------------------------------------------
# The column evolution against a dense oracle: ``expm(-iHt) rho0 expm(iHt)``
# on the full d x d initial state, partial traces by einsum, eigvalsh.
# ---------------------------------------------------------------------------


def random_isometry(d, k, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0][:, :k]


@st.composite
def explicit_specs(draw, subspaces=True):
    d_s, d_e = draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    isos = {}
    for name, d in (("omega_s", d_s), ("omega_e", d_e)):
        if subspaces and draw(st.booleans()):
            isos[name] = random_isometry(d, draw(st.integers(1, d)), rng)
    return HamiltonianSpec.explicit(random_hermitian(d_s * d_e, rng), d_s, d_e,
                                    psi_e=haar_state(d_e, rng),
                                    phi_s=haar_state(d_s, rng), **isos)


times_st = st.floats(0.0, 20.0, allow_nan=False)


def flat(d, iso):
    p = np.eye(d) if iso is None else iso @ iso.conj().T
    return p / np.trace(p).real


def oracle_states(spec, t):
    """Dense ``tau_SE(t)`` and ``tilde_tau_SE(t)``."""
    u = expm(-1j * t * spec.matrix)
    psi, phi = spec.psi_e, spec.phi_s
    rho_tau = np.kron(flat(spec.d_s, spec.omega_s), np.outer(psi, psi.conj()))
    rho_tilde = np.kron(np.outer(phi, phi.conj()), flat(spec.d_e, spec.omega_e))
    return [u @ rho0 @ u.conj().T for rho0 in (rho_tau, rho_tilde)]


def oracle_marginals(rho, d_s, d_e):
    r = rho.reshape(d_s, d_e, d_s, d_e)
    return np.einsum("aebe->ab", r), np.einsum("sasb->ab", r)


class TestColumnEvolution:
    @PROPERTY
    @given(explicit_specs(), times_st)
    def test_reference_states_match_dense_oracle(self, spec, t):
        want_tau, want_tilde = oracle_states(spec, t)
        assert np.abs(tau_SE(spec, t).data - want_tau).max() < 1e-10
        assert np.abs(tilde_tau_SE(spec, t).data - want_tilde).max() < 1e-10

    @PROPERTY
    @given(explicit_specs(), times_st)
    def test_marginal_spectra_match_dense_oracle(self, spec, t):
        d_s, d_e = spec.d_s, spec.d_e
        for x0, rho in zip((_tau_columns(spec), _tilde_columns(spec)),
                           oracle_states(spec, t)):
            got = _marginal_spectra(spec.evolver.apply(x0, t), d_s, d_e)
            for lam, marginal in zip(got, oracle_marginals(rho, d_s, d_e)):
                want = np.linalg.eigvalsh(marginal)[::-1]
                assert lam.shape == want.shape
                assert np.abs(lam - want).max() < 1e-10

    @PROPERTY
    @given(explicit_specs(subspaces=False),
           st.lists(times_st, min_size=1, max_size=4),
           st.integers(0, 2**16))
    def test_absence_matches_per_sample_dense_loop(self, spec, times, seed):
        d_s, d_e, n = spec.d_s, spec.d_e, 4
        phi = spec.phi_s
        # pin the radius at 1 so that the exceedance count is not always 0
        offset = d_s / np.sqrt(d_e) + d_e ** (-1.0 / 3.0)
        with mock.patch.object(assignment, "memory_bound",
                               lambda delta: (1.0 - offset, True)):
            rep = assignment.verify_absence(spec, phi, times, n_env_samples=n,
                                            seed=seed)
        phi_dm = np.outer(phi, phi.conj())

        def dist(rho):
            s_part = oracle_marginals(rho, d_s, d_e)[0]
            return np.linalg.svd(s_part - phi_dm, compute_uv=False).sum()

        max_dist, exceed = 0.0, 0
        for t in times:
            u = expm(-1j * t * spec.matrix)
            rho = u @ np.kron(phi_dm, np.eye(d_e) / d_e) @ u.conj().T
            max_dist = max(max_dist, dist(rho))
            for i in range(n):
                psi = haar_state(d_e, np.random.default_rng([seed, i]))
                v = u @ np.kron(phi, psi)
                exceed += dist(np.outer(v, v.conj())) > rep.radius
        assert rep.deterministic_max_distance == pytest.approx(max_dist, abs=1e-10)
        assert rep.mc_exceed_fraction == exceed / (n * len(times))

    @PROPERTY
    @given(explicit_specs(), times_st)
    def test_verdict_fires_exactly_when_margin_exceeds_slack(self, spec, t):
        # the slack, the threshold the margin must exceed, is fixed at 0
        for routine in (system_criteria, env_criteria):
            lost, retained = routine(spec, t, 0.05)
            assert lost.margin == lost.rhs - lost.lhs
            assert retained.margin == retained.lhs - retained.rhs
            for v in (lost, retained):
                assert (v.verdict != INCONCLUSIVE) == (v.margin > 0.0)


# ---------------------------------------------------------------------------
# Spin chains: the sparse matrix stepped along the time grid against the
# chain built from dense Kronecker products and evolved by expm per time.
# ---------------------------------------------------------------------------


def dense_chain(n, model, j, h_field, bonds):
    """The chain Hamiltonian from dense Kronecker products, site 0 leading."""
    def at(ops):
        out = np.eye(1, dtype=complex)
        for i in range(n):
            out = np.kron(out, ops.get(i, np.eye(2)))
        return out

    x, y, z = PAULI[1], PAULI[2], PAULI[3]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for b in range(n - 1):
        if model == "tfi":
            h -= j * bonds[b] * at({b: z, b + 1: z})
        else:
            h += j * bonds[b] * sum(at({b: p, b + 1: p}) for p in (x, y, z))
    for i in range(n):
        h -= h_field * at({i: x if model == "tfi" else z})
    return h


@st.composite
def chain_cases(draw):
    n = draw(st.integers(2, 8))
    ell = draw(st.integers(1, n - 1))
    model = draw(st.sampled_from(["tfi", "heisenberg"]))
    coupling = st.floats(-1.5, 1.5, allow_nan=False)
    bonds = draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
    bonds[draw(st.integers(0, n - 2))] = 0.0
    j, h_field = draw(coupling), draw(coupling)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = HamiltonianSpec.spin_chain(
        n, ell, model=model, j=j, h_field=h_field, bond_couplings=bonds,
        psi_e=haar_state(2 ** (n - ell), rng),
        phi_s=haar_state(2 ** ell, rng))
    # unsorted, with a repeated time
    times = draw(st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=1,
                          max_size=4))
    times.append(draw(st.sampled_from(times)))
    return spec, dense_chain(n, model, j, h_field, bonds), times


@st.composite
def window_cases(draw):
    """A sparse H with its dense matrix, columns x0 and a time list, and the
    window budget in blocks of x0's size (None: the default).

    H is a chain (N <= 8, either model, one bond at zero) or a random
    complex sparse matrix; x0 is real or complex.  The times hold zeros, a
    repeat of the time before, decreasing steps and negative times; a budget
    of 4 blocks gives windows of one time and blocks of two vectors, so the
    windows end mid-list and the vector blocks wrap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = draw(st.sampled_from(["tfi", "heisenberg", "complex"]))
    if model == "complex":
        d = draw(st.integers(2, 32))
        g = (sparse.random_array((d, d), density=0.3, rng=rng)
             + 1j * sparse.random_array((d, d), density=0.3, rng=rng))
        h = (g + g.conj().T) / 2
        dense = h.toarray()
    else:
        n = draw(st.integers(2, 8))
        coupling = st.floats(-1.5, 1.5, allow_nan=False)
        bonds = draw(st.lists(coupling, min_size=n - 1, max_size=n - 1))
        bonds[draw(st.integers(0, n - 2))] = 0.0
        j, h_field = draw(coupling), draw(coupling)
        h = HamiltonianSpec.spin_chain(n, 1, model=model, j=j, h_field=h_field,
                                       bond_couplings=bonds).matrix
        dense = dense_chain(n, model, j, h_field, bonds)
    d = dense.shape[0]
    g = rng.standard_normal((d, draw(st.integers(1, min(d, 4)))))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal(g.shape)
    x0 = np.linalg.qr(g)[0].astype(complex)
    times = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 3.0, allow_nan=False)),
                          min_size=1, max_size=8))
    at = draw(st.integers(0, len(times) - 1))
    times.insert(at, times[at])
    return h, dense, x0, times, draw(st.sampled_from([4, 8, 16, None]))


class TestChainEvolution:
    @settings(max_examples=60, deadline=None)
    @given(window_cases())
    def test_windows_match_dense_expm(self, case):
        h, dense, x0, times, blocks = case
        budget = linalg.CHEBYSHEV_BLOCK if blocks is None else blocks * x0.size
        with mock.patch.object(linalg, "CHEBYSHEV_BLOCK", budget):
            ys = list(Evolver(h).evolve(x0, times))
        assert len(ys) == len(times)
        for i, (t, y) in enumerate(zip(times, ys)):
            assert y.shape == x0.shape
            assert np.abs(y - expm(-1j * t * dense) @ x0).max() < 1e-12
            # a repeated time yields the state before it, t = 0 first x0
            if i and t == times[i - 1]:
                assert y is ys[i - 1]
        if times[0] == 0.0:
            assert ys[0] is x0

    @pytest.mark.parametrize("n, s_sites, model", [(8, 3, "heisenberg"), (10, 2, "tfi")])
    def test_norm_defect_of_a_long_scan(self, n, s_sites, model):
        # the Chebyshev coefficients' rounding moves the columns' squared
        # norm by a few ulps per window; h_min_smooth reads that trace
        # defect as slack, so it is held far below the 1e-8-bit level
        bonds = np.ones(n - 1)
        if model == "heisenberg":
            bonds[s_sites - 1] = 0.0   # the S-E bond
        spec = HamiltonianSpec.spin_chain(n, s_sites, model=model, bond_couplings=bonds,
                                          psi_e=np.eye(1, 2 ** (n - s_sites))[0])
        times = np.linspace(0, 6, 61)
        defect = [abs(np.vdot(y, y).real - 1.0)
                  for y in spec.evolver.evolve(_tau_columns(spec), times)]
        assert max(defect) < 1e-13

    def test_windows_keep_to_the_cost_and_table_budgets(self, monkeypatch):
        # a window of n times sums 2n vectors per term: 2n stays within the
        # chain's nonzeros per row (5 here), where a budget of 1000 entries
        # would let the 32-entry columns take 7 times, and the 2n x K table
        # stays within that budget, which ends the window at the long step
        window, windows = Evolver._window, []

        def spy(ev, x, coeffs):
            windows.append((len(coeffs), max(c.size for c in coeffs)))
            return window(ev, x, coeffs)

        monkeypatch.setattr(Evolver, "_window", spy)
        monkeypatch.setattr(linalg, "CHEBYSHEV_BLOCK", 1000)
        spec = HamiltonianSpec.spin_chain(4, 1, psi_e=np.eye(1, 8)[0])
        ev, x0 = spec.evolver, _tau_columns(spec)
        per_row = ev.h2.nnz / ev.h2.shape[0]
        times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 10.0, 10.5, 11.0, 60.0, 60.2, 0.0]
        dense = spec.matrix.toarray()
        for t, y in zip(times, ev.evolve(x0, times)):
            assert np.abs(y - expm(-1j * t * dense) @ x0).max() < 1e-12
        assert x0.size == 32 and 2 * 2 <= per_row < 2 * 3
        assert max(n for n, _ in windows) == 2
        assert all(n == 1 or 2 * n * k <= 1000 for n, k in windows)
        assert (1, chebyshev_coefficients(ev.radius * 49.0).size) in windows

    def test_long_recurrence_grid_holds_little_memory(self):
        # 1024 times on a 4-site chain run in windows of two times; one
        # window of them all would hold a 2048 x 7400 coefficient table
        spec = HamiltonianSpec.spin_chain(4, 1, psi_e=np.eye(1, 8)[0])
        tracemalloc.start()
        try:
            scan = recurrence_scan(spec, 1024.0, 1.0, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan.t_rec is None
        assert peak < 4e6

    @settings(max_examples=25, deadline=None)
    @given(chain_cases())
    def test_stepped_chain_matches_dense_expm(self, case):
        spec, h, times = case
        assert np.abs(spec.matrix.toarray() - h).max() < 1e-14
        n = spec.meta["n_sites"]
        assert spec.matrix.nnz <= 2 ** n * (n + 1)
        d_s, d_e = spec.d_s, spec.d_e
        rho0s = (np.kron(np.eye(d_s) / d_s, np.outer(spec.psi_e, spec.psi_e.conj())),
                 np.kron(np.outer(spec.phi_s, spec.phi_s.conj()), np.eye(d_e) / d_e))
        units = [expm(-1j * t * h) for t in times]
        oracle = []
        for x0, rho0 in zip((_tau_columns(spec), _tilde_columns(spec)), rho0s):
            for u, y in zip(units, spec.evolver.evolve(x0, times)):
                got = _marginal_spectra(y, d_s, d_e)
                want = [np.clip(np.linalg.eigvalsh(m)[::-1], 0.0, None)
                        for m in oracle_marginals(u @ rho0 @ u.conj().T, d_s, d_e)]
                for lam, ref in zip(got, want):
                    assert lam.shape == ref.shape
                    assert np.abs(lam - ref).max() < 1e-10
                oracle.append(want)
        # tau's verdicts, fired from the oracle spectra by the same rule
        for (lost, retained), (s, e) in zip(system_criteria_scan(spec, times),
                                            oracle[:len(times)]):
            lost_margin = h_min_smooth(e, 0.05) - h_max_smooth(s, 0.05)
            retained_margin = h_min_smooth(s, 0.05) - h_max_smooth(e, 0.05)
            assert (lost.verdict == MEMORY_LOST) == (lost_margin > 0)
            assert (retained.verdict == MEMORY_RETAINED) == (retained_margin > 0)

    def test_long_step_matches_dense_expm(self):
        # the row-sum bound is a = 18.9, so the step of dt = 3 is one
        # Chebyshev series of 107 terms (z = 56.7)
        spec = HamiltonianSpec.spin_chain(8, 3, model="heisenberg", j=0.9,
                                          h_field=-0.6, psi_e=np.eye(32)[0])
        x0 = _tau_columns(spec)
        u = expm(-3j * dense_chain(8, "heisenberg", 0.9, -0.6, np.ones(7)))
        y = next(spec.evolver.evolve(x0, [3.0]))
        assert np.abs(y - u @ x0).max() < 1e-12

    def test_time_zero_returns_initial_columns(self):
        spec = HamiltonianSpec.spin_chain(6, 2, psi_e=np.eye(16)[0])
        x0 = _tau_columns(spec)
        y0, y1, y1_again = spec.evolver.evolve(x0, [0.0, 0.8, 0.8])
        assert y0 is x0
        assert y1_again is y1
        lost, retained = system_criteria(spec, 0.0)
        # exact columns: the S marginal is flat with trace 1, E is pure
        assert retained.lhs == h_min_smooth(np.full(4, 0.25), 0.05)
        assert retained.rhs == 0.0
