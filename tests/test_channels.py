import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloss.channels import Channel, _isometry_deviation, depolarizing, iid_threshold
from memloss.entropy import h_max_smooth, shannon
from memloss.linalg import (
    PAULI,
    PureState,
    haar_state,
    haar_unitary,
    kron,
    max_entangled,
    maximally_mixed,
    random_density,
)


def random_dilation(d_s, d_e, seed):
    env = haar_state(d_e, seed)
    u = haar_unitary(d_s * d_e, seed + 1)
    return Channel.from_stinespring(env, u, name=f"rand({d_s},{d_e},{seed})")


def random_isometry_channel(d_in, d_out, rank, seed):
    """Kraus operators ``K_k = (I (x) <k|) V`` of a random isometry
    ``V: C^d_in -> C^d_out (x) C^rank``; rank is raised until V fits."""
    rank = max(rank, -(-d_in // d_out))
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((d_out * rank, d_in))
         + 1j * rng.standard_normal((d_out * rank, d_in)))
    v, _ = np.linalg.qr(g)
    v3 = v.reshape(d_out, rank, d_in)
    return Channel.from_kraus([v3[:, k, :] for k in range(rank)])


def choi_by_conjugation(ch):
    """``sum_k (I (x) K_k) Phi (I (x) K_k)^dag``, one dense product per
    Kraus operator: the reference for :meth:`Channel.choi`."""
    full = max_entangled(ch.input_dim).density().data
    eye = np.eye(ch.input_dim)
    out = np.zeros((ch.input_dim * ch.output_dim,) * 2, dtype=complex)
    for k in ch.kraus:
        op = kron(eye, k)
        out += op @ full @ op.conj().T
    return out


class TestConstruction:
    def test_needs_some_representation(self):
        with pytest.raises(ValueError):
            Channel()

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            Channel.from_kraus([0.9 * np.eye(2)])

    def test_nonunitary_dilation_rejected(self):
        env = PureState.single(np.array([1.0, 0.0]), "E")
        with pytest.raises(ValueError):
            Channel.from_stinespring(env, np.ones((4, 4)))

    @pytest.mark.parametrize("r, d_out, d_in",
                             [(4, 8, 8), (1, 6, 6), (3, 5, 7), (1, 9, 4), (256, 16, 16)])
    def test_deviation_matches_gemm(self, r, d_out, d_in):
        # one triangle from zherk against the full product; complete Kraus
        # arrays (an isometry V) and incomplete ones (V scaled, V perturbed)
        rng = np.random.default_rng(r + d_out + d_in)
        g = (rng.standard_normal((r * d_out, d_in))
             + 1j * rng.standard_normal((r * d_out, d_in)))
        v = np.linalg.qr(g)[0]
        for w in (v, 1.001 * v, v + 1e-6 * g):
            w = np.ascontiguousarray(w)
            want = np.abs(w.conj().T @ w - np.eye(d_in)).max()
            assert abs(_isometry_deviation(w) - want) < 1e-15
        ks = v.reshape(r, d_out, d_in)
        assert Channel.from_kraus(ks).kraus.shape == (r, d_out, d_in)

    @pytest.mark.parametrize("d_out", [3, 5])
    def test_completeness_tolerance(self, d_out):
        # V^dag V = s^2 I: s = 1 + 2e-9 deviates by 4e-9 > KRAUS_TOL, and
        # s = 1 + 2e-10 by 4e-10 < KRAUS_TOL
        ks = haar_unitary(2 * d_out, 7)[:, :3].reshape(2, d_out, 3)
        with pytest.raises(ValueError):
            Channel.from_kraus((1 + 2e-9) * ks)
        Channel.from_kraus((1 + 2e-10) * ks)
        # scaling only the columns that |1>_E feeds leaves the Kraus
        # operators complete, so the joint unitarity check alone decides
        env = PureState.single(np.array([1.0, 0.0]), "E")
        for scale, ok in ((1 + 2e-9, False), (1 + 2e-10, True)):
            u = haar_unitary(2 * d_out, 8)
            u.reshape(d_out, 2, d_out, 2)[..., 1] *= scale
            if ok:
                Channel.from_stinespring(env, u)
            else:
                with pytest.raises(ValueError, match="not unitary"):
                    Channel.from_stinespring(env, u)

    def test_kraus_from_dilation_complete(self):
        ch = random_dilation(3, 4, 0)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.allclose(total, np.eye(3), atol=1e-10)

    def test_dilation_kraus_match_contraction(self):
        # K_i = (I (x) <i|) U (I (x) |psi>), contracted independently
        d_s, d_e = 3, 4
        ch = random_dilation(d_s, d_e, 7)
        u = ch.stinespring.joint_unitary.reshape(d_s, d_e, d_s, d_e)
        psi = ch.stinespring.env_state.amplitudes
        want = np.einsum("aibe,e->iab", u, psi)
        assert np.allclose(np.array(ch.kraus), want, atol=1e-14)
        rho = random_density(d_s, 8).data
        ref = sum(k @ rho @ k.conj().T for k in want)
        assert np.allclose(ch.apply(rho), ref, atol=1e-14)


class TestActions:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_apply_matches_dilation(self, p):
        ch = depolarizing(p)
        rho = random_density(2, 6)
        assert np.allclose(ch.apply(rho), ch.dilation_state(rho).marginal("S").data,
                           atol=1e-12)

    def test_depolarizing_output(self):
        p = 0.4
        ch = depolarizing(p)
        rho = random_density(2, 2).data
        want = (1 - 4 * p / 3) * rho + (4 * p / 3) * np.eye(2) / 2
        assert np.allclose(ch.apply(rho), want, atol=1e-12)

    def test_random_dilation_agreement(self):
        for seed in range(5):
            ch = random_dilation(2, 3, 10 + seed)
            rho = random_density(2, seed)
            assert np.allclose(ch.apply(rho),
                               ch.dilation_state(rho).marginal("S").data, atol=1e-12)

    def test_input_dim_checked(self):
        with pytest.raises(ValueError):
            depolarizing(0.1).apply(np.eye(3) / 3)

    def test_dilation_state_marginals(self):
        ch = depolarizing(0.25)
        tau = ch.dilation_state(maximally_mixed(2))
        assert abs(tau.trace - 1.0) < 1e-12
        assert np.allclose(tau.marginal("S").data, np.eye(2) / 2, atol=1e-12)
        env = tau.marginal("E").spectrum()
        want = np.array([0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3])
        assert np.allclose(env, want, atol=1e-10)


class TestChoi:
    def test_marginal_is_flat(self):
        ch = random_dilation(3, 2, 20)
        choi = ch.choi().state
        assert np.allclose(choi.marginal("A'").data, np.eye(3) / 3, atol=1e-10)
        assert ch.choi().source == ch.name

    def test_identity_choi_pure(self):
        ch = Channel.from_kraus([np.eye(2)])
        lam = ch.choi().state.spectrum()
        assert np.allclose(lam, [1, 0, 0, 0], atol=1e-12)

    def test_analytic_identity_spectra(self):
        ch = Channel.identity(64)
        joint, marg = ch.choi_spectra()
        assert joint.tolist() == [1.0]
        assert np.allclose(marg, np.full(64, 1 / 64))

    def test_analytic_matches_explicit(self):
        fast = Channel.identity(3)
        slow = Channel.from_kraus([np.eye(3)])
        ja, ma = fast.choi_spectra()
        jb, mb = slow.choi_spectra()
        assert abs(ja[0] - jb[0]) < 1e-10
        assert np.allclose(np.sort(ma), np.sort(mb), atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_matches_conjugation(self, d_in, d_out, rank, seed):
        ch = random_isometry_channel(d_in, d_out, rank, seed)
        choi = ch.choi().state
        assert choi.layout.factors == (("A'", d_in), ("B", d_out))
        assert np.abs(choi.data - choi_by_conjugation(ch)).max() < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_spectra_match_choi_state(self, d_in, d_out, rank, seed):
        # rank 1 takes the closed form (with d_out > d_in an isometry into a
        # larger space), higher ranks the Gram matrix
        ch = random_isometry_channel(d_in, d_out, rank, seed)
        choi = ch.choi().state
        joint, marg = ch.choi_spectra()
        dense = choi.spectrum()
        n = max(joint.size, dense.size)
        # equal up to zeros: the Gram spectrum has r entries, J has d_in d_out
        assert np.abs(np.pad(joint, (0, n - joint.size))
                      - np.pad(dense, (0, n - dense.size))).max() < 1e-12
        for eps in (0.05, 0.2):
            assert abs(h_max_smooth(joint, eps) - h_max_smooth(dense, eps)) < 1e-12
        assert marg.shape == (d_out,)
        assert np.abs(marg - choi.marginal("B").spectrum()).max() < 1e-12

    def test_dilation_matches_conjugation(self):
        ch = random_dilation(3, 5, 30)
        assert np.abs(ch.choi().state.data - choi_by_conjugation(ch)).max() < 1e-14

    def test_fully_depolarizing_choi(self):
        ch = Channel.from_kraus([0.5 * s for s in PAULI])
        choi = ch.choi().state
        assert np.allclose(choi.data, np.eye(4) / 4, atol=1e-12)


class TestThreshold:
    def test_depolarizing_root(self):
        p_c = iid_threshold(depolarizing, 0.0, 0.5, tol=1e-8)
        assert abs(p_c - 0.18928962) < 1e-6
        assert abs(shannon([1 - p_c] + [p_c / 3] * 3) - 1.0) < 1e-7

    def test_coherent_info_sign_change(self):
        p_c = 0.1892896249152317

        def gap(p):
            tau = depolarizing(p).dilation_state(maximally_mixed(2))
            from memloss.entropy import von_neumann
            return von_neumann(tau.marginal("S")) - von_neumann(tau.marginal("E"))

        assert gap(p_c - 0.02) > 0.07
        assert gap(p_c + 0.02) < -0.07

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            iid_threshold(depolarizing, 0.0, 0.05)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing(1.2)
