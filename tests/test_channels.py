import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloss.channels import Channel, depolarizing, iid_threshold
from memloss.entropy import h_max_smooth, shannon
from memloss.linalg import (
    PAULI,
    haar_state,
    haar_unitary,
    isometry_deviation,
    kron,
    max_entangled,
    maximally_mixed,
    random_density,
)


def random_dilation(d_s, d_e, seed):
    env = haar_state(d_e, seed)
    u = haar_unitary(d_s * d_e, seed + 1)
    return Channel.from_stinespring(env, u)


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
    full = max_entangled(ch.input_dim).data
    eye = np.eye(ch.input_dim)
    out = np.zeros((ch.input_dim * ch.output_dim,) * 2, dtype=complex)
    for k in ch.kraus:
        op = kron(eye, k)
        out += op @ full @ op.conj().T
    return out


class TestConstruction:
    def test_needs_some_representation(self):
        with pytest.raises(TypeError):
            Channel()

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError):
            Channel.from_kraus([0.9 * np.eye(2)])

    def test_identity_skips_the_product(self, monkeypatch):
        # an exact identity is complete by an O(d^2) scan, with no 2048^3
        # zherk; any other Kraus array still takes the product
        def no_product(*args, **kwargs):
            raise AssertionError("zherk called")

        monkeypatch.setattr("memloss.linalg.zherk", no_product)
        assert Channel.identity(2048).kraus.shape == (1, 2048, 2048)
        with pytest.raises(AssertionError, match="zherk called"):
            Channel.from_kraus([np.eye(2)[::-1]])

    def test_identity_rejections_hold(self):
        with pytest.raises(ValueError):
            Channel.identity(0)
        eye = np.eye(3, dtype=complex)
        eye[1, 1] = np.nan
        with pytest.raises(ValueError, match="completeness"):
            Channel.from_kraus(eye[None])

    def test_nonunitary_dilation_rejected(self):
        with pytest.raises(ValueError):
            Channel.from_stinespring(np.array([1.0, 0.0]), np.ones((4, 4)))

    def test_unnormalized_environment_rejected(self):
        # the environment vector's norm is checked to 1e-12, before the
        # joint operator is read
        u = haar_unitary(4, 2)
        Channel.from_stinespring(np.array([1.0 + 5e-13, 0.0]), u)
        for env in ([1.0, 1.0], [1.0 + 2e-12, 0.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                Channel.from_stinespring(np.array(env), u)
        with pytest.raises(ValueError, match="not normalized"):
            Channel.from_stinespring(np.array([1.0, 1.0]), np.ones((3, 3)))

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
            assert abs(isometry_deviation(w) - want) < 1e-15
        ks = v.reshape(r, d_out, d_in)
        assert Channel.from_kraus(ks).kraus.shape == (r, d_out, d_in)

    @pytest.mark.parametrize("d_out", [3, 5])
    def test_completeness_tolerance(self, d_out):
        # V^dag V = s^2 I: s = 1 + 2e-9 deviates by 4e-9 > ISOMETRY_TOL, and
        # s = 1 + 2e-10 by 4e-10 < ISOMETRY_TOL
        ks = haar_unitary(2 * d_out, 7)[:, :3].reshape(2, d_out, 3)
        with pytest.raises(ValueError):
            Channel.from_kraus((1 + 2e-9) * ks)
        Channel.from_kraus((1 + 2e-10) * ks)
        # scaling only the columns that |1>_E feeds leaves the Kraus
        # operators complete, so the joint unitarity check alone decides
        env = np.array([1.0, 0.0])
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
        psi, u = haar_state(d_e, 7), haar_unitary(d_s * d_e, 8)
        ch = Channel.from_stinespring(psi, u)
        want = np.einsum("aibe,e->iab", u.reshape(d_s, d_e, d_s, d_e), psi)
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
        with pytest.raises(ValueError, match="input dimension"):
            depolarizing(0.1).dilation_state(np.eye(3) / 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_kraus_dilation(self, d_in, d_out, rank, seed):
        # any Kraus channel dilates: tr_E gives the channel, and at the flat
        # input the E marginal is, by purification, the Choi state's spectrum
        ch = random_isometry_channel(d_in, d_out, rank, seed)
        r = len(ch.kraus)
        rho = random_density(d_in, seed).data
        tau = ch.dilation_state(rho)
        assert tau.layout.factors == (("S", d_out), ("E", r))
        assert np.abs(tau.marginal("S").data - ch.apply(rho)).max() < 1e-12
        env = ch.dilation_state(maximally_mixed(d_in)).marginal("E").spectrum()
        joint, _ = ch.choi_spectra()
        assert np.abs(np.pad(joint, (0, r - joint.size)) - env).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_dilation_matches_joint_unitary(self, d_s, d_e, seed):
        # the Stinespring isometry of the Kraus array against the dilation
        # it was contracted from: U (rho (x) |psi><psi|) U^dag
        psi, u = haar_state(d_e, seed), haar_unitary(d_s * d_e, seed + 1)
        rho = random_density(d_s, seed + 2).data
        want = u @ kron(rho, np.outer(psi, psi.conj())) @ u.conj().T
        tau = Channel.from_stinespring(psi, u).dilation_state(rho)
        assert tau.layout.factors == (("S", d_s), ("E", d_e))
        assert np.abs(tau.data - want).max() < 1e-12

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

    def test_kraus_family_root(self):
        # amplitude damping: T(pi) = diag(1 + g, 1 - g)/2 and the
        # complementary output diag(2 - g, g)/2 have equal entropy at g = 1/2
        def damping(g):
            return Channel.from_kraus([[[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]],
                                       [[0.0, np.sqrt(g)], [0.0, 0.0]]])

        assert abs(iid_threshold(damping) - 0.5) < 1e-6

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            iid_threshold(depolarizing, 0.0, 0.05)

    @pytest.mark.parametrize("lo, hi", [(0.3, 0.1), (0.2, 0.2)])
    def test_reversed_bracket_raises(self, lo, hi):
        # [0.3, 0.1] used to bisect to 0.2 although the root is 0.189290
        with pytest.raises(ValueError, match="lo < hi"):
            iid_threshold(depolarizing, lo, hi)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing(1.2)
