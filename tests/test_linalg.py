import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import zherk

from memloss import linalg
from memloss.linalg import (
    DensityMatrix,
    Evolver,
    SubsystemLayout,
    chebyshev_coefficients,
    fidelity,
    haar_state,
    haar_states,
    haar_unitary,
    hermiticity_deviation,
    isometry_deviation,
    kron,
    max_entangled,
    maximally_mixed,
    partial_trace,
    purified_distance,
    random_density,
    trace_distance,
    trace_distances,
    trace_norm,
)


class TestLayout:
    def test_basic(self):
        lay = SubsystemLayout.of(("S", 4), ("E", 16))
        assert lay.dim == 64
        assert lay.names == ("S", "E")
        assert lay.dim_of("E") == 16

    def test_restrict_keeps_order(self):
        lay = SubsystemLayout.of(("A", 2), ("B", 3), ("C", 5))
        assert lay.restrict({"C", "A"}).names == ("A", "C")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SubsystemLayout.of(("A", 2), ("A", 3))


class TestStates:
    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix.single(np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix.single(np.diag([1.5, 0.5]))

    def test_subnormalized_allowed(self):
        dm = DensityMatrix.single(np.diag([0.4, 0.3]))
        assert abs(dm.trace - 0.7) < 1e-12

    def test_spectrum_descending(self):
        dm = DensityMatrix.single(np.diag([0.1, 0.6, 0.3]))
        assert np.allclose(dm.spectrum(), [0.6, 0.3, 0.1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(1, d), st.integers(0, 2**32 - 1), st.booleans())))
    def test_spectrum_kept_from_validation(self, case):
        # the eigenvalues of the construction's check, bit for bit what an
        # eigvalsh of the data gives, and a copy each call; low ranks have
        # eigenvalues at rounding level on both sides of zero
        d, rank, seed, marginal = case
        dm = random_density(d, seed, rank=rank)
        if marginal and d % 2 == 0:
            dm = DensityMatrix(dm.data, SubsystemLayout.of(("A", 2), ("B", d // 2)))
            dm = dm.marginal("B")
        expected = np.clip(np.linalg.eigvalsh(dm.data)[::-1], 0.0, None)
        got = dm.spectrum()
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        got[:] = -1.0
        assert dm.spectrum().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", [
        lambda a: DensityMatrix.single(a),
        lambda a: DensityMatrix(a, SubsystemLayout.of(("A", 2), ("B", 2))),
        lambda a: DensityMatrix.single(a[:, :]),
    ])
    def test_data_cannot_be_written_past_the_spectrum(self, make):
        # the state neither shares the caller's array nor lets its own data
        # be written, so data and the kept spectrum cannot disagree
        a = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        dm = make(a)
        a[:] = np.diag([0.7, 0.1, 0.1, 0.1])
        assert np.array_equal(dm.data, np.diag([0.4, 0.3, 0.2, 0.1]))
        assert np.allclose(dm.spectrum(), [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError):
            dm.data[0, 0] = 1.0
        assert np.allclose(dm.spectrum(), np.linalg.eigvalsh(dm.data)[::-1])


class TestPartialTrace:
    def test_product_state(self):
        a = random_density(2, 0, name="A")
        b = random_density(3, 1, name="B")
        joint = DensityMatrix(np.kron(a.data, b.data),
                              SubsystemLayout.of(("A", 2), ("B", 3)))
        assert np.allclose(joint.marginal("A").data, a.data)
        assert np.allclose(joint.marginal("B").data, b.data)

    def test_max_entangled_marginals_flat(self):
        psi = max_entangled(3)
        assert np.allclose(psi.marginal("A").data, np.eye(3) / 3)

    def test_three_factor(self):
        rng = np.random.default_rng(0)
        dims = (2, 3, 2)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m = g @ g.conj().T
        m /= m.trace().real
        lay = SubsystemLayout.of(("A", 2), ("B", 3), ("C", 2))
        dm = DensityMatrix(m, lay)
        # oracle: einsum over the explicit tensor legs
        t = m.reshape(dims + dims)
        want = np.einsum("abcade->bcde", t).reshape(6, 6)
        got = partial_trace(dm, {"B", "C"})
        assert np.allclose(got.data, want)
        assert got.layout.names == ("B", "C")


class TestEvolution:
    def test_unitary_matches_expm(self):
        from scipy.linalg import expm
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (g + g.conj().T) / 2
        assert np.allclose(Evolver(h).unitary(0.7), expm(-1j * 0.7 * h), atol=1e-10)

    def test_evolver_composition(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ev = Evolver((g + g.conj().T) / 2)
        assert np.allclose(ev.unitary(1.0) @ ev.unitary(2.0), ev.unitary(3.0))
        assert np.allclose(ev.unitary(0.0), np.eye(4))

    def test_sparse_path_steps_along_times(self):
        from scipy import sparse
        from scipy.linalg import expm
        rng = np.random.default_rng(5)
        g = sparse.random_array((16, 16), density=0.2, rng=rng, dtype=complex)
        g = g + 1j * sparse.random_array((16, 16), density=0.2, rng=rng)
        h = (g + g.conj().T) / 2
        ev = Evolver(h)
        assert ev.eigenvectors is None
        x0 = np.linalg.qr(rng.standard_normal((16, 3)))[0].astype(complex)
        times = [0.0, 1.3, 0.4, 0.4, 2.0, 0.0]
        for t, y in zip(times, ev.evolve(x0, times)):
            assert np.abs(y - expm(-1j * t * h.toarray()) @ x0).max() < 1e-12
        # t = 0 yields the columns as they are, not a rounded copy
        assert next(ev.evolve(x0, [0.0])) is x0
        assert ev.apply(x0, 0.0) is x0
        assert ev.apply(x0[:, :0], 1.0).shape == (16, 0)
        assert np.abs(ev.unitary(0.9) - expm(-0.9j * h.toarray())).max() < 1e-12

    def test_subnormal_hamiltonian_takes_one_term(self):
        # a z = a dt below 1e-16 gives the single term cos z = 1, with no 1/a
        from scipy import sparse
        h = sparse.csr_array(np.array([[0.0, 5e-324], [5e-324, 0.0]]))
        x0 = np.eye(2, dtype=complex)[:, :1]
        y = Evolver(h).apply(x0, 1.0)
        assert y is not x0 and np.array_equal(y, x0)

    @pytest.mark.parametrize("z", [2e5, -1e12, 1e300, np.inf, np.nan])
    def test_chebyshev_coefficients_refuse_long_series(self, z):
        # refused before the term count is searched, which at z = 1e12
        # would take about 1e12 loop steps
        with pytest.raises(ValueError, match="Chebyshev terms"):
            chebyshev_coefficients(z)

    def test_term_cap_refuses_exactly_the_longer_series(self, monkeypatch):
        zs = np.linspace(-60.0, 60.0, 601)
        sizes = [chebyshev_coefficients(z).size for z in zs]
        monkeypatch.setattr(linalg, "CHEBYSHEV_MAX_TERMS", 50)
        for z, size in zip(zs, sizes):
            if size > 50:
                with pytest.raises(ValueError):
                    chebyshev_coefficients(z)
            else:
                assert chebyshev_coefficients(z).size == size

    def test_window_ends_before_a_series_past_the_cap(self, monkeypatch):
        # each step of 1 fits under the cap, the offset 2 from t = 0 does
        # not: the window ends there and the next one starts from t = 1
        from scipy import sparse
        from scipy.linalg import expm
        rng = np.random.default_rng(6)
        g = sparse.random_array((16, 16), density=0.3, rng=rng)
        h = (g + g.T) / 2
        ev = Evolver(h)
        cap = chebyshev_coefficients(ev.radius).size
        assert chebyshev_coefficients(2 * ev.radius).size > cap
        monkeypatch.setattr(linalg, "CHEBYSHEV_MAX_TERMS", cap)
        x0 = np.linalg.qr(rng.standard_normal((16, 2)))[0].astype(complex)
        times = [0.0, 1.0, 2.0, 3.0, 2.0]
        for t, y in zip(times, ev.evolve(x0, times)):
            assert np.abs(y - expm(-1j * t * h.toarray()) @ x0).max() < 1e-12
        with pytest.raises(ValueError, match="Chebyshev terms"):
            ev.apply(x0, 2.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
    def test_sparse_path_takes_any_numeric_columns(self, dtype):
        from scipy import sparse
        from scipy.linalg import expm
        rng = np.random.default_rng(7)
        g = sparse.random_array((16, 16), density=0.3, rng=rng)
        x0 = 2 * np.eye(16, 3)
        if np.issubdtype(dtype, np.complexfloating):
            x0 = x0 + 1j * np.eye(16, 3, 1)
        x0 = x0.astype(dtype)
        times = [0.0, 0.5, 1.5]
        for h in ((g + g.T) / 2, (g + g.T) / 2 + 0.5j * (g - g.T)):
            ev = Evolver(h)
            ys = list(ev.evolve(x0, times))
            assert ys[0] is x0
            for t, y in zip(times[1:], ys[1:]):
                assert y.dtype == complex
                assert np.abs(y - expm(-1j * t * h.toarray()) @ x0).max() < 1e-12
            assert np.abs(ev.apply(x0, 0.5) - ys[1]).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_real_sparse_runs_as_its_complex_cast(self, dtype):
        # a real CSR is taken as it is, its complex cast by its real part:
        # the radius, 2H/a and every column agree bit for bit
        from scipy import sparse
        rng = np.random.default_rng(8)
        g = sparse.random_array((24, 24), density=0.3, rng=rng) * 10
        h = ((g + g.T) / 2).astype(dtype)
        real, cast = Evolver(h), Evolver(h.astype(complex))
        assert real.radius == cast.radius
        assert real.h2.dtype == cast.h2.dtype == np.float64
        assert real.h2.data.tobytes() == cast.h2.data.tobytes()
        x0 = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
        times = [0.5, 0.5, 2.0, 0.0]
        for a, b in zip(real.evolve(x0, times), cast.evolve(x0, times)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("z", [0.0, 1e-300, 1e-8, 0.3, 5.0, 14.5, 120.0, -7.5])
    def test_chebyshev_coefficients_are_bessel(self, z):
        from scipy.special import jv
        c = chebyshev_coefficients(z)
        k = np.arange(c.size)
        want = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, z)
        assert np.abs(c - want).max() < 1e-13
        assert (c.size == 1) == (abs(z) < 1e-16)
        # the terms left out sum to less than the stated 2e-16
        assert 2 * np.abs(jv(np.arange(c.size, c.size + 100), z)).sum() < 2e-16


class TestDistances:
    def test_trace_distance_diagonal(self):
        a = DensityMatrix.single(np.diag([1.0, 0.0]))
        b = DensityMatrix.single(np.diag([0.75, 0.25]))
        assert abs(trace_distance(a, b) - 0.5) < 1e-12

    def test_orthogonal_pure_states_at_two(self):
        a = DensityMatrix.single(np.diag([1.0, 0.0]))
        b = DensityMatrix.single(np.diag([0.0, 1.0]))
        assert abs(trace_distance(a, b) - 2.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64),
           st.integers(0, 2**32 - 1), st.booleans())
    @example(64, 1, 1, 0, False)
    @example(64, 64, 64, 1, True)
    @example(40, 3, 40, 2, False)
    def test_trace_distance_matches_svd(self, d, rank_a, rank_b, seed, same):
        # the eigvalsh of the Hermitian difference against the SVD oracle, on
        # full-rank, rank-deficient and identical pairs of states
        rng = np.random.default_rng(seed)
        a = random_density(d, rng, rank=min(rank_a, d))
        b = a if same else random_density(d, rng, rank=min(rank_b, d))
        dist = trace_distance(a, b)
        assert abs(dist - trace_norm(a.data - b.data)) < 1e-12
        if same:
            assert dist == 0.0

    def test_trace_norm_pure(self):
        v = haar_state(4, 0)
        assert abs(trace_norm(np.outer(v, v.conj())) - 1.0) < 1e-12

    def test_fidelity_pure_vs_mixed(self):
        ket0 = DensityMatrix.single(np.diag([1.0, 0.0]))
        assert abs(fidelity(ket0, maximally_mixed(2)) - 1 / np.sqrt(2)) < 1e-12

    def test_fidelity_pure_overlap(self):
        a = haar_state(3, 1)
        b = haar_state(3, 2)
        ov = abs(np.vdot(a, b))
        assert abs(fidelity(np.outer(a, a.conj()), np.outer(b, b.conj())) - ov) < 1e-10

    def test_purified_distance_scaling(self):
        # scaling a state down to (1 - eps^2) of its weight sits exactly at
        # purified distance eps
        rho = random_density(3, 5)
        eps = 0.25
        scaled = (1 - eps**2) * rho.data
        assert abs(purified_distance(rho.data, scaled) - eps) < 1e-10

    def test_fuchs_van_de_graaf(self):
        for seed in range(20):
            a = random_density(3, seed)
            b = random_density(3, 100 + seed)
            f = fidelity(a, b)
            td = trace_distance(a, b)
            assert 2 * (1 - f) - 1e-10 <= td <= 2 * np.sqrt(1 - f * f) + 1e-10


def _low_rank_case(d, r, sigma_kind, factor_kind, seed, n=6):
    """n factors y (d x r) and a state sigma, in the shapes the Monte-Carlo
    consumers meet: singular, flat and pure sigma; deficient factors; and
    factors whose positive eigenvalues in y y^dag - sigma are degenerate."""
    rng = np.random.default_rng(seed)
    k = max(1, d // 3)
    iso = haar_unitary(d, rng)[:, :k]
    if sigma_kind == "random":
        sigma = random_density(d, rng).data
    elif sigma_kind == "flat":
        sigma = np.eye(d, dtype=complex) / d
    elif sigma_kind == "pure":
        v = haar_state(d, rng)
        sigma = np.outer(v, v.conj())
    else:  # the average output of an isometry C^k -> C^d: flat on its range
        sigma = iso @ iso.conj().T / k
    g = rng.standard_normal((n, d, r)) + 1j * rng.standard_normal((n, d, r))
    if factor_kind == "deficient":
        g[:, :, -1] = 0.5 * g[:, :, 0]
        if r > 2:
            g[:, :, 1] = 0.0
    elif factor_kind == "degenerate":
        g = np.array([haar_unitary(d, rng)[:, :r] for _ in range(n)])
    elif factor_kind == "support":
        g = iso @ g[:, :k, :]
    ys = g / np.linalg.norm(g, axis=(1, 2))[:, None, None]
    return ys * rng.uniform(0.5, 1.0), sigma


def _dense(ys, sigma):
    return np.array([trace_distance(y @ y.conj().T, sigma) for y in ys])


class TestTraceDistances:
    """The secular path of :func:`trace_distances` against the dense
    :func:`trace_distance`, which stays its oracle."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 4),
           st.sampled_from(["random", "flat", "pure", "isometry"]),
           st.sampled_from(["random", "deficient", "degenerate", "support"]),
           st.integers(0, 2**32 - 1))
    @example(64, 4, "random", "random", 0)
    @example(64, 4, "isometry", "support", 1)
    @example(48, 1, "isometry", "support", 2)
    @example(64, 1, "pure", "random", 3)
    @example(40, 4, "flat", "degenerate", 4)
    @example(33, 4, "isometry", "degenerate", 5)
    @example(64, 3, "pure", "deficient", 6)
    @example(9, 2, "random", "deficient", 7)
    def test_matches_dense(self, d, r, sigma_kind, factor_kind, seed):
        r = min(r, d)
        ys, sigma = _low_rank_case(d, r, sigma_kind, factor_kind, seed)
        assert np.abs(trace_distances(ys, sigma) - _dense(ys, sigma)).max() < 1e-12

    def test_degenerate_positive_eigenvalues(self):
        # y y^dag = P / 4 for a rank-4 projector P and a flat sigma: A's four
        # positive eigenvalues all equal 1/4 - 1/64
        d, r = 64, 4
        ys = np.array([haar_unitary(d, s)[:, :r] / 2 for s in range(5)])
        got = trace_distances(ys, np.eye(d) / d)
        want = 2 * r * (1 / 4 - 1 / d)  # 2 sum l_+ - tr A, with tr A = 1 - 1
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("cap", [0, 1])
    def test_sweep_cap_falls_back_to_dense(self, monkeypatch, cap):
        # a sample whose roots are not found within the cap takes the dense
        # eigensolve: trace_distance's value bit for bit, and no unconverged
        # number
        ys, sigma = _low_rank_case(64, 4, "random", "random", 11, n=9)
        converged = trace_distances(ys, sigma)
        unconverged = []
        secular = linalg._secular_distances

        def recorded(g, t):
            dist, ok = secular(g, t)
            unconverged.extend(~ok)
            return dist, ok

        monkeypatch.setattr(linalg, "SECULAR_MAX_SWEEPS", cap)
        monkeypatch.setattr(linalg, "_secular_distances", recorded)
        capped = trace_distances(ys, sigma)
        assert len(unconverged) == len(ys) and all(unconverged)
        for got, y in zip(capped, ys):
            assert got == trace_distance(y @ y.conj().T, sigma)
        assert np.abs(capped - converged).max() < 1e-12

    def test_dense_path_for_high_rank_and_non_states(self, monkeypatch):
        # 2 r^2 >= d, or a sigma with a negative eigenvalue: no secular solve
        def forbidden(*args):
            raise AssertionError("took the secular path")

        monkeypatch.setattr(linalg, "_secular_distances", forbidden)
        ys, sigma = _low_rank_case(32, 4, "random", "random", 12)
        assert np.abs(trace_distances(ys, sigma) - _dense(ys, sigma)).max() < 1e-12
        ys, _ = _low_rank_case(64, 2, "random", "random", 13)
        sigma = np.diag(np.linspace(-0.1, 0.1, 64)).astype(complex)
        assert np.abs(trace_distances(ys, sigma) - _dense(ys, sigma)).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_distances(np.zeros((2, 4, 1)), np.eye(3) / 3)


class TestRandomStates:
    def test_haar_overlap_moment(self):
        # <|<0|phi>|^2> = 1/d for Haar states
        rng = np.random.default_rng(11)
        n = 100_000
        tot = 0.0
        for _ in range(n):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            tot += abs(v[0]) ** 2 / (abs(v[0]) ** 2 + abs(v[1]) ** 2)
        assert abs(tot / n - 0.5) < 0.005

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 64, 1024])
    def test_haar_states_match_one_vector_formula(self, d):
        # each row rounds as one vector normalized by np.linalg.norm and
        # phase-fixed alone, so the samples of earlier versions are kept
        def one(rng):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            v *= np.exp(-1j * np.angle(v[int(np.argmax(np.abs(v)))]))
            return v

        seeds = [[17, i] for i in range(300)]
        rows = haar_states(d, [np.random.default_rng(s) for s in seeds])
        want = np.array([one(np.random.default_rng(s)) for s in seeds])
        assert rows.tobytes() == want.tobytes()
        assert haar_states(d, []).shape == (0, d)

    def test_haar_state_deterministic(self):
        a = haar_state(5, 42)
        b = haar_state(5, 42)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1) < 1e-12

    def test_haar_unitary(self):
        u = haar_unitary(6, 3)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-10)

    def test_random_density_rank(self):
        dm = random_density(4, 0, rank=2)
        assert np.linalg.matrix_rank(dm.data, tol=1e-10) == 2


class TestEmbedding:
    def test_max_entangled_reorder(self):
        # |Phi><Phi| has entries 1/d at ((i, i), (j, j)) and zeros elsewhere
        rho = max_entangled(4).data.reshape(4, 4, 4, 4)
        assert np.allclose(np.einsum("iijj->ij", rho), np.full((4, 4), 0.25))
        assert abs(np.abs(rho).sum() - 4.0) < 1e-12

    def test_kron_vectors(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.allclose(kron(a, b), [0, 1, 0, 0])


def checked_inputs():
    """One accepted input of each constructor that reads a matrix, an isometry
    or a unit vector, as ``name: (build, array, what its check rejects)``."""
    from scipy import sparse

    from memloss.assignment import overlap_matrix
    from memloss.channels import Channel
    from memloss.dynamics import HamiltonianSpec

    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = g + g.conj().T
    u = haar_unitary(4, 1)
    env = haar_state(2, 2)
    phi = haar_state(2, 3)
    return {
        "density": (DensityMatrix.single, random_density(3, 4).data, "Hermitian"),
        "hamiltonian": (lambda m: HamiltonianSpec.explicit(m, 2, 2), h, "Hermitian"),
        "hamiltonian-sparse": (
            lambda m: HamiltonianSpec.explicit(sparse.csr_array(m), 2, 2), h, "Hermitian"),
        "omega_s": (lambda w: HamiltonianSpec.explicit(h, 2, 2, omega_s=w),
                    u[:2, :1] / np.linalg.norm(u[:2, 0]), "orthonormal"),
        "psi_e": (lambda v: HamiltonianSpec.explicit(h, 2, 2, psi_e=v), env, "normalized"),
        "phi_s": (lambda v: HamiltonianSpec.explicit(h, 2, 2, phi_s=v), phi, "normalized"),
        "kraus": (Channel.from_kraus, u[:, :2].reshape(2, 2, 2), "completeness"),
        "stinespring-env": (lambda v: Channel.from_stinespring(v, u), env, "normalized"),
        "stinespring-unitary": (lambda w: Channel.from_stinespring(env, w), u, "unitary"),
        "overlap-eigenvectors": (lambda w: overlap_matrix(w, phi), u, "orthonormal"),
        "overlap-phi": (lambda v: overlap_matrix(u, v), phi, "normalized"),
        "overlap-e_basis": (lambda w: overlap_matrix(u, phi, w), haar_unitary(2, 5),
                            "orthonormal"),
    }


class TestInputChecks:
    """The shared checks of :mod:`memloss.linalg` at every constructor."""

    def test_valid_inputs_accepted(self):
        for build, arr, _ in checked_inputs().values():
            build(arr)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(checked_inputs())),
           st.sampled_from([np.nan, np.inf, -np.inf]),
           st.booleans(), st.integers(0, 2**16))
    def test_one_nonfinite_entry_rejected(self, case, bad, imaginary, position):
        # a nan deviation passes ``deviation > tol``; every check is written
        # so that it fails instead, whatever the entry and wherever it sits,
        # and the check of that input fails first, not a later one
        build, arr, what = checked_inputs()[case]
        arr = np.array(arr, dtype=complex)
        flat = arr.reshape(-1)
        k = position % flat.size
        flat[k] = complex(flat[k].real, bad) if imaginary else complex(bad, flat[k].imag)
        with pytest.raises(ValueError, match=what):
            build(arr)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
           st.sampled_from([1e-12, 1.0, 1e6]))
    def test_hermiticity_deviation_dense_and_sparse(self, d, seed, density, scale):
        # one helper reads both matrix kinds; the sparse form stores only the
        # nonzeros, and both give the same number
        from scipy import sparse

        rng = np.random.default_rng(seed)
        g = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        g *= rng.random((d, d)) < density
        for m in (g, g + g.conj().T):
            dev = hermiticity_deviation(m)
            assert hermiticity_deviation(sparse.csr_array(m)) == dev
            want = np.abs(m - m.conj().T).max() / max(1.0, np.abs(m).max())
            assert abs(dev - want) <= 1e-15 * max(1.0, want)
        assert hermiticity_deviation(g + g.conj().T) == 0.0


def zherk_deviation(v):
    """``max |v^dag v - I|`` from one ``zherk`` triangle on every input: the
    reference that :func:`isometry_deviation` must match bit for bit."""
    g = zherk(1.0, v.T)
    g.flat[:: len(g) + 1] -= 1.0
    return float(np.abs(g).max())


def with_entry(v, i, j, x):
    v = v.copy()
    v[i, j] = x
    return v


class TestIsometryDeviation:
    """The deviation is ``zherk``'s product read off one triangle: the same
    float as the reference, nan where it gives nan, on exact identities,
    near-identities and non-finite entries."""

    eye = np.eye(4, dtype=complex)
    cases = {
        **{f"I{d}": np.eye(d, dtype=complex) for d in (1, 2, 5, 64)},
        "I-stacked-on-0": np.eye(7, 4, dtype=complex),
        "minus-I": -eye,
        "I-stacked-on-I": np.vstack([eye, eye]),
        "off-diagonal-1e-12": with_entry(eye, 0, 3, 1e-12),
        "diagonal-1+1e-10": with_entry(eye, 2, 2, 1 + 1e-10),
        "nan-on-diagonal": with_entry(eye, 1, 1, np.nan),
        "inf-on-diagonal": with_entry(eye, 3, 3, np.inf),
        "nan-off-diagonal": with_entry(eye, 2, 0, complex(0.0, np.nan)),
    }

    @pytest.mark.parametrize("case", sorted(cases))
    def test_matches_zherk_bit_for_bit(self, case):
        v = self.cases[case]
        # repr is exact for floats and reads nan as nan
        assert repr(isometry_deviation(v)) == repr(zherk_deviation(v))

    def test_nonfinite_is_rejected(self):
        # a non-finite entry reaches the product and fails every
        # ``deviation <= tol`` check
        for case in ("nan-on-diagonal", "inf-on-diagonal", "nan-off-diagonal"):
            assert not np.isfinite(isometry_deviation(self.cases[case]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_random_isometries(self, d, extra, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d + extra, d)) + 1j * rng.standard_normal((d + extra, d))
        v = np.ascontiguousarray(np.linalg.qr(g)[0])
        assert repr(isometry_deviation(v)) == repr(zherk_deviation(v))
