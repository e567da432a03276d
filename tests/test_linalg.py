import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memloss.linalg import (
    DensityMatrix,
    Evolver,
    SubsystemLayout,
    chebyshev_coefficients,
    fidelity,
    haar_state,
    haar_unitary,
    hermiticity_deviation,
    kron,
    max_entangled,
    maximally_mixed,
    partial_trace,
    purified_distance,
    random_density,
    trace_distance,
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
        assert np.abs(ev.unitary(0.9) - expm(-0.9j * h.toarray())).max() < 1e-12

    def test_subnormal_hamiltonian_takes_one_term(self):
        # a z = a dt below 1e-16 gives the single term cos z = 1, with no 1/a
        from scipy import sparse
        h = sparse.csr_array(np.array([[0.0, 5e-324], [5e-324, 0.0]]))
        x0 = np.eye(2, dtype=complex)[:, :1]
        y = Evolver(h).apply(x0, 1.0)
        assert y is not x0 and np.array_equal(y, x0)

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
