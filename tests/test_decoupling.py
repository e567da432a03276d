import json

import numpy as np
import pytest

from memloss import decoupling
from memloss.channels import Channel, depolarizing
from memloss.decoupling import (
    avg_output_distance,
    concentration_check,
    converse_check,
    convexity_gap,
    decoupling_bound,
    decoupling_report,
)
from memloss.entropy import h_max_smooth, h_min_smooth
from memloss.linalg import (
    PAULI,
    DensityMatrix,
    haar_state,
    haar_unitary,
    maximally_mixed,
    random_density,
    trace_norm,
)


def full_depolarizing():
    return Channel.from_kraus([0.5 * s for s in PAULI])


class TestAverageDistance:
    def test_identity_qubit_constant(self):
        mean, std, samples = avg_output_distance(Channel.identity(2), 40, 0)
        # every pure qubit state sits at trace distance 1 from the flat state
        assert np.allclose(samples, 1.0, atol=1e-10)
        assert abs(mean - 1.0) < 1e-10 and std < 1e-10

    def test_full_depolarizing_collapses(self):
        mean, _, samples = avg_output_distance(full_depolarizing(), 20, 1)
        assert mean < 1e-12
        assert samples.max(initial=0.0) < 1e-12

    def test_partial_depolarizing_exact(self):
        mean, std, _ = avg_output_distance(depolarizing(0.3), 25, 2)
        assert abs(mean - 0.6) < 1e-12
        assert std < 1e-12

    def test_same_seed_same_samples(self):
        ch = depolarizing(0.17)
        _, _, first = avg_output_distance(ch, 16, 5)
        _, _, again = avg_output_distance(ch, 16, 5)
        assert np.array_equal(first, again)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            avg_output_distance(Channel.identity(2), 0, 0)

    def test_samples_match_density_matrix_path(self, monkeypatch):
        # the outputs K v of each sampled input and their eigvalsh distances
        # agree, to rounding, with Channel.apply on its validated
        # DensityMatrix and the SVD trace norm, in all three Monte-Carlo
        # consumers
        d, n, trials, seed = 8, 12, 3, 3
        ch = Channel.from_kraus([np.sqrt(0.6) * haar_unitary(d, 1),
                                 np.sqrt(0.4) * haar_unitary(d, 2)])
        omega = random_density(d, 4).data

        def outputs(indices):
            return [ch.apply(haar_state(d, decoupling._sample_rng(seed, i)).density())
                    for i in indices]

        outs = outputs(range(n))
        ref = ch.apply(maximally_mixed(d))
        want = [trace_norm(out - ref) for out in outs]
        want_gap = float(np.mean([trace_norm(out - omega) for out in outs]))
        candidates = [ref, maximally_mixed(d).data] + outputs(range(10_000, 10_000 + trials))
        want_trial = min(float(np.mean([trace_norm(out - w) for out in outs]))
                         for w in candidates)

        validations = []
        post_init = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__",
                            lambda self: validations.append(1) or post_init(self))
        _, _, samples = avg_output_distance(ch, n, seed)
        assert np.abs(samples - want).max() < 1e-12
        assert len(validations) == 1  # the flat reference input only
        validations.clear()
        assert abs(convexity_gap(ch, omega, n, seed)[1] - want_gap) < 1e-12
        assert len(validations) == 1
        # no channel small enough for a dense Choi state fires the converse;
        # force it, to reach the sampled trial check
        monkeypatch.setattr(decoupling, "h_max_smooth", lambda lam, eps: -np.inf)
        validations.clear()
        res = converse_check(ch, 0.05, 0.001, n_samples=n, seed=seed,
                             trial_random_inputs=trials)
        assert res.fires and abs(res.trial_min_avg - want_trial) < 1e-12
        # the two flat trial states only: the spectra come from the Kraus
        # operators, so no Choi state or B marginal is built
        assert len(validations) == 2


class TestBound:
    def test_identity_qubit_values(self):
        b = decoupling_bound(Channel.identity(2))
        assert abs(b.sdp_bits + 1.0) < 1e-6
        assert abs(b.sdp_bound - np.sqrt(2.0)) < 1e-6
        assert b.chain_bound >= b.sdp_bound - 1e-6

    def test_full_depolarizing_values(self):
        b = decoupling_bound(full_depolarizing())
        assert abs(b.sdp_bits - 1.0) < 1e-6
        assert abs(b.sdp_bound - 2.0 ** -0.5) < 1e-6

    def test_bound_dominates_average(self):
        rng = np.random.default_rng(60)
        for _ in range(4):
            env = haar_state(3, rng)
            ch = Channel.from_stinespring(env, haar_unitary(12, rng))
            mean, _, _ = avg_output_distance(ch, 60, 3)
            b = decoupling_bound(ch)
            assert mean <= b.sdp_bound + 1e-9
            assert b.sdp_bound <= b.chain_bound + 0.02


class TestConcentration:
    def test_tail_bound_arithmetic(self):
        res = concentration_check(np.zeros(10), 0.5, 0.5, 256)
        assert abs(res.tail_bound - 2.0 * np.exp(-4.0)) < 1e-12
        assert not res.vacuous
        assert res.passed is True
        assert res.tail_fraction == 0.0

    def test_small_dimension_is_vacuous(self):
        res = concentration_check(np.full(10, 5.0), 0.0, 0.5, 16)
        assert res.vacuous
        assert res.passed is None
        assert res.tail_fraction == 1.0

    def test_fraction_counts_exceedances(self):
        samples = np.array([0.1, 0.2, 0.9, 1.0])
        res = concentration_check(samples, 0.3, 0.5, 4096)
        assert abs(res.tail_fraction - 0.5) < 1e-12


class TestConverse:
    def test_parameter_validation(self):
        ch = Channel.identity(4)
        with pytest.raises(ValueError):
            converse_check(ch, 0.0, 0.1)
        with pytest.raises(ValueError):
            converse_check(ch, 0.2, 0.5)  # sqrt(2 delta) + 4 eps >= 1

    def test_identity_fires_at_large_dimension(self):
        res = converse_check(Channel.identity(1024), 0.05, 0.001,
                             n_samples=20, seed=0, trial_random_inputs=4)
        assert res.fires
        assert abs(res.h_max_joint) < 1e-12
        assert res.h_min_output > 10.0
        assert res.lhs < res.h_min_output
        assert res.trial_min_avg > res.h_max_joint + 1.9
        assert res.empirical_ok

    def test_identity_trials_match_sampled_overlaps(self):
        d, n, trials, seed = 1024, 20, 4, 2

        def vec(i):
            return haar_state(d, decoupling._sample_rng(seed, i)).amplitudes

        averages = [2.0 * (1.0 - 1.0 / d)]
        for j in range(trials):
            w = vec(10_000 + j)
            averages.append(float(np.mean(
                [2.0 * np.sqrt(max(0.0, 1.0 - abs(np.vdot(w, vec(i))) ** 2))
                 for i in range(n)])))
        res = converse_check(Channel.identity(d), 0.05, 0.001, n_samples=n,
                             seed=seed, trial_random_inputs=trials)
        assert res.trial_min_avg == min(averages)

    @pytest.mark.parametrize("d, n, trials", [(2, 1, 10), (3, 2, 50)])
    def test_single_kraus_overlaps_match_loop(self, d, n, trials):
        # the overlap product against the vdot loop over (trial, sample)
        # pairs, in cases that a trial output wins
        seed = 6
        vecs = decoupling._haar_inputs(d, seed, range(n))
        averages = [2.0 * (1.0 - 1.0 / d)]
        for w in decoupling._haar_inputs(d, seed, range(10_000, 10_000 + trials)):
            averages.append(float(np.mean(
                [2.0 * np.sqrt(max(0.0, 1.0 - abs(np.vdot(w, v)) ** 2)) for v in vecs])))
        ch = Channel.from_kraus([haar_unitary(d, 13)])
        got = decoupling._trial_min_average(ch, n, seed, trials)
        assert abs(got - min(averages)) < 1e-12
        assert got < averages[0] - 0.1

    def test_identity_too_small_to_fire(self):
        res = converse_check(Channel.identity(64), 0.05, 0.001)
        assert not res.fires
        assert res.trial_min_avg is None and res.empirical_ok is None

    @pytest.mark.parametrize("n, trials", [(1, 20), (30, 3)])
    def test_single_kraus_trials_match_dense(self, n, trials):
        # an isometry into a larger space takes the closed form; the same
        # channel written with two Kraus operators takes the dense path
        d_in, seed = 2, 4
        k = haar_unitary(5, 9)[:, :d_in]  # an isometry C^2 -> C^5
        closed = decoupling._trial_min_average(Channel.from_kraus([k]), n, seed,
                                               trials)
        dense = decoupling._trial_min_average(
            Channel.from_kraus([k / np.sqrt(2), k / np.sqrt(2)]), n, seed, trials)
        assert abs(closed - dense) < 1e-12
        # the first case is won by a trial output, the second by T(pi)
        if n == 1:
            assert closed < 2.0 * (1.0 - 1.0 / d_in) - 0.1
        else:
            assert closed == 2.0 * (1.0 - 1.0 / d_in)

    def test_spectra_without_choi_state(self, monkeypatch):
        # d = 64, r = 4: the Choi state would be 4096 x 4096
        def forbidden(self):
            raise AssertionError("built the Choi state")

        monkeypatch.setattr(Channel, "choi", forbidden)
        d, eps = 64, 0.05
        # K_k = (I (x) <k|) V for an isometry V: C^d -> C^d (x) C^4
        v = haar_unitary(4 * d, 11)[:, :d].reshape(d, 4, d)
        ch = Channel.from_kraus(v.transpose(1, 0, 2))
        res = converse_check(ch, eps, 0.001)
        out = sum(k @ k.conj().T for k in ch.kraus) / d
        assert abs(res.h_min_output - h_min_smooth(np.linalg.eigvalsh(out), eps)) < 1e-12
        # J's nonzero spectrum: squared singular values of the vec(K_k)/sqrt(d)
        vecs = np.array([k.T.reshape(-1) for k in ch.kraus]) / np.sqrt(d)
        sv = np.linalg.svd(vecs, compute_uv=False) ** 2
        assert abs(res.h_max_joint - h_max_smooth(sv, eps)) < 1e-12

    def test_full_depolarizing_never_fires(self):
        ch = full_depolarizing()
        for eps in (0.02, 0.05, 0.1):
            for delta in (0.001, 0.01, 0.05):
                assert not converse_check(ch, eps, delta).fires

    def test_penalty_terms(self):
        res = converse_check(Channel.identity(1024), 0.05, 0.001, n_samples=5,
                             trial_random_inputs=1)
        shift = np.sqrt(0.002) + 0.2
        assert abs(res.penalty_smoothing - np.log2(1 / (1 - shift**2))) < 1e-12
        assert abs(res.penalty_eps - np.log2(2 / 0.05**2)) < 1e-12


class TestConvexity:
    def test_average_dominates_center(self):
        rng = np.random.default_rng(61)
        for _ in range(3):
            env = haar_state(2, rng)
            ch = Channel.from_stinespring(env, haar_unitary(6, rng))
            omega = random_density(3, rng).data
            lhs, avg = convexity_gap(ch, omega, 40, 7)
            assert lhs <= avg + 1e-10


class TestReport:
    def test_end_to_end_identity(self):
        rep = decoupling_report(Channel.identity(2), n_samples=30, seed=0,
                                deltas=(0.5,))
        assert abs(rep.empirical_mean - 1.0) < 1e-10
        assert abs(rep.bound - np.sqrt(2.0)) < 1e-6
        assert rep.empirical_mean <= rep.bound
        assert rep.tail[0.5].vacuous

    def test_json_round_trip(self):
        rep = decoupling_report(depolarizing(0.3), n_samples=10, seed=1,
                                deltas=(0.25, 0.5))
        obj = json.loads(rep.to_json())
        assert obj["n_samples"] == 10
        assert abs(obj["empirical_mean"] - 0.6) < 1e-12
        assert set(obj["tail"]) == {"0.25", "0.5"}
        assert obj["converse_holds"] is None

    def test_deterministic_repeat(self):
        a = decoupling_report(depolarizing(0.1), n_samples=12, seed=9)
        b = decoupling_report(depolarizing(0.1), n_samples=12, seed=9)
        assert a.to_json() == b.to_json()
