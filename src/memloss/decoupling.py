"""Monte-Carlo harness for the decoupling analysis of a channel.

Checks three things about a channel T with Choi state tau on [A', B]:

* the Haar-average of ``||T(phi) - T(pi)||_1`` stays below
  ``2^{-H_min(A'|B)/2}``,
* concentration of individual samples around that average (only meaningful
  at large input dimension, where the tail bound is nonvacuous),
* the converse condition under which *no* fixed output state can be close
  to all channel outputs on average.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel
from .entropy import SDP_MAX_DIM, chain_bounds, h_max_smooth, h_min_cond, h_min_smooth
from .linalg import haar_state, maximally_mixed, trace_distance


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # one independent stream per sample index, so a sample does not depend
    # on which other samples are drawn
    return np.random.default_rng([seed, index])


def _haar_inputs(d: int, seed: int, indices) -> np.ndarray:
    """Amplitudes of the Haar-random pure input drawn for each index, one row
    per index."""
    return np.array([haar_state(d, _sample_rng(seed, i)).amplitudes
                     for i in indices], dtype=complex).reshape(-1, d)


def _outputs(ch: Channel, vecs):
    """``T(|v><v|) = sum_k (K_k v)(K_k v)^dag`` for each input vector, lazily.

    ``y = K v`` stacks the r vectors ``K_k v`` as rows, so an output costs one
    batched matrix-vector product and one ``y^T y*``.  The inputs are
    normalized by construction, so no DensityMatrix check.
    """
    for v in vecs:
        y = ch.kraus @ v
        yield y.T @ y.conj()


def avg_output_distance(ch: Channel, n_samples: int, seed: int):
    """Haar-average of ``||T(phi) - T(pi)||_1`` over pure inputs.

    Returns ``(mean, std, samples)``; deterministic for a given seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    d = ch.input_dim
    ref = ch.apply(maximally_mixed(d))
    samples = np.fromiter(
        (trace_distance(out, ref)
         for out in _outputs(ch, _haar_inputs(d, seed, range(n_samples)))),
        dtype=float, count=n_samples)
    return float(samples.mean()), float(samples.std(ddof=1) if n_samples > 1 else 0.0), samples


@dataclass
class DecouplingBound:
    sdp_bits: float      # H_min(A'|B) of the Choi state
    sdp_bound: float     # 2^{-sdp_bits/2}
    chain_bits: float    # best chain-rule lower bound on H_min(A'|B)
    chain_bound: float   # 2^{-chain_bits/2} (weaker, for comparison)


def decoupling_bound(ch: Channel, eps: float = 0.0) -> DecouplingBound:
    """Average-distance bound ``2^{-H_min(A'|B)/2}`` from the Choi state.

    At ``eps = 0`` the bound is sound as stated (the smoothed entropy is at
    least the unsmoothed one, and the additive error term vanishes).  The
    chain-rule variant replaces the conditional entropy with the best of the
    subtraction bounds and is strictly weaker.
    """
    # checked before the Choi state is built: it is dense in (d_A d_B)^2
    n = ch.input_dim * ch.output_dim
    if n > SDP_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds solver envelope {SDP_MAX_DIM}")
    choi = ch.choi().state
    bits = h_min_cond(choi, eps=eps)
    b1, b2 = chain_bounds(choi, eps)
    chain_bits = max(b1, b2)
    return DecouplingBound(
        sdp_bits=bits, sdp_bound=float(2.0 ** (-0.5 * bits)),
        chain_bits=chain_bits, chain_bound=float(2.0 ** (-0.5 * chain_bits)))


@dataclass
class ConcentrationResult:
    delta: float
    tail_fraction: float
    tail_bound: float
    vacuous: bool       # bound >= 1: no assertion possible at this dimension
    passed: bool | None  # None when vacuous (check skipped)


def concentration_check(samples, bound: float, delta: float,
                        d_a: int) -> ConcentrationResult:
    """Fraction of samples exceeding ``bound + delta`` vs ``2 e^{-d_A delta^2/16}``.

    The theoretical tail is only meaningful when it is below 1; otherwise the
    check is reported as vacuous and skipped, which is the expected outcome
    at small input dimension.
    """
    samples = np.asarray(samples, dtype=float)
    tail_fraction = float((samples > bound + delta).mean())
    tail_bound = float(2.0 * np.exp(-d_a * delta * delta / 16.0))
    vacuous = tail_bound >= 1.0
    passed = None if vacuous else bool(tail_fraction <= tail_bound)
    return ConcentrationResult(delta=delta, tail_fraction=tail_fraction,
                               tail_bound=tail_bound, vacuous=vacuous,
                               passed=passed)


@dataclass
class ConverseResult:
    fires: bool
    h_max_joint: float       # smoothed max-entropy of the Choi state
    h_min_output: float      # smoothed min-entropy of the B marginal
    lhs: float               # h_max_joint + both logarithmic penalty terms
    penalty_smoothing: float  # log2 1/(1 - (sqrt(2 delta) + 4 eps)^2)
    penalty_eps: float        # log2 2/eps^2
    trial_min_avg: float | None  # min over trial omega_B of avg distance
    empirical_ok: bool | None    # trial_min_avg > delta/2 (None if not fired)


def converse_check(ch: Channel, eps: float, delta: float,
                   n_samples: int = 50, seed: int = 0,
                   trial_random_inputs: int = 10) -> ConverseResult:
    """Condition under which no fixed output state is delta/2-close on average.

    Fires when ``H_max^eps(A'B) + log2 1/(1-(sqrt(2 delta)+4 eps)^2)
    + log2 2/eps^2 < H_min^eps(B)``, evaluated with the sound one-sided
    smoothing bounds.  When it fires, a finite trial set of candidate output
    states (the channel's average output, the outputs of a few random pure
    inputs, and the flat state) is checked empirically; the theorem covers
    all candidates, the trial set is a spot check.
    """
    if eps <= 0.0 or delta <= 0.0:
        raise ValueError("eps and delta must be positive")
    shift = np.sqrt(2.0 * delta) + 4.0 * eps
    if shift >= 1.0:
        raise ValueError("sqrt(2 delta) + 4 eps must be below 1")
    joint, marg_b = ch.choi_spectra()
    h_max_joint = h_max_smooth(joint, eps)
    h_min_output = h_min_smooth(marg_b, eps)
    penalty_smoothing = float(np.log2(1.0 / (1.0 - shift * shift)))
    penalty_eps = float(np.log2(2.0 / (eps * eps)))
    lhs = h_max_joint + penalty_smoothing + penalty_eps
    fires = lhs < h_min_output
    trial_min_avg = None
    empirical_ok = None
    if fires:
        trial_min_avg = _trial_min_average(ch, n_samples, seed, trial_random_inputs)
        empirical_ok = trial_min_avg > delta / 2.0
    return ConverseResult(fires=fires, h_max_joint=h_max_joint,
                          h_min_output=h_min_output, lhs=lhs,
                          penalty_smoothing=penalty_smoothing,
                          penalty_eps=penalty_eps,
                          trial_min_avg=trial_min_avg, empirical_ok=empirical_ok)


def _trial_min_average(ch: Channel, n_samples: int, seed: int,
                       trial_random_inputs: int) -> float:
    d_in, d_out = ch.input_dim, ch.output_dim
    trial_vecs = _haar_inputs(d_in, seed, range(10_000, 10_000 + trial_random_inputs))
    vecs = _haar_inputs(d_in, seed, range(n_samples))
    if len(ch.kraus) == 1:
        # K is an isometry: outputs of pure inputs are pure, at distance
        # 2 sqrt(1 - |<w, v>|^2), and at 2(1 - 1/n) from a flat state of rank
        # n holding them: the average output (n = d_in) and the flat state
        ov = np.abs(trial_vecs.conj() @ vecs.T) ** 2
        dists = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - ov))
        return float(min(2.0 * (1.0 - 1.0 / d_in), 2.0 * (1.0 - 1.0 / d_out),
                         *dists.mean(axis=1)))

    trials = [ch.apply(maximally_mixed(d_in)), maximally_mixed(d_out).data]
    trials += _outputs(ch, trial_vecs)
    outputs = list(_outputs(ch, vecs))
    averages = [float(np.mean([trace_distance(out, w) for out in outputs]))
                for w in trials]
    return float(min(averages))


def convexity_gap(ch: Channel, omega, n_samples: int, seed: int):
    """``(||T(pi) - omega||_1, Haar-average of ||T(phi) - omega||_1)``.

    The first entry never exceeds the second (convexity of the trace norm);
    exposed so the property can be tested on random channels and omegas.
    """
    d = ch.input_dim
    lhs = trace_distance(ch.apply(maximally_mixed(d)), omega)
    dists = [trace_distance(out, omega)
             for out in _outputs(ch, _haar_inputs(d, seed, range(n_samples)))]
    return lhs, float(np.mean(dists))


@dataclass
class DecouplingReport:
    n_samples: int
    empirical_mean: float
    empirical_std: float
    bound: float
    bound_bits: float
    chain_bound: float
    tail: dict = field(default_factory=dict)  # delta -> ConcentrationResult
    converse: ConverseResult | None = None
    seed: int = 0

    def to_json(self) -> str:
        obj = {
            "n_samples": self.n_samples,
            "empirical_mean": self.empirical_mean,
            "empirical_std": self.empirical_std,
            "bound": self.bound,
            "bound_bits": self.bound_bits,
            "chain_bound": self.chain_bound,
            "tail": {str(d): {"tail_fraction": r.tail_fraction,
                              "tail_bound": r.tail_bound,
                              "vacuous": r.vacuous,
                              "passed": r.passed}
                     for d, r in self.tail.items()},
            "converse_holds": None if self.converse is None else self.converse.fires,
            "seed": self.seed,
        }
        return json.dumps(obj, indent=2, sort_keys=True)


def decoupling_report(ch: Channel, n_samples: int = 200, seed: int = 0,
                      deltas=(0.5,), eps: float = 0.0) -> DecouplingReport:
    """End-to-end report: empirical average, entropic bound, tail checks."""
    bounds = decoupling_bound(ch, eps=eps)
    mean, std, samples = avg_output_distance(ch, n_samples, seed)
    tail = {float(d): concentration_check(samples, bounds.sdp_bound, float(d),
                                          ch.input_dim)
            for d in deltas}
    return DecouplingReport(n_samples=n_samples, empirical_mean=mean,
                            empirical_std=std, bound=bounds.sdp_bound,
                            bound_bits=bounds.sdp_bits,
                            chain_bound=bounds.chain_bound,
                            tail=tail, converse=None, seed=seed)
