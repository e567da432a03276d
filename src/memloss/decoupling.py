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
from .entropy import (check_sdp_envelope, chain_bounds, h_max_smooth, h_min_cond,
                      h_min_smooth)
from .linalg import (SECULAR_BLOCK, _trace_distances, as_matrix, check_draws,
                     indexed_haar_states, secular_path, trace_distance)


def _factors(kraus: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Factors ``y = [K_1 v, ..., K_r v]`` of the outputs
    ``T(|v><v|) = y y^dag``, as an (n, d_out, r) array for n input vectors.

    Each ``K_k v`` is its own matrix-vector product, so a slice depends on
    its input alone, bit for bit, and not on how many inputs are stacked (one
    matrix product over all inputs would not).  The inputs are normalized by
    construction, so no DensityMatrix check.
    """
    y = kraus @ vecs[:, None, :, None]
    return y[..., 0].transpose(0, 2, 1)


def _distances(ch: Channel, vecs: np.ndarray, sigma) -> np.ndarray:
    """``||T(|v><v|) - sigma||_1`` for each input vector, by
    :func:`trace_distances` on the outputs' factors.

    The factors are built for ``max(SECULAR_BLOCK / (d_out r), d_out)``
    inputs at a time, so those of a high-rank channel (r > d_out, larger than
    its outputs) never all sit in memory.  Where :func:`trace_distances`
    takes its secular path, sigma is decomposed once here and every block
    reuses it.  The Kraus array is made C-ordered once, so the identity's
    strided view reaches the factors' products as a dense array.
    """
    kraus = np.ascontiguousarray(ch.kraus)
    r, d_out, _ = kraus.shape
    s = as_matrix(sigma)
    if s.shape != (d_out, d_out):
        raise ValueError(f"dimension mismatch: outputs of dimension {d_out} vs {s.shape}")
    size = max(SECULAR_BLOCK // (d_out * r), d_out)
    eig = np.linalg.eigh(s) if secular_path(d_out, r) else None
    return np.concatenate([_trace_distances(_factors(kraus, vecs[lo:lo + size]), s, eig)
                           for lo in range(0, len(vecs), size)])


def avg_output_distance(ch: Channel, n_samples: int, seed: int):
    """Haar-average of ``||T(phi) - T(pi)||_1`` over pure inputs.

    Returns ``(mean, std, samples)``; deterministic for a given seed.  The
    distances come from the outputs' factors by :func:`trace_distances`, so
    sample i depends on ``(seed, i)`` alone and a longer run starts with the
    samples of a shorter one.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    d = ch.input_dim
    check_draws(n_samples, d)
    ref = ch.apply(np.eye(d, dtype=complex) / d)
    samples = _distances(ch, indexed_haar_states(d, seed, range(n_samples)), ref)
    return float(samples.mean()), float(samples.std(ddof=1) if n_samples > 1 else 0.0), samples


@dataclass
class DecouplingBound:
    sdp_bits: float      # H_min(A'|B) of the Choi state
    sdp_bound: float     # 2^{-sdp_bits/2}
    chain_bits: float    # chain-rule lower bound on H_min(A'|B)
    chain_bound: float   # 2^{-chain_bits/2} (weaker, for comparison)


def decoupling_bound(ch: Channel) -> DecouplingBound:
    """Average-distance bound ``2^{-H_min(A'|B)/2}`` from the Choi state.

    The unsmoothed decoupling theorem (Dupuis, Berta, Wullschleger and
    Renner, arXiv:1012.6044): its smoothed form adds a term in eps that a
    smoothed entropy alone would leave out.  The chain-rule variant uses the
    lower bound ``H_min(A'B) - log2 d_B`` and is never tighter.
    """
    # checked before the Choi state is built: it is dense in (d_A d_B)^2
    check_sdp_envelope(ch.input_dim, ch.output_dim)
    choi = ch.choi().state
    bits = h_min_cond(choi)
    chain_bits = chain_bounds(choi)
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
    penalty_eps: float        # log2 2/eps^2 = 1 - 2 log2 eps
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
    if not (eps > 0.0 and delta > 0.0):
        raise ValueError("eps and delta must be positive")
    shift = np.sqrt(2.0 * delta) + 4.0 * eps
    if not shift < 1.0:
        raise ValueError("sqrt(2 delta) + 4 eps must be below 1")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    check_draws(n_samples, ch.input_dim)
    joint, marg_b = ch.choi_spectra()
    h_max_joint = h_max_smooth(joint, eps)
    h_min_output = h_min_smooth(marg_b, eps)
    penalty_smoothing = float(np.log2(1.0 / (1.0 - shift * shift)))
    # log2 2/eps^2 without eps^2, which is 0 below eps = 1e-162
    penalty_eps = float(1.0 - 2.0 * np.log2(eps))
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
    """Least sampled average of ``||T(phi) - omega||_1`` over the trial
    states: ``T(pi)``, the flat state and the outputs of random inputs, each
    compared with the sampled outputs' factors by :func:`trace_distances`."""
    d_in, d_out = ch.input_dim, ch.output_dim
    trial_vecs = indexed_haar_states(d_in, seed, range(10_000, 10_000 + trial_random_inputs))
    vecs = indexed_haar_states(d_in, seed, range(n_samples))
    if len(ch.kraus) == 1:
        # K is an isometry: outputs of pure inputs are pure, at distance
        # 2 sqrt(1 - |<w, v>|^2), and at 2(1 - 1/n) from a flat state of rank
        # n holding them: the average output (n = d_in) and the flat state
        ov = np.abs(trial_vecs.conj() @ vecs.T) ** 2
        dists = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - ov))
        return float(min(2.0 * (1.0 - 1.0 / d_in), 2.0 * (1.0 - 1.0 / d_out),
                         *dists.mean(axis=1)))

    trials = [ch.apply(np.eye(d_in, dtype=complex) / d_in),
              np.eye(d_out, dtype=complex) / d_out]
    trials += [y @ y.conj().T for y in _factors(ch.kraus, trial_vecs)]
    return float(min(_distances(ch, vecs, w).mean() for w in trials))


def convexity_gap(ch: Channel, omega, n_samples: int, seed: int):
    """``(||T(pi) - omega||_1, Haar-average of ||T(phi) - omega||_1)``.

    The first entry never exceeds the second (convexity of the trace norm);
    exposed so the property can be tested on random channels and omegas.
    """
    d = ch.input_dim
    lhs = trace_distance(ch.apply(np.eye(d, dtype=complex) / d), omega)
    dists = _distances(ch, indexed_haar_states(d, seed, range(n_samples)), omega)
    return lhs, float(dists.mean())


@dataclass
class DecouplingReport:
    n_samples: int
    empirical_mean: float
    empirical_std: float
    bound: float
    bound_bits: float
    chain_bound: float
    tail: dict = field(default_factory=dict)  # delta -> ConcentrationResult
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
            "seed": self.seed,
        }
        return json.dumps(obj, indent=2, sort_keys=True)


def decoupling_report(ch: Channel, n_samples: int = 200, seed: int = 0,
                      deltas=(0.5,)) -> DecouplingReport:
    """End-to-end report: empirical average, entropic bound, tail checks."""
    bounds = decoupling_bound(ch)
    mean, std, samples = avg_output_distance(ch, n_samples, seed)
    tail = {float(d): concentration_check(samples, bounds.sdp_bound, float(d),
                                          ch.input_dim)
            for d in deltas}
    return DecouplingReport(n_samples=n_samples, empirical_mean=mean,
                            empirical_std=std, bound=bounds.sdp_bound,
                            bound_bits=bounds.sdp_bits,
                            chain_bound=bounds.chain_bound,
                            tail=tail, seed=seed)
