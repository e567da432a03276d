"""The benchmark's own tests: every output check passes on what memloss
produces for small inputs and fails on a corrupted copy of it.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import memloss  # noqa: E402
import memloss.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, metric_names  # noqa: E402

EPS, DELTA = workloads.EPS, workloads.DELTA
SHIFT = 1e-6  # bits


def shifted(rows, index, key, by=SHIFT):
    out = copy.deepcopy(rows)
    out[index][key] += by
    return out


def run_cli(tmp_path, command, **fields):
    out = str(tmp_path / f"{command}.out")
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(dict({"schema": 1, "output": out}, **fields)))
    assert memloss.cli.main([command, str(cfg)]) == 0
    return out


# -- chain-scan ---------------------------------------------------------------


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chain")
    n_sites, d_s, j, h = 5, 2, 0.9, 1.1
    times = [0.0, 0.4, 1.3]
    ham = {"kind": "spin_chain", "n_sites": n_sites, "s_sites": 1, "model": "tfi",
           "j": j, "h_field": h, "psi_e": [[1.0, 0.0]] + [[0.0, 0.0]] * 15}
    rows = {}
    for command in ("criteria-scan", "lightcone"):
        out = run_cli(tmp, command, hamiltonian=ham, times=times, epsilon=EPS)
        rows[command] = workloads._read_csv(out)
    spectra = [checks.chain_spectra(checks.tfi_hamiltonian(n_sites, j, h), d_s, t)
               for t in times]
    return rows["criteria-scan"], rows["lightcone"], times, spectra, d_s


def test_tfi_reference_matches_memloss_hamiltonian():
    spec = memloss.HamiltonianSpec.spin_chain(4, 1, "tfi", 0.9, 1.1)
    assert np.abs(spec.matrix - checks.tfi_hamiltonian(4, 0.9, 1.1)).max() < 1e-14


def test_chain_checks_pass_on_program_output(chain):
    criteria, lightcone, times, spectra, d_s = chain
    assert checks.check_criteria_scan(criteria, times, spectra, d_s, EPS) == []
    assert checks.check_lightcone(lightcone, times, spectra, d_s, EPS, criteria) == []


@pytest.mark.parametrize("index,key,by", [
    (0, "lhs_bits", SHIFT),        # t = 0: above the flat ceiling
    (1, "rhs_bits", 10.0),         # above h_max(E)
    (2, "lhs_bits", -10.0),        # below h_min(S)
    (1, "margin_bits", SHIFT),     # margin no longer lhs - rhs
])
def test_criteria_check_fails_on_corruption(chain, index, key, by):
    criteria, _, times, spectra, d_s = chain
    bad = shifted(criteria, index, key, by)
    assert checks.check_criteria_scan(bad, times, spectra, d_s, EPS)


def test_criteria_check_fails_on_wrong_verdict(chain):
    criteria, _, times, spectra, d_s = chain
    bad = copy.deepcopy(criteria)
    bad[0]["verdict"] = "inconclusive"
    assert checks.check_criteria_scan(bad, times, spectra, d_s, EPS)


@pytest.mark.parametrize("index,key,by", [
    (1, "h_max_env_bits", SHIFT),      # no longer the criteria scan's rhs
    (2, "h_max_env_bits", 10.0),       # above h_max(E)
    (0, "deficit_sys_bits", -SHIFT),   # below -gain at the flat t = 0 state
    (2, "deficit_sys_bits", 10.0),     # above log2 d_S - h_min(S)
])
def test_lightcone_check_fails_on_corruption(chain, index, key, by):
    criteria, lightcone, times, spectra, d_s = chain
    bad = shifted(lightcone, index, key, by)
    assert checks.check_lightcone(bad, times, spectra, d_s, EPS, criteria)


# -- iid-memory ---------------------------------------------------------------


@pytest.fixture(scope="module")
def iid():
    p, n_max = 0.7, 4
    tau = memloss.depolarizing(p).dilation_state(memloss.maximally_mixed(2))
    lam_s, lam_e = tau.marginal("S").spectrum(), tau.marginal("E").spectrum()
    values, traces, s_n, e_n = [], [], np.ones(1), np.ones(1)
    for _ in range(n_max):
        s_n, e_n = np.kron(s_n, lam_s), np.kron(e_n, lam_e)
        traces.append(float(np.sort(s_n)[::-1].sum()))
        values.append([memloss.h_min_smooth(s_n, EPS), memloss.h_max_smooth(s_n, EPS),
                       memloss.h_min_smooth(e_n, EPS), memloss.h_max_smooth(e_n, EPS)])
    return p, lam_s, lam_e, values, traces


def test_flat_closed_form_matches_program():
    for d in (2, 8, 64):
        assert abs(checks.flat_h_min_smooth(d, 1.0, EPS)
                   - memloss.h_min_smooth(np.full(d, 1.0 / d), EPS)) < 1e-12
    assert abs(checks.flat_h_min_smooth(4, 1.0, EPS) - 2.0 - checks.smoothing_gain(EPS)) < 1e-14


def test_iid_checks_pass_on_program_output(iid):
    p, lam_s, lam_e, values, traces = iid
    assert checks.check_single_copy(lam_s, lam_e, p) == []
    assert checks.check_iid(values, p, EPS, traces) == [[]] * len(values)


@pytest.mark.parametrize("n,col,by", [
    (2, 0, SHIFT),     # flat S^n away from its closed form
    (3, 1, 0.01),      # h_max(S^n) above n
    (1, 2, -0.5),      # h_min(E^n) below n H_min(E), and the step above log2 4
    (4, 2, 2.5),       # step above log2 4
    (3, 3, 1.0),       # h_max(E^n) above n H_max(E)
])
def test_iid_check_fails_on_corruption(iid, n, col, by):
    p, _, _, values, traces = iid
    bad = copy.deepcopy(values)
    bad[n - 1][col] += by
    assert any(checks.check_iid(bad, p, EPS, traces))


def test_single_copy_check_fails_on_wrong_spectrum(iid):
    p, lam_s, lam_e, _, _ = iid
    assert checks.check_single_copy(lam_s, lam_e, p + 1e-6)
    assert checks.check_single_copy(lam_s + [1e-6, -1e-6], lam_e, p)


# -- channel-bound ------------------------------------------------------------


def test_weyl_kraus_is_the_isotropic_depolarizer():
    d, q = 4, 0.6
    ch = memloss.Channel.from_kraus(checks.weyl_depolarizing_kraus(d, q))
    rho = memloss.random_density(d, seed=3).data
    assert np.abs(ch.apply(rho) - ((1 - q) * rho + q * np.eye(d) / d)).max() < 1e-12
    assert np.abs(checks.choi_matrix(ch.kraus) - ch.choi().state.data).max() < 1e-14


@pytest.fixture(scope="module")
def decoupling_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("decoupling")
    d, q, p = 3, 0.5, 0.3
    kraus = tmp / "wh.json"
    kraus.write_text(json.dumps([workloads._encode_matrix(k)
                                 for k in checks.weyl_depolarizing_kraus(d, q)]))
    rng = np.random.default_rng(5)
    random_kraus = workloads._stinespring_kraus(rng, 3, 2)
    rand = tmp / "random.json"
    rand.write_text(json.dumps([workloads._encode_matrix(k) for k in random_kraus]))
    reports = []
    for channel in (str(kraus), {"builtin": "depolarizing", "p": p}, str(rand)):
        out = run_cli(tmp, "decoupling", channel=channel, samples=40, seed=1)
        reports.append(workloads._read_json(out))
    expected = [checks.isotropic_h_min_bits(d, 1 - q + q / d ** 2),
                checks.isotropic_h_min_bits(2, 1 - p)]
    return reports, expected, checks.choi_bracket(random_kraus)


def test_decoupling_checks_pass_on_program_output(decoupling_reports):
    (wh, depol, rand), expected, bracket = decoupling_reports
    assert checks.check_decoupling(wh, expected_bits=expected[0]) == []
    assert checks.check_decoupling(depol, expected_bits=expected[1]) == []
    assert checks.check_decoupling(rand, bracket=bracket) == []
    assert bracket[0] < bracket[1]


@pytest.mark.parametrize("which,field,change", [
    (0, "bound_bits", lambda x: -x),              # wrong-sign SDP value
    (1, "bound_bits", lambda x: x + SHIFT * 10),  # off the closed form by 1e-5 bits
    (2, "bound_bits", lambda x: x - 1.0),         # outside the bracket
    (0, "bound", lambda x: x * (1 + 1e-9)),       # bound not 2^(-bits/2)
    (0, "empirical_mean", lambda x: 4.0),         # mean above the bound
])
def test_decoupling_check_fails_on_corruption(decoupling_reports, which, field, change):
    reports, expected, bracket = decoupling_reports
    bad = copy.deepcopy(reports[which])
    bad[field] = change(bad[field])
    kw = {"bracket": bracket} if which == 2 else {"expected_bits": expected[which]}
    assert checks.check_decoupling(bad, **kw)


@pytest.fixture(scope="module")
def converse_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("converse")
    d = 1024  # the smallest power of 2 at which the condition fires
    out = run_cli(tmp, "converse", channel={"builtin": "identity", "d": d},
                  epsilon=EPS, delta=DELTA, samples=10, seed=2)
    return workloads._read_json(out), d


def test_converse_check_passes_on_program_output(converse_result):
    result, d = converse_result
    assert result["fires"]
    assert checks.check_converse(result, d, EPS, DELTA, h_max_joint=0.0) == []


@pytest.mark.parametrize("field,value", [
    ("h_min_output", lambda r: r["h_min_output"] + SHIFT),
    ("h_max_joint", lambda r: SHIFT),
    ("lhs", lambda r: r["lhs"] - SHIFT),
    ("fires", lambda r: False),
    ("trial_min_avg", lambda r: 2.0),
    ("empirical_ok", lambda r: not r["empirical_ok"]),
])
def test_converse_check_fails_on_corruption(converse_result, field, value):
    result, d = converse_result
    bad = dict(result, **{field: value(result)})
    assert checks.check_converse(bad, d, EPS, DELTA, h_max_joint=0.0)


# -- monte-carlo --------------------------------------------------------------


def test_sample_checks_pass_and_fail():
    d, p = 8, 0.3
    kraus = workloads._stinespring_kraus(np.random.default_rng(1), d, 2)
    mean, _, samples = memloss.avg_output_distance(memloss.Channel.from_kraus(kraus), 30, 0)
    assert checks.check_samples(mean, samples, d) == []
    bad = samples.copy()
    bad[3] = 2.0 * (1.0 - 1.0 / d) + 1e-6          # breaks contractivity
    assert checks.check_samples(float(bad.mean()), bad, d)
    assert checks.check_samples(mean + 1e-6, samples, d)

    mean, _, samples = memloss.avg_output_distance(memloss.depolarizing(p), 20, 0)
    exact = abs(1.0 - 4.0 * p / 3.0)
    assert checks.check_samples(mean, samples, 2, exact=exact) == []
    assert checks.check_samples(mean, samples, 2, exact=exact + 1e-6)


@pytest.fixture(scope="module")
def absence(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("absence")
    rng = np.random.default_rng(4)
    d_s, d_e = 2, 6
    h_s, h_e = np.diag([0.0, 0.5]), np.diag(np.arange(d_e) + rng.uniform(-0.1, 0.1, d_e))
    n = d_s * d_e
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h_int = (g + g.conj().T) / (4 * np.sqrt(n))
    ham = {"kind": "coupled_product", "g": 0.05, "h_s": workloads._encode_matrix(h_s),
           "h_e": workloads._encode_matrix(h_e), "h_int": workloads._encode_matrix(h_int)}
    out = run_cli(tmp, "absence", hamiltonian=ham, phi=[[1.0, 0.0], [0.0, 0.0]],
                  times=[0.5, 2.0], samples=3, seed=0)
    full = np.kron(h_s, np.eye(d_e)) + np.kron(np.eye(d_s), h_e) + 0.05 * h_int
    return workloads._read_json(out), checks.product_overlaps(full, np.array([1.0, 0.0]))


def test_absence_check_passes_on_program_output(absence):
    report, overlaps = absence
    assert checks.check_absence(report, overlaps) == []


@pytest.mark.parametrize("field,by", [
    ("delta_phi", SHIFT),                    # no matching at the claimed delta
    ("delta_phi", -SHIFT),                   # a matching exists above it
    ("deterministic_max_distance", 2.0),     # above 4 delta sqrt(1 - delta^2)
    ("min_fidelity_margin", -1.0),
])
def test_absence_check_fails_on_corruption(absence, field, by):
    report, overlaps = absence
    bad = dict(report, **{field: report[field] + by})
    assert checks.check_absence(bad, overlaps)


def test_matching_oracle_against_exhaustive_delta():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = rng.uniform(size=(5, 3))
        delta = memloss.delta_phi_exhaustive(f)
        assert checks.has_perfect_matching(f >= delta)
        assert not checks.has_perfect_matching(f > delta)


# -- tracer and runner --------------------------------------------------------


def test_tracer_counts_nested_calls_and_restores():
    originals = {name: getattr(memloss.linalg, name)
                 for name in ("partial_trace", "trace_distance")}
    post_init = memloss.DensityMatrix.__post_init__
    tracer = Tracer()
    tracer.install()
    try:
        tracer.round = 0
        rho = memloss.random_density(4, seed=1)
        rho = memloss.DensityMatrix(rho.data, memloss.SubsystemLayout.of(("S", 2), ("E", 2)))
        memloss.linalg.partial_trace(rho, ["S"])
        tracer.round = -1
    finally:
        tracer.uninstall()
    stats = tracer.summary(0)
    assert set(stats) == set(metric_names())
    assert stats["linalg.partial_trace.calls"] == 1
    # random_density, the explicit construction, and the partial trace's result
    assert stats["linalg.DensityMatrix.post_init.calls"] == 3
    assert stats["linalg.partial_trace.self_s"] < stats["linalg.partial_trace.total_s"]
    assert all(v >= 0 for v in stats.values())
    for name, fn in originals.items():
        assert getattr(memloss.linalg, name) is fn
    assert memloss.DensityMatrix.__post_init__ is post_init
    assert len(TARGETS) * 3 == len(metric_names())


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "iid-memory",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
