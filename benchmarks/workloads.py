"""The four benchmark workloads.

A workload builds its inputs from the seed (configs, Kraus files, spectra),
lists the analysis calls of one round, reads what each call produced, and
checks it.  The runner times the calls; reading and checking are untimed.
Calls go through memloss's public API or in-process through
``memloss.cli.main``, and always through a module attribute, so that the
tracer's wrappers are the functions called.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import checks

EPS = 0.05
DELTA = 0.01


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _encode_matrix(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: (v if k == "verdict" else float(v)) for k, v in row.items()}
            for row in rows]


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _stinespring_kraus(rng: np.random.Generator, d_a: int, d_e: int) -> list[np.ndarray]:
    """Kraus operators ``K_i = (I x <i|) U (I x |0>)`` of a Haar joint unitary."""
    u = _haar_unitary(rng, d_a * d_e).reshape(d_a, d_e, d_a, d_e)
    return [np.ascontiguousarray(u[:, i, :, 0]) for i in range(d_e)]


class Op:
    """One analysis call: ``run(state)`` is timed, ``read(result)`` is not."""

    def __init__(self, name, run, read=None):
        self.name = name
        self.run = run
        self.read = read or (lambda result: result)


def _cli_op(memloss, name: str, command: str, config: str, output: str, reader) -> Op:
    def read(code):
        if code != 0:
            raise RuntimeError(f"memloss {command} exited with {code}")
        return reader(output)

    return Op(name, lambda state: memloss.cli.main([command, config]), read)


class Workload:
    name = ""
    # Whether the ops slow down with the host as the reference kernel in
    # run.py does, so that wall_s is rescaled by the kernel's time.
    follows_kernel = True

    def __init__(self, memloss, seed: int, workdir: str):
        self.memloss = memloss
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def references(self) -> None:
        """Independent reference computations, made after the timed rounds."""

    def check(self, outputs: list) -> list[list[str]]:
        """One problem list per op; ``outputs[i]`` is None where op i raised."""
        raise NotImplementedError


class ChainScan(Workload):
    """``criteria-scan`` and ``lightcone`` on a TFI chain, N = 10, S = 2 sites."""

    name = "chain-scan"
    n_sites, s_sites = 10, 2

    def __init__(self, memloss, seed, workdir):
        super().__init__(memloss, seed, workdir)
        self.j = float(self.rng.uniform(0.8, 1.2))
        self.h = float(self.rng.uniform(0.8, 1.2))
        self.times = [0.0, float(self.rng.uniform(0.3, 0.7)),
                      float(self.rng.uniform(1.0, 1.5))]
        d_e = 2 ** (self.n_sites - self.s_sites)
        ham = {"kind": "spin_chain", "n_sites": self.n_sites, "s_sites": self.s_sites,
               "model": "tfi", "j": self.j, "h_field": self.h,
               "psi_e": [[1.0, 0.0]] + [[0.0, 0.0]] * (d_e - 1)}
        self.configs = {}
        for command in ("criteria-scan", "lightcone"):
            out = self.path(f"{command}.csv")
            cfg = {"schema": 1, "hamiltonian": ham, "times": self.times,
                   "epsilon": EPS, "output": out}
            self.configs[command] = (_write_json(self.path(f"{command}.json"), cfg), out)

    def ops(self):
        return [_cli_op(self.memloss, command, command, cfg, out, _read_csv)
                for command, (cfg, out) in self.configs.items()]

    def references(self):
        ham = checks.tfi_hamiltonian(self.n_sites, self.j, self.h)
        self.spectra = [checks.chain_spectra(ham, 2 ** self.s_sites, t) for t in self.times]

    def check(self, outputs):
        criteria, lightcone = outputs
        d_s = 2 ** self.s_sites
        out = [[], []]
        if criteria is not None:
            out[0] = checks.check_criteria_scan(criteria, self.times, self.spectra, d_s, EPS)
        if lightcone is not None:
            out[1] = checks.check_lightcone(lightcone, self.times, self.spectra, d_s, EPS,
                                            criteria)
        return out


class IidMemory(Workload):
    """Smoothed entropies of n copies of the depolarizing memory's marginals."""

    name = "iid-memory"
    p_grid = (0.40, 0.50, 0.60, 0.65, 0.70, 0.74)
    n_max = 6

    def __init__(self, memloss, seed, workdir):
        super().__init__(memloss, seed, workdir)
        self.ps = [p + float(self.rng.uniform(-0.002, 0.002)) for p in self.p_grid]

    def ops(self):
        ml = self.memloss
        ops = []
        for p in self.ps:
            def marginals(state, p=p):
                tau = ml.channels.depolarizing(p).dilation_state(ml.linalg.maximally_mixed(2))
                state[p] = (tau.marginal("S").spectrum(), tau.marginal("E").spectrum())
                state[p, 0] = (np.ones(1), np.ones(1))
                return state[p]

            ops.append(Op(f"marginals p={p:.4f}", marginals))
            for n in range(1, self.n_max + 1):
                def copies(state, p=p, n=n):
                    lam_s, lam_e = state[p]
                    prev_s, prev_e = state[p, n - 1]
                    s_n, e_n = np.kron(prev_s, lam_s), np.kron(prev_e, lam_e)
                    state[p, n] = (s_n, e_n)
                    ent = ml.entropy
                    return (ent.h_min_smooth(s_n, EPS), ent.h_max_smooth(s_n, EPS),
                            ent.h_min_smooth(e_n, EPS), ent.h_max_smooth(e_n, EPS))

                ops.append(Op(f"copies p={p:.4f} n={n}", copies))
        return ops

    def _traces(self, lam_s) -> list[float]:
        """Traces of ``S^n`` summed as ``h_min_smooth`` sums them: descending."""
        traces, s_n = [], np.ones(1)
        for _ in range(self.n_max):
            s_n = np.kron(s_n, lam_s)
            traces.append(float(np.sort(s_n)[::-1].sum()))
        return traces

    def check(self, outputs):
        out = []
        per_p = self.n_max + 1
        for i, p in enumerate(self.ps):
            block = outputs[i * per_p:(i + 1) * per_p]
            marg, values = block[0], block[1:]
            out.append([] if marg is None else checks.check_single_copy(*marg, p))
            if marg is None or any(v is None for v in values):
                out.extend([[]] * self.n_max)
            else:
                out.extend(checks.check_iid(values, p, EPS, self._traces(marg[0])))
        return out


class ChannelBound(Workload):
    """``decoupling`` and ``converse`` through the CLI; the d = 16 SDP dominates."""

    name = "channel-bound"
    d_wh = 16
    # The solver's Newton step count on this channel jumps between about 63,
    # 120 and 176 as q moves in its fourth digit (some barrier stages stall
    # at their 60-step cap), so a seeded q would make wall_s a lottery.  At
    # q = 0.8 it takes 120 steps, one stage stalled: the median count over
    # ten seeded q in [0.3, 0.9].
    q = 0.8
    random_dims = (4, 8)
    # The d = 16 SDP does not slow down with the kernel: over ten seeds its
    # round took 16.9 to 20.3 s whether the kernel ran at 47 or at 67 ms, so
    # rescaling doubled the spread of wall_s (8.4 % raw, 19.7 % rescaled).
    follows_kernel = False

    def __init__(self, memloss, seed, workdir):
        super().__init__(memloss, seed, workdir)
        self.qubit_ps = [float(p) for p in self.rng.uniform(0.05, 0.7, size=2)]
        self.random_kraus = [_stinespring_kraus(self.rng, d, 2) for d in self.random_dims]
        wh = _write_json(self.path("wh16.json"), [
            _encode_matrix(k) for k in checks.weyl_depolarizing_kraus(self.d_wh, self.q)])
        channels = [wh] + [{"builtin": "depolarizing", "p": p} for p in self.qubit_ps]
        for d, kraus in zip(self.random_dims, self.random_kraus):
            channels.append(_write_json(self.path(f"random{d}.json"),
                                        [_encode_matrix(k) for k in kraus]))
        self.runs = []
        for i, channel in enumerate(channels):
            out = self.path(f"decoupling{i}.json")
            cfg = {"schema": 1, "channel": channel, "samples": 200, "seed": seed,
                   "output": out}
            self.runs.append(("decoupling", _write_json(self.path(f"decoupling{i}-cfg.json"),
                                                        cfg), out))
        out = self.path("converse.json")
        cfg = {"schema": 1, "channel": wh, "epsilon": EPS, "delta": DELTA, "samples": 50,
               "seed": seed, "output": out}
        self.runs.append(("converse", _write_json(self.path("converse-cfg.json"), cfg), out))

    def ops(self):
        return [_cli_op(self.memloss, f"{command} {i}", command, cfg, out, _read_json)
                for i, (command, cfg, out) in enumerate(self.runs)]

    def references(self):
        d = self.d_wh
        fid = 1.0 - self.q + self.q / d ** 2
        self.expected = [checks.isotropic_h_min_bits(d, fid)]
        self.expected += [checks.isotropic_h_min_bits(2, 1.0 - p) for p in self.qubit_ps]
        self.brackets = [checks.choi_bracket(k) for k in self.random_kraus]
        choi_spectrum = np.concatenate(([fid], np.full(d * d - 1, (1.0 - fid) / (d * d - 1))))
        self.h_max_choi = checks.h_max_bits(choi_spectrum)

    def check(self, outputs):
        out = []
        n_exact = len(self.expected)
        for i, report in enumerate(outputs[:-1]):
            if report is None:
                out.append([])
            elif i < n_exact:
                out.append(checks.check_decoupling(report, expected_bits=self.expected[i]))
            else:
                out.append(checks.check_decoupling(report, bracket=self.brackets[i - n_exact]))
        converse = outputs[-1]
        out.append([] if converse is None else checks.check_converse(
            converse, self.d_wh, EPS, DELTA, h_max_joint_ceiling=self.h_max_choi,
            tol=checks.ROUNDING_BITS_TOL))
        return out


class MonteCarlo(Workload):
    """Haar sampling, channel application, trace norms and ``absence``."""

    name = "monte-carlo"
    d_random, d_unitary, d_identity = 64, 16, 2048
    d_s, d_e = 2, 64

    def __init__(self, memloss, seed, workdir):
        super().__init__(memloss, seed, workdir)
        rng = self.rng
        self.random_kraus = _stinespring_kraus(rng, self.d_random, 4)
        self.unitary = _haar_unitary(rng, self.d_unitary)
        self.p = float(rng.uniform(0.05, 0.7))

        out = self.path("converse.json")
        cfg = {"schema": 1, "channel": {"builtin": "identity", "d": self.d_identity},
               "epsilon": EPS, "delta": DELTA, "samples": 50, "seed": seed, "output": out}
        self.converse = (_write_json(self.path("converse-cfg.json"), cfg), out)

        # Weak coupling of an evenly spaced product spectrum keeps every
        # eigenvector close to a product phi x |j>, so delta(phi) > 1/sqrt 2.
        h_s = np.diag([0.0, float(rng.uniform(0.4, 0.6))])
        h_e = np.diag(np.arange(self.d_e) + rng.uniform(-0.1, 0.1, self.d_e))
        n = self.d_s * self.d_e
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h_int = (g + g.conj().T) / (4.0 * np.sqrt(n))
        coupling = 0.05
        self.ham = (np.kron(h_s, np.eye(self.d_e)) + np.kron(np.eye(self.d_s), h_e)
                    + coupling * h_int)
        self.phi = np.array([1.0, 0.0], dtype=complex)
        out = self.path("absence.json")
        cfg = {"schema": 1,
               "hamiltonian": {"kind": "coupled_product", "g": coupling,
                               "h_s": _encode_matrix(h_s), "h_e": _encode_matrix(h_e),
                               "h_int": _encode_matrix(h_int)},
               "phi": [[1.0, 0.0], [0.0, 0.0]], "times": [0.5, 1.0, 2.0, 4.0, 8.0],
               "samples": 100, "seed": seed, "output": out}
        self.absence = (_write_json(self.path("absence-cfg.json"), cfg), out)

    def ops(self):
        ml = self.memloss

        def sample(channel_of, n):
            def run(state):
                mean, _, samples = ml.decoupling.avg_output_distance(channel_of(), n, self.seed)
                return mean, samples

            return run

        return [
            Op("avg_output_distance random64",
               sample(lambda: ml.channels.Channel.from_kraus(self.random_kraus), 1000)),
            Op("avg_output_distance unitary16",
               sample(lambda: ml.channels.Channel.from_kraus([self.unitary]), 100)),
            Op("avg_output_distance depolarizing",
               sample(lambda: ml.channels.depolarizing(self.p), 100)),
            _cli_op(ml, "converse identity2048", "converse", *self.converse, _read_json),
            _cli_op(ml, "absence", "absence", *self.absence, _read_json),
        ]

    def references(self):
        self.overlaps = checks.product_overlaps(self.ham, self.phi)

    def check(self, outputs):
        rand, unit, depol, converse, absence = outputs
        exact_depol = abs(1.0 - 4.0 * self.p / 3.0)
        out = [[] if rand is None else checks.check_samples(*rand, self.d_random),
               [] if unit is None else checks.check_samples(
                   *unit, self.d_unitary, exact=2.0 * (1.0 - 1.0 / self.d_unitary)),
               [] if depol is None else checks.check_samples(*depol, 2, exact=exact_depol),
               [] if converse is None else checks.check_converse(
                   converse, self.d_identity, EPS, DELTA, h_max_joint=0.0),
               [] if absence is None else checks.check_absence(absence, self.overlaps)]
        return out


WORKLOADS = {cls.name: cls for cls in (ChainScan, IidMemory, ChannelBound, MonteCarlo)}
