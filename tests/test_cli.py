import json

import numpy as np
import pytest

from memloss import decoupling, entropy
from memloss.channels import Channel
from memloss.cli import build_parser, emit, load_config, main
from memloss.dynamics import HamiltonianSpec, spec_to_dict
from memloss.linalg import PAULI
from memloss.serialize import decode_complex_matrix, decode_complex_vector, save_kraus_file


def write_cfg(path, **fields):
    cfg = {"schema": 1}
    cfg.update(fields)
    path.write_text(json.dumps(cfg))
    return str(path)


# top-level config fields each subcommand reads, besides "schema"
READS = {
    "criteria-scan": {"hamiltonian", "times", "epsilon", "slack", "format", "output"},
    "lightcone": {"hamiltonian", "times", "epsilon", "slack", "format", "output"},
    "depol-threshold": {"p_lo", "p_hi", "tol", "p_min", "p_max", "num", "format",
                        "output"},
    "decoupling": {"channel", "deltas", "samples", "seed", "epsilon", "output"},
    "converse": {"channel", "epsilon", "delta", "samples", "seed", "output"},
    "recurrence": {"hamiltonian", "t_max", "step", "tol", "epsilon", "output"},
    "absence": {"hamiltonian", "phi", "times", "samples", "seed", "output"},
}


def product_spec_dict(g=0.0):
    rng = np.random.default_rng(12)
    g0 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    spec = HamiltonianSpec.coupled_product(
        np.diag([0.0, 1.3]), np.diag([0.0, 0.7, 1.9, 2.8]),
        (g0 + g0.conj().T) / 2, g=g, psi_e=np.eye(4)[0])
    return spec_to_dict(spec)


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "t.csv"
        vals = [1 / 3, np.pi, 6.02e23, -0.0, 1e-300]
        emit((["a", "b", "c", "d", "e"], [vals]), "csv", str(out))
        header, line = out.read_text().splitlines()
        assert header == "a,b,c,d,e"
        back = [float(x) for x in line.split(",")]
        assert all(x == y for x, y in zip(back, vals))

    def test_json_preserves_values(self, tmp_path):
        out = tmp_path / "t.json"
        emit((["x", "label"], [[0.1 + 0.2, "ok"]]), "json", str(out))
        rec = json.loads(out.read_text())[0]
        assert rec["x"] == 0.1 + 0.2
        assert rec["label"] == "ok"

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit((["a"], []), "csv", str(tmp_path / "x.csv"))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit((["a"], [[1.0]]), "yaml", str(tmp_path / "x"))


class TestConfigHandling:
    def test_missing_config_path(self, capsys):
        assert main(["criteria-scan", "/nonexistent/cfg.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_required_for_most_commands(self, capsys):
        assert main(["criteria-scan"]) == 2

    def test_malformed_json_no_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "out.csv"
        assert main(["criteria-scan", str(cfg), "--output", str(out)]) == 2
        assert not out.exists()

    def test_wrong_schema(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", times=[0.0])
        obj = json.loads((tmp_path / "c.json").read_text())
        obj["schema"] = 99
        (tmp_path / "c.json").write_text(json.dumps(obj))
        assert main(["criteria-scan", cfg]) == 2

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=product_spec_dict())
        assert main(["criteria-scan", cfg]) == 2
        assert "times" in capsys.readouterr().err

    @pytest.mark.parametrize("command, fields", [
        ("criteria-scan", {"times": 5}),
        ("criteria-scan", {"times": {"start": None, "stop": 1, "num": 2}}),
        ("criteria-scan", {"hamiltonian": {"kind": "spin_chain", "n_sites": None,
                                           "s_sites": 1}}),
        ("criteria-scan", {"hamiltonian": [1.0]}),
        ("decoupling", {"channel": {"builtin": "depolarizing", "p": None}}),
        ("decoupling", {"channel": {"builtin": "identity", "d": [2]}}),
        ("decoupling", {"channel": "kraus.json"}),
        # scalar fields read by the runners
        ("criteria-scan", {"epsilon": None}),
        ("criteria-scan", {"slack": [0.0]}),
        ("lightcone", {"epsilon": {}}),
        ("lightcone", {"slack": None}),
        ("decoupling", {"seed": [1]}),
        ("decoupling", {"samples": None}),
        ("decoupling", {"epsilon": [0.1]}),
        ("decoupling", {"output": 5}),
        ("decoupling", {"deltas": 0.5}),
        ("converse", {"epsilon": None}),
        ("converse", {"delta": [0.01]}),
        ("converse", {"seed": None}),
        ("converse", {"samples": {}}),
        ("recurrence", {"t_max": None}),
        ("recurrence", {"step": [0.1]}),
        ("recurrence", {"tol": None}),
        ("absence", {"seed": None}),
        ("absence", {"samples": [1]}),
        ("depol-threshold", {"p_lo": None}),
        ("depol-threshold", {"p_hi": [0.5]}),
        ("depol-threshold", {"tol": None}),
        ("depol-threshold", {"p_min": None}),
        ("depol-threshold", {"p_max": {}}),
        ("depol-threshold", {"num": None}),
        ("absence", {"phi": 5}),
        ("absence", {"phi": [1, 0]}),
        ("criteria-scan", {"output": None}),
        ("criteria-scan", {"output": 5}),
    ])
    def test_wrong_field_type_exits_2(self, tmp_path, capsys, monkeypatch,
                                      command, fields):
        # a field of the wrong JSON type is a config error, not a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kraus.json").write_text("[5]")
        out = tmp_path / "out"
        base = {"hamiltonian": product_spec_dict(), "times": [0.0],
                "channel": {"builtin": "identity", "d": 2}, "phi": [[1.0, 0.0], [0.0, 0.0]],
                "epsilon": 0.05, "delta": 0.01, "t_max": 1.0, "step": 0.5,
                "seed": 0, "samples": 2, "output": str(out)}
        # only the fields the command reads: any other is itself an error
        cfg = {k: v for k, v in base.items() if k in READS[command]}
        cfg.update(fields)
        path = write_cfg(tmp_path / "c.json", **cfg)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        # the error names the bad field, so no earlier parser stopped the run
        assert "error:" in err and next(iter(fields)) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(READS))
    @pytest.mark.parametrize("field", ["sampels", "threads"])
    def test_unknown_field_exits_2(self, tmp_path, capsys, command, field):
        # a misspelt or retired field is an error, not a silent default
        out = tmp_path / "out"
        path = write_cfg(tmp_path / "c.json", output=str(out), **{field: 5})
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and repr(field) in err
        assert not out.exists()

    @pytest.mark.parametrize("command, fields", [
        ("criteria-scan", {"hamiltonian", "times", "epsilon", "output"}),
        ("lightcone", {"hamiltonian", "times", "epsilon", "output"}),
        ("decoupling", {"channel", "samples", "seed", "output"}),
        ("converse", {"channel", "epsilon", "delta", "samples", "seed", "output"}),
        ("absence", {"hamiltonian", "phi", "times", "samples", "seed", "output"}),
    ])
    def test_benchmark_config_fields_accepted(self, tmp_path, command, fields):
        # the fields of the configs that benchmarks/workloads.py writes; their
        # values are parsed later, by the runner
        path = write_cfg(tmp_path / "c.json", **{k: str(tmp_path / k) for k in fields})
        args = build_parser().parse_args([command, path])
        assert set(load_config(path, args)) == fields | {"schema"}

    @pytest.mark.parametrize("field, value", [
        ("omega_s", [[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]]),
        ("psi_e", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    ])
    def test_reference_dimension_mismatch_exits_2(self, tmp_path, capsys, field, value):
        ham = spec_to_dict(HamiltonianSpec.explicit(np.diag([0.0, 1.0, 2.0, 3.0]), 2, 2,
                                                    psi_e=np.eye(2)[0]))
        ham[field] = value
        out = tmp_path / "out.csv"
        path = write_cfg(tmp_path / "c.json", hamiltonian=ham, times=[0.0, 1.0],
                         output=str(out))
        assert main(["criteria-scan", path]) == 2
        assert f"error: bad hamiltonian: {field} needs 2" in capsys.readouterr().err
        assert not out.exists()


class TestOverrideFlags:
    @pytest.mark.parametrize("command", sorted(READS))
    @pytest.mark.parametrize("flag, value", [
        ("seed", "3"), ("output", "out.csv"), ("epsilon", "0.2"), ("delta", "0.4"),
        ("format", "json")])
    def test_flag_only_where_field_is_read(self, capsys, command, flag, value):
        # a flag whose field the subcommand does not read would be ignored
        argv = [command, f"--{flag}", value]
        if flag in READS[command]:
            assert getattr(build_parser().parse_args(argv), flag) is not None
        else:
            assert main(argv) == 2
            assert f"--{flag}" in capsys.readouterr().err


class TestDepolThreshold:
    def test_prints_threshold(self, capsys):
        assert main(["depol-threshold"]) == 0
        assert "p_c = 0.189290" in capsys.readouterr().out

    def test_table_reruns_identically(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = write_cfg(tmp_path / "c.json", num=7)
        assert main(["depol-threshold", cfg, "--output", str(a)]) == 0
        assert main(["depol-threshold", cfg, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "p,H_S,H_E"

    def test_reversed_bracket_exits_2(self, tmp_path, capsys):
        # bisecting [0.3, 0.1] used to print p_c = 0.200000; the root is 0.189290
        out = tmp_path / "out.csv"
        cfg = write_cfg(tmp_path / "c.json", p_lo=0.3, p_hi=0.1, output=str(out))
        assert main(["depol-threshold", cfg]) == 2
        assert "lo < hi" in capsys.readouterr().err
        assert not out.exists()


class TestCriteriaScan:
    def test_decoupled_system_always_retained(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=product_spec_dict(0.0),
                        times={"start": 0, "stop": 5, "num": 6},
                        output=str(out))
        assert main(["criteria-scan", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,lhs_bits,rhs_bits,margin_bits,verdict"
        assert len(lines) == 7
        for line in lines[1:]:
            t, lhs, rhs, margin, verdict = line.split(",")
            assert verdict == "memory_retained"
            assert float(margin) == pytest.approx(float(lhs) - float(rhs))
            assert float(margin) > 0.9
        assert "retained=6" in capsys.readouterr().out

    def test_json_format_flag(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=product_spec_dict(0.0),
                        times=[0.0, 1.0], output=str(out))
        assert main(["criteria-scan", cfg, "--format", "json"]) == 0
        recs = json.loads(out.read_text())
        assert len(recs) == 2 and recs[0]["verdict"] == "memory_retained"


class TestChannelCommands:
    def test_decoupling_identity(self, tmp_path, capsys):
        out = tmp_path / "dec.json"
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 2},
                        samples=20, seed=0, output=str(out))
        assert main(["decoupling", cfg]) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["empirical_mean"] - 1.0) < 1e-10
        assert abs(obj["bound"] - np.sqrt(2.0)) < 1e-6

    def test_decoupling_kraus_file(self, tmp_path, capsys):
        kfile = tmp_path / "kraus.json"
        save_kraus_file(str(kfile), [0.5 * s for s in PAULI])
        cfg = write_cfg(tmp_path / "c.json", channel=str(kfile), samples=5)
        assert main(["decoupling", cfg, "--seed", "1"]) == 0
        assert "mean=0.000000" in capsys.readouterr().out

    def test_converse_identity_fires(self, tmp_path, capsys):
        out = tmp_path / "conv.json"
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 1024},
                        epsilon=0.05, delta=0.001, samples=5, seed=0,
                        output=str(out))
        assert main(["converse", cfg]) == 0
        obj = json.loads(out.read_text())
        assert obj["fires"] is True
        assert obj["empirical_ok"] is True
        assert "fires=True" in capsys.readouterr().out

    def test_converse_needs_epsilon(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "depolarizing", "p": 0.2},
                        seed=0, delta=0.001)
        assert main(["converse", cfg]) == 2

    def test_decoupling_too_large_rejected_before_work(self, tmp_path, capsys,
                                                        monkeypatch):
        # d = 17: the Choi state would be 289 x 289, past SDP_MAX_DIM = 256;
        # neither the sampling nor the dense Choi state may run first
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the dimension check")

        monkeypatch.setattr(decoupling, "avg_output_distance", forbidden)
        monkeypatch.setattr(Channel, "choi", forbidden)
        out = tmp_path / "dec.json"
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 17},
                        samples=5, seed=0, output=str(out))
        assert main(["decoupling", cfg]) == 2
        assert "289" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_sdp_exits_3(self, tmp_path, capsys, monkeypatch):
        # a solve that did not converge yields no number
        monkeypatch.setattr(entropy, "SDP_STAGE_STEPS", 1)
        out = tmp_path / "dec.json"
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 2},
                        samples=5, seed=0, output=str(out))
        assert main(["decoupling", cfg]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("channel", [
        "empty.json",                        # [[]]: one operator with no entries
        "mixed.json",                        # operators of two shapes
        {"builtin": "identity", "d": 0},
    ], ids=["empty", "mixed", "identity-d0"])
    def test_malformed_channel_exits_2(self, tmp_path, capsys, monkeypatch, channel):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.json").write_text("[[]]")
        save_kraus_file(str(tmp_path / "mixed.json"), [np.eye(2), np.eye(3)])
        out = tmp_path / "conv.json"
        cfg = write_cfg(tmp_path / "c.json", channel=channel, epsilon=0.05,
                        delta=0.001, seed=0, output=str(out))
        assert main(["converse", cfg]) == 2
        assert "bad channel" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_converse_needs_a_sample(self, tmp_path, capsys, samples):
        # no trial average of no samples: the flat-state constant alone
        # would read as empirical_ok
        out = tmp_path / "conv.json"
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 1024},
                        epsilon=0.05, delta=0.001, samples=samples, seed=0,
                        output=str(out))
        assert main(["converse", cfg]) == 2
        assert "sample" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_channel(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", channel={"builtin": "amplitude"},
                        seed=0)
        assert main(["decoupling", cfg]) == 2


class TestScanCommands:
    def test_lightcone(self, tmp_path, capsys):
        chain = spec_to_dict(HamiltonianSpec.spin_chain(4, 2, psi_e=np.eye(4)[0]))
        out = tmp_path / "lc.csv"
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=chain,
                        times={"start": 0, "stop": 2, "num": 5},
                        output=str(out))
        assert main(["lightcone", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,h_max_env_bits,deficit_sys_bits"
        assert len(lines) == 6

    def test_recurrence(self, tmp_path, capsys):
        spec = spec_to_dict(HamiltonianSpec.explicit(
            np.diag([0.0, 1.0, 1.0, 2.0]), 2, 2,
            psi_e=np.array([1.0, 1.0]) / np.sqrt(2)))
        out = tmp_path / "rec.json"
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=spec, t_max=7.0,
                        step=2 * np.pi / 100, tol=1e-8, output=str(out))
        assert main(["recurrence", cfg]) == 0
        obj = json.loads(out.read_text())
        assert obj["t_rec"] == pytest.approx(2 * np.pi)
        assert obj["verdict_at_rec"] == "memory_retained"

    @pytest.mark.parametrize("t_max, step",
                             [(1.0, 0.0), (1.0, -0.1), (0.05, 0.1), (1.0, 1e-310)])
    def test_recurrence_bad_grid_exits_2(self, tmp_path, capsys, t_max, step):
        # a step of 1e-310 would make a grid of more than 1e308 times
        out = tmp_path / "rec.json"
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=product_spec_dict(0.0),
                        t_max=t_max, step=step, output=str(out))
        assert main(["recurrence", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_absence(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=product_spec_dict(0.0),
                        phi=[[1.0, 0.0], [0.0, 0.0]], times=[0.0, 1.0],
                        samples=1, seed=0, output=str(tmp_path / "abs.json"))
        assert main(["absence", cfg]) == 0
        obj = json.loads((tmp_path / "abs.json").read_text())
        assert obj["delta_phi"] == pytest.approx(1.0)
        assert obj["deterministic_max_distance"] < 1e-10


class TestChainCommands:
    """``absence`` and ``recurrence`` on a 4-site TFI chain, whose matrix is
    sparse: the values are those of the dense eigendecomposition path."""

    chain = {"kind": "spin_chain", "n_sites": 4, "s_sites": 1, "h_field": 0.3}

    def test_absence(self, tmp_path, capsys):
        out = tmp_path / "abs.json"
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=self.chain,
                        phi=[[1.0, 0.0], [0.0, 0.0]], times=[0.5, 1.0, 2.0],
                        samples=5, seed=0, output=str(out))
        assert main(["absence", cfg]) == 0
        assert "delta_phi=0.477064" in capsys.readouterr().out
        obj = json.loads(out.read_text())
        assert obj["delta_phi"] == pytest.approx(0.47706372511269657, abs=1e-12)
        assert obj["bound"] == pytest.approx(1.6771055148553113, abs=1e-12)
        assert obj["deterministic_max_distance"] == pytest.approx(
            0.28351225135097424, abs=1e-12)
        assert obj["min_fidelity_margin"] == pytest.approx(1.5088005848701456,
                                                           abs=1e-12)
        assert obj["mc_exceed_fraction"] == 0.0

    def test_recurrence_without_return(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        chain = dict(self.chain, psi_e=[[1.0, 0.0]] + [[0.0, 0.0]] * 7)
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=chain, t_max=12.0,
                        step=0.1, output=str(out))
        assert main(["recurrence", cfg]) == 0
        obj = json.loads(out.read_text())
        assert obj["t_rec"] is None
        assert obj["argmin_time"] == pytest.approx(0.1, abs=1e-12)
        assert obj["min_distance"] == pytest.approx(0.1034580420910486, abs=1e-12)

    def test_recurrence_of_classical_chain(self, tmp_path, capsys):
        # no field: the energies -sum z_i z_(i+1) differ by even integers, so
        # tau_SE returns at t = pi, reached by 50 steps of pi/50
        out = tmp_path / "rec.json"
        plus = [[8 ** -0.5, 0.0]] * 8
        chain = dict(self.chain, h_field=0.0, psi_e=plus)
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=chain, t_max=4.0,
                        step=np.pi / 50, tol=1e-8, output=str(out))
        assert main(["recurrence", cfg]) == 0
        obj = json.loads(out.read_text())
        assert obj["t_rec"] == pytest.approx(np.pi, abs=1e-12)
        assert obj["distance_at_rec"] < 1e-12
        assert obj["verdict_at_rec"] == "memory_retained"


class TestNonFiniteConfig:
    """json.load reads ``NaN`` and ``Infinity``; a config that holds one
    exits 2 and writes nothing."""

    chain = {"kind": "spin_chain", "n_sites": 4, "s_sites": 1,
             "psi_e": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("command, fields", [
        ("converse", {"delta": "BAD"}),
        ("converse", {"channel": "kraus.json"}),
        ("criteria-scan", {"hamiltonian": dict(chain, j="BAD")}),
        ("criteria-scan", {"times": [0.0, "BAD"]}),
        ("lightcone", {"times": {"start": 0.0, "stop": "BAD", "num": 3}}),
        ("decoupling", {"deltas": ["BAD"]}),
        ("decoupling", {"samples": "BAD"}),
        ("absence", {"phi": [[1.0, 0.0], ["BAD", 0.0]]}),
    ], ids=["converse-delta", "converse-kraus", "chain-j", "times", "times-range",
            "deltas", "samples", "phi"])
    def test_nonfinite_field_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                     fields, bad):
        monkeypatch.chdir(tmp_path)
        kraus = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["BAD", 0.0]]]
        base = {"channel": {"builtin": "identity", "d": 2}, "epsilon": 0.05,
                "delta": 0.01, "seed": 0, "samples": 2, "hamiltonian": self.chain,
                "times": [0.0, 1.0], "phi": [[1.0, 0.0], [0.0, 0.0]]}
        out = tmp_path / "out"
        cfg = {k: v for k, v in base.items() if k in READS[command]}
        cfg.update(fields, output=str(out))

        def put(x):
            if x == "BAD":
                return bad
            if isinstance(x, list):
                return [put(y) for y in x]
            if isinstance(x, dict):
                return {k: put(v) for k, v in x.items()}
            return x

        (tmp_path / "kraus.json").write_text(json.dumps(put(kraus)))
        path = write_cfg(tmp_path / "c.json", **put(cfg))
        assert main([command, path]) == 2
        # the field's own parser rejects it, not a check further on
        assert f"error: bad {next(iter(fields))}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_decoders_reject_nonfinite(self, bad):
        with pytest.raises(ValueError):
            decode_complex_matrix([[[1.0, 0.0], [0.0, bad]]])
        with pytest.raises(ValueError):
            decode_complex_vector([[1.0, 0.0], [bad, 0.0]])


class TestIntegerFields:
    """An integer field takes only a JSON integer: ``int()`` used to run
    ``identity(2)`` for ``"d": 2.5``, ``identity(1)`` for ``true`` and
    ``identity(3)`` for ``"3"``, and to draw 2 samples for 2.9."""

    chain = {"kind": "spin_chain", "n_sites": 4, "s_sites": 1,
             "psi_e": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}
    explicit = spec_to_dict(HamiltonianSpec.explicit(np.diag([0.0, 1.0, 2.0, 3.0]), 2, 2,
                                                     psi_e=np.eye(2)[0]))

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    @pytest.mark.parametrize("command, fields", [
        ("converse", {"channel": {"builtin": "identity", "d": "BAD"}}),
        ("converse", {"samples": "BAD"}),
        ("decoupling", {"seed": "BAD"}),
        ("absence", {"samples": "BAD"}),
        ("depol-threshold", {"num": "BAD"}),
        ("lightcone", {"times": {"start": 0.0, "stop": 1.0, "num": "BAD"}}),
        ("criteria-scan", {"hamiltonian": dict(chain, n_sites="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(chain, s_sites="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(explicit, d_s="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(explicit, d_e="BAD")}),
    ], ids=["identity-d", "samples", "seed", "absence-samples", "num", "times-num",
            "n_sites", "s_sites", "d_s", "d_e"])
    def test_non_integer_exits_2(self, tmp_path, capsys, command, fields, bad):
        base = {"channel": {"builtin": "identity", "d": 2}, "epsilon": 0.05,
                "delta": 0.01, "seed": 0, "samples": 2, "hamiltonian": self.chain,
                "times": [0.0, 1.0], "phi": [[1.0, 0.0], [0.0, 0.0]]}
        out = tmp_path / "out"
        cfg = {k: v for k, v in base.items() if k in READS[command]}
        cfg.update(json.loads(json.dumps(fields).replace('"BAD"', json.dumps(bad))),
                   output=str(out))
        path = write_cfg(tmp_path / "c.json", **cfg)
        assert main([command, path]) == 2
        assert (f"error: bad {next(iter(fields))}: expected an integer"
                in capsys.readouterr().err)
        assert not out.exists()


class TestFloatFields:
    """A float field takes only a JSON number: ``float()`` used to read
    ``true`` as 1.0 and parse ``"0.3"``, and the run exited 0."""

    chain = TestIntegerFields.chain

    @pytest.mark.parametrize("bad", [True, "0.3"])
    @pytest.mark.parametrize("command, fields", [
        ("criteria-scan", {"epsilon": "BAD"}),
        ("criteria-scan", {"slack": "BAD"}),
        ("criteria-scan", {"times": ["BAD", 1.0]}),
        ("lightcone", {"times": {"start": "BAD", "stop": 1.0, "num": 3}}),
        ("lightcone", {"times": {"start": 0.0, "stop": "BAD", "num": 3}}),
        ("criteria-scan", {"hamiltonian": dict(chain, j="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(chain, h_field="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(chain, bond_couplings=[1.0, "BAD", 1.0])}),
        ("criteria-scan", {"hamiltonian": dict(product_spec_dict(), g="BAD")}),
        ("decoupling", {"channel": {"builtin": "depolarizing", "p": "BAD"}}),
        ("decoupling", {"deltas": ["BAD"]}),
        ("decoupling", {"epsilon": "BAD"}),
        ("converse", {"delta": "BAD"}),
        ("depol-threshold", {"p_lo": "BAD"}),
        ("depol-threshold", {"p_hi": "BAD"}),
        ("depol-threshold", {"tol": "BAD"}),
        ("depol-threshold", {"p_min": "BAD"}),
        ("depol-threshold", {"p_max": "BAD"}),
        ("recurrence", {"t_max": "BAD"}),
        ("recurrence", {"step": "BAD"}),
        ("recurrence", {"tol": "BAD"}),
    ], ids=["epsilon", "slack", "times", "times-start", "times-stop", "j", "h_field",
            "bond_couplings", "g", "depolarizing-p", "deltas", "decoupling-epsilon",
            "delta", "p_lo", "p_hi", "depol-tol", "p_min", "p_max", "t_max", "step",
            "recurrence-tol"])
    def test_non_number_exits_2(self, tmp_path, capsys, command, fields, bad):
        base = {"channel": {"builtin": "identity", "d": 2}, "epsilon": 0.05,
                "delta": 0.01, "seed": 0, "samples": 2, "hamiltonian": self.chain,
                "times": [0.0, 1.0], "t_max": 1.0, "step": 0.5}
        out = tmp_path / "out"
        cfg = {k: v for k, v in base.items() if k in READS[command]}
        cfg.update(json.loads(json.dumps(fields).replace('"BAD"', json.dumps(bad))),
                   output=str(out))
        path = write_cfg(tmp_path / "c.json", **cfg)
        assert main([command, path]) == 2
        assert (f"error: bad {next(iter(fields))}: expected a number"
                in capsys.readouterr().err)
        assert not out.exists()
