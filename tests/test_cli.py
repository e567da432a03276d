import contextlib
import copy
import gc
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memloss import assignment, cli, decoupling, dynamics, entropy
from memloss.channels import Channel
from memloss.cli import build_parser, emit, load_config, main
from memloss.dynamics import HamiltonianSpec, spec_to_dict
from memloss.linalg import MAX_ENTRIES, PAULI, Evolver, check_draws
from memloss.serialize import (decode_complex_matrix, decode_complex_vector, load_kraus_file,
                               read_json, require_finite, save_kraus_file)


def write_cfg(path, **fields):
    cfg = {"schema": 1}
    cfg.update(fields)
    path.write_text(json.dumps(cfg))
    return str(path)


# top-level config fields each subcommand reads, besides "schema"
READS = {
    "criteria-scan": {"hamiltonian", "times", "epsilon", "format", "output"},
    "lightcone": {"hamiltonian", "times", "epsilon", "format", "output"},
    "depol-threshold": {"p_lo", "p_hi", "tol", "p_min", "p_max", "num", "format",
                        "output"},
    "decoupling": {"channel", "deltas", "samples", "seed", "output"},
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
        ("criteria-scan", {"format": [0.0]}),
        ("lightcone", {"epsilon": {}}),
        ("lightcone", {"times": None}),
        ("decoupling", {"seed": [1]}),
        ("decoupling", {"samples": None}),
        ("decoupling", {"samples": 2.5}),
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
        # absence used to write "mc_exceed_fraction": -0.0 for -3 samples,
        # and "min_fidelity_margin": Infinity for no times
        ("absence", {"samples": -3}),
        ("absence", {"times": []}),
        ("lightcone", {"times": {"start": 0.0, "stop": 1.0, "num": 0}}),
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

    @pytest.mark.parametrize("field, command", [
        *((field, command) for field in ("sampels", "threads") for command in sorted(READS)),
        # retired: a verdict fires at margin > 0, and the decoupling bound
        # is the unsmoothed theorem
        ("slack", "criteria-scan"), ("slack", "lightcone"), ("epsilon", "decoupling")])
    def test_unknown_field_exits_2(self, tmp_path, capsys, field, command):
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
        # the fields of the configs that benchmarks/workloads.py writes;
        # load_config checks their names only, and parse_config their values
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

    def test_decoupling_schur_too_large_rejected_before_work(self, tmp_path, capsys,
                                                             monkeypatch):
        # a 2 -> 128 isometry: the Choi state is 256 x 256, inside the
        # envelope, but the SDP's Schur complement would be 16384 x 16384
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the dimension check")

        monkeypatch.setattr(decoupling, "avg_output_distance", forbidden)
        monkeypatch.setattr(Channel, "choi", forbidden)
        kraus = tmp_path / "k.json"
        save_kraus_file(str(kraus), [np.eye(128, 2, dtype=complex)])
        out = tmp_path / "dec.json"
        cfg = write_cfg(tmp_path / "c.json", channel=str(kraus), samples=5, seed=0,
                        output=str(out))
        assert main(["decoupling", cfg]) == 2
        assert "16384" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decoupling", "converse"])
    def test_huge_identity_rejected_before_it_is_built(self, tmp_path, capsys,
                                                       monkeypatch, command):
        # I_d at d = 10^7 would take 1.6 PB: refused by its size, not by the
        # MemoryError of np.eye
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated the identity")

        monkeypatch.setattr(np, "eye", forbidden)
        out = tmp_path / "out.json"
        fields = {"epsilon": 0.05, "delta": 0.001} if command == "converse" else {}
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 10_000_000},
                        samples=5, seed=0, output=str(out), **fields)
        assert main([command, cfg]) == 2
        assert "bad channel" in capsys.readouterr().err
        assert not out.exists()

    def test_unconverged_sdp_exits_3(self, tmp_path, capsys, monkeypatch):
        # a solve that did not converge yields no number
        monkeypatch.setattr(entropy, "SDP_MAX_STEPS", 1)
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
        {"kraus_file": True},                # open() reads it as descriptor 1
        {"kraus_file": 0},
    ], ids=["empty", "mixed", "identity-d0", "kraus_file-true", "kraus_file-0"])
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

    def test_converse_subnormal_epsilon(self, tmp_path, capsys):
        # eps^2 is 0 below eps = 1e-162; the penalty log2 2/eps^2 is taken
        # as 1 - 2 log2 eps, which stays finite
        out = tmp_path / "conv.json"
        cfg = write_cfg(tmp_path / "c.json",
                        channel={"builtin": "identity", "d": 1024},
                        epsilon=1e-320, delta=0.001, samples=5, seed=0,
                        output=str(out))
        assert main(["converse", cfg]) == 0
        obj = json.loads(out.read_text())
        assert np.isfinite(obj["lhs"]) and obj["fires"] is False
        assert abs(obj["lhs"] - (1.0 - 2.0 * np.log2(1e-320)) - obj["h_max_joint"]
                   - np.log2(1.0 / (1.0 - (np.sqrt(0.002) + 4e-320) ** 2))) < 1e-9

    @pytest.mark.parametrize("command", ["converse", "decoupling", "absence"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        # converse on identity(2) never fires and draws nothing, yet its
        # seed is refused as decoupling's and absence's are
        fields = {"channel": {"builtin": "identity", "d": 2}, "epsilon": 0.05,
                  "delta": 0.001, "samples": 2, "seed": -1,
                  "hamiltonian": TestIntegerFields.chain, "times": [0.0, 1.0],
                  "phi": [[1.0, 0.0], [0.0, 0.0]]}
        out = tmp_path / "out.json"
        cfg = write_cfg(tmp_path / "c.json", output=str(out),
                        **{k: v for k, v in fields.items() if k in READS[command]})
        assert main([command, cfg]) == 2
        assert "bad seed: expected an integer >= 0" in capsys.readouterr().err
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

    @pytest.mark.parametrize("command", ["criteria-scan", "lightcone", "recurrence",
                                         "absence"])
    @pytest.mark.parametrize("n_sites", [19, 25, 48, 64, 10 ** 30])
    def test_oversized_chain_exits_2(self, tmp_path, capsys, monkeypatch, command, n_sites):
        # n_sites = 48 used to exit 1 with a 2 PiB allocation error: a chain
        # past MAX_CHAIN_SITES is refused before its arrays are made
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated the chain")

        monkeypatch.setattr(np, "arange", forbidden)
        monkeypatch.setattr(np, "ones", forbidden)
        out = tmp_path / "out"
        fields = {"hamiltonian": dict(self.chain, n_sites=n_sites), "times": [0.0, 1.0],
                  "t_max": 1.0, "step": 0.5, "phi": [[1.0, 0.0], [0.0, 0.0]], "seed": 0}
        cfg = write_cfg(tmp_path / "c.json", output=str(out),
                        **{k: v for k, v in fields.items() if k in READS[command]})
        assert main([command, cfg]) == 2
        assert (f"error: bad hamiltonian: chain of {n_sites} sites: at most 18"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["criteria-scan", "lightcone"])
    def test_huge_time_exits_2(self, tmp_path, capsys, command):
        # t = 1e12 would take about 1e13 Chebyshev terms: refused before
        # they are counted, with nothing written
        out = tmp_path / "scan.csv"
        chain = dict(self.chain, psi_e=[[1.0, 0.0]] + [[0.0, 0.0]] * 7)
        cfg = write_cfg(tmp_path / "c.json", hamiltonian=chain, times=[0.0, 1e12],
                        output=str(out))
        assert main([command, cfg]) == 2
        assert "Chebyshev terms" in capsys.readouterr().err
        assert not out.exists()

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
        ("criteria-scan", {"times": ["BAD", 1.0]}),
        ("lightcone", {"times": {"start": "BAD", "stop": 1.0, "num": 3}}),
        ("lightcone", {"times": {"start": 0.0, "stop": "BAD", "num": 3}}),
        ("criteria-scan", {"hamiltonian": dict(chain, j="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(chain, h_field="BAD")}),
        ("criteria-scan", {"hamiltonian": dict(chain, bond_couplings=[1.0, "BAD", 1.0])}),
        ("criteria-scan", {"hamiltonian": dict(product_spec_dict(), g="BAD")}),
        ("decoupling", {"channel": {"builtin": "depolarizing", "p": "BAD"}}),
        ("decoupling", {"deltas": ["BAD"]}),
        ("converse", {"delta": "BAD"}),
        ("depol-threshold", {"p_lo": "BAD"}),
        ("depol-threshold", {"p_hi": "BAD"}),
        ("depol-threshold", {"tol": "BAD"}),
        ("depol-threshold", {"p_min": "BAD"}),
        ("depol-threshold", {"p_max": "BAD"}),
        ("recurrence", {"t_max": "BAD"}),
        ("recurrence", {"step": "BAD"}),
        ("recurrence", {"tol": "BAD"}),
    ], ids=["epsilon", "times", "times-start", "times-stop", "j", "h_field",
            "bond_couplings", "g", "depolarizing-p", "deltas", "delta", "p_lo", "p_hi",
            "depol-tol", "p_min", "p_max", "t_max", "step", "recurrence-tol"])
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


class TestNestedKeys:
    """A Hamiltonian, a channel object and a time grid take only their own
    keys: a misspelt ``"h_feild": 3.0`` used to run the chain at h = 1 and
    exit 0."""

    chain = TestIntegerFields.chain

    @pytest.mark.parametrize("command, field, value, key", [
        ("criteria-scan", "hamiltonian", dict(chain, h_feild=3.0), "h_feild"),
        ("criteria-scan", "hamiltonian", dict(chain, bond_coupling=[0, 0, 0]),
         "bond_coupling"),
        ("criteria-scan", "hamiltonian", dict(chain, omega_S=[[[1.0, 0.0]], [[0.0, 0.0]]]),
         "omega_S"),
        ("criteria-scan", "hamiltonian", dict(chain, matrix=[[[0.0, 0.0]]]), "matrix"),
        ("criteria-scan", "hamiltonian", dict(product_spec_dict(), n_sites=4), "n_sites"),
        ("criteria-scan", "hamiltonian", dict(TestIntegerFields.explicit, G=0.1), "G"),
        ("lightcone", "times", {"start": 0.0, "stop": 1.0, "num": 3, "endpoint": False},
         "endpoint"),
        ("decoupling", "channel", {"builtin": "depolarizing", "p": 0.3, "d": 2}, "d"),
        ("decoupling", "channel", {"builtin": "identity", "d": 2, "p": 0.3}, "p"),
        ("converse", "channel", {"kraus_file": "kraus.json", "builtin": None}, "builtin"),
    ], ids=["spin_chain-h_field", "spin_chain-bonds", "spin_chain-omega_s",
            "spin_chain-matrix", "coupled_product", "explicit", "times",
            "depolarizing", "identity", "kraus_file"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, monkeypatch, command, field,
                                 value, key):
        monkeypatch.chdir(tmp_path)
        save_kraus_file(str(tmp_path / "kraus.json"), [np.eye(2)])
        base = {"channel": {"builtin": "identity", "d": 2}, "epsilon": 0.05,
                "delta": 0.01, "seed": 0, "samples": 2, "hamiltonian": self.chain,
                "times": [0.0, 1.0]}
        out = tmp_path / "out"
        cfg = {k: v for k, v in base.items() if k in READS[command]}
        cfg.update({field: value}, output=str(out))
        path = write_cfg(tmp_path / "c.json", **cfg)
        assert main([command, path]) == 2
        assert f"error: bad {field}: unknown key(s) {key!r}" in capsys.readouterr().err
        assert not out.exists()


def _forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(owner, name, forbidden)


class TestCountCaps:
    """A count that sizes an array is refused, exit 2, before anything is
    allocated: ``"num": 10**15`` used to exit 1 with a 7 PiB allocation
    error.  The cap is ``MAX_ENTRIES`` entries."""

    @pytest.mark.parametrize("command, fields, forbidden, message", [
        ("criteria-scan", {"times": {"start": 0.0, "stop": 1.0, "num": 10 ** 15}},
         (np, "linspace"), "bad times: expected a count from 0 to 16777216, got 10"),
        ("lightcone", {"times": {"start": 0.0, "stop": 1.0, "num": MAX_ENTRIES + 1}},
         (np, "linspace"), "bad times: expected a count"),
        ("absence", {"times": {"start": 0.0, "stop": 1.0, "num": 10 ** 15}},
         (np, "linspace"), "bad times: expected a count"),
        ("depol-threshold", {"num": MAX_ENTRIES + 1}, (np, "linspace"),
         "bad num: expected a count"),
        ("recurrence", {"t_max": 1e9, "step": 1e-3}, (np, "arange"),
         "recurrence grid of 1e+12 steps: at most 16777216"),
        ("recurrence", {"t_max": MAX_ENTRIES + 1.0, "step": 1.0}, (np, "arange"),
         "recurrence grid of"),
        # samples x the dimension of one drawn state: 2, 1024 and d_E = 4
        ("decoupling", {"samples": MAX_ENTRIES // 2 + 1},
         (decoupling, "indexed_haar_states"), "8388609 samples of dimension 2: at most 16777216"),
        ("converse", {"samples": 10 ** 15}, (decoupling, "indexed_haar_states"),
         "1000000000000000 samples of dimension 1024"),
        ("absence", {"samples": MAX_ENTRIES // 4 + 1}, (assignment, "indexed_haar_states"),
         "4194305 samples of dimension 4"),
    ], ids=["scan-grid", "lightcone-grid", "absence-grid", "depol-num", "recurrence",
            "recurrence-edge", "decoupling-samples", "converse-samples",
            "absence-samples"])
    def test_oversized_count_exits_2(self, tmp_path, capsys, monkeypatch, command, fields,
                                     forbidden, message):
        _forbid(monkeypatch, *forbidden)
        base = {"hamiltonian": product_spec_dict(), "times": [0.0, 1.0],
                "phi": [[1.0, 0.0], [0.0, 0.0]], "t_max": 1.0, "step": 0.5,
                "channel": {"builtin": "identity", "d": 1024 if command == "converse" else 2},
                "epsilon": 0.05, "delta": 0.001, "samples": 2, "seed": 0}
        out = tmp_path / "out"
        cfg = {k: v for k, v in base.items() if k in READS[command]}
        cfg.update(fields, output=str(out))
        assert main([command, write_cfg(tmp_path / "c.json", **cfg)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_draws_up_to_the_cap(self):
        check_draws(MAX_ENTRIES // 2, 2)
        check_draws(0, 10 ** 9)
        with pytest.raises(ValueError, match="at most 16777216 entries"):
            check_draws(MAX_ENTRIES // 2 + 1, 2)


class TestFormatBeforeWork:
    """``format`` is parsed with every other field, before any work: a config
    with ``"format": "yaml"`` used to evolve and smooth every time first."""

    @pytest.mark.parametrize("command", ["criteria-scan", "lightcone", "depol-threshold"])
    def test_bad_format_exits_2_unrun(self, tmp_path, capsys, monkeypatch, command):
        _forbid(monkeypatch, Evolver, "evolve")
        _forbid(monkeypatch, cli, "iid_threshold")
        out = tmp_path / "out"
        cfg = {"hamiltonian": TestIntegerFields.chain, "times": [0.0, 1.0]}
        if command == "depol-threshold":
            cfg = {}
        path = write_cfg(tmp_path / "c.json", format="yaml", output=str(out), **cfg)
        assert main([command, path]) == 2
        assert ("error: bad format: expected 'csv' or 'json', got 'yaml'"
                in capsys.readouterr().err)
        assert not out.exists()


# JSON values of the wrong kind for any scalar field
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


_BAD_FIELDS = st.one_of(
    st.tuples(st.just("samples"), st.one_of(
        _JUNK, st.integers(max_value=0), st.floats(allow_nan=True, allow_infinity=True))),
    st.tuples(st.just("seed"), st.one_of(
        _JUNK, st.integers(max_value=-1), st.floats(allow_nan=True, allow_infinity=True))),
    st.tuples(st.just("channel"), st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.lists(_JUNK, max_size=2),
        st.fixed_dictionaries({"builtin": st.just("identity"),
                               "d": st.one_of(_JUNK, st.integers(max_value=0),
                                              st.floats())}),
        st.fixed_dictionaries({"builtin": st.just("depolarizing"),
                               "p": st.one_of(_JUNK, st.floats(min_value=1.0, exclude_min=True),
                                              st.floats(max_value=-1e-300))}),
        st.fixed_dictionaries({"builtin": st.text(max_size=6).filter(
            lambda name: name not in ("identity", "depolarizing"))}),
        st.fixed_dictionaries({"kraus_file": st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.text()))}),
        st.fixed_dictionaries({"builtin": st.just("identity")}),
        st.fixed_dictionaries({"builtin": st.just("depolarizing")}),
        # a tuple, which JSON has not: a Kraus file that holds its second
        # entry, no list of complex matrices of one shape
        st.tuples(st.just("kraus-file"), st.one_of(
            _JUNK, st.just([]), st.just([[[[1.0, 0.0]], [[1.0]]]]),
            st.just([[[[1.0, 0.0], [0.0, 0.0]]], [[[1.0, 0.0]]]]))),
    )),
)


def _assert_exits_2_unwritten(command, cfg, fields) -> str:
    """Run ``command`` on ``cfg`` updated with ``fields``, in a fresh directory,
    and return what it printed to stderr; a channel given as a tuple is a
    Kraus file holding its second entry.  No Hamiltonian may be diagonalized
    or evolved on the way: the error comes before any work."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, schema=1, output=os.path.join(tmp, "out.json"), **fields)
        if isinstance(cfg.get("channel"), tuple):
            kraus = os.path.join(tmp, "kraus.json")
            with open(kraus, "w", encoding="utf-8") as fh:
                json.dump(cfg["channel"][1], fh)
            cfg["channel"] = kraus
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with mock.patch.object(dynamics, "Evolver",
                               side_effect=AssertionError("Hamiltonian reached")), \
                contextlib.redirect_stderr(err):
            assert main([command, path]) == 2
        # neither the output nor an atomic write's temporary file
        assert set(os.listdir(tmp)) <= {"c.json", "kraus.json"}
        return err.getvalue()


# criteria-scan and lightcone: a 4-site chain, and draws that each break it
_SCAN_CHAIN = TestIntegerFields.chain
_CHAIN_KEYS = {"kind", "n_sites", "s_sites", "model", "j", "h_field", "bond_couplings",
               "omega_s", "omega_e", "psi_e", "phi_s"}
_NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                          st.lists(st.floats(), max_size=2), _NONFINITE)
_BAD_CHAIN_FIELDS = st.one_of(
    st.tuples(st.text(min_size=1, max_size=8).filter(lambda k: k not in _CHAIN_KEYS),
              _JUNK),
    st.tuples(st.just("kind"), st.one_of(
        _NOT_A_NUMBER, st.text(max_size=12).filter(
            lambda k: k not in ("spin_chain", "coupled_product", "explicit")))),
    # only sizes that are refused before anything is allocated
    st.tuples(st.just("n_sites"), st.one_of(
        _NOT_A_NUMBER, st.floats(), st.integers(max_value=1), st.integers(min_value=19))),
    st.tuples(st.just("s_sites"), st.one_of(
        _NOT_A_NUMBER, st.floats(), st.integers(max_value=0), st.integers(min_value=4))),
    st.tuples(st.just("model"), st.one_of(
        _NOT_A_NUMBER, st.text(max_size=12).filter(lambda m: m not in ("tfi", "heisenberg")))),
    st.tuples(st.sampled_from(["j", "h_field"]), _NOT_A_NUMBER),
    st.tuples(st.just("bond_couplings"), st.one_of(
        st.booleans(), st.floats(), st.text(max_size=4),
        st.lists(st.floats(-2.0, 2.0), max_size=6).filter(lambda b: len(b) != 3),
        st.lists(_NOT_A_NUMBER, min_size=3, max_size=3))),
    st.tuples(st.just("psi_e"), st.one_of(
        _NOT_A_NUMBER, st.integers(0, 16).filter(lambda n: n != 8).map(
            lambda n: [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1) if n else []),
        st.just([[1.0, 0.0]] * 8))),
)
_BAD_GRIDS = st.one_of(
    st.fixed_dictionaries({"start": _NOT_A_NUMBER, "stop": st.just(1.0), "num": st.just(3)}),
    st.fixed_dictionaries({"start": st.just(0.0), "stop": _NOT_A_NUMBER, "num": st.just(3)}),
    st.fixed_dictionaries({"start": st.just(0.0), "stop": st.just(1.0),
                           "num": st.one_of(_NOT_A_NUMBER, st.floats(),
                                            st.integers(max_value=0),
                                            st.integers(min_value=MAX_ENTRIES + 1))}),
    st.fixed_dictionaries({"start": st.just(0.0), "stop": st.just(1.0), "num": st.just(3),
                           "endpoint": st.booleans()}),
)
_BAD_HAMILTONIAN = st.tuples(st.just("hamiltonian"), st.one_of(
    _NOT_A_NUMBER, st.integers(), st.lists(_JUNK, max_size=2),
    _BAD_CHAIN_FIELDS.map(lambda bad: dict(_SCAN_CHAIN, **{bad[0]: bad[1]}))))
_BAD_TIMES = st.tuples(st.just("times"), st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=4), st.just([]),
    st.lists(st.one_of(st.none(), st.text(max_size=2), _NONFINITE), min_size=1,
             max_size=3).map(lambda bad: [0.0, *bad]),
    _BAD_GRIDS))
# numbers outside [0, 1), which parse_config refuses by name
_OUT_OF_RANGE_EPSILON = st.one_of(st.floats(min_value=1.0), st.floats(max_value=-1e-300),
                                  st.integers(min_value=1), st.integers(max_value=-1))
_BAD_EPSILON = st.tuples(st.just("epsilon"), st.one_of(_NOT_A_NUMBER, _OUT_OF_RANGE_EPSILON))


def _unknown_field(command):
    return st.tuples(st.text(min_size=1, max_size=8).filter(
        lambda k: k not in READS[command] | {"schema"}), _JUNK)


_BAD_SCAN_FIELDS = st.one_of(
    _BAD_HAMILTONIAN,
    _BAD_TIMES,
    _BAD_EPSILON,
    st.tuples(st.just("format"), st.one_of(
        _JUNK.filter(lambda f: f not in ("csv", "json")), st.integers(), st.floats())),
    # retired: a verdict fires at margin > 0
    st.tuples(st.just("slack"), st.one_of(_JUNK, st.floats(), st.integers())),
    _unknown_field("criteria-scan"),
)


class TestScanConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["criteria-scan", "lightcone"]), bad=_BAD_SCAN_FIELDS)
    def test_malformed_field_exits_2(self, command, bad):
        # a malformed or misspelt field, Hamiltonian key or time grid, an
        # oversized chain or the retired slack stops the run before any
        # output is written
        key, value = bad
        _assert_exits_2_unwritten(command, {"hamiltonian": _SCAN_CHAIN, "times": [0.0, 1.0],
                                            "epsilon": 0.05}, {key: value})

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["criteria-scan", "lightcone"]), eps=_OUT_OF_RANGE_EPSILON)
    def test_out_of_range_epsilon_is_named(self, command, eps):
        err = _assert_exits_2_unwritten(command, {"hamiltonian": _SCAN_CHAIN,
                                                  "times": [0.0, 1.0]}, {"epsilon": eps})
        assert "bad epsilon" in err


# recurrence: t_max = 1 and step = 0.5 on the 4-site chain
_BAD_RECURRENCE_FIELDS = st.one_of(
    _BAD_HAMILTONIAN,
    _BAD_EPSILON,
    st.tuples(st.sampled_from(["t_max", "step", "tol"]), _NOT_A_NUMBER),
    # no grid: step <= 0 or step > t_max
    st.tuples(st.just("step"), st.one_of(st.floats(max_value=0.0),
                                         st.floats(min_value=1.0, exclude_min=True))),
    st.tuples(st.just("t_max"), st.floats(max_value=0.5, exclude_max=True)),
    # a grid past MAX_ENTRIES steps of 0.5
    st.tuples(st.just("t_max"), st.floats(min_value=MAX_ENTRIES, max_value=1e300)),
    _unknown_field("recurrence"),
)

# absence: phi = |0> on the 4-site chain with S one site (d_E = 8); a
# normalized phi of any other size does not fit S
_WRONG_SIZE_PHI = st.integers(1, 17).filter(lambda n: n != 2).map(
    lambda n: [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1))
_ABSENCE = {"hamiltonian": _SCAN_CHAIN, "times": [0.0, 1.0],
            "phi": [[1.0, 0.0], [0.0, 0.0]], "samples": 2, "seed": 0}
_BAD_ABSENCE_FIELDS = st.one_of(
    # absence reads no psi_e: a chain without one is valid
    _BAD_HAMILTONIAN.filter(lambda bad: not isinstance(bad[1], dict)
                            or bad[1].get("psi_e", ()) is not None),
    _BAD_TIMES,
    st.tuples(st.just("phi"), st.one_of(
        _JUNK, st.just([[0.0, 0.0], [0.0, 0.0]]), st.just([[1.0, 0.0], [1.0, 0.0]]),
        st.tuples(_NONFINITE, st.sampled_from([0, 1])).map(
            lambda bad: [[bad[0], 0.0], [0.0, 0.0]][::1 - 2 * bad[1]]),
        _WRONG_SIZE_PHI)),
    st.tuples(st.just("samples"), st.one_of(
        _JUNK, st.floats(), st.integers(max_value=-1),
        st.integers(min_value=MAX_ENTRIES // 8 + 1))),
    st.tuples(st.just("seed"), st.one_of(_JUNK, st.floats(), st.integers(max_value=-1))),
    _unknown_field("absence"),
)

# depol-threshold: every field at its default
_BAD_DEPOL_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["p_lo", "p_hi", "tol", "p_min", "p_max"]), _NOT_A_NUMBER),
    # an empty bracket (p_hi = 0.5), and grids that leave [0, 1]
    st.tuples(st.just("p_lo"), st.floats(min_value=0.5, max_value=1e300)),
    st.tuples(st.just("p_min"), st.floats(min_value=-1e300, max_value=-1e-300)),
    st.tuples(st.just("p_max"), st.floats(min_value=1.0, max_value=1e300, exclude_min=True)),
    st.tuples(st.just("num"), st.one_of(
        _NOT_A_NUMBER, st.floats(), st.integers(max_value=-1),
        st.integers(min_value=MAX_ENTRIES + 1))),
    st.tuples(st.just("format"), st.one_of(
        _JUNK.filter(lambda f: f not in ("csv", "json")), st.integers(), st.floats())),
    _unknown_field("depol-threshold"),
)


class TestChainConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(bad=_BAD_RECURRENCE_FIELDS)
    def test_recurrence_malformed_field_exits_2(self, bad):
        # a malformed or misspelt field, an epsilon outside [0, 1) (checked
        # even when no recurrence is found) or an empty or oversized grid
        key, value = bad
        _assert_exits_2_unwritten("recurrence", {"hamiltonian": _SCAN_CHAIN, "t_max": 1.0,
                                                 "step": 0.5}, {key: value})

    @settings(max_examples=200, deadline=None)
    @given(bad=_BAD_ABSENCE_FIELDS)
    def test_absence_malformed_field_exits_2(self, bad):
        # a malformed or misspelt field, a phi of the wrong size or norm, no
        # times, or a negative or oversized number of samples
        key, value = bad
        _assert_exits_2_unwritten("absence", _ABSENCE, {key: value})

    @settings(max_examples=50, deadline=None)
    @given(phi=_WRONG_SIZE_PHI)
    def test_absence_phi_size_is_named(self, phi):
        assert "bad phi" in _assert_exits_2_unwritten("absence", _ABSENCE, {"phi": phi})


class TestDepolThresholdConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(bad=_BAD_DEPOL_FIELDS)
    def test_malformed_field_exits_2(self, bad):
        # a malformed or misspelt field, an empty bracket, a grid outside
        # [0, 1] or a negative or oversized num
        key, value = bad
        _assert_exits_2_unwritten("depol-threshold", {}, {key: value})


class TestDecouplingConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(bad=_BAD_FIELDS)
    def test_malformed_field_exits_2(self, bad):
        # a malformed channel, samples or seed stops the run before any
        # output is written
        key, value = bad
        _assert_exits_2_unwritten("decoupling", {"channel": {"builtin": "identity", "d": 2},
                                                 "samples": 3, "seed": 0}, {key: value})


# the positive subnormal floats, 5e-324 up to the least normal float
_SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)

_BAD_CONVERSE_FIELDS = st.one_of(
    _BAD_FIELDS,
    # eps and delta must be positive: zero and negative values, negative
    # subnormals among them, are malformed (a positive subnormal is valid)
    st.tuples(st.sampled_from(["epsilon", "delta"]), st.one_of(
        _JUNK, st.just(0.0), st.just(-0.0), _SUBNORMAL.map(lambda x: -x),
        st.floats(max_value=-1e-300), st.integers(max_value=-1),
        st.just(float("nan")), st.just(float("inf")), st.just(float("-inf")))),
)

# (eps, delta) pairs with sqrt(2 delta) + 4 eps >= 1, subnormal ones among them
_BROKEN_SHIFT = st.one_of(
    st.tuples(st.floats(min_value=0.25, max_value=1e300), st.floats(5e-324, 1e300)),
    st.tuples(st.floats(5e-324, 1e300), st.floats(min_value=0.5, max_value=1e300)),
    st.tuples(_SUBNORMAL, st.floats(min_value=0.5, max_value=1e300)),
    st.tuples(st.floats(min_value=0.25, max_value=1e300), _SUBNORMAL),
    st.floats(0.0, 0.25).map(lambda e: (e, 0.5 * (1.0 - 4.0 * e) ** 2)).filter(
        lambda p: p[0] > 0.0 and p[1] > 0.0
        and not np.sqrt(2.0 * p[1]) + 4.0 * p[0] < 1.0),
)


class TestConverseConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(bad=st.one_of(_BAD_CONVERSE_FIELDS,
                         _BROKEN_SHIFT.map(lambda pair: ("shift", pair))))
    def test_malformed_field_exits_2(self, bad):
        # a malformed channel, samples, seed, epsilon or delta, or a pair
        # with sqrt(2 delta) + 4 eps >= 1, stops the run before any output
        key, value = bad
        fields = dict(zip(("epsilon", "delta"), value)) if key == "shift" else {key: value}
        _assert_exits_2_unwritten("converse", {"channel": {"builtin": "identity", "d": 2},
                                               "samples": 3, "seed": 0, "epsilon": 0.05,
                                               "delta": 0.001}, fields)


def _old_decode_matrix(rows):
    """The per-entry decoder that the array pass replaced, kept as its
    oracle: one ``complex(re, im)`` call per entry."""
    return require_finite(np.array([[complex(re, im) for re, im in row] for row in rows],
                                   dtype=complex))


def _old_decode_vector(entries):
    return require_finite(np.array([complex(re, im) for re, im in entries], dtype=complex))


def _old_decode_kraus(data):
    """The old Kraus file reader, with the stacking that Channel did."""
    if not isinstance(data, list) or not data:
        raise ValueError("Kraus file must be a non-empty JSON array of matrices")
    return np.asarray([_old_decode_matrix(m) for m in data], dtype=complex)


_DECODERS = {1: (decode_complex_vector, _old_decode_vector),
             2: (decode_complex_matrix, _old_decode_matrix)}
# JSON numbers as json.loads returns them; true and false were read as 1 and
# 0, and an integer past 64 bits as the float it rounds to
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**80, 2**80), st.booleans())
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
# what may stand where a number belongs and is not one; float() would
# parse the numeric strings
_NOT_A_FINITE_NUMBER = st.one_of(
    st.none(), st.text(max_size=3), st.sampled_from(["1.5", "0", "-2e3"]), st.just([1.0]),
    st.just({}), st.just(10**400), _NONFINITE)
# (axes, value): one of each kind of break, besides the random ones
_MALFORMED_EXAMPLES = [
    (2, [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]),  # ragged rows
    (3, [[[[1.0, 0.0]]], [[[1.0, 0.0]], [[0.0, 0.0]]]]),  # matrices of two shapes
    (1, [[1.0, 0.0, 0.0]]),  # a triple
    (1, [[1.0]]),  # a single
    (2, [[["1.5", 0.0]]]),  # a numeric string
    (1, [[None, 0.0]]),  # null
    (2, [[[[1.0, 0.0]]]]),  # extra nesting
    (1, []), (2, [[]]), (3, [[[]]]), (3, []),  # empty lists
    (1, [[float("nan"), 0.0]]), (2, [[[0.0, float("inf")]]]),
    (3, [[[[float("-inf"), 0.0]]]]),
    (2, [[[10**400, 0.0]]]),  # past the float range
]


def _with_malformed_examples(test):
    for case in _MALFORMED_EXAMPLES:
        test = example(case)(test)
    return test


@st.composite
def _pairs(draw, axes):
    """``axes`` levels of non-empty lists of [re, im] pairs, of one shape."""
    shape = draw(st.lists(st.integers(1, 4), min_size=axes, max_size=axes))

    def build(dims):
        return draw(_PAIR) if not dims else [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


@st.composite
def _malformed_pairs(draw, axes):
    """A draw of :func:`_pairs` broken in one place."""
    value = draw(_pairs(axes))
    holder = value
    for _ in range(axes - 1):
        holder = holder[draw(st.integers(0, len(holder) - 1))]
    i = draw(st.integers(0, len(holder) - 1))  # holder[i] is a pair
    kind = draw(st.sampled_from(["ragged", "triple", "single", "not a number",
                                 "nested pair", "nested value", "empty pair", "empty"]))
    if kind == "ragged" and axes > 1:
        # one more row in one matrix, or one more pair in one row
        value.append(copy.deepcopy(value[0]))
        value[-1].append(copy.deepcopy(value[0][0]))
    elif kind in ("ragged", "triple"):
        holder[i] = holder[i] + [draw(_NUMBER)]
    elif kind == "single":
        holder[i] = holder[i][:1]
    elif kind == "not a number":
        holder[i][draw(st.integers(0, 1))] = draw(_NOT_A_FINITE_NUMBER)
    elif kind == "nested pair":
        holder[i] = [holder[i]]
    elif kind == "nested value":
        value = [value]
    elif kind == "empty pair":
        holder[i] = []
    else:
        value = draw(st.sampled_from([[], [[]], [[[]]], [[], []]]))
    return value


class TestArrayDecoder:
    """The one-pass array decoders against the per-entry ``complex(re, im)``
    decoder they replaced: the same arrays, the same inputs refused."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda axes: st.tuples(st.just(axes), _pairs(axes))))
    def test_well_formed_match_per_entry_decoder(self, case):
        axes, value = case
        new, old = (decode(value) for decode in _DECODERS[axes])
        assert new.dtype == old.dtype == complex and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(_pairs(3))
    def test_kraus_file_matches_per_entry_decoder(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kraus.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            new = load_kraus_file(path)
        old = _old_decode_kraus(json.loads(json.dumps(data)))
        assert new.dtype == complex and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda axes: st.tuples(st.just(axes), _malformed_pairs(axes))))
    @_with_malformed_examples
    def test_malformed_refused_by_both(self, case):
        axes, value = case
        if axes == 3:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "kraus.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(value, fh)
                with pytest.raises(cli._PARSE_ERRORS):
                    load_kraus_file(path)
            old = _old_decode_kraus
        else:
            new, old = _DECODERS[axes]
            with pytest.raises(cli._PARSE_ERRORS):
                new(value)
        try:
            got = old(value)
        except cli._PARSE_ERRORS:
            return
        # the old decoder let an empty list through as an empty array, which
        # each consumer refused (test_malformed_exits_2 runs them)
        assert got.size == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda axes: st.tuples(st.just(axes), _malformed_pairs(axes))))
    @_with_malformed_examples
    def test_malformed_exits_2(self, case):
        # a phi, an explicit Hamiltonian's matrix and a Kraus file
        axes, value = case
        if axes == 1:
            err = _assert_exits_2_unwritten("absence", _ABSENCE, {"phi": value})
            assert "error: bad phi:" in err
        elif axes == 2:
            err = _assert_exits_2_unwritten(
                "criteria-scan", {"times": [0.0]},
                {"hamiltonian": {"kind": "explicit", "matrix": value, "d_s": 1, "d_e": 1}})
            assert "error: bad hamiltonian:" in err
        else:
            err = _assert_exits_2_unwritten("decoupling", {"samples": 3, "seed": 0},
                                            {"channel": ("kraus-file", value)})
            assert "error: bad channel:" in err


class TestReadJson:
    """``read_json`` pauses the cyclic collector for the parse and leaves it
    as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, tmp_path, enabled):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"a": [[1.0, 2.0]]}')
        bad.write_text('{"a": [[1.0, 2.0]')
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert read_json(str(good)) == {"a": [[1.0, 2.0]]}
            assert gc.isenabled() is enabled
            with pytest.raises(json.JSONDecodeError):
                read_json(str(bad))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_paused_during_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text("[1]")
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled())
                            or loads(text))
        assert read_json(str(path)) == [1]
        assert seen == [False]
