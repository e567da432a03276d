"""Experiment runner: every analysis as a subcommand driven by a JSON config.

Exit codes: 0 success, 2 config/validation error, 3 numerical or I/O failure.
Given the same config and seed, output files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import assignment, decoupling, dynamics
from .channels import Channel, depolarizing, iid_threshold
from .entropy import von_neumann
from .linalg import maximally_mixed
from .serialize import (atomic_write_text, decode_complex_vector, load_kraus_file,
                        reject_unknown_keys, require_float, require_int)

SCHEMA_VERSION = 1


def _format_value(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def emit(table, fmt: str, path: str) -> None:
    """Write a (header, rows) table as CSV or JSON, atomically.

    CSV uses '.' decimals and 17 significant digits so values round-trip
    bit-identically; JSON keeps the header's key order.
    """
    header, rows = table
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_format_value(x) for x in row) for row in rows]
        atomic_write_text(path, "\n".join(lines) + "\n")
    elif fmt == "json":
        records = [dict(zip(header, [x if not isinstance(x, (np.floating, np.integer))
                                     else x.item() for x in row]))
                   for row in rows]
        atomic_write_text(path, json.dumps(records, indent=2) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    pass


# The top-level config fields each subcommand reads; any other is an error,
# so a misspelt field cannot silently fall back to its default; the parsers
# of a Hamiltonian, a channel and a time grid check their keys the same way.
_SCAN_FIELDS = {"hamiltonian", "times", "epsilon", "format", "output"}
_FIELDS = {
    "criteria-scan": _SCAN_FIELDS,
    "depol-threshold": {"p_lo", "p_hi", "tol", "p_min", "p_max", "num", "format",
                        "output"},
    "decoupling": {"channel", "deltas", "samples", "seed", "output"},
    "converse": {"channel", "epsilon", "delta", "samples", "seed", "output"},
    "lightcone": _SCAN_FIELDS,
    "recurrence": {"hamiltonian", "t_max", "step", "tol", "epsilon", "output"},
    "absence": {"hamiltonian", "phi", "times", "samples", "seed", "output"},
}
# Flags that override the config field of the same name, where it is read.
_OVERRIDES = {"seed": {"type": int}, "output": {}, "epsilon": {"type": float},
              "delta": {"type": float}, "format": {"choices": ("csv", "json")}}


def load_config(path: str | None, args) -> dict:
    if path is None:
        cfg: dict = {"schema": SCHEMA_VERSION}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if cfg.get("schema") != SCHEMA_VERSION:
            raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
        unknown = sorted(set(cfg) - _FIELDS[args.command] - {"schema"})
        if unknown:
            raise ConfigError(f"{args.command} does not read config "
                              f"field(s) {', '.join(map(repr, unknown))}")
    for key in _OVERRIDES:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    # checked before any work: a runner writes its output only at the end
    if not isinstance(cfg.get("output", ""), str):
        raise ConfigError(f"bad output: expected a file path, got {cfg['output']!r}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return cfg[key]


# A field of the wrong JSON type (null, a number for a list) raises TypeError
# inside the parsers, and float() of an integer past 1e308 OverflowError; every
# parse error is a config error, exit code 2.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _number(cfg: dict, key: str, kind=float, default=None):
    """Scalar field ``key`` as ``kind``; required when there is no default."""
    val = _require(cfg, key) if default is None else cfg.get(key, default)
    try:
        return require_int(val) if kind is int else require_float(val)
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _seed(cfg: dict) -> int:
    """The required ``seed`` field, an integer >= 0: numpy's generators
    refuse a negative seed, and so does a run that draws nothing (a converse
    that does not fire)."""
    seed = _number(cfg, "seed", int)
    if seed < 0:
        raise ConfigError(f"bad seed: expected an integer >= 0, got {seed}")
    return seed


def _times_of(cfg: dict) -> list[float]:
    times = _require(cfg, "times")
    try:
        if isinstance(times, dict):
            reject_unknown_keys(times, ("start", "stop", "num"))
            start, stop = require_float(times["start"]), require_float(times["stop"])
            return list(np.linspace(start, stop, require_int(times["num"])))
        return [require_float(t) for t in times]
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad times: {exc}") from exc


def _spec_of(cfg: dict) -> dynamics.HamiltonianSpec:
    spec = _require(cfg, "hamiltonian")
    if not isinstance(spec, dict):
        raise ConfigError("hamiltonian must be an object")
    try:
        return dynamics.spec_from_dict(spec)
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad hamiltonian: {exc}") from exc


def _channel_of(cfg: dict) -> Channel:
    spec = _require(cfg, "channel")
    if not isinstance(spec, (str, dict)):
        raise ConfigError("channel must be a Kraus file path or an object")
    try:
        if isinstance(spec, str):
            return Channel.from_kraus(load_kraus_file(spec))
        name = spec.get("builtin")
        if name == "depolarizing":
            reject_unknown_keys(spec, ("builtin", "p"))
            return depolarizing(require_float(spec["p"]))
        if name == "identity":
            reject_unknown_keys(spec, ("builtin", "d"))
            return Channel.identity(require_int(spec["d"]))
        if "kraus_file" in spec:
            reject_unknown_keys(spec, ("kraus_file",))
            path = spec["kraus_file"]
            # open() reads an int, true among them, as a file descriptor
            if not isinstance(path, str):
                raise ValueError(f"kraus_file must be a path, got {path!r}")
            return Channel.from_kraus(load_kraus_file(path))
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad channel: {exc}") from exc
    raise ConfigError(f"unrecognized channel description {spec!r}")


# ---------------------------------------------------------------------------
# Subcommand runners.  Each prints a one-line summary and returns 0.
# ---------------------------------------------------------------------------


def run_criteria_scan(cfg: dict) -> int:
    spec = _spec_of(cfg)
    times = _times_of(cfg)
    eps = _number(cfg, "epsilon", default=0.05)
    rows = [[t, retained.lhs, retained.rhs, retained.margin,
             lost.verdict if retained.verdict == dynamics.INCONCLUSIVE else retained.verdict]
            for t, (lost, retained) in zip(times, dynamics.system_criteria_scan(spec, times, eps))]
    verdicts = [row[-1] for row in rows]
    emit((["t", "lhs_bits", "rhs_bits", "margin_bits", "verdict"], rows),
         cfg.get("format", "csv"), _require(cfg, "output"))
    print(f"criteria-scan: {len(times)} times, "
          f"retained={verdicts.count(dynamics.MEMORY_RETAINED)} "
          f"lost={verdicts.count(dynamics.MEMORY_LOST)} "
          f"inconclusive={verdicts.count(dynamics.INCONCLUSIVE)}")
    return 0


def run_depol_threshold(cfg: dict) -> int:
    lo, hi = _number(cfg, "p_lo", default=0.01), _number(cfg, "p_hi", default=0.5)
    tol = _number(cfg, "tol", default=1e-8)
    ps = np.linspace(_number(cfg, "p_min", default=0.0),
                     _number(cfg, "p_max", default=0.75),
                     _number(cfg, "num", int, default=76))
    p_c = iid_threshold(depolarizing, lo=lo, hi=hi, tol=tol)
    rows = []
    for p in ps:
        tau = depolarizing(float(p)).dilation_state(maximally_mixed(2))
        rows.append([float(p), von_neumann(tau.marginal("S")),
                     von_neumann(tau.marginal("E"))])
    if "output" in cfg:
        emit((["p", "H_S", "H_E"], rows), cfg.get("format", "csv"), cfg["output"])
    print(f"p_c = {p_c:.6f}")
    return 0


def run_decoupling(cfg: dict) -> int:
    ch = _channel_of(cfg)
    try:
        deltas = [require_float(d) for d in cfg.get("deltas", (0.5,))]
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad deltas: {exc}") from exc
    report = decoupling.decoupling_report(
        ch, n_samples=_number(cfg, "samples", int, default=200),
        seed=_seed(cfg), deltas=deltas)
    if "output" in cfg:
        atomic_write_text(cfg["output"], report.to_json() + "\n")
    print(f"decoupling: mean={report.empirical_mean:.6f} "
          f"bound={report.bound:.6f} samples={report.n_samples}")
    return 0


def run_converse(cfg: dict) -> int:
    ch = _channel_of(cfg)
    res = decoupling.converse_check(
        ch, eps=_number(cfg, "epsilon"), delta=_number(cfg, "delta"),
        n_samples=_number(cfg, "samples", int, default=50),
        seed=_seed(cfg))
    if "output" in cfg:
        obj = {"fires": res.fires, "h_max_joint": res.h_max_joint,
               "h_min_output": res.h_min_output, "lhs": res.lhs,
               "trial_min_avg": res.trial_min_avg,
               "empirical_ok": res.empirical_ok}
        atomic_write_text(cfg["output"], json.dumps(obj, indent=2,
                                                    sort_keys=True) + "\n")
    print(f"converse: fires={res.fires} lhs={res.lhs:.4f} "
          f"rhs={res.h_min_output:.4f}")
    return 0


def run_lightcone(cfg: dict) -> int:
    spec = _spec_of(cfg)
    scan = dynamics.lightcone_scan(spec, _times_of(cfg),
                                   eps=_number(cfg, "epsilon", default=0.05))
    rows = [[float(t), float(he), float(ds)]
            for t, he, ds in zip(scan.times, scan.h_max_env, scan.deficit_sys)]
    emit((["t", "h_max_env_bits", "deficit_sys_bits"], rows),
         cfg.get("format", "csv"), _require(cfg, "output"))
    print(f"lightcone: t_star={scan.t_star} slope_env={scan.slope_env:.4f} "
          f"slope_sys={scan.slope_sys:.4f}")
    return 0


def run_recurrence(cfg: dict) -> int:
    spec = _spec_of(cfg)
    scan = dynamics.recurrence_scan(spec, t_max=_number(cfg, "t_max"),
                                    step=_number(cfg, "step"),
                                    tol=_number(cfg, "tol", default=1e-6),
                                    eps=_number(cfg, "epsilon", default=0.05))
    if "output" in cfg:
        obj = {"t_rec": scan.t_rec, "distance_at_rec": scan.distance_at_rec,
               "min_distance": scan.min_distance,
               "argmin_time": scan.argmin_time,
               "verdict_at_rec": None if scan.verdict_at_rec is None
               else scan.verdict_at_rec.verdict}
        atomic_write_text(cfg["output"], json.dumps(obj, indent=2,
                                                    sort_keys=True) + "\n")
    print(f"recurrence: t_rec={scan.t_rec} min_distance={scan.min_distance:.3e}")
    return 0


def run_absence(cfg: dict) -> int:
    spec = _spec_of(cfg)
    try:
        phi = decode_complex_vector(_require(cfg, "phi"))
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad phi: {exc}") from exc
    report = assignment.verify_absence(
        spec, phi, _times_of(cfg), n_env_samples=_number(cfg, "samples", int, default=20),
        seed=_seed(cfg))
    if "output" in cfg:
        atomic_write_text(cfg["output"], report.to_json() + "\n")
    print(f"absence: delta_phi={report.delta_phi:.6f} bound={report.bound:.6f} "
          f"max_distance={report.deterministic_max_distance:.6f}")
    return 0


RUNNERS = {
    "criteria-scan": run_criteria_scan,
    "depol-threshold": run_depol_threshold,
    "decoupling": run_decoupling,
    "converse": run_converse,
    "lightcone": run_lightcone,
    "recurrence": run_recurrence,
    "absence": run_absence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memloss",
        description="entropic memory-loss criteria for quantum dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="JSON experiment config (schema 1)")
        for key, kwargs in _OVERRIDES.items():
            if key in _FIELDS[name]:
                p.add_argument(f"--{key}", default=None, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (or --help)
        return exc.code
    try:
        cfg = load_config(args.config, args)
        if args.config is None and args.command != "depol-threshold":
            raise ConfigError(f"{args.command} needs a config file")
        return RUNNERS[args.command](cfg)
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
