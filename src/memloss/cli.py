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
from .linalg import MAX_ENTRIES, maximally_mixed
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


# Parsers of one JSON field value.  A value of the wrong JSON type (null, a
# number for a list) raises TypeError inside them, and float() of an integer
# past 1e308 OverflowError; every parse error is a config error, exit code 2.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _count(value) -> int:
    """An integer from 0 to ``MAX_ENTRIES``: the length of an array."""
    n = require_int(value)
    if not 0 <= n <= MAX_ENTRIES:
        raise ValueError(f"expected a count from 0 to {MAX_ENTRIES}, got {n}")
    return n


def _seed(value) -> int:
    """An integer >= 0: numpy's generators refuse a negative seed, and so
    does a run that draws nothing (a converse that does not fire)."""
    seed = require_int(value)
    if seed < 0:
        raise ValueError(f"expected an integer >= 0, got {seed}")
    return seed


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f"expected 'csv' or 'json', got {value!r}")
    return value


def _path(value) -> str:
    # open() reads an int, true among them, as a file descriptor
    if not isinstance(value, str):
        raise ValueError(f"expected a file path, got {value!r}")
    return value


def _epsilon(value) -> float:
    """A smoothing radius in [0, 1), checked before any evolution."""
    eps = require_float(value)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"expected a value in [0, 1), got {eps!r}")
    return eps


def _times(value) -> list[float]:
    """A non-empty list of times, or a grid ``{"start", "stop", "num"}``."""
    if isinstance(value, dict):
        reject_unknown_keys(value, ("start", "stop", "num"))
        start, stop = require_float(value["start"]), require_float(value["stop"])
        times = list(np.linspace(start, stop, _count(value["num"])))
    else:
        times = [require_float(t) for t in value]
    if not times:
        raise ValueError("expected at least one time")
    return times


def _spec(value) -> dynamics.HamiltonianSpec:
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    return dynamics.spec_from_dict(value)


def _channel(value) -> Channel:
    """A Kraus file path, a builtin channel or ``{"kraus_file": path}``."""
    if isinstance(value, str):
        return Channel.from_kraus(load_kraus_file(value))
    if not isinstance(value, dict):
        raise ValueError(f"expected a Kraus file path or an object, got {value!r}")
    name = value.get("builtin")
    if name == "depolarizing":
        reject_unknown_keys(value, ("builtin", "p"))
        return depolarizing(require_float(value["p"]))
    if name == "identity":
        reject_unknown_keys(value, ("builtin", "d"))
        return Channel.identity(require_int(value["d"]))
    if "kraus_file" in value:
        reject_unknown_keys(value, ("kraus_file",))
        return Channel.from_kraus(load_kraus_file(_path(value["kraus_file"])))
    raise ValueError(f"unrecognized channel description {value!r}")


REQUIRED = object()  # the default of a field that has none

# Each subcommand's config fields, {field: (parser, default)} in the order
# they are parsed.  Any other field is an error, so a misspelt one cannot fall
# back to its default; Hamiltonians, channels and time grids check keys too.
_SCAN_FIELDS = {"hamiltonian": (_spec, REQUIRED), "times": (_times, REQUIRED),
                "epsilon": (_epsilon, 0.05), "format": (_format, "csv"),
                "output": (_path, REQUIRED)}
FIELDS = {
    "criteria-scan": _SCAN_FIELDS,
    "depol-threshold": {"p_lo": (require_float, 0.01), "p_hi": (require_float, 0.5),
                        "tol": (require_float, 1e-8), "p_min": (require_float, 0.0),
                        "p_max": (require_float, 0.75), "num": (_count, 76),
                        "format": (_format, "csv"), "output": (_path, None)},
    "decoupling": {"channel": (_channel, REQUIRED),
                   "deltas": (lambda v: [require_float(d) for d in v], (0.5,)),
                   "samples": (require_int, 200), "seed": (_seed, REQUIRED),
                   "output": (_path, None)},
    "converse": {"channel": (_channel, REQUIRED), "epsilon": (require_float, REQUIRED),
                 "delta": (require_float, REQUIRED), "samples": (require_int, 50),
                 "seed": (_seed, REQUIRED), "output": (_path, None)},
    "lightcone": _SCAN_FIELDS,
    "recurrence": {"hamiltonian": (_spec, REQUIRED), "t_max": (require_float, REQUIRED),
                   "step": (require_float, REQUIRED), "tol": (require_float, 1e-6),
                   "epsilon": (_epsilon, 0.05), "output": (_path, None)},
    "absence": {"hamiltonian": (_spec, REQUIRED), "phi": (decode_complex_vector, REQUIRED),
                "times": (_times, REQUIRED), "samples": (require_int, 20),
                "seed": (_seed, REQUIRED), "output": (_path, None)},
}
# Flags that override the config field of the same name, where it is read.
_OVERRIDES = {"seed": {"type": int}, "output": {}, "epsilon": {"type": float},
              "delta": {"type": float}, "format": {"choices": ("csv", "json")}}


def load_config(path: str | None, args) -> dict:
    """The config's fields, unparsed, with the flags' overrides."""
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
        unknown = sorted(set(cfg) - FIELDS[args.command].keys() - {"schema"})
        if unknown:
            raise ConfigError(f"{args.command} does not read config "
                              f"field(s) {', '.join(map(repr, unknown))}")
    for key in _OVERRIDES:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def parse_config(command: str, cfg: dict) -> dict:
    """Every field of ``command``, parsed or defaulted, before any work: the
    first missing or malformed one is a ConfigError that names it.  So is an
    ``absence`` phi that does not fit the Hamiltonian's S."""
    values = {}
    for key, (parse, default) in FIELDS[command].items():
        if key not in cfg and default is REQUIRED:
            raise ConfigError(f"config is missing required field {key!r}")
        try:
            values[key] = parse(cfg[key]) if key in cfg else default
        except _PARSE_ERRORS as exc:
            raise ConfigError(f"bad {key}: {exc}") from exc
    if command == "absence":
        try:
            assignment.check_phi(values["phi"], values["hamiltonian"].d_s)
        except ValueError as exc:
            raise ConfigError(f"bad phi: {exc}") from exc
    return values


def _write(path: str | None, text: str) -> None:
    """Write ``text`` and a newline to ``path``, if the config names one."""
    if path is not None:
        atomic_write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# Subcommand runners, on parsed fields.  Each prints a summary and returns 0.
# ---------------------------------------------------------------------------


def run_criteria_scan(hamiltonian, times, epsilon, format, output) -> int:
    rows = [[t, retained.lhs, retained.rhs, retained.margin,
             lost.verdict if retained.verdict == dynamics.INCONCLUSIVE else retained.verdict]
            for t, (lost, retained) in zip(times, dynamics.system_criteria_scan(
                hamiltonian, times, epsilon))]
    verdicts = [row[-1] for row in rows]
    emit((["t", "lhs_bits", "rhs_bits", "margin_bits", "verdict"], rows), format, output)
    print(f"criteria-scan: {len(times)} times, "
          f"retained={verdicts.count(dynamics.MEMORY_RETAINED)} "
          f"lost={verdicts.count(dynamics.MEMORY_LOST)} "
          f"inconclusive={verdicts.count(dynamics.INCONCLUSIVE)}")
    return 0


def run_depol_threshold(p_lo, p_hi, tol, p_min, p_max, num, format, output) -> int:
    p_c = iid_threshold(depolarizing, lo=p_lo, hi=p_hi, tol=tol)
    rows = []
    for p in np.linspace(p_min, p_max, num):
        tau = depolarizing(float(p)).dilation_state(maximally_mixed(2))
        rows.append([float(p), von_neumann(tau.marginal("S")),
                     von_neumann(tau.marginal("E"))])
    if output is not None:
        emit((["p", "H_S", "H_E"], rows), format, output)
    print(f"p_c = {p_c:.6f}")
    return 0


def run_decoupling(channel, deltas, samples, seed, output) -> int:
    report = decoupling.decoupling_report(channel, n_samples=samples, seed=seed,
                                          deltas=deltas)
    _write(output, report.to_json())
    print(f"decoupling: mean={report.empirical_mean:.6f} "
          f"bound={report.bound:.6f} samples={report.n_samples}")
    return 0


def run_converse(channel, epsilon, delta, samples, seed, output) -> int:
    res = decoupling.converse_check(channel, eps=epsilon, delta=delta,
                                    n_samples=samples, seed=seed)
    _write(output, json.dumps({"fires": res.fires, "h_max_joint": res.h_max_joint,
                               "h_min_output": res.h_min_output, "lhs": res.lhs,
                               "trial_min_avg": res.trial_min_avg,
                               "empirical_ok": res.empirical_ok}, indent=2, sort_keys=True))
    print(f"converse: fires={res.fires} lhs={res.lhs:.4f} "
          f"rhs={res.h_min_output:.4f}")
    return 0


def run_lightcone(hamiltonian, times, epsilon, format, output) -> int:
    scan = dynamics.lightcone_scan(hamiltonian, times, eps=epsilon)
    rows = [[float(t), float(he), float(ds)]
            for t, he, ds in zip(scan.times, scan.h_max_env, scan.deficit_sys)]
    emit((["t", "h_max_env_bits", "deficit_sys_bits"], rows), format, output)
    print(f"lightcone: t_star={scan.t_star} slope_env={scan.slope_env:.4f} "
          f"slope_sys={scan.slope_sys:.4f}")
    return 0


def run_recurrence(hamiltonian, t_max, step, tol, epsilon, output) -> int:
    scan = dynamics.recurrence_scan(hamiltonian, t_max=t_max, step=step, tol=tol,
                                    eps=epsilon)
    verdict = None if scan.verdict_at_rec is None else scan.verdict_at_rec.verdict
    _write(output, json.dumps({"t_rec": scan.t_rec, "distance_at_rec": scan.distance_at_rec,
                               "min_distance": scan.min_distance,
                               "argmin_time": scan.argmin_time,
                               "verdict_at_rec": verdict}, indent=2, sort_keys=True))
    print(f"recurrence: t_rec={scan.t_rec} min_distance={scan.min_distance:.3e}")
    return 0


def run_absence(hamiltonian, phi, times, samples, seed, output) -> int:
    report = assignment.verify_absence(hamiltonian, phi, times, n_env_samples=samples,
                                       seed=seed)
    _write(output, report.to_json())
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
            if key in FIELDS[name]:
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
        return RUNNERS[args.command](**parse_config(args.command, cfg))
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
