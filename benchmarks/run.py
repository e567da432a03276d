"""memloss benchmark: one workload per process, every metric by name and unit.

    python3 benchmarks/run.py --workload chain-scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: fixed before numpy loads, in this process and in the
# set-up probes it starts.  See README.md for the measured spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
REF_EVERY_S = 0.25
# The reference kernel's time when the host is quiet: the floor of its
# times over many runs on the 2-vCPU machine of README.md (38 to 41 ms).
KERNEL_QUIET_S = 0.040
PROBE = "import sys, time\nimport memloss\nprint(time.monotonic() - float(sys.argv[1]))"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds() -> float:
    """Median time from process start until ``import memloss`` returns."""
    env = dict(os.environ, PYTHONPATH=SRC)
    values = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE, repr(start)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


class Round(NamedTuple):
    traced: bool
    walls: list      # wall seconds of each op
    refs: list       # wall seconds of each reference-kernel run
    cpu: float       # process CPU seconds of the ops
    outputs: list


class ReferenceKernel:
    """A fixed numpy and pure-Python computation, independent of memloss.

    Its time tracks the host's speed: on a shared 2-vCPU machine that speed
    swings by tens of percent over seconds, and the ratio of a round's time
    to the kernel's time, run between the round's ops, swings far less where
    the ops slow down as the kernel does (see README.md, "Steadiness").  The
    inputs are fixed, not drawn from --seed.
    """

    def __init__(self):
        rng = np.random.default_rng(20240611)
        self.small = rng.standard_normal((128, 128))
        self.small = self.small + self.small.T
        g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.large = g + g.conj().T

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            self.small @ self.small
            np.linalg.eigvalsh(self.small)
            self.large @ self.large
            np.linalg.eigvalsh(self.large)
            acc = 0
            for i in range(20000):
                acc += i * i
        return time.perf_counter() - t0


def run_round(ops, kernel, traced=False) -> Round:
    """Runs every op once, and the reference kernel once before the first op
    and once for every REF_EVERY_S seconds of ops, right after the op that
    completes them, so that the kernel samples the host's speed about as
    often as the ops use it."""
    state: dict = {}
    results, walls, refs = [], [], [kernel()]
    cpu, owed = 0.0, 0.0
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                results.append(op.run(state))
            except Exception as exc:  # one failed analysis call; keep going
                results.append(exc)
            walls.append(time.perf_counter() - t0)
            cpu += time.process_time() - cpu0
            owed += walls[-1]
            while owed >= REF_EVERY_S:
                refs.append(kernel())
                owed -= REF_EVERY_S
    return Round(traced, walls, refs, cpu, results)


def wall_seconds(rounds, follows_kernel: bool) -> float:
    """Median over rounds of the round's wall time; where the workload's ops
    follow the kernel, rescaled to the host's quiet speed, at which the
    kernel takes KERNEL_QUIET_S."""
    if not follows_kernel:
        return statistics.median(sum(r.walls) for r in rounds)
    return statistics.median(sum(r.walls) * KERNEL_QUIET_S / statistics.fmean(r.refs)
                             for r in rounds)


def read_results(ops, results, errors):
    """Reads each op's output (untimed); exceptions become None plus an error."""
    outputs = []
    for op, result in zip(ops, results):
        try:
            if isinstance(result, Exception):
                raise result
            outputs.append(op.read(result))
        except Exception as exc:  # noqa: BLE001 - reported as a failed call
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            outputs.append(None)
    return outputs


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds for about ``seconds``: at least one, and another only
    while it is expected to end less than half a round after ``seconds``.
    Returns the rounds, with their outputs read, and the errors met.

    With a tracer, rounds alternate untraced / traced in whole pairs, so the
    tracing overhead is measured on the same inputs in the same process.
    """
    kernel = ReferenceKernel()
    rounds, errors = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        try:
            done = run_round(ops, kernel, traced)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(done._replace(outputs=read_results(ops, done.outputs, errors)))
        if tracer is not None and not traced:
            continue
        elapsed = time.perf_counter() - start
        step = elapsed / len(rounds) * (1 if tracer is None else 2)
        if elapsed + step / 2 >= seconds:
            break
    return rounds, errors


def layer_metrics(tracer, rounds) -> dict:
    from tracer import metric_names

    traced = [i for i, r in enumerate(rounds) if r.traced]
    per_round = [tracer.summary(i) for i in traced]
    metrics = {name: {"value": statistics.median(s[name] for s in per_round),
                      "unit": "count" if name.endswith(".calls") else "s"}
               for name in metric_names()}
    traced_wall = statistics.median(sum(rounds[i].walls) for i in traced)
    plain_wall = statistics.median(sum(r.walls) for r in rounds if not r.traced)
    metrics["process.cpu_s"] = {"value": statistics.median(rounds[i].cpu for i in traced),
                                "unit": "s"}
    metrics["round.wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["host.ref_s"] = {"value": statistics.median(t for r in rounds for t in r.refs),
                             "unit": "s"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "memloss", "__init__.py")):
        print(f"error: no memloss package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds()

    sys.path.insert(0, SRC)
    import memloss
    import memloss.cli  # noqa: F401 - the CLI is not imported by the package

    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](memloss, args.seed, workdir)
        ops = workload.ops()
        prepare_s = time.perf_counter() - t0
        tracer = Tracer() if args.trace else None
        rounds, errors = run_rounds(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t0 = time.perf_counter()
        workload.references()
        failed, correct = 0, True
        for outputs in (r.outputs for r in rounds):
            for op, output, problems in zip(ops, outputs, workload.check(outputs)):
                if output is None or problems:
                    failed += 1
                if problems:
                    correct = False
                errors.extend(f"{op.name}: {problem}" for problem in problems)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics = layer_metrics(tracer, rounds)
        tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": [{"traced": r.traced, "wall_s": sum(r.walls),
                                  "ref_s": r.refs, "cpu_s": r.cpu}
                                 for r in rounds]})
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_seconds(rounds, workload.follows_kernel),
                              "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    result = {"correct": correct, "attempted": len(ops) * len(rounds),
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  round_walls=[sum(r.walls) for r in rounds],
                  round_refs=[r.refs for r in rounds],
                  prepare_s=prepare_s,
                  check_s=check_s, errors=errors)
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
