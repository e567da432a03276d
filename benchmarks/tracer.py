"""In-memory span tracer for the per-layer benchmark metrics.

The tracer wraps memloss functions where their callers look them up: a
module-level function is replaced in every ``memloss`` module that holds it
under that name, a method is replaced on its class.  No file of the package
changes.  Each call records a span ``(name, start, end, parent, round)``;
spans stay in memory until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric prefix, module, attribute path).  The prefix is the layer module
# and the public name; ``init``/``post_init`` stand for the dunder methods.
TARGETS = (
    ("linalg.Evolver.init", "memloss.linalg", "Evolver.__init__"),
    ("linalg.Evolver.unitary", "memloss.linalg", "Evolver.unitary"),
    ("linalg.DensityMatrix.post_init", "memloss.linalg", "DensityMatrix.__post_init__"),
    ("linalg.partial_trace", "memloss.linalg", "partial_trace"),
    ("linalg.trace_distance", "memloss.linalg", "trace_distance"),
    ("linalg.haar_state", "memloss.linalg", "haar_state"),
    ("dynamics.HamiltonianSpec.spin_chain", "memloss.dynamics", "HamiltonianSpec.spin_chain"),
    ("dynamics.spec_from_dict", "memloss.dynamics", "spec_from_dict"),
    ("dynamics.tau_SE", "memloss.dynamics", "tau_SE"),
    ("dynamics.tilde_tau_SE", "memloss.dynamics", "tilde_tau_SE"),
    ("dynamics.system_criteria", "memloss.dynamics", "system_criteria"),
    ("dynamics.lightcone_scan", "memloss.dynamics", "lightcone_scan"),
    ("entropy.h_min_smooth", "memloss.entropy", "h_min_smooth"),
    ("entropy.h_max_smooth", "memloss.entropy", "h_max_smooth"),
    ("entropy.min_entropy_sdp", "memloss.entropy", "min_entropy_sdp"),
    ("entropy.chain_bounds", "memloss.entropy", "chain_bounds"),
    ("channels.Channel.apply", "memloss.channels", "Channel.apply"),
    ("channels.Channel.choi", "memloss.channels", "Channel.choi"),
    ("channels.Channel.dilation_state", "memloss.channels", "Channel.dilation_state"),
    ("decoupling.avg_output_distance", "memloss.decoupling", "avg_output_distance"),
    ("decoupling.converse_check", "memloss.decoupling", "converse_check"),
    ("decoupling.decoupling_bound", "memloss.decoupling", "decoupling_bound"),
    ("assignment.overlap_matrix", "memloss.assignment", "overlap_matrix"),
    ("assignment.delta_phi", "memloss.assignment", "delta_phi"),
    ("assignment.verify_absence", "memloss.assignment", "verify_absence"),
    ("serialize.load_kraus_file", "memloss.serialize", "load_kraus_file"),
    ("cli.emit", "memloss.cli", "emit"),
)

STATS = ("total_s", "self_s", "calls")


def metric_names() -> list[str]:
    """Every per-layer metric name the tracer reports, in a fixed order."""
    return [f"{name}.{stat}" for name, _, _ in TARGETS for stat in STATS]


class Tracer:
    """Records nested call spans of the wrapped functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, round]
        self.round = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, name)
            else:
                self._patch_function(getattr(module, path), path, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, fn, attr: str, name: str) -> None:
        wrapped = self._wrap(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "memloss" and not mod_name.startswith("memloss."):
                continue
            if getattr(module, attr, None) is fn:
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.round]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    # -- aggregation ----------------------------------------------------------

    def summary(self, round_index: int) -> dict[str, float]:
        """``total_s``, ``self_s`` and ``calls`` per target for one round.

        ``total_s`` sums only the outermost span of each name, so a function
        nested in itself is not counted twice; ``self_s`` subtracts the time
        covered by direct child spans.
        """
        out = {m: 0.0 for m in metric_names()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rnd in self.spans:
            if rnd == round_index and parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, rnd) in enumerate(self.spans):
            if rnd != round_index:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            if not self._has_ancestor(parent, name):
                out[f"{name}.total_s"] += end - start
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path: str, meta: dict) -> None:
        keys = ("name", "start", "end", "parent", "round")
        record = dict(meta, spans=[dict(zip(keys, s)) for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
            fh.write("\n")
