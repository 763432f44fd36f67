"""In-memory span tracer for the benchmark's traced run.

The solver imports its helpers by name, so a span has to wrap the name *as
bound in* ``tripcover.fds_solver``; wrapping it in its home module would miss
every call.  Each span records its name, start, end, parent span and the
benchmark's instance id.  A span's self time is its duration minus the time
its children cover.  Nothing in the package is edited: the wrappers are set
on entry to :meth:`Tracer.patched` and the originals put back on exit.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# name as bound in tripcover.fds_solver -> the package module (layer) it times
LAYER_OF = {
    "solve_global": "fds_solver",
    "validate_instance": "model",
    "preprocess_network": "preprocess",
    "classify_segment_pair": "preprocess",
    "restricted_problems": "fds_solver",
    "solve_restricted": "fds_solver",
    "minimize": "fds_solver",
    "sample_grid": "level_curves",
    "trace_level_curve": "level_curves",
    "intersect_curves": "level_curves",
    "coverage_weights": "mixed_distance",
    "coverage_and_objective": "mixed_distance",
}
PATCHED = tuple(name for name in LAYER_OF if name != "solve_global")

NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    """Spans and counters of one traced pass over a workload."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        # (instance id, best objective) of every restricted problem solved
        self.problem_objectives: list[tuple[int, float]] = []
        self.instance = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance]
            self.spans.append(span)
            self._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            self._observe(name, result, args)
            return result

        return traced

    def _observe(self, name: str, result, args) -> None:
        """Counters read from return values the solver would otherwise drop."""

        counts = self.counts
        if name == "preprocess_network":
            counts["segments"] += len(result.segments)
        elif name == "solve_restricted":
            counts["candidates"] += result.counters["omega"]
            self.problem_objectives.append((self.instance, result.objective))
        elif name == "intersect_curves":
            counts["crossings"] += len(result.points)
            counts["unrefined"] += sum(not p.refined for p in result.points)
            counts["retraced"] += bool(result.retraced)
            counts["bound_exceeded"] += bool(result.bound_exceeded)
        elif name == "coverage_weights":
            counts["coverage_points"] += np.broadcast(
                np.asarray(args[2]), np.asarray(args[3])
            ).size

    @contextmanager
    def patched(self, module):
        """Wrap every name of ``PATCHED`` in ``module`` for the block's duration."""

        originals = {name: getattr(module, name) for name in PATCHED}
        try:
            for name, fn in originals.items():
                setattr(module, name, self.wrap(name, fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def total_seconds(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def by_name(self) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call count per wrapped name."""

        seconds = dict.fromkeys(LAYER_OF, 0.0)
        calls: Counter[str] = Counter()
        for span, own in zip(self.spans, self.self_times()):
            seconds[span[NAME]] += own
            calls[span[NAME]] += 1
        return seconds, calls

    def structure_errors(self, wall_s: float) -> list[str]:
        """Checks that the spans tile the timed ``solve_global`` calls."""

        errors = []
        roots = [s for s in self.spans if s[PARENT] < 0]
        if any(s[NAME] != "solve_global" for s in roots):
            errors.append("a span ran outside solve_global")
        total_self = sum(self.self_times())
        root_s = sum(s[END] - s[START] for s in roots)
        if abs(total_self - root_s) > 1e-9 * max(root_s, 1.0):
            errors.append(f"self times sum to {total_self} s, roots cover {root_s} s")
        if abs(root_s - wall_s) > 1e-3 * wall_s:
            errors.append(f"root spans cover {root_s} s of {wall_s} s timed")
        return errors

    def layer_metrics(self, optimum: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics of this pass; ``optimum`` maps instance id to objective."""

        seconds, calls = self.by_name()
        counts = self.counts
        problems = calls["solve_restricted"]
        zero = sum(obj == 0.0 for _, obj in self.problem_objectives)
        at_opt = sum(obj == optimum[i] for i, obj in self.problem_objectives)
        return {
            "model.validate_s": seconds["validate_instance"],
            "preprocess.preprocess_network_s": seconds["preprocess_network"],
            "preprocess.segments": counts["segments"],
            "preprocess.classify_s": seconds["classify_segment_pair"],
            "preprocess.classify_calls": calls["classify_segment_pair"],
            "fds_solver.restricted_problems_self_s": seconds["restricted_problems"],
            "fds_solver.problems": problems,
            "fds_solver.solve_restricted_self_s": seconds["solve_restricted"],
            "fds_solver.problems_zero_frac": zero / max(problems, 1),
            "fds_solver.problems_at_optimum_frac": at_opt / max(problems, 1),
            "fds_solver.candidates": counts["candidates"],
            "fds_solver.minimize_s": seconds["minimize"],
            "fds_solver.minimize_calls": calls["minimize"],
            "fds_solver.reduce_s": seconds["solve_global"],
            "level_curves.sample_grid_s": seconds["sample_grid"],
            "level_curves.sample_grid_calls": calls["sample_grid"],
            "level_curves.trace_s": seconds["trace_level_curve"],
            "level_curves.trace_calls": calls["trace_level_curve"],
            "level_curves.grid_traced_frac": calls["trace_level_curve"]
            / max(calls["sample_grid"], 1),
            "level_curves.intersect_s": seconds["intersect_curves"],
            "level_curves.intersect_calls": calls["intersect_curves"],
            "level_curves.crossings": counts["crossings"],
            "level_curves.retraced": counts["retraced"],
            "level_curves.unrefined": counts["unrefined"],
            "level_curves.bound_exceeded": counts["bound_exceeded"],
            "mixed_distance.coverage_weights_s": seconds["coverage_weights"],
            "mixed_distance.coverage_points": counts["coverage_points"],
            "mixed_distance.coverage_and_objective_s": seconds["coverage_and_objective"],
            "mixed_distance.coverage_and_objective_calls": calls["coverage_and_objective"],
        }

    def layer_shares(self) -> dict[str, float]:
        """Share of traced solve time spent in each layer's own code.

        ``level_curves+minimize`` groups the curve work with the Nelder-Mead
        minimiser, which the solver runs on the same branch fields.
        """

        seconds, _ = self.by_name()
        total = sum(seconds.values()) or 1.0
        shares: Counter[str] = Counter()
        for name, s in seconds.items():
            shares[LAYER_OF[name]] += s / total
        shares["level_curves+minimize"] = (
            shares["level_curves"] + seconds["minimize"] / total
        )
        return dict(shares)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced pass as one JSON document."""

    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fields": ["name", "start", "end", "parent", "instance"],
        "passes": [t.spans for t in tracers],
    }
    path.write_text(json.dumps(doc))
