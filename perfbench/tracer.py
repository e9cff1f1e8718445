"""Layer spans for the traced run, recorded by wrapping stiefel_dec's callables.

install() replaces module and class attributes of the package with timing
wrappers and uninstall() puts the originals back; the package's files are
not touched. Spans nest on a stack: a span's self time is its duration minus
the durations of the spans opened while it ran. Totals are kept per
(root, name), where the root is the outermost span (harness.resolve,
algorithms.run, harness.csv). Calls made outside every root, such as the
benchmark's own checks, are not recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import cached_property

ROOTS = ("harness.resolve", "algorithms.run", "harness.csv")
STEP = "algorithms.step"


def layer_table():
    """(owner, attribute, span name) for every callable the traced run wraps.

    A function is wrapped in each module that calls it through its own
    namespace, so calls from algorithms, metrics and manifold are all seen.
    """
    from stiefel_dec import algorithms, harness, manifold, metrics, problems

    table = [
        (harness, "resolve", "harness.resolve"),
        (harness, "write_csv", "harness.csv"),
        (algorithms, "run", "algorithms.run"),
        (algorithms, "mix", "network.mix"),
        (algorithms, "polar_retract", "manifold.retract"),
        (manifold, "polar_retract", "manifold.retract"),
        (algorithms, "project_to_tangent", "manifold.project"),
        (manifold, "project_to_tangent", "manifold.project"),
        (metrics, "project_to_tangent", "manifold.project"),
        (manifold.StiefelPoint, "__post_init__", "manifold.validate"),
        (manifold.TangentVector, "__post_init__", "manifold.validate"),
        (manifold.SwarmState, "mean_point", "manifold.mean"),
        (manifold.SwarmState, "consensus_error_sq", "manifold.error"),
        (manifold.SwarmState, "linf_error", "manifold.error"),
        (problems.EigLocal, "euclidean_grad", "problems.egrad"),
        (problems.EigLocal, "stochastic_egrad", "problems.sgrad"),
        (problems.EigLocal, "value", "problems.value"),
        (algorithms, "stationarity_measure", "metrics.snapshot"),
        (algorithms, "average_value", "metrics.snapshot"),
        (algorithms, "subspace_distance", "metrics.snapshot"),
        (algorithms, "IterationRecord", "metrics.record"),
    ]
    for fn in ("synthesize_eigengap_data", "load_dsv_partition", "quadratic_constants",
               "estimate_xi", "centralized_oracle"):
        table.append((harness, fn, "problems.setup"))
    return table + step_table()


def step_table():
    """The per-round step functions that algorithms.run calls."""
    from stiefel_dec import algorithms

    return [(algorithms, fn, STEP) for fn in ("drcs_step", "drsgd_step", "drgta_step")]


@contextmanager
def stamped(owner, attr: str, stamps: list):
    """Append time.perf_counter() to stamps at every call of owner.attr."""
    orig = vars(owner)[attr]
    clock = time.perf_counter

    def stamping(*args, **kwargs):
        stamps.append(clock())
        return orig(*args, **kwargs)

    setattr(owner, attr, stamping)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


class Tracer:
    """Span recorder; keep_samples names the spans whose durations are kept."""

    def __init__(self, roots=ROOTS, keep_samples=()):
        self.roots = frozenset(roots)
        self.keep = frozenset(keep_samples)
        self.stack = []  # child time accumulated by each open span
        self.root = None
        self.stats = {}  # (root, name) -> [calls, total_s, self_s, top_s]
        self.samples = {}  # name -> durations in seconds
        self._undo = []

    def reset(self):
        self.stats = {}
        self.samples = {}

    def wrap(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        keep = name in self.keep

        def traced(*args, **kwargs):
            if not stack:
                if name not in self.roots:
                    return fn(*args, **kwargs)
                self.root = name
            top = len(stack) == 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                rec = self.stats.get((self.root, name))
                if rec is None:
                    rec = self.stats[(self.root, name)] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child
                if top:
                    rec[3] += duration
                if stack:
                    stack[-1] += duration
                if keep:
                    self.samples.setdefault(name, []).append(duration)

        return traced

    def install(self, table):
        for owner, attr, name in table:
            orig = vars(owner)[attr]
            if isinstance(orig, cached_property):
                new = cached_property(self.wrap(name, orig.func))
                new.__set_name__(owner, attr)
            else:
                new = self.wrap(name, orig)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def phase(self, root: str) -> dict:
        """{name: [calls, total_s, self_s, top_s]} of the spans under one root;
        top_s counts only the spans the root called directly."""
        return {name: rec for (r, name), rec in self.stats.items() if r == root}
