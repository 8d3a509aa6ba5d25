"""Layer attribution for the traced benchmark run.

The program carries no tracing of its own, so this module records spans from
outside: :func:`traced_program` temporarily replaces public functions and
methods of ``repro`` with wrappers that time each call and count the work it
did.  Each thread keeps its own span stack, and a layer's self time is a
span's duration minus the time of the spans nested inside it.

A module that imports a function by name keeps its own reference, so the
wrapper is installed on the name the caller binds: ``repro.core.abonn``
calls ``select_frontier`` and ``solve_leaf_lp_batch`` through its own
module globals, and ``repro.experiments.suite`` does the same for
``build_trained_model`` and the bracketing radii.  Replacing only the
defining module would record nothing.

Some spans wrap a whole call whose work happens in the spans nested inside
it: a verifier run's set-up and rounds (``core.abonn``), a driver round
(``engine.driver``), a scheduling slice (``service.scheduler``) and a radius
sweep (``specs.robustness``).  Code inside them that no inner span wraps
would be booked silently as their self time, so their self time is the
*residue* and does not count as covered.  Coverage is the self time of every
other span, and it falls when an inner span is missing.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.abonn as abonn
import repro.engine.driver as driver
import repro.experiments.suite as suite
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.core.abonn import MctsFrontierSource
from repro.engine.driver import DriverRun
from repro.service import FingerprintCachePool, VerificationService
from repro.verifiers.appver import ApproximateVerifier

#: Spans that wrap whole calls; their self time is residue, not coverage.
#: A span name is ``layer`` or ``layer.part``.
CATCH_ALL = ("core.abonn", "engine.driver", "service.scheduler", "specs.robustness")
#: The MCTS work source's hooks, which a driver round calls.
SOURCE_HOOKS = ("begin_round", "next_item", "select_neuron", "child_splits",
                "resolve_leaves", "attach", "leaf_attached", "round_complete")


class Tracer:
    """Self time and call counts per span name, plus free-form work counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, stack: List[List[float]], frame: List[float],
               start: float) -> None:
        elapsed = time.perf_counter() - start
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.self_s[name] += elapsed - frame[0]
            self.calls[name] += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        frame = [0.0]  # time of the spans nested in this one
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, stack, frame, start)

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``before(args, kwargs)`` and
        ``after(state, args, kwargs, result)`` count work outside the span."""
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(state, args, kwargs, result)
            return result
        return traced

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to the work counter ``key``."""
        with self._lock:
            self.counts[key] += amount

    def layer_self_s(self, layer: str) -> float:
        """Self time of ``layer`` and all of its ``layer.part`` spans."""
        return sum(seconds for name, seconds in self.self_s.items()
                   if name == layer or name.startswith(layer + "."))

    def residue_s(self) -> float:
        """Self time of the catch-all spans: time no inner span explains."""
        return sum(self.layer_self_s(layer) for layer in CATCH_ALL)

    def covered_s(self) -> float:
        """Self time of every span but the catch-all ones."""
        return sum(self.self_s.values()) - self.residue_s()


class TracedVerifier:
    """A verifier whose run setup and rounds are ``core.abonn`` spans.

    Installed through the service's public ``verifier_factory`` hook, so the
    scheduler's own time separates from the time its jobs run.
    """

    def __init__(self, tracer: Tracer, verifier) -> None:
        self.tracer = tracer
        self.verifier = verifier

    def start_run(self, network, spec, budget=None) -> "TracedRun":
        """The wrapped verifier's run, traced."""
        run = self.tracer.call("core.abonn", self.verifier.start_run,
                               network, spec, budget)
        return TracedRun(self.tracer, run)


class TracedRun:
    """A verifier run whose every step is a ``core.abonn`` span."""

    def __init__(self, tracer: Tracer, run) -> None:
        self.tracer = tracer
        self.run = run

    def step(self):
        """One round of the wrapped run."""
        return self.tracer.call("core.abonn", self.run.step)

    def interrupt(self):
        """Interrupt the wrapped run."""
        return self.run.interrupt()


def traced_factory(tracer: Tracer, factory: Callable) -> Callable:
    """A service ``verifier_factory`` wrapping ``factory``'s verifiers."""
    def make(bundle):
        return TracedVerifier(tracer, factory(bundle))
    return make


def _appver_before(args, kwargs):
    appver = args[0]
    return appver.candidate_hits, appver.candidate_misses


def _appver_after(tracer: Tracer) -> Callable:
    def after(state, args, kwargs, result) -> None:
        appver = args[0]
        outcomes = result if isinstance(result, list) else [result]
        tracer.count("appver.outcomes", len(outcomes))
        tracer.count("appver.decided",
                     sum(1 for o in outcomes if o.verified or o.falsified))
        tracer.count("appver.candidate_hits", appver.candidate_hits - state[0])
        tracer.count("appver.candidate_misses", appver.candidate_misses - state[1])
        if isinstance(result, list) and result:
            tracer.count("appver.batches")
            tracer.count("appver.batch_children", len(result))
    return after


def _deeppoly_after(tracer: Tracer) -> Callable:
    def after(state, args, kwargs, result) -> None:
        tracer.count("deeppoly.children",
                     len(result) if isinstance(result, list) else 1)
    return after


def _lp_before(args, kwargs):
    cache = kwargs.get("cache")
    return cache.stats_snapshot() if cache is not None else None


def _lp_after(tracer: Tracer) -> Callable:
    def after(state, args, kwargs, result) -> None:
        tracer.count("milp.leaves", len(result))
        cache = kwargs.get("cache")
        if state is None or cache is None:
            return
        now = cache.stats_snapshot()
        for key in ("hits", "misses", "solves"):
            tracer.count(f"milp.lp_{key}", now[key] - state[key])
    return after


@contextmanager
def traced_program(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer spans for the duration of the ``with`` block."""
    make_heuristic = abonn.make_heuristic

    def traced_make_heuristic(name):
        heuristic = make_heuristic(name)
        heuristic.select = tracer.wrap("bab.heuristics.select", heuristic.select)
        return heuristic

    appver_after = _appver_after(tracer)
    deeppoly_after = _deeppoly_after(tracer)
    replacements = [
        (abonn, "make_heuristic", lambda fn: traced_make_heuristic),
        (abonn, "select_frontier", lambda fn: tracer.wrap("core.mcts.select", fn)),
        (abonn, "descend_to_leaf", lambda fn: tracer.wrap("core.mcts.select", fn)),
        (abonn, "propagate_rewards", lambda fn: tracer.wrap("core.mcts.backprop", fn)),
        (abonn, "propagate_sizes", lambda fn: tracer.wrap("core.mcts.backprop", fn)),
        (abonn, "solve_leaf_lp_batch",
         lambda fn: tracer.wrap("verifiers.milp", fn, _lp_before, _lp_after(tracer))),
        (DriverRun, "step", lambda fn: tracer.wrap("engine.driver", fn)),
        (driver, "affordable_phases",
         lambda fn: tracer.wrap("verifiers.appver.affordable", fn)),
        *[(MctsFrontierSource, hook, lambda fn: tracer.wrap("core.mcts.source", fn))
          for hook in SOURCE_HOOKS],
        (ApproximateVerifier, "evaluate",
         lambda fn: tracer.wrap("verifiers.appver", fn, _appver_before, appver_after)),
        (ApproximateVerifier, "evaluate_batch",
         lambda fn: tracer.wrap("verifiers.appver", fn, _appver_before, appver_after)),
        (DeepPolyAnalyzer, "analyze",
         lambda fn: tracer.wrap("bounds.deeppoly", fn, after=deeppoly_after)),
        (DeepPolyAnalyzer, "analyze_batch",
         lambda fn: tracer.wrap("bounds.deeppoly", fn, after=deeppoly_after)),
        (VerificationService, "submit",
         lambda fn: tracer.wrap("service.scheduler.submit", fn)),
        (VerificationService, "step", lambda fn: tracer.wrap("service.scheduler", fn)),
        (FingerprintCachePool, "fingerprint_for",
         lambda fn: tracer.wrap("service.pool.fingerprint", fn)),
        (suite, "build_trained_model", lambda fn: tracer.wrap("nn.zoo.train", fn)),
        (suite, "root_certified_radius",
         lambda fn: tracer.wrap("experiments.suite.bracket", fn)),
        (suite, "empirical_robustness_radius",
         lambda fn: tracer.wrap("experiments.suite.bracket", fn)),
    ]
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for (owner, name, make), (_, _, original) in zip(replacements, originals):
            setattr(owner, name, make(original))
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
