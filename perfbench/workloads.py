"""The benchmark's workloads: set-up, timed passes, correctness gate, metrics.

Every workload runs the shipped defaults: ``AbonnVerifier()`` (``AbonnConfig()``,
frontier size K=1) and, for the service, ``VerificationService()`` (cooperative
transport, two workers).  The problems come from ``generate_suite`` at the
fixed suite seed :data:`SUITE_SEED`; the run's ``--seed`` only orders them.
The suite seed stays fixed because the instance mix it draws swings the
work more than any bound could absorb: at suite seed 0 the ``rq_dense``
problems take 6,523 nodes and about 9 s, at suite seed 1 they take 25,740
nodes and 41 s.

``serve_sweep`` is the traffic of the program's own service caller,
``robustness_radius_sweep_service``: each call submits a ladder of radii for
one reference input as one batch and drains it.  Per reference the
benchmark makes the two calls of a radius bisection: a coarse ladder over the
radius bracket the suite generator computes for that reference, then a fine
ladder between the two coarse radii where the verdict stops being VERIFIED.
The fine ladder's ends revisit two coarse radii, so a quarter of the jobs
repeat an earlier job exactly and are served from its warm cache bundle.

A workload repeats *passes* over its fixed problem set until ``--seconds``
have been spent, then reports medians over passes.  Every pass must return
the same verdicts, node counts and counterexamples, since the verifier is
deterministic under a node budget with no wall-clock limit.  Every timing of
an untraced run is divided by the machine's slowdown, measured right after
it by :class:`speed.SpeedProbe`; the raw seconds are printed beside it.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.experiments.suite as suite
from repro import (AbonnVerifier, Budget, Network, Specification, VerificationService,
                   VerificationStatus, pgd_attack)
from repro.experiments.suite import SuiteConfig, generate_suite
from repro.nn import clear_model_cache
from repro.specs.robustness import local_robustness_spec, robustness_radius_sweep_service
from repro.verifiers.attack import AttackConfig

import gate
from layers import Tracer, traced_factory, traced_program
from speed import SpeedProbe

#: Seed of the suite every workload draws its problems from.
SUITE_SEED = 0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest passes a run makes, so every run can compare two passes.
MIN_PASSES = 2
#: Attack used on every VERIFIED verdict.
ATTACK = AttackConfig(steps=40, restarts=4)
#: Radius at which PGD falsifies every suite reference (self-test only).
SELF_TEST_EPSILON = 0.5
#: Least share of the traced time that non-catch-all spans must explain on rq_*.
MIN_COVERAGE = 0.95


@dataclass(frozen=True)
class Workload:
    """A named problem set: suite families, instances per family, node budget."""

    name: str
    families: Tuple[str, ...]
    instances_per_family: int
    max_nodes: int
    #: Radius sweeps through the service instead of direct verify() calls.
    sweep: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("rq_dense", ("MNIST_L2", "MNIST_L4"), 24, 1000),
        Workload("rq_conv", ("CIFAR_BASE", "CIFAR_WIDE", "CIFAR_DEEP"), 4, 250),
        Workload("serve_sweep", ("MNIST_L4", "CIFAR_BASE"), 8, 150, sweep=True),
    )
}

#: Radii per sweep call, as in the service example's ``np.linspace(a, b, 4)``.
LADDER = 4


@dataclass
class Problem:
    """One verification problem, with the plain arrays the gate checks against."""

    name: str
    network: Network
    spec: Specification
    num_classes: int
    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]

    def gate_error(self, status: VerificationStatus, counterexample: Optional[np.ndarray],
                   spec: Optional[Specification] = None) -> Optional[str]:
        """Why a verdict on this problem (or on ``spec`` over its network) is wrong."""
        spec = spec or self.spec
        box, out = spec.input_box, spec.output_spec
        arrays = (self.weights, self.biases, box.lower, box.upper,
                  out.coefficients, out.offsets)
        if status is VerificationStatus.FALSIFIED:
            return gate.counterexample_error(*arrays, counterexample)
        if status is VerificationStatus.VERIFIED:
            attack = pgd_attack(self.network, spec, ATTACK)
            if gate.counterexample_error(*arrays, attack.best_input) is None:
                return "PGD falsifies a VERIFIED verdict"
        return None


@dataclass
class Reference:
    """One reference input of ``serve_sweep`` and the radius bracket to sweep."""

    name: str
    network: Network
    point: np.ndarray
    label: int
    num_classes: int
    #: Root-certified radius and PGD attack radius, as the suite computes them.
    bracket: Tuple[float, float]
    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]

    def problem(self, epsilon: float) -> Problem:
        """The problem one sweep job at ``epsilon`` verifies (the sweep's own spec)."""
        spec = local_robustness_spec(self.point, float(epsilon), self.label,
                                     self.num_classes)
        return Problem(f"{self.name}@{epsilon:.6g}", self.network, spec,
                       self.num_classes, self.weights, self.biases)


def setup(workload: Workload) -> List[Problem]:
    """Train the models, build the suite and lower every network."""
    clear_model_cache()  # every set-up trains from scratch
    generated = generate_suite(SuiteConfig(families=workload.families,
                                           instances_per_family=workload.instances_per_family,
                                           seed=SUITE_SEED))
    problems = []
    for instance in generated.instances:
        network = generated.network_for(instance)
        lowered = network.lowered()
        problems.append(Problem(instance.instance_id, network, instance.spec,
                                generated.datasets[instance.family].num_classes,
                                lowered.weights, lowered.biases))
    return problems


def sweep_references(problems: List[Problem]) -> List[Reference]:
    """Each distinct reference input of the suite problems, with its bracket.

    The bracket comes from the suite generator's own functions and settings:
    the largest radius the root bound certifies and the smallest one PGD
    breaks.  The sweep's top radius is kept at least 25 % above its bottom
    one, as the suite does, so that the ladder's radii are distinct.
    """
    config = SuiteConfig()
    references = {}
    for problem in problems:
        point = problem.spec.metadata["reference"]
        label = problem.spec.metadata["label"]
        key = (id(problem.network), point.tobytes())
        if key in references:
            continue
        low = suite.root_certified_radius(problem.network, point, label,
                                          problem.num_classes, steps=config.search_steps)
        high = suite.empirical_robustness_radius(
            problem.network, point, label, problem.num_classes, upper=0.5,
            tolerance=0.5 / 2 ** config.search_steps, config=config.attack_config)
        low = max(low, 1e-4)
        references[key] = Reference(problem.name.rsplit("_", 1)[0], problem.network,
                                    point, label, problem.num_classes,
                                    (low, max(high, 1.25 * low)),
                                    problem.weights, problem.biases)
    return list(references.values())


def result_key(result) -> tuple:
    """What must agree between passes: verdict, node count, counterexample."""
    cex = result.counterexample
    return (result.status, result.nodes_explored,
            None if cex is None else np.asarray(cex, dtype=float).tobytes())


def another_pass(done: int, least: int, start: float, seconds: float) -> bool:
    """Whether to start another pass: always until ``least`` passes, then only
    if it would end less than half a pass after ``seconds``."""
    if done < least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done <= seconds


def percentile(values: Sequence[float], share: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * share))


def _call(tracer: Optional[Tracer], span: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span called ``span`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(span, fn, *args, **kwargs)


class Report:
    """Metrics and the correctness tally of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        #: Raw wall seconds of the metrics that are divided by the slowdown.
        self.raw: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.consistent = True

    def metric(self, name: str, value: float, unit: str, samples: int,
               raw: Optional[float] = None) -> None:
        """Record ``name`` measured over ``samples`` samples (and its raw value)."""
        self.metrics[name] = (float(value), unit, int(samples))
        if raw is not None:
            self.raw[name] = float(raw)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed operations."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def inconsistent(self, message: str) -> None:
        """Mark the run incorrect for a reason that is no single operation."""
        self.consistent = False
        self.errors.append(message)


def self_test(problem: Problem, report: Report) -> None:
    """The gate must reject a pushed-out counterexample and a falsifiable VERIFIED."""
    spec = problem.spec
    wide = local_robustness_spec(spec.metadata["reference"], SELF_TEST_EPSILON,
                                 spec.metadata["label"], problem.num_classes)
    attack = pgd_attack(problem.network, wide, ATTACK)
    point = np.array(attack.best_input, dtype=float)
    checks = [
        (problem.gate_error(VerificationStatus.FALSIFIED, point, wide) is None,
         "gate rejects a real counterexample"),
        (problem.gate_error(VerificationStatus.VERIFIED, None, wide) is not None,
         "gate accepts a VERIFIED verdict that PGD falsifies"),
    ]
    pushed = point.copy()
    pushed[0] = wide.input_box.upper[0] + 1e-3
    checks.append((problem.gate_error(VerificationStatus.FALSIFIED, pushed, wide)
                   is not None, "gate accepts a counterexample outside the box"))
    for passed, message in checks:
        if not passed:
            report.inconsistent("self-test: " + message)


# -- rq_*: direct verify() calls ---------------------------------------------

def _verify_steps(problem: Problem, max_nodes: int,
                  tracer: Optional[Tracer]) -> Tuple[object, int]:
    """One verification driven round by round, as ``verify()`` drives it;
    the result and its round count."""
    run = _call(tracer, "core.abonn", AbonnVerifier().start_run, problem.network,
                problem.spec, Budget(max_nodes=max_nodes))
    rounds = 0
    while True:
        rounds += 1
        result = _call(tracer, "core.abonn", run.step)
        if result is not None:
            return result, rounds


def rq_pass(problems: List[Problem], workload: Workload, rng: random.Random,
            tracer: Optional[Tracer] = None, probe: Optional[SpeedProbe] = None):
    """Verify every problem once in a seeded order; raw walls, results, rounds.

    A ``probe`` follows every call, so that its slowdown covers the pass.
    """
    order = list(problems)
    rng.shuffle(order)
    walls, results, rounds = {}, {}, {}
    for problem in order:
        start = time.perf_counter()
        results[problem.name], rounds[problem.name] = _verify_steps(
            problem, workload.max_nodes, tracer)
        walls[problem.name] = time.perf_counter() - start
        if probe is not None:
            probe.follow(walls[problem.name])
    return walls, results, rounds


def _check_passes(passes: List[dict], report: Report) -> Dict[str, object]:
    """Count verify calls; every pass must repeat the first pass's results."""
    first = passes[0]
    for results in passes:
        for name, result in results.items():
            report.attempted += 1
            if result_key(result) != result_key(first[name]):
                report.fail(f"{name}: result differs between passes")
    return first


def _gate_rq(problems: List[Problem], results: Dict[str, object], passes: int,
             report: Report) -> None:
    for problem in problems:
        result = results[problem.name]
        error = problem.gate_error(result.status, result.counterexample)
        if error is not None:
            report.fail(f"{problem.name}: {error}", count=passes)


def run_rq(workload: Workload, problems: List[Problem], seed: int, seconds: float,
           report: Report) -> None:
    """Untraced passes of direct verify() calls; end-to-end metrics."""
    rng = random.Random(seed)
    probe = SpeedProbe()
    raw: Dict[str, List[float]] = {problem.name: [] for problem in problems}
    scaled: Dict[str, List[float]] = {problem.name: [] for problem in problems}
    passes = []
    start = time.perf_counter()
    while another_pass(len(passes), MIN_PASSES, start, seconds):
        walls, results, _ = rq_pass(problems, workload, rng, probe=probe)
        slowdown = probe.slowdown()
        for name, wall in walls.items():
            raw[name].append(wall)
            scaled[name].append(wall / slowdown)
        passes.append(results)
    first = _check_passes(passes, report)
    _gate_rq(problems, first, len(passes), report)

    medians = [statistics.median(values) for values in scaled.values()]
    raw_medians = [statistics.median(values) for values in raw.values()]
    count = len(passes)
    report.metric("verify_s", sum(medians), "s", count, raw=sum(raw_medians))
    for name, share in (("latency_p50_s", 0.50), ("latency_p95_s", 0.95)):
        report.metric(name, percentile(medians, share), "s", len(medians),
                      raw=percentile(raw_medians, share))
    report.metric("nodes_total", sum(r.nodes_explored for r in first.values()),
                  "count", len(first))
    report.metric("solved", sum(r.status.is_conclusive for r in first.values()),
                  "count", len(first))


def trace_rq(workload: Workload, problems: List[Problem], seed: int, seconds: float,
             report: Report, tracer: Tracer) -> Tuple[List[float], List[float]]:
    """Alternate untraced and traced passes; pass walls of each kind."""
    rng = random.Random(seed)
    plain_walls, traced_walls, passes = [], [], []
    start = time.perf_counter()
    while another_pass(len(traced_walls), 1, start, seconds):
        walls, plain, plain_rounds = rq_pass(problems, workload, rng)
        plain_walls.append(sum(walls.values()))
        with traced_program(tracer):
            walls, traced, traced_rounds = rq_pass(problems, workload, rng, tracer)
        traced_walls.append(sum(walls.values()))
        passes.extend([plain, traced])
        if plain_rounds != traced_rounds:
            report.inconsistent("traced run takes other round counts")
        for result in traced.values():
            cache = result.extras["bound_cache"]
            tracer.count("cache.hits", cache["layer_hits"] + cache["report_hits"])
            tracer.count("cache.misses", cache["layer_misses"] + cache["report_misses"])
            tracer.count("cache.evictions", cache["evictions"])
    first = _check_passes(passes, report)
    _gate_rq(problems, first, len(passes), report)
    return plain_walls, traced_walls


# -- serve_sweep: radius bisections through the service -----------------------

def _sweep(service: VerificationService, reference: Reference, epsilons: np.ndarray,
           max_nodes: int, tracer: Optional[Tracer]):
    """One ``robustness_radius_sweep_service`` call; its wall and its
    ``(epsilon, result)`` pairs, or ``None`` when a job failed (the job's
    record tells why)."""
    start = time.perf_counter()
    try:
        pairs, _ = _call(tracer, "specs.robustness", robustness_radius_sweep_service,
                         reference.network, reference.point, epsilons, reference.label,
                         reference.num_classes, budget=Budget(max_nodes=max_nodes),
                         service=service)
    except RuntimeError:
        pairs = None
    return time.perf_counter() - start, pairs


def fine_ladder(coarse) -> np.ndarray:
    """Radii between the two coarse radii where the verdict first stops being
    VERIFIED (the top pair when all are, the bottom pair when none is)."""
    verified = [result.status is VerificationStatus.VERIFIED for _, result in coarse]
    pair = len(coarse) - 2 if all(verified) else 0
    for index in range(len(coarse) - 1):
        if verified[index] and not verified[index + 1]:
            pair = index
            break
    return np.linspace(coarse[pair][0], coarse[pair + 1][0], LADDER)


def sweep_pass(references: List[Reference], max_nodes: int, rng: random.Random,
               tracer: Optional[Tracer] = None, probe: Optional[SpeedProbe] = None):
    """Bisect every reference's radius through one default service.

    Returns the pass's wall (the sum of its sweep calls), its ``(reference,
    epsilon, result)`` triples and the service's record of every job, in
    completion order.  A ``probe`` follows every sweep call, between calls,
    when no job is in flight.
    """
    service = VerificationService()
    if tracer is not None:
        service.verifier_factory = traced_factory(tracer, service.verifier_factory)
    jobs = []
    service.add_completion_listener(jobs.append)
    order = list(references)
    rng.shuffle(order)
    results = []
    wall = 0.0
    for reference in order:
        epsilons = np.linspace(*reference.bracket, LADDER)
        for _ in ("coarse", "fine"):
            elapsed, pairs = _sweep(service, reference, epsilons, max_nodes, tracer)
            wall += elapsed
            if probe is not None:
                probe.follow(elapsed)
            if pairs is None:
                break
            results.extend((reference, epsilon, result) for epsilon, result in pairs)
            epsilons = fine_ladder(pairs)
    return wall, results, jobs


def _check_sweeps(passes, max_nodes: int, report: Report) -> list:
    """Every job must succeed at its first attempt and equal a solo run of its
    problem, made after the timed passes; the first pass's results."""
    solo = {}
    for reference, epsilon, _ in passes[0][0]:
        if (reference.name, epsilon) not in solo:
            problem = reference.problem(epsilon)
            result = AbonnVerifier().verify(problem.network, problem.spec,
                                            Budget(max_nodes=max_nodes))
            solo[reference.name, epsilon] = (
                result_key(result), problem.gate_error(result.status, result.counterexample))
    for results, jobs in passes:
        report.attempted += len(jobs)
        for done in jobs:
            if done.error is not None:
                report.fail(f"job {done.job_id}: job error {done.error.kind}")
            elif done.attempts > 1:
                report.fail(f"job {done.job_id}: job retried")
        for reference, epsilon, result in results:
            key, error = solo.get((reference.name, epsilon), (None, "no solo run"))
            if result_key(result) != key:
                report.fail(f"{reference.name}@{epsilon:.6g}: service result differs "
                            "from a solo run")
            elif error is not None:
                report.fail(f"{reference.name}@{epsilon:.6g}: {error}")
    return passes[0][0]


def run_sweep(workload: Workload, references: List[Reference], seed: int,
              seconds: float, report: Report) -> None:
    """Untraced sweep passes; end-to-end metrics."""
    rng = random.Random(seed)
    probe = SpeedProbe()
    raw, scaled, passes = [], [], []
    raw_latencies: Dict[tuple, List[float]] = defaultdict(list)
    latencies: Dict[tuple, List[float]] = defaultdict(list)
    start = time.perf_counter()
    while another_pass(len(passes), MIN_PASSES, start, seconds):
        wall, results, jobs = sweep_pass(references, workload.max_nodes, rng, probe=probe)
        slowdown = probe.slowdown()
        raw.append(wall)
        scaled.append(wall / slowdown)
        seen: Counter = Counter()
        for done in jobs:
            # A job is its problem and how often the pass asked for it before.
            key = (done.fingerprint, seen[done.fingerprint])
            seen[done.fingerprint] += 1
            raw_latencies[key].append(done.latency_seconds)
            latencies[key].append(done.latency_seconds / slowdown)
        passes.append((results, jobs))
    first = _check_sweeps(passes, workload.max_nodes, report)

    report.metric("verify_s", statistics.median(scaled), "s", len(scaled),
                  raw=statistics.median(raw))
    medians = [statistics.median(values) for values in latencies.values()]
    raw_medians = [statistics.median(values) for values in raw_latencies.values()]
    for name, share in (("latency_p50_s", 0.50), ("latency_p95_s", 0.95)):
        report.metric(name, percentile(medians, share), "s", len(medians),
                      raw=percentile(raw_medians, share))
    report.metric("nodes_total", sum(result.nodes_explored for _, _, result in first),
                  "count", len(first))
    report.metric("solved", sum(result.status.is_conclusive for _, _, result in first),
                  "count", len(first))


def trace_sweep(workload: Workload, references: List[Reference], seed: int,
                seconds: float, report: Report,
                tracer: Tracer) -> Tuple[List[float], List[float]]:
    """Alternate untraced and traced sweep passes; pass walls of each kind."""
    rng = random.Random(seed)
    plain_walls, traced_walls, passes, waits = [], [], [], []
    start = time.perf_counter()
    while another_pass(len(traced_walls), 1, start, seconds):
        wall, results, plain = sweep_pass(references, workload.max_nodes, rng)
        plain_walls.append(wall)
        passes.append((results, plain))
        with traced_program(tracer):
            wall, results, traced = sweep_pass(references, workload.max_nodes, rng, tracer)
        traced_walls.append(wall)
        passes.append((results, traced))
        if (sorted((done.fingerprint, done.slices) for done in plain)
                != sorted((done.fingerprint, done.slices) for done in traced)):
            report.inconsistent("traced run takes other slice counts")
        for done in traced:
            stats = done.cache_stats
            tracer.count("cache.hits", stats.get("bound_layer_hits", 0)
                         + stats.get("bound_report_hits", 0))
            tracer.count("cache.misses", stats.get("bound_layer_misses", 0)
                         + stats.get("bound_report_misses", 0))
            tracer.count("cache.evictions", stats.get("bound_evictions", 0))
            tracer.count("scheduler.jobs")
            tracer.count("scheduler.slices", done.slices)
            waits.append(done.wait_slices)
    tracer.counts["scheduler.wait_p95"] = percentile(waits, 0.95)
    _check_sweeps(passes, workload.max_nodes, report)
    return plain_walls, traced_walls


# -- the two kinds of run -------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _inputs(workload: Workload, problems: List[Problem]):
    """What a workload's passes run on: the problems, or their references."""
    return sweep_references(problems) if workload.sweep else problems


def untraced_run(name: str, seed: int, seconds: float) -> Report:
    """End-to-end metrics: repeated set-ups, then timed passes."""
    workload = WORKLOADS[name]
    report = Report()
    probe = SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        problems = setup(workload)
        inputs = _inputs(workload, problems)
        elapsed = time.perf_counter() - start
        probe.follow(elapsed)
        raw.append(elapsed)
        scaled.append(elapsed / probe.slowdown())
    report.metric("setup_s", statistics.median(scaled), "s", len(scaled),
                  raw=statistics.median(raw))
    self_test(problems[0], report)
    run = run_sweep if workload.sweep else run_rq
    run(workload, inputs, seed, seconds, report)
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    return report


def traced_run(name: str, seed: int, seconds: float) -> Report:
    """Per-layer metrics: a traced set-up, then untraced and traced passes."""
    workload = WORKLOADS[name]
    report = Report()
    tracer = Tracer()
    with traced_program(tracer):
        problems = setup(workload)
        inputs = _inputs(workload, problems)
    train_s = tracer.layer_self_s("nn.zoo")
    bracket_s = tracer.layer_self_s("experiments.suite")
    tracer.reset()
    self_test(problems[0], report)
    run = trace_sweep if workload.sweep else trace_rq
    plain_walls, traced_walls = run(workload, inputs, seed, seconds, report, tracer)
    passes = len(traced_walls)
    window = sum(traced_walls)
    calls, counts = tracer.calls, tracer.counts

    def share(layer: str) -> float:
        return _ratio(tracer.layer_self_s(layer), window)

    def per_pass(value: float) -> float:
        return value / passes

    def metric(metric_name: str, value: float, unit: str, samples: int = passes) -> None:
        report.metric(metric_name, value, unit, samples)

    metric("verifiers.milp.leaf_lp_frac", share("verifiers.milp"), "frac")
    metric("verifiers.milp.leaves", per_pass(counts["milp.leaves"]), "count")
    metric("verifiers.milp.lp_solves", per_pass(counts["milp.lp_solves"]), "count")
    metric("verifiers.milp.lp_hit_rate",
           _ratio(counts["milp.lp_hits"], counts["milp.lp_hits"] + counts["milp.lp_misses"]),
           "frac")
    metric("bab.heuristics.select_frac", share("bab.heuristics"), "frac")
    metric("bab.heuristics.select_calls", per_pass(calls["bab.heuristics.select"]), "count")
    metric("bounds.deeppoly.analyze_frac", share("bounds.deeppoly"), "frac")
    metric("bounds.deeppoly.children", per_pass(counts["deeppoly.children"]), "count")
    metric("bounds.deeppoly.us_per_child",
           1e6 * _ratio(tracer.layer_self_s("bounds.deeppoly"), counts["deeppoly.children"]),
           "us")
    metric("bounds.cache.hit_rate",
           _ratio(counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]), "frac")
    metric("bounds.cache.evictions", per_pass(counts["cache.evictions"]), "count")
    metric("verifiers.appver.self_frac", share("verifiers.appver"), "frac")
    metric("verifiers.appver.candidate_hit_rate",
           _ratio(counts["appver.candidate_hits"],
                  counts["appver.candidate_hits"] + counts["appver.candidate_misses"]), "frac")
    metric("verifiers.appver.decided_frac",
           _ratio(counts["appver.decided"], counts["appver.outcomes"]), "frac")
    metric("engine.driver.self_frac", share("engine.driver"), "frac")
    metric("engine.driver.rounds", per_pass(calls["engine.driver"]), "count")
    metric("engine.driver.mean_batch",
           _ratio(counts["appver.batch_children"], counts["appver.batches"]), "count")
    metric("core.mcts.select_frac", _ratio(tracer.self_s["core.mcts.select"], window), "frac")
    metric("core.mcts.backprop_frac", _ratio(tracer.self_s["core.mcts.backprop"], window),
           "frac")
    metric("core.mcts.source_frac", _ratio(tracer.self_s["core.mcts.source"], window),
           "frac")
    metric("core.mcts.select_calls", per_pass(calls["core.mcts.select"]), "count")
    metric("core.abonn.self_frac", share("core.abonn"), "frac")
    metric("service.scheduler.submit_frac",
           _ratio(tracer.self_s["service.scheduler.submit"], window), "frac")
    metric("service.scheduler.self_frac",
           _ratio(tracer.self_s["service.scheduler"], window), "frac")
    metric("service.scheduler.wait_p95_slices", counts["scheduler.wait_p95"], "count")
    metric("service.scheduler.slices_per_job",
           _ratio(counts["scheduler.slices"], counts["scheduler.jobs"]), "count")
    metric("service.pool.fingerprint_frac", share("service.pool"), "frac")
    metric("nn.zoo.train_s", train_s, "s", samples=1)
    metric("experiments.suite.bracket_s", bracket_s, "s", samples=1)
    coverage = _ratio(tracer.covered_s(), window)
    metric("trace.coverage_frac", coverage, "frac")
    metric("trace.residue_frac", _ratio(tracer.residue_s(), window), "frac")
    metric("trace.overhead_frac",
           statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "frac")
    if not workload.sweep and coverage < MIN_COVERAGE:
        report.inconsistent(f"spans cover {coverage:.3f} of the traced time, "
                            f"less than {MIN_COVERAGE}")
    return report


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
