"""Seeded search for XBC-vs-TC inversions.

The objective is ``tc.uop_hit_rate − xbc.uop_hit_rate`` at an equal uop
budget: positive means the trace cache beat the XBC on the candidate
workload — the regime the paper's suites never enter.  The loop mixes
exploration (fresh random points) with hill-climbing (mutations of the
best point so far), accepting any candidate the generator can realize
and collecting every evaluation whose objective clears ``min_gain``.

Candidates evaluate through the :mod:`repro.exec` job engine: each one
is a pair of :class:`~repro.exec.job.SimJob` (tc, xbc) over a
:class:`~repro.harness.registry.TraceSpec` carrying the candidate
profile inline, so results are content-addressed — replaying a finding
or re-running a search hits the persistent cache instead of re-running
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

from repro.common.errors import ConfigError, ReproError
from repro.common.rng import DeterministicRng
from repro.exec.engine import ExecPolicy, execute_jobs
from repro.exec.job import SimJob
from repro.frontend.config import FrontendConfig
from repro.frontend.metrics import FrontendStats
from repro.harness.registry import TraceSpec, release_trace
from repro.scenario.space import ParameterSpace, Point
from repro.trace.record import Trace

#: Trace name prefix for fuzz candidates (their TraceSpec ``suite``).
FUZZ_SUITE_PREFIX = "fuzz"


def fuzz_program_seed(search_seed: int) -> int:
    """The program seed all candidates of one search run share.

    Keeping the program seed fixed per run makes the objective a pure
    function of the profile parameters (no seed lottery between
    candidates) and lets minimization re-evaluations share cache
    entries with the search that produced them.
    """
    return 7919 * (search_seed % 100_003) + 13


@dataclass(frozen=True)
class FuzzConfig:
    """One search run's knobs (all folded into the findings corpus)."""

    #: total candidate evaluations (the base point costs one).
    budget: int = 24
    seed: int = 1
    #: registered profile anchoring the space.
    base: str = "server-web"
    #: uop capacity budget given to both frontends.
    total_uops: int = 8192
    #: dynamic trace length per candidate.
    length_uops: int = 60_000
    #: probability of an exploration (fresh random) move.
    explore: float = 0.35
    #: objective threshold for recording a finding.
    min_gain: float = 0.0005
    #: mutation step size for hill-climb moves.
    mutation_scale: float = 0.25

    def validate(self) -> None:
        """Raise :class:`ConfigError` for unusable knob settings."""
        if self.budget < 1:
            raise ConfigError("fuzz budget must be >= 1")
        if self.total_uops < 1 or self.length_uops < 1:
            raise ConfigError("total_uops and length_uops must be >= 1")
        if not 0.0 <= self.explore <= 1.0:
            raise ConfigError("explore must be in [0, 1]")
        if self.mutation_scale <= 0:
            raise ConfigError("mutation_scale must be > 0")


class TraceFacts(NamedTuple):
    """What a findings record stores about a candidate's trace."""

    content_hash: str
    uops: int
    instructions: int

    @classmethod
    def of(cls, trace: Trace) -> "TraceFacts":
        """Read the facts off a materialized trace."""
        return cls(
            trace.content_hash(), trace.total_uops,
            trace.dynamic_instructions,
        )


@dataclass
class Evaluation:
    """One candidate's measured outcome."""

    point: Point
    spec: TraceSpec
    tc: FrontendStats
    xbc: FrontendStats
    #: uop capacity budget both frontends were given.
    total_uops: int = 8192
    #: the trace's facts, recorded when this process built or loaded
    #: it; ``None`` when pool workers ran the jobs or both results
    #: came from the result cache.
    trace_facts: Optional[TraceFacts] = None

    @property
    def objective(self) -> float:
        """``tc_hit − xbc_hit``; positive = inversion."""
        return self.tc.uop_hit_rate - self.xbc.uop_hit_rate


def evaluate_point(
    space: ParameterSpace,
    point: Point,
    *,
    program_seed: int,
    total_uops: int = 8192,
    length_uops: int = 60_000,
    policy: Optional[ExecPolicy] = None,
    clamp: bool = True,
) -> Evaluation:
    """Build, trace and simulate one candidate point.

    The candidate's trace leaves the in-process cache when the jobs end
    (its facts stay on the evaluation), so a search holds one trace at
    a time however large its budget.

    Raises :class:`ConfigError` when the point cannot be realized as a
    valid profile, and :class:`ReproError` when a simulation job fails.
    """
    profile, static_uops = space.build(point, clamp=clamp)
    spec = TraceSpec(
        suite=f"{FUZZ_SUITE_PREFIX}-{space.base_name}",
        index=0,
        seed=program_seed,
        static_uops=static_uops,
        length_uops=length_uops,
        profile=profile,
    )
    fe_config = FrontendConfig()
    jobs = [
        SimJob(frontend=kind, spec=spec, fe_config=fe_config,
               total_uops=total_uops)
        for kind in ("tc", "xbc")
    ]
    try:
        results = execute_jobs(jobs, policy, label="fuzz-eval")
    finally:
        trace = release_trace(spec)
    for result in results:
        if not result.ok:
            raise ReproError(
                f"fuzz evaluation failed ({result.job.frontend}): "
                f"{result.error}"
            )
    return Evaluation(
        point=dict(point), spec=spec,
        tc=results[0].value, xbc=results[1].value,
        total_uops=total_uops,
        trace_facts=None if trace is None else TraceFacts.of(trace),
    )


@dataclass
class SearchResult:
    """Everything one search run learned."""

    config: FuzzConfig
    base: Evaluation
    evaluations: List[Evaluation] = field(default_factory=list)
    #: evaluations with ``objective > config.min_gain``, best first.
    findings: List[Evaluation] = field(default_factory=list)
    #: rejected candidate points (generator refused them).
    invalid_points: int = 0

    @property
    def best(self) -> Evaluation:
        """The highest-objective evaluation seen (base included)."""
        candidates = [self.base] + self.evaluations
        return max(candidates, key=lambda ev: ev.objective)


#: Progress callback: (evaluations done, budget, latest, best so far).
ProgressFn = Callable[[int, int, Evaluation, Evaluation], None]


def run_search(
    space: ParameterSpace,
    config: FuzzConfig,
    policy: Optional[ExecPolicy] = None,
    progress: Optional[ProgressFn] = None,
) -> SearchResult:
    """Run one seeded search; deterministic given (space, config).

    The first evaluation is always the space's base point — both the
    hill-climb origin and the sanity anchor (on paper-like profiles the
    objective starts strongly negative).
    """
    config.validate()
    rng = DeterministicRng(config.seed).fork(101)
    program_seed = fuzz_program_seed(config.seed)

    def measure(point: Point) -> Evaluation:
        return evaluate_point(
            space, point,
            program_seed=program_seed,
            total_uops=config.total_uops,
            length_uops=config.length_uops,
            policy=policy,
        )

    base = measure(space.point_from_base())
    result = SearchResult(config=config, base=base)
    if progress is not None:
        progress(1, config.budget, base, base)

    best = base
    spent = 1
    while spent < config.budget:
        explore = rng.random() < config.explore
        point = (
            space.sample(rng) if explore
            else space.mutate(best.point, rng, config.mutation_scale)
        )
        try:
            evaluation = measure(point)
        except ConfigError:
            # The generator refused the point (derived caps can still
            # collide for extreme corners).  Costs a budget slot — the
            # run must terminate regardless of the rejection rate.
            result.invalid_points += 1
            spent += 1
            continue
        result.evaluations.append(evaluation)
        spent += 1
        if evaluation.objective > best.objective:
            best = evaluation
        if progress is not None:
            progress(spent, config.budget, evaluation, best)

    result.findings = sorted(
        (ev for ev in result.evaluations
         if ev.objective > config.min_gain),
        key=lambda ev: ev.objective,
        reverse=True,
    )
    return result
