"""The findings corpus: inversions as replayable JSON records.

A finding stores the complete recipe for its trace — base profile
name, the full parameter point, the program seed and the uop budgets —
plus the measured outcome and content hashes of both the trace and the
two stat blocks.  :func:`replay_finding` re-runs the recipe and checks
every hash, so "the corpus replays" means bit-identical traces and
statistics, not merely a similar hit-rate gap.

The corpus file is schema-versioned, deduplicated by finding id (a
stable hash of the recipe), and ordered best-objective-first.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.exec.engine import ExecPolicy
from repro.exec.hashing import stable_hash
from repro.exec.job import SimJob
from repro.harness.registry import make_trace
from repro.scenario.minimize import MinimizeResult
from repro.scenario.search import (
    Evaluation,
    FuzzConfig,
    TraceFacts,
    evaluate_point,
)
from repro.scenario.space import ParameterSpace, Point

#: Corpus file schema generation.
CORPUS_SCHEMA = 1


def _trace_facts(evaluation: Evaluation) -> TraceFacts:
    """The evaluation's trace facts, materializing the trace if needed.

    An inline evaluation recorded them before releasing its trace.
    Under a worker pool, or when both results came from the result
    cache, this process never held the trace, so it is built here.
    """
    if evaluation.trace_facts is not None:
        return evaluation.trace_facts
    return TraceFacts.of(make_trace(evaluation.spec))


@dataclass
class Finding:
    """One replayable inversion."""

    id: str
    base: str
    point: Point
    #: parameters deviating from base after minimization (empty for
    #: raw, unminimized findings).
    deltas: Dict[str, float]
    program_seed: int
    length_uops: int
    total_uops: int
    tc_hit_rate: float
    xbc_hit_rate: float
    objective: float
    trace_hash: str
    trace_uops: int
    trace_instructions: int
    tc_stats_hash: str
    xbc_stats_hash: str

    @classmethod
    def from_evaluation(
        cls,
        evaluation: Evaluation,
        base: str,
        deltas: Optional[Dict[str, float]] = None,
    ) -> "Finding":
        """Freeze an evaluation into a corpus record.

        Records the trace's content hash and size (see
        :func:`_trace_facts`).
        """
        facts = _trace_facts(evaluation)
        recipe = {
            "kind": "fuzz-finding",
            "base": base,
            "point": evaluation.point,
            "program_seed": evaluation.spec.seed,
            "length_uops": evaluation.spec.length_uops,
            "total_uops": evaluation.total_uops,
        }
        return cls(
            id=stable_hash(recipe),
            base=base,
            point=dict(evaluation.point),
            deltas=dict(deltas or {}),
            program_seed=evaluation.spec.seed,
            length_uops=evaluation.spec.length_uops,
            total_uops=evaluation.total_uops,
            tc_hit_rate=evaluation.tc.uop_hit_rate,
            xbc_hit_rate=evaluation.xbc.uop_hit_rate,
            objective=evaluation.objective,
            trace_hash=facts.content_hash,
            trace_uops=facts.uops,
            trace_instructions=facts.instructions,
            tc_stats_hash=stable_hash(SimJob.encode_result(evaluation.tc)),
            xbc_stats_hash=stable_hash(SimJob.encode_result(evaluation.xbc)),
        )

    @classmethod
    def from_minimization(
        cls, minimized: MinimizeResult, base: str
    ) -> "Finding":
        """Freeze a minimization result (deltas included)."""
        return cls.from_evaluation(
            minimized.evaluation, base, deltas=minimized.deltas
        )


@dataclass
class FindingsCorpus:
    """An ordered, deduplicated set of findings plus run metadata."""

    findings: List[Finding] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def add(self, finding: Finding) -> bool:
        """Insert unless an identical recipe is present; keep order."""
        if any(existing.id == finding.id for existing in self.findings):
            return False
        self.findings.append(finding)
        self.findings.sort(key=lambda f: f.objective, reverse=True)
        return True

    def get(self, finding_id: str) -> Finding:
        """The finding whose id starts with *finding_id*."""
        matches = [
            f for f in self.findings if f.id.startswith(finding_id)
        ]
        if not matches:
            raise ConfigError(f"no finding with id {finding_id!r} in corpus")
        if len(matches) > 1:
            raise ConfigError(
                f"finding id prefix {finding_id!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        return matches[0]

    def top(self, count: int) -> List[Finding]:
        """The *count* best findings by objective."""
        return self.findings[:count]

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the corpus as pretty-printed JSON (atomic replace)."""
        payload = {
            "schema": CORPUS_SCHEMA,
            "meta": self.meta,
            "findings": [asdict(finding) for finding in self.findings],
        }
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)

    @classmethod
    def load(cls, path: str) -> "FindingsCorpus":
        """Read a corpus file, checking the schema generation."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read findings corpus: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"findings corpus {path!r} is not valid JSON: {exc}"
            ) from exc
        schema = payload.get("schema")
        if schema != CORPUS_SCHEMA:
            raise ConfigError(
                f"findings corpus schema {schema!r} unsupported "
                f"(expected {CORPUS_SCHEMA})"
            )
        corpus = cls(meta=dict(payload.get("meta", {})))
        for item in payload.get("findings", []):
            corpus.findings.append(Finding(**item))
        return corpus


@dataclass
class ReplayReport:
    """Outcome of re-running one finding's recipe."""

    finding: Finding
    evaluation: Evaluation
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every recorded hash and rate matched exactly."""
        return not self.mismatches


def replay_finding(
    finding: Finding, policy: Optional[ExecPolicy] = None
) -> ReplayReport:
    """Re-run a finding's exact recipe and verify bit-identity.

    The stored point is applied unclamped, so corpus entries stay
    replayable even if the space's bounds move under them.  Raises
    :class:`ReproError` only on execution failure; verification
    mismatches are reported, not raised.
    """
    space = ParameterSpace.default(finding.base)
    evaluation = evaluate_point(
        space,
        finding.point,
        program_seed=finding.program_seed,
        total_uops=finding.total_uops,
        length_uops=finding.length_uops,
        policy=policy,
        clamp=False,
    )
    report = ReplayReport(finding=finding, evaluation=evaluation)
    facts = _trace_facts(evaluation)
    checks = (
        ("trace_hash", finding.trace_hash, facts.content_hash),
        ("trace_uops", finding.trace_uops, facts.uops),
        ("trace_instructions", finding.trace_instructions, facts.instructions),
        (
            "tc_stats_hash",
            finding.tc_stats_hash,
            stable_hash(SimJob.encode_result(evaluation.tc)),
        ),
        (
            "xbc_stats_hash",
            finding.xbc_stats_hash,
            stable_hash(SimJob.encode_result(evaluation.xbc)),
        ),
        ("tc_hit_rate", finding.tc_hit_rate, evaluation.tc.uop_hit_rate),
        ("xbc_hit_rate", finding.xbc_hit_rate, evaluation.xbc.uop_hit_rate),
    )
    for name, expected, actual in checks:
        if expected != actual:
            report.mismatches.append(
                f"{name}: stored {expected!r} != replayed {actual!r}"
            )
    return report


def corpus_from_run(
    config: FuzzConfig, minimized: List[MinimizeResult]
) -> FindingsCorpus:
    """Package one search run's minimized findings as a corpus."""
    corpus = FindingsCorpus(
        meta={
            "base": config.base,
            "seed": config.seed,
            "budget": config.budget,
            "total_uops": config.total_uops,
            "length_uops": config.length_uops,
        }
    )
    for item in minimized:
        corpus.add(Finding.from_minimization(item, config.base))
    return corpus
