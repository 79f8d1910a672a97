"""Baselines and verification analyses: the naive report-everything
detector, SC witness search, and detection-quality metrics."""

from .artifacts import ArtifactReport, analyze_artifacts
from .exhaustive import (
    ExhaustiveExplorer,
    ExplorationLimit,
    ExplorationResult,
    explore_program,
    is_program_data_race_free,
)
from .hunting import (
    HuntConfig,
    HuntResult,
    JobFailure,
    default_policies,
    hunt_races,
    policies_by_name,
    policy_registry,
)
from .parallel import HuntJob, JobOutcome, plan_jobs, run_hunt
from .outcomes import OutcomeLimit, OutcomeSet, enumerate_outcomes
from .metrics import (
    DetectionSummary,
    RaceAccuracy,
    TraceOverhead,
    event_race_accuracy,
    op_races_in_scp,
    trace_overhead,
)
from .naive import NaiveDetector, NaiveReport
from .sc_checker import (
    ExecutionTooLarge,
    SCWitness,
    find_sc_witness,
    is_sequentially_consistent,
    verify_witness,
)

__all__ = [
    "ArtifactReport",
    "analyze_artifacts",
    "ExhaustiveExplorer",
    "ExplorationLimit",
    "ExplorationResult",
    "explore_program",
    "is_program_data_race_free",
    "OutcomeLimit",
    "OutcomeSet",
    "enumerate_outcomes",
    "HuntConfig",
    "HuntResult",
    "HuntJob",
    "JobFailure",
    "JobOutcome",
    "default_policies",
    "hunt_races",
    "plan_jobs",
    "policies_by_name",
    "policy_registry",
    "run_hunt",
    "DetectionSummary",
    "RaceAccuracy",
    "TraceOverhead",
    "event_race_accuracy",
    "op_races_in_scp",
    "trace_overhead",
    "NaiveDetector",
    "NaiveReport",
    "ExecutionTooLarge",
    "SCWitness",
    "find_sc_witness",
    "is_sequentially_consistent",
    "verify_witness",
]
