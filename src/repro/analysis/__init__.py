"""Baselines and verification analyses: the naive report-everything
detector, SC witness search, and detection-quality metrics."""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "artifacts": "ArtifactReport analyze_artifacts",
    "exhaustive": "ExhaustiveExplorer ExplorationLimit ExplorationResult "
                  "explore_program is_program_data_race_free",
    "outcomes": "OutcomeLimit OutcomeSet enumerate_outcomes",
    "hunting": "HuntConfig HuntResult JobFailure default_policies "
               "hunt_races policies_by_name policy_registry",
    "parallel": "HuntJob JobOutcome plan_jobs run_hunt",
    "metrics": "DetectionSummary RaceAccuracy TraceOverhead "
               "event_race_accuracy op_races_in_scp trace_overhead",
    "naive": "NaiveDetector NaiveReport",
    "sc_checker": "ExecutionTooLarge SCWitness find_sc_witness "
                  "is_sequentially_consistent verify_witness",
})
