"""repro — Detecting Data Races on Weak Memory Systems (ISCA 1991).

A from-scratch reproduction of Adve, Hill, Miller & Netzer's post-mortem
dynamic data race detection for weak memory systems, together with the
simulated multiprocessor substrate (SC, WO, RCsc, DRF0, DRF1 memory
models, plus TSO/PSO store-buffer models with per-trace robustness
verdicts), the event-trace instrumentation of section 4.1, the
first-partition reporting algorithm of section 4.2, the Condition 3.4 /
SCP verification machinery of section 3, and on-the-fly and naive
baselines.

Quickstart::

    import repro
    from repro import make_model, run_program, buggy_workqueue_program

    program = buggy_workqueue_program()
    result = run_program(program, make_model("WO"), seed=7)
    report = repro.detect(result)          # the unified entry point
    print(report.format())

``repro.detect`` accepts any trace source — a ``Trace``, an
``ExecutionResult``, a trace-file path or open file (format sniffed:
JSON-lines, v1 binary, or zero-copy columnar — see
``repro.load_trace``), or a live ``MemoryOperation`` stream — selects
the detector variant via ``detector="postmortem" | "naive" |
"onthefly" | "streaming" | "shb" | "wcp"``, and can profile the
pipeline via ``profile=`` (see :mod:`repro.obs`).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [*lazy_exports(globals(), {
    ".": "obs",
    "api": "DETECTOR_NAMES TRACE_FORMATS detect load_trace save_trace "
           "sniff_trace_format report_from_json explain check_robustness",
    "analysis": "DetectionSummary ExplorationResult explore_program "
                "is_program_data_race_free NaiveDetector NaiveReport "
                "find_sc_witness is_sequentially_consistent trace_overhead",
    "core": "ProvenanceReport RaceProvenance explain_races "
            "Condition34Report RobustnessReport EventRace HappensBefore1 "
            "OnTheFlyDetector OnTheFlyReport FirstRaceOnTheFlyDetector "
            "PartitionAnalysis PostMortemDetector RacePartition RaceReport "
            "SCPrefix check_condition_34 detect_on_the_fly explain_race "
            "explain_report extract_scp find_op_races find_races",
    "machine": "ALL_MODEL_NAMES WEAK_MODEL_NAMES CostModel ExecutionResult "
               "MemoryModel MemoryOperation Program ProgramBuilder Simulator "
               "SyncRole make_model run_program",
    "programs": "WorkQueueParams buggy_workqueue_program figure1a_program "
                "figure1b_program fixed_workqueue_program "
                "locked_counter_program producer_consumer_program "
                "racy_counter_program run_figure2",
    "staticanalysis": "StaticReport find_static_races",
    "trace": "Trace build_trace write_trace",
}), "__version__"]
