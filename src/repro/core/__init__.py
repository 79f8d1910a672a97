"""The paper's contribution: happens-before-1 construction, race
detection, race partitioning by the SCCs of the augmented graph G' with
first-partition reporting, affects chains, SCP machinery with the
Condition 3.4 checker, and the on-the-fly baseline."""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "detector": "PostMortemDetector",
    "explain": "RaceExplanation explain_race explain_report",
    "provenance": "NonOrderingWitness ProvenanceError ProvenanceReport "
                  "RaceProvenance explain_races",
    "hb1": "HappensBefore1",
    "onthefly": "OnTheFlyDetector OnTheFlyRace OnTheFlyReport "
                "detect_on_the_fly",
    "onthefly_first": "FirstRaceOnTheFlyDetector",
    "ophb": "OpHappensBefore OpRace build_op_augmented find_op_races",
    "partitions": "PartitionAnalysis RacePartition partition_races",
    "races": "EventRace data_races find_races",
    "report": "RaceReport",
    "robustness": "OrderEdge RobustnessReport build_order_graph "
                  "check_robustness",
    "scp": "Condition34Report SCPrefix check_condition_34 close_scp "
           "extract_scp",
    "timeline": "render_timeline",
    "vector_clock": "VectorClock",
})
