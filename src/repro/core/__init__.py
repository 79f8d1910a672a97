"""The paper's contribution: happens-before-1 construction, race
detection, the affects relation, augmented-graph race partitioning with
first-partition reporting, SCP machinery with the Condition 3.4
checker, and the on-the-fly baseline."""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "affects": "AffectsIndex affected_events race_affects_event "
               "race_affects_race",
    "augmented": "build_augmented_graph race_edge_list",
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
