"""The paper's contribution: happens-before-1 construction, race
detection, the affects relation, augmented-graph race partitioning with
first-partition reporting, SCP machinery with the Condition 3.4
checker, and the on-the-fly baseline."""

from .affects import (
    AffectsIndex,
    affected_events,
    race_affects_event,
    race_affects_race,
)
from .augmented import build_augmented_graph, race_edge_list
from .detector import PostMortemDetector
from .explain import RaceExplanation, explain_race, explain_report
from .hb1 import HappensBefore1
from .hb1_vc import CyclicHB1Error, VectorClockHB1
from .onthefly import (
    OnTheFlyDetector,
    OnTheFlyRace,
    OnTheFlyReport,
    detect_on_the_fly,
)
from .onthefly_first import (
    FirstRaceOnTheFlyDetector,
)
from .ophb import OpHappensBefore, OpRace, build_op_augmented, find_op_races
from .partitions import PartitionAnalysis, RacePartition, partition_races
from .provenance import (
    NonOrderingWitness,
    ProvenanceError,
    ProvenanceReport,
    RaceProvenance,
    explain_races,
)
from .races import EventRace, data_races, find_races
from .report import RaceReport
from .robustness import (
    OrderEdge,
    RobustnessReport,
    build_order_graph,
    check_robustness,
)
from .scp import (
    Condition34Report,
    SCPrefix,
    check_condition_34,
    close_scp,
    extract_scp,
)
from .timeline import render_timeline
from .vector_clock import VectorClock

__all__ = [
    "AffectsIndex",
    "affected_events",
    "race_affects_event",
    "race_affects_race",
    "build_augmented_graph",
    "race_edge_list",
    "PostMortemDetector",
    "RaceExplanation",
    "explain_race",
    "explain_report",
    "NonOrderingWitness",
    "ProvenanceError",
    "ProvenanceReport",
    "RaceProvenance",
    "explain_races",
    "HappensBefore1",
    "CyclicHB1Error",
    "VectorClockHB1",
    "OnTheFlyDetector",
    "OnTheFlyRace",
    "OnTheFlyReport",
    "detect_on_the_fly",
    "FirstRaceOnTheFlyDetector",
    "OpHappensBefore",
    "OpRace",
    "build_op_augmented",
    "find_op_races",
    "PartitionAnalysis",
    "RacePartition",
    "partition_races",
    "EventRace",
    "data_races",
    "find_races",
    "RaceReport",
    "OrderEdge",
    "RobustnessReport",
    "build_order_graph",
    "check_robustness",
    "Condition34Report",
    "SCPrefix",
    "check_condition_34",
    "close_scp",
    "extract_scp",
    "render_timeline",
    "VectorClock",
]
