"""On-the-fly first-race location tests (section 5 future work)."""

from repro.core.onthefly_first import FirstRaceOnTheFlyDetector
from repro.machine.models import make_model
from repro.machine.program import ProgramBuilder
from repro.machine.scheduler import ScriptedScheduler
from repro.machine.simulator import Simulator, run_program
from repro.programs.figure1 import figure1a_program
from repro.programs.workqueue import run_figure2


def _locate_first(operations, processor_count,
                                  reader_history=4, writer_history=1):
    """One streaming pass: ``{"first": [...], "non_first": [...]}``."""
    detector = FirstRaceOnTheFlyDetector(
        processor_count, reader_history, writer_history
    )
    detector.process_all(operations)
    return {"first": detector.first_races,
            "non_first": detector.non_first_races}


def test_clean_program_reports_nothing():
    from repro.programs.kernels import locked_counter_program
    result = run_program(locked_counter_program(2, 2), make_model("WO"), seed=1)
    out = _locate_first(
        result.operations, result.processor_count
    )
    assert out["first"] == []
    assert out["non_first"] == []


def test_independent_races_all_first():
    b = ProgramBuilder()
    x, y = b.var("x"), b.var("y")
    with b.thread() as t:
        t.write(x, 1)
    with b.thread() as t:
        t.read(x)
    with b.thread() as t:
        t.write(y, 1)
    with b.thread() as t:
        t.read(y)
    result = run_program(b.build(), make_model("SC"), seed=0)
    out = _locate_first(
        result.operations, result.processor_count, reader_history=8
    )
    assert len(out["first"]) == 2
    assert out["non_first"] == []


def test_figure2_first_is_a_queue_race():
    result = run_figure2(make_model("WO"))
    out = _locate_first(
        result.operations, result.processor_count,
        reader_history=8, writer_history=4,
    )
    assert len(out["first"]) >= 1
    name = result.addr_name
    first_addrs = {name(r.addr) for r in out["first"]}
    assert first_addrs <= {"Q", "QEmpty"}
    # every region race is classified as affected (non-first)
    region_races = [
        r for r in out["non_first"] if name(r.addr).startswith("region[")
    ]
    assert region_races
    assert not any(name(r.addr).startswith("region[") for r in out["first"])


def test_downstream_race_marked_non_first():
    """A race whose endpoint po-follows an earlier race endpoint is
    affected (Definition 3.3 clause 2) and must not be first."""
    b = ProgramBuilder()
    x, y = b.var("x"), b.var("y")
    with b.thread() as t:  # P0
        t.write(x, 1)
        t.write(y, 1)      # po-after the x race endpoint
    with b.thread() as t:  # P1
        t.read(x)
    with b.thread() as t:  # P2
        t.read(y)
    # Schedule: x race completes first, then the y ops.
    result = Simulator(
        b.build(), make_model("SC"),
        scheduler=ScriptedScheduler([0, 1, 0, 2]), seed=0,
    ).run()
    out = _locate_first(
        result.operations, result.processor_count, reader_history=8
    )
    name = result.addr_name
    assert {name(r.addr) for r in out["first"]} == {"x"}
    assert {name(r.addr) for r in out["non_first"]} == {"y"}


def test_contamination_propagates_through_sync():
    """Affection crosses processors via release/acquire pairing: a race
    downstream of a paired acquire whose release is contaminated is
    non-first."""
    b = ProgramBuilder()
    x, y, f = b.var("x"), b.var("y"), b.var("f")
    with b.thread() as t:  # P0: races on x, then releases f
        t.write(x, 1)
        t.release_write(f, 1)
    with b.thread() as t:  # P1: the x race
        t.read(x)
    with b.thread() as t:  # P2: acquires f (after P0's race), writes y
        t.spin_until_eq(f, 1)
        t.write(y, 1)
    with b.thread() as t:  # P3: reads y -> the y race is affected
        t.read(y)
    result = Simulator(
        b.build(), make_model("SC"),
        scheduler=ScriptedScheduler([0, 1, 0, 2, 2, 2, 2, 3]), seed=0,
    ).run()
    out = _locate_first(
        result.operations, result.processor_count, reader_history=8
    )
    name = result.addr_name
    assert {name(r.addr) for r in out["first"]} == {"x"}
    assert {name(r.addr) for r in out["non_first"]} == {"y"}


def test_counts_partition_the_race_set():
    result = run_figure2(make_model("WO"))
    detector = FirstRaceOnTheFlyDetector(
        result.processor_count, reader_history=8, writer_history=4
    )
    detector.process_all(result.operations)
    assert len(detector.first_races) + len(detector.non_first_races) == \
           len(detector.races)


def test_figure1a_races_first():
    result = run_program(figure1a_program(), make_model("SC"), seed=0)
    out = _locate_first(
        result.operations, result.processor_count
    )
    # Depending on schedule, the second race may be po-downstream of
    # the first's endpoint and thus correctly non-first; but at least
    # one race is always first.
    assert len(out["first"]) >= 1
