"""Race-provenance tests (§4.1–4.2 evidence): the non-ordering
witness, its double-check against the detector's vector clocks, partition and
Definition 4.1 ordering evidence, and the report/DOT views.

The acceptance workload is workqueue-buggy under WO: every
first-partition race must come back with a verified witness."""

import pytest

import repro
from repro import detect, explain, make_model, run_program
from repro.core.partitions import RacePartition
from repro.core.provenance import (
    NonOrderingWitness,
    ProvenanceError,
    RaceProvenance,
    explain_races,
)
from repro.programs.random_programs import random_racy_program
from repro.programs.workqueue import buggy_workqueue_program, run_figure2
from repro.trace.events import EventId


@pytest.fixture(scope="module")
def workqueue_report():
    result = run_program(
        buggy_workqueue_program(), make_model("WO"), seed=0
    )
    return detect(result)


@pytest.fixture(scope="module")
def figure2_report():
    return detect(run_figure2(make_model("WO")))


# ----------------------------------------------------------------------
# acceptance: witness-checked provenance on workqueue-buggy/WO
# ----------------------------------------------------------------------

def test_every_first_partition_race_is_witness_checked(workqueue_report):
    report = workqueue_report
    assert not report.race_free  # the workload is racy at seed 0
    prov = explain_races(report)
    assert prov.all_verified
    by_signature = {p.signature: p for p in prov.provenances}
    for race in report.reported_races:
        entry = by_signature[race.signature]
        assert entry.reported
        assert entry.is_first
        assert entry.witness.verified
        assert entry.witness.holds
        assert not entry.witness.a_reaches_b
        assert not entry.witness.b_reaches_a
        assert entry.preceding == []  # first ⇔ unpreceded (Def 4.1)


@pytest.mark.parametrize("seed", range(4))
def test_witnesses_verify_across_seeds(seed):
    result = run_program(
        buggy_workqueue_program(), make_model("WO"), seed=seed
    )
    prov = explain_races(detect(result))
    assert prov.all_verified
    assert all(p.witness.holds for p in prov.provenances)


def test_provenance_covers_every_data_race(workqueue_report):
    prov = explain_races(workqueue_report)
    assert len(prov.provenances) == len(workqueue_report.data_races)
    assert len(prov.reported) == len(workqueue_report.reported_races)
    assert len(prov.suppressed) == len(
        workqueue_report.suppressed_races
    )


# ----------------------------------------------------------------------
# suppressed races: the Definition 4.1 ordering evidence
# ----------------------------------------------------------------------

def test_suppressed_race_names_preceding_partitions(figure2_report):
    prov = explain_races(figure2_report)
    assert prov.suppressed, "figure 2 must suppress artifact races"
    first_indices = {
        p.component_index for p in figure2_report.analysis.partitions
        if p.is_first
    }
    for entry in prov.suppressed:
        assert not entry.is_first
        assert entry.preceding, "suppressed ⇒ preceded (Def 4.1)"
        assert entry.component_index not in entry.preceding
    for entry in prov.reported:
        # a first partition reaches the suppressed ones, never the
        # other way round
        assert entry.preceding == []
        assert entry.component_index in first_indices


def test_describe_explains_both_directions(figure2_report):
    prov = explain_races(figure2_report)
    reported_text = prov.reported[0].describe(figure2_report.trace)
    assert "FIRST partition" in reported_text
    assert "Theorem 4.2" in reported_text
    assert "verified against vector clocks" in reported_text
    suppressed_text = prov.suppressed[0].describe(figure2_report.trace)
    assert "suppressed" in suppressed_text
    assert "artifact" in suppressed_text


# ----------------------------------------------------------------------
# report views
# ----------------------------------------------------------------------

def test_format_groups_reported_and_suppressed(figure2_report):
    text = explain_races(figure2_report).format()
    assert "Race provenance" in text
    assert "[REPORTED]" in text
    assert "[SUPPRESSED]" in text
    assert "witness:" in text


def test_format_race_free_execution():
    result = run_program(
        repro.locked_counter_program(2, 2), make_model("WO"), seed=0
    )
    report = detect(result)
    assert report.race_free
    prov = explain_races(report)
    assert prov.provenances == []
    assert prov.all_verified  # vacuously
    assert "nothing to explain" in prov.format()
    assert "sequentially" in prov.format()


def test_to_json_shape(workqueue_report):
    import json

    doc = explain_races(workqueue_report).to_json()
    assert doc["kind"] == "provenance"
    assert doc["model"] == "WO"
    assert doc["all_verified"] is True
    assert doc["race_free"] is False
    for entry in doc["races"]:
        assert entry["witness"]["holds"] is True
        assert entry["witness"]["verified"] is True
        assert entry["reported"] == entry["partition"]["is_first"]
        assert "~" in entry["race"]["signature"]
    json.dumps(doc)  # serializable as-is


def test_to_dot_highlights_first_partition_events(workqueue_report):
    prov = explain_races(workqueue_report)
    dot = prov.to_dot()
    assert dot.startswith("digraph")
    assert "lightgoldenrod1" in dot  # highlighted first-partition nodes
    # without a highlight set the rendering is untouched
    assert "lightgoldenrod1" not in workqueue_report.to_dot()


def test_find_by_signature(workqueue_report):
    prov = explain_races(workqueue_report)
    first = prov.provenances[0]
    assert prov.find(first.signature) is first
    assert prov.find("P9.E9~P9.E8") is None


def test_include_sync_extends_coverage(figure2_report):
    base = explain_races(figure2_report)
    full = explain_races(figure2_report, include_sync=True)
    assert len(full.provenances) == len(figure2_report.races)
    assert len(full.provenances) >= len(base.provenances)
    sync = [p for p in full.provenances
            if not p.race.is_data_race]
    assert all(not p.reported for p in sync)  # sync races never reported


def test_explain_reads_each_partition_once(monkeypatch):
    """Which partitions hold a data race is decided once per partition,
    not rescanned for every explained race (Definition 4.1 neighbours
    included), so ``explain --include-sync`` stays linear in races."""
    calls = []
    has_data_race = RacePartition.has_data_race.fget

    def counting(partition):
        calls.append(partition.component_index)
        return has_data_race(partition)

    monkeypatch.setattr(RacePartition, "has_data_race", property(counting))
    # 39 races (4 data races) in 3 partitions, 1 of them a data one
    report = detect(run_program(
        random_racy_program(2, race_prob=0.5), make_model("WO"), seed=2
    ))
    prov = explain_races(report, include_sync=True)
    partitions = report.analysis.partitions
    assert len(prov.provenances) == len(report.races) > len(partitions) > 1
    assert sorted(calls) == sorted(p.component_index for p in partitions)


def test_explain_walks_once_per_endpoint(monkeypatch):
    """The non-ordering witnesses take one BFS per distinct race
    endpoint, shared by every race at that endpoint, not two per
    race."""
    from repro.core import provenance

    sources = []
    bfs = provenance._bfs_reachable

    def counting(edges, src):
        sources.append(src)
        return bfs(edges, src)

    monkeypatch.setattr(provenance, "_bfs_reachable", counting)
    report = detect(run_program(
        random_racy_program(2, race_prob=0.5), make_model("WO"), seed=2
    ))
    explain_races(report, include_sync=True)
    endpoints = {e for race in report.races for e in (race.a, race.b)}
    assert len(sources) == len(set(sources)) <= len(endpoints)
    assert len(sources) < 2 * len(report.races)


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------

def test_ordered_pair_raises_provenance_error(workqueue_report):
    """A 'race' whose endpoints hb1-ordered must be rejected, not
    explained — that would mean the detector contradicted itself."""
    report = workqueue_report
    race = report.data_races[0]
    # forge a race between two po-ordered events of one processor
    forged = type(race)(
        a=EventId(0, 0), b=EventId(0, 1),
        locations=race.locations, is_data_race=True,
    )
    broken = type(report)(
        trace=report.trace, hb=report.hb,
        races=[forged], analysis=report.analysis,
    )
    with pytest.raises(ProvenanceError, match="hb1-ordered"):
        explain_races(broken)


def test_witness_describe_flags_disagreement():
    witness = NonOrderingWitness(
        a=EventId(0, 0), b=EventId(1, 0),
        a_reaches_b=False, b_reaches_a=False, verified=False,
    )
    assert "VECTOR CLOCKS DISAGREE" in witness.describe()
    assert witness.holds


def test_corrupt_clock_raises_provenance_error():
    """The witness is checked against the clocks the detector swept
    with: a clock that orders a reported race must fail the check."""
    result = run_program(buggy_workqueue_program(), make_model("WO"), seed=0)
    report = detect(result)
    race = report.reported_races[0]
    assert explain_races(report).all_verified
    # b's clock now claims to have seen a: "a hb1 b"
    report.hb.clock_of(race.b)[race.a.proc] = race.a.pos + 1
    assert report.hb.ordered(race.a, race.b)
    with pytest.raises(ProvenanceError, match="vector clocks say"):
        explain_races(report)


def test_explain_builds_no_closure(workqueue_report, event_closures):
    explain_races(workqueue_report)
    assert event_closures == []


# ----------------------------------------------------------------------
# the repro.explain() API wrapper
# ----------------------------------------------------------------------

def test_api_explain_accepts_report_and_source(workqueue_report):
    from_report = explain(workqueue_report)
    result = run_program(
        buggy_workqueue_program(), make_model("WO"), seed=0
    )
    from_source = explain(result)
    assert {p.signature for p in from_report.provenances} == \
        {p.signature for p in from_source.provenances}
    assert from_report.all_verified and from_source.all_verified
