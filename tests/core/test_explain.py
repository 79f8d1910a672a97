"""Race-explanation tests."""

import pytest

from repro.core.detector import PostMortemDetector
from repro.core.explain import explain_race, explain_report
from repro.graph import shortest_path
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.simulator import run_program
from repro.programs.figure1 import figure1a_program
from repro.programs.kernels import locked_counter_program
from repro.programs.random_programs import random_racy_program
from repro.programs.workqueue import run_figure2
from tests.core.test_lazy_partitions import CORPUS
from tests.gprime_oracle import build_augmented_graph

DET = PostMortemDetector()


def test_first_race_explained_as_first(figure2_report):
    first = figure2_report.reported_races[0]
    explanation = explain_race(figure2_report, first)
    assert explanation.is_first
    assert explanation.root_race is None
    text = explanation.format(figure2_report)
    assert "FIRST" in text
    assert "Theorem 4.2" in text


def test_suppressed_race_gets_a_chain(figure2_report):
    suppressed = figure2_report.suppressed_races[0]
    explanation = explain_race(figure2_report, suppressed)
    assert not explanation.is_first
    assert explanation.root_race == figure2_report.reported_races[0]
    assert explanation.steps
    # chain starts at a root-race endpoint and ends at the suppressed
    # race's endpoint
    assert explanation.steps[0].src in explanation.root_race.events
    assert explanation.steps[-1].dst in suppressed.events


def test_chain_edges_exist_in_gprime(figure2_report):
    suppressed = figure2_report.suppressed_races[0]
    explanation = explain_race(figure2_report, suppressed)
    gprime = build_augmented_graph(figure2_report.hb, figure2_report.races)
    for step in explanation.steps:
        assert gprime.has_edge(step.src, step.dst)


def test_chain_kinds_labelled(figure2_report):
    suppressed = figure2_report.suppressed_races[0]
    explanation = explain_race(figure2_report, suppressed)
    kinds = {step.kind for step in explanation.steps}
    assert kinds <= {"po", "so1", "race"}
    text = explanation.format(figure2_report)
    assert "SUPPRESSED" in text
    assert "-->" in text


def test_explain_report_covers_all_races(figure2_report):
    text = explain_report(figure2_report)
    assert text.count("Race <") == len(figure2_report.data_races)
    assert "FIRST" in text and "SUPPRESSED" in text


def test_explain_clean_execution():
    result = run_program(locked_counter_program(2, 2), make_model("WO"), seed=0)
    report = DET.analyze_execution(result)
    assert "nothing to explain" in explain_report(report)


def test_independent_races_all_first():
    result = run_program(figure1a_program(), make_model("SC"), seed=0)
    report = DET.analyze_execution(result)
    text = explain_report(report)
    assert "SUPPRESSED" not in text


def test_labels_truncate_large_sets(figure2_report):
    text = explain_report(figure2_report)
    assert "more" in text  # the 100-location region sets are truncated
    assert len(text) < 4000


def _assert_chains_are_gprime_paths(report):
    """Every suppressed data race gets a chain rooted at a reported
    race: a shortest path of the full G', each hop a G' edge labelled
    with its kind."""
    gprime = build_augmented_graph(report.hb, report.observed_races)
    so1 = set(report.hb.so1_edges)
    races = {frozenset(race.events) for race in report.observed_races}
    roots = {e for root in report.reported_races for e in root.events}
    for race in report.suppressed_races:
        explanation = explain_race(report, race)
        assert explanation.root_race in report.reported_races
        steps = explanation.steps
        assert steps[0].src in explanation.root_race.events
        assert steps[-1].dst in race.events
        for step in steps:
            assert gprime.has_edge(step.src, step.dst)
            assert (step.kind == "po") == (step.src.proc == step.dst.proc)
            assert (step.kind == "so1") == ((step.src, step.dst) in so1)
            if step.kind == "race":
                assert frozenset((step.src, step.dst)) in races
        assert len(steps) == min(
            len(path) - 1 for src in roots for dst in race.events
            for path in [shortest_path(gprime, src, dst)] if path)


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
@pytest.mark.parametrize("build", CORPUS, ids=lambda p: p.__name__)
def test_corpus_chains_are_gprime_paths(build, model):
    _assert_chains_are_gprime_paths(
        DET.analyze_execution(run_program(build(), make_model(model), seed=3)))


@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_generated_chains_are_gprime_paths(model):
    _assert_chains_are_gprime_paths(
        DET.analyze_execution(run_figure2(make_model(model))))
    for seed in range(16):
        _assert_chains_are_gprime_paths(DET.analyze_execution(run_program(
            random_racy_program(seed, processors=4, race_prob=0.5),
            make_model(model), seed=seed)))
