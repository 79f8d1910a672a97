"""The robustness check's issue-order fast path, on every model and
propagation policy.

On simulator executions the fast path is taken exactly when no read is
stale; a stale-free execution is then robust, issue order passes the
independent SC-witness check, and the witness the report computes on
first read is the graph's eager topological order.
"""

from __future__ import annotations

import pytest

from repro.analysis.hunting import policy_registry
from repro.analysis.sc_checker import SCWitness, verify_witness
from repro.core import robustness
from repro.core.robustness import check_robustness, issue_order_is_witness
from repro.graph import topological_sort
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.simulator import run_program
from repro.programs.random_programs import (
    random_drf_program,
    random_racy_program,
)

POLICIES = policy_registry(3)
SEEDS = range(16)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_issue_order_fast_path(model, policy, monkeypatch):
    build_order_graph = robustness.build_order_graph
    graphs = []

    def counting(operations):
        graphs.append(len(operations))
        return build_order_graph(operations)

    monkeypatch.setattr(robustness, "build_order_graph", counting)
    for generate in (random_racy_program, random_drf_program):
        for seed in SEEDS:
            program = generate(seed)
            result = run_program(program, make_model(model), seed=seed,
                                 propagation=POLICIES[policy]())
            operations = result.operations
            stale_free = not result.stale_reads
            assert issue_order_is_witness(operations) == stale_free
            graphs.clear()
            report = check_robustness(result)
            assert (graphs == []) == stale_free
            if not stale_free:
                continue
            assert report.robust
            assert verify_witness(
                operations, SCWitness([op.seq for op in operations]),
                program.initial_memory)
            eager = list(topological_sort(build_order_graph(operations)[0]))
            assert report.witness == eager
            assert report.witness == eager
            assert graphs == [len(operations)]  # built once, on first read
