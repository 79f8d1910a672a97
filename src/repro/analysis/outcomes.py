"""Exhaustive outcome enumeration for litmus-sized programs.

The search of :mod:`.exhaustive`, run under a **weak** model with its
race check off, branches on which processor steps next and on which
buffered write is delivered to which reader.  Its final states are the
litmus-test outcome table (what tools like herd produce for real
architectures, here for the simulated models), so the model-separation
claims are checkable: store buffering's "both read 0" outcome is
*absent* from SC's set and *present* in WO's, and a data-race-free
program's outcome set is the same on every model (the SC-for-DRF
guarantee).  Each (pending write x reader) pair is a choice point, so
this is for litmus-sized programs; beyond its budget it raises
:class:`OutcomeLimit` rather than returning a partial answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..machine.models.base import MemoryModel
from ..machine.program import Program
from .exhaustive import ExplorationLimit, search

#: The search's one limit exception, under the name this module's
#: callers have always caught.
OutcomeLimit = ExplorationLimit


@dataclass
class OutcomeSet:
    """All final memory states a program admits under one model."""

    program: Program
    model_name: str
    outcomes: Set[Tuple[Tuple[int, int], ...]]
    states_visited: int
    deadlocked_paths: int = 0

    def values_of(self, *names: str) -> Set[Tuple[int, ...]]:
        """Project the outcome set onto named locations."""
        addrs = [self.program.symbols.addr_of(name) for name in names]
        out: Set[Tuple[int, ...]] = set()
        for outcome in self.outcomes:
            memory = dict(outcome)
            out.add(tuple(memory.get(addr, 0) for addr in addrs))
        return out

    def __len__(self) -> int:
        return len(self.outcomes)


def enumerate_outcomes(
    program: Program,
    model: MemoryModel,
    max_states: int = 300_000,
    interesting: Optional[List[str]] = None,
) -> OutcomeSet:
    """Every final memory state *program* admits under *model*.

    Args:
        interesting: optional location names; when given, outcomes are
            deduplicated by those locations only, which can shrink the
            recorded set (the search itself is unaffected).
    """
    keep_addrs = None
    if interesting is not None:
        keep_addrs = [program.symbols.addr_of(name) for name in interesting]
    result, outcomes = search(program, model, max_states, check_races=False)
    if keep_addrs is not None:
        outcomes = {
            tuple((a, dict(outcome).get(a, 0)) for a in keep_addrs)
            for outcome in outcomes
        }
    return OutcomeSet(
        program=program,
        model_name=model.name,
        outcomes=outcomes,
        states_visited=result.states_visited,
        deadlocked_paths=result.deadlocked_paths,
    )
