"""Sequentially consistent prefixes and Condition 3.4 (section 3.2).

An SCP of an execution E is an hb1-prefix-closed operation set that is
also the prefix of some sequentially consistent execution of the same
program, with matching races (Definitions 3.1/3.2).  Condition 3.4 then
demands: (1) a data-race-free execution is sequentially consistent, and
(2) some SCP exists such that every data race either occurs in it or is
affected (Definition 3.3) by a data race occurring in it.

The simulator supplies the raw material: operations are identified by
location + program point (section 2.1 — values don't matter), so a
processor's operation stream diverges from every SC execution only once
a stale value has steered its control flow or address computation.  The
processor tracks exactly that through taint, yielding a raw per-
processor cut; this module closes the cut under hb1 (Definition 3.1)
and checks both clauses of Condition 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..graph import reachable_from_any
from ..machine.simulator import ExecutionResult
from .ophb import OpHappensBefore, OpRace, build_op_augmented, find_op_races


@dataclass
class SCPrefix:
    """A sequentially consistent prefix, as per-processor cut points.

    ``cuts[p]`` is the local operation index of processor *p*'s first
    operation outside the prefix (None = all of *p*'s operations are
    inside).  ``included`` is the corresponding set of global seqs.
    """

    cuts: List[Optional[int]]
    included: Set[int]

    def contains(self, seq_or_op) -> bool:
        seq = getattr(seq_or_op, "seq", seq_or_op)
        return seq in self.included

    def contains_race(self, race: OpRace) -> bool:
        """A race occurs in the SCP iff both its operations do."""
        return race.a in self.included and race.b in self.included

    @property
    def size(self) -> int:
        return len(self.included)

    @property
    def is_whole_execution(self) -> bool:
        return all(cut is None for cut in self.cuts)


def close_scp(
    operations,
    raw_cuts: List[Optional[int]],
    hb: Optional[OpHappensBefore] = None,
) -> SCPrefix:
    """hb1-prefix closure of per-processor raw cuts (Definition 3.1):
    if an included operation has an excluded hb1 predecessor, the cut
    of its processor moves up to it.  The iteration is monotone (cuts
    only decrease) and therefore terminates.

    The cut list is padded with ``None`` to cover every processor that
    appears in *operations*, so a short (or empty) list is safe.
    """
    cuts: List[Optional[int]] = list(raw_cuts)
    if hb is None and all(cut is None for cut in cuts):
        # Nothing is cut, so no included operation can have an excluded
        # predecessor: the closure is the whole execution, no hb1 needed.
        ops = list(operations)
    else:
        hb = hb or OpHappensBefore(list(operations))
        ops = hb.operations
    procs = max((op.proc for op in ops), default=-1) + 1
    if len(cuts) < procs:
        cuts.extend([None] * (procs - len(cuts)))

    def included_seqs() -> Set[int]:
        out = set()
        for op in ops:
            cut = cuts[op.proc]
            if cut is None or op.local_index < cut:
                out.add(op.seq)
        return out

    included = included_seqs()
    changed = hb is not None
    while changed:
        changed = False
        for src, dst in hb.graph.edges():
            if dst in included and src not in included:
                op = hb.op(dst)
                cut = cuts[op.proc]
                if cut is None or op.local_index < cut:
                    cuts[op.proc] = op.local_index
                    changed = True
        if changed:
            included = included_seqs()
    return SCPrefix(cuts=cuts, included=included)


def extract_scp(
    result: ExecutionResult, hb: Optional[OpHappensBefore] = None
) -> SCPrefix:
    """The simulator-ground-truth SCP of an execution: the taint-derived
    raw cuts, closed under hb1 (see :func:`close_scp`)."""
    return close_scp(result.operations, result.raw_scp_cuts, hb)


@dataclass
class Condition34Report:
    """The verdict of checking Condition 3.4 on one execution."""

    data_race_free: bool
    no_stale_reads: bool
    clause1_ok: bool
    scp: SCPrefix
    op_races: List[OpRace] = field(default_factory=list)
    data_races_in_scp: List[OpRace] = field(default_factory=list)
    unaccounted_races: List[OpRace] = field(default_factory=list)

    @property
    def clause2_ok(self) -> bool:
        return not self.unaccounted_races

    @property
    def ok(self) -> bool:
        return self.clause1_ok and self.clause2_ok

    def summary(self) -> str:
        return (
            f"Condition 3.4: clause1={'ok' if self.clause1_ok else 'VIOLATED'} "
            f"clause2={'ok' if self.clause2_ok else 'VIOLATED'} "
            f"(races={len(self.op_races)}, scp_size={self.scp.size}, "
            f"unaccounted={len(self.unaccounted_races)})"
        )

    def to_json(self) -> dict:
        """Machine-readable verdict (``weakraces check --json``)."""
        def race(r: OpRace) -> dict:
            return {
                "a": r.a, "b": r.b, "addr": r.addr,
                "data_race": r.is_data_race,
            }
        return {
            "kind": "condition34",
            "ok": self.ok,
            "clause1_ok": self.clause1_ok,
            "clause2_ok": self.clause2_ok,
            "data_race_free": self.data_race_free,
            "no_stale_reads": self.no_stale_reads,
            "scp": {
                "cuts": list(self.scp.cuts),
                "size": self.scp.size,
                "whole_execution": self.scp.is_whole_execution,
            },
            "op_races": [race(r) for r in self.op_races],
            "data_races_in_scp": [race(r) for r in self.data_races_in_scp],
            "unaccounted_races": [race(r) for r in self.unaccounted_races],
        }


def check_condition_34(result: ExecutionResult) -> Condition34Report:
    """Verify both clauses of Condition 3.4 against ground truth.

    Clause (1): if the execution exhibits no data races, it must be
    sequentially consistent.  In the simulator, "no stale reads" is
    exactly "the global issue order is an SC witness" (every read
    returned the latest committed write), so clause (1) reduces to:
    data-race-free implies no stale reads.

    Clause (2): every data race must occur in the SCP or be affected by
    a data race occurring in the SCP.  Affects is G'-reachability, so a
    race is accounted for iff one of its endpoints is an endpoint of —
    or reachable in G' from an endpoint of — an SCP data race.
    """
    hb = OpHappensBefore(result.operations)
    races = find_op_races(result.operations, hb)
    data = [race for race in races if race.is_data_race]
    no_stale = not any(op.stale for op in result.operations)
    data_race_free = not data
    clause1_ok = (not data_race_free) or no_stale

    scp = extract_scp(result, hb)
    in_scp = [race for race in data if scp.contains_race(race)]

    unaccounted: List[OpRace] = []
    outside = [race for race in data if not scp.contains_race(race)]
    if outside:
        gprime = build_op_augmented(hb, races)
        seeds = {race.a for race in in_scp} | {race.b for race in in_scp}
        affected = reachable_from_any(gprime, seeds) if seeds else set()
        for race in outside:
            if race.a not in affected and race.b not in affected:
                unaccounted.append(race)

    return Condition34Report(
        data_race_free=data_race_free,
        no_stale_reads=no_stale,
        clause1_ok=clause1_ok,
        scp=scp,
        op_races=races,
        data_races_in_scp=in_scp,
        unaccounted_races=unaccounted,
    )
