"""Dynamic robustness verification: does an observed execution have a
sequentially consistent justification?

The paper's detection guarantees rest on Condition 3.4, which the
SC/WO/RCsc/DRF0/DRF1 models satisfy *by construction*.  The
store-buffer models (TSO/PSO) can genuinely leave sequential
consistency, so this module checks the property per trace, following
the dynamic-robustness line of work (Margalit et al. 2025): an
execution is **robust** when some total order of its operations is
consistent with

* **po** — program order (per-processor issue order),
* **rf** — reads-from (each read after the write it observed),
* **co** — coherence order (per-location write order; in this
  simulator writes commit at issue, so co is the issue-seq order of
  each location's writes — ground truth, not a guess), and
* **fr** — from-reads (a read before the co-successors of the write it
  observed; a read of the initial value before every write to its
  location),

i.e. when the execution graph ``po ∪ rf ∪ co ∪ fr`` is acyclic
(Shasha & Snir).  Acyclic ⇒ any topological order is an SC witness
that replays every read against the same write.  Cyclic ⇒ the cycle
itself is the minimal certificate that no SC justification exists for
the observed (po, rf, co).

Most executions need no graph at all: when every read observes the
latest same-location write issued before it, every po, rf, co and fr
edge points forward in issue order, so issue order already is an SC
witness (:func:`issue_order_is_witness`).  The verdict is then robust
at the cost of one linear pass, and the reported witness (the graph's
topological order, as the graph path reports it) is computed only if
it is read.

The verdict is packaged as a :class:`RobustnessReport` carrying the
witness order or the violating cycle plus the SC-prefix boundary
(:mod:`repro.core.scp`), and serializes through the shared
``to_json``/``from_json`` report protocol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph import (
    CycleError,
    DiGraph,
    shortest_path,
    strongly_connected_components,
    topological_sort,
)
from ..machine.operations import MemoryOperation, OperationKind
from ..machine.simulator import ExecutionResult
from .lazy import LazyField
from .scp import SCPrefix, close_scp

ROBUSTNESS_FORMAT = 1

#: Edge kinds in precedence order: when one seq pair carries several
#: relations (e.g. rf between po-adjacent operations) the strongest
#: structural label wins.
EDGE_KINDS = ("po", "rf", "co", "fr")


@dataclass(frozen=True)
class OrderEdge:
    """One labelled edge of the execution graph (by operation seq)."""

    src: int
    dst: int
    kind: str  # "po" | "rf" | "co" | "fr"


@dataclass
class RobustnessReport:
    """The robustness verdict for one execution.

    ``witness`` is a total order of operation seqs (an SC justification)
    when robust; ``cycle`` is the minimal violating cycle — labelled
    edges, closed (last edge returns to the first node) — when not.
    ``scp_cuts``/``scp_size`` locate the SC-prefix boundary: the point
    up to which the execution is, per processor, still a prefix of some
    SC execution (exact taint ground truth for simulator executions, a
    first-stale-read under-approximation for bare operation streams).
    When ``witness`` is not passed it is the topological order of
    ``operations``' execution graph, computed on first read (empty
    without ``operations``).
    """

    kind = "robustness"

    robust: bool
    model_name: str
    operation_count: int
    stale_reads: int
    witness: List[int] = LazyField("_order_witness")
    cycle: List[OrderEdge] = field(default_factory=list)
    scp_cuts: List[Optional[int]] = field(default_factory=list)
    scp_size: int = 0
    scp_whole: bool = True
    #: op seq -> human description, for cycle rendering (not serialized
    #: beyond the cycle's own endpoints).
    descriptions: Dict[int, str] = field(default_factory=dict)
    #: the operation stream a deferred witness is sorted from (not
    #: serialized)
    operations: Optional[List[MemoryOperation]] = field(
        default=None, repr=False, compare=False)

    def _order_witness(self) -> List[int]:
        if self.operations is None:
            return []
        return list(topological_sort(build_order_graph(self.operations)[0]))

    def _witness_length(self) -> int:
        """``len(self.witness)`` without sorting a deferred witness: the
        order graph has one node per distinct operation seq."""
        if self.operations is None:
            return len(self.witness)
        return len({op.seq for op in self.operations})

    # ------------------------------------------------------------------
    @property
    def verdict(self) -> str:
        return "robust" if self.robust else "non-robust"

    def summary(self) -> str:
        if self.robust:
            return (
                f"robust: SC witness over {self.operation_count} "
                f"operation(s) ({self.model_name} execution)"
            )
        return (
            f"non-robust: {len(self.cycle)}-edge violating cycle "
            f"({'+'.join(sorted({e.kind for e in self.cycle}))}); "
            f"SC prefix covers {self.scp_size}/{self.operation_count} "
            f"operation(s)"
        )

    def format(self) -> str:
        lines = [
            f"Robustness verdict ({self.model_name} execution, "
            f"{self.operation_count} operations)",
            "=" * 70,
        ]
        if self.robust:
            lines.append(
                "ROBUST: the execution has a sequentially consistent "
                "justification."
            )
            lines.append(
                f"  witness: issue order of {self._witness_length()} "
                f"operation(s) consistent with po+rf+co+fr"
            )
            return "\n".join(lines)
        lines.append(
            "NON-ROBUST: no total order explains the observed "
            "reads-from under program and coherence order."
        )
        lines.append(f"  violating cycle ({len(self.cycle)} edges):")
        for edge in self.cycle:
            src = self.descriptions.get(edge.src, f"op {edge.src}")
            dst = self.descriptions.get(edge.dst, f"op {edge.dst}")
            lines.append(f"    {src} --{edge.kind}--> {dst}")
        lines.append(
            f"  SC prefix: {self.scp_size}/{self.operation_count} "
            f"operation(s), cuts={self.scp_cuts}"
        )
        if self.stale_reads:
            lines.append(f"  stale reads in execution: {self.stale_reads}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "kind": self.kind,
            "format": ROBUSTNESS_FORMAT,
            "robust": self.robust,
            "model": self.model_name,
            "operations": self.operation_count,
            "stale_reads": self.stale_reads,
            "witness": list(self.witness),
            "cycle": [
                {
                    "from": e.src,
                    "to": e.dst,
                    "kind": e.kind,
                    "from_desc": self.descriptions.get(e.src, ""),
                    "to_desc": self.descriptions.get(e.dst, ""),
                }
                for e in self.cycle
            ],
            "scp": {
                "cuts": list(self.scp_cuts),
                "size": self.scp_size,
                "whole_execution": self.scp_whole,
            },
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "RobustnessReport":
        if payload.get("kind") != cls.kind:
            raise ValueError(
                f"expected a {cls.kind} report payload, "
                f"got kind {payload.get('kind')!r}"
            )
        descriptions: Dict[int, str] = {}
        cycle = []
        for record in payload.get("cycle", []):
            cycle.append(
                OrderEdge(record["from"], record["to"], record["kind"])
            )
            if record.get("from_desc"):
                descriptions[record["from"]] = record["from_desc"]
            if record.get("to_desc"):
                descriptions[record["to"]] = record["to_desc"]
        scp = payload.get("scp", {})
        return cls(
            robust=payload["robust"],
            model_name=payload.get("model", ""),
            operation_count=payload.get("operations", 0),
            stale_reads=payload.get("stale_reads", 0),
            witness=list(payload.get("witness", [])),
            cycle=cycle,
            scp_cuts=list(scp.get("cuts", [])),
            scp_size=scp.get("size", 0),
            scp_whole=scp.get("whole_execution", True),
            descriptions=descriptions,
        )


# ----------------------------------------------------------------------
# execution-graph construction
# ----------------------------------------------------------------------

def build_order_graph(
    operations: List[MemoryOperation],
) -> Tuple[DiGraph, Dict[Tuple[int, int], str]]:
    """The execution graph po ∪ rf ∪ co ∪ fr over operation seqs,
    plus a kind label per edge (first kind in :data:`EDGE_KINDS`
    precedence wins when relations coincide)."""
    graph = DiGraph()
    labels: Dict[Tuple[int, int], str] = {}

    def add(src: int, dst: int, kind: str) -> None:
        if src == dst:
            return
        graph.add_edge(src, dst)
        labels.setdefault((src, dst), kind)

    last_of_proc: Dict[int, int] = {}
    writes_by_addr: Dict[int, List[int]] = {}
    for op in operations:
        graph.add_node(op.seq)
        previous = last_of_proc.get(op.proc)
        if previous is not None:
            add(previous, op.seq, "po")
        last_of_proc[op.proc] = op.seq
        if op.is_write:
            writes_by_addr.setdefault(op.addr, []).append(op.seq)

    by_seq = {op.seq: op for op in operations}
    for op in operations:
        if not op.is_read:
            continue
        writes = writes_by_addr.get(op.addr, [])
        if op.observed_write is not None and op.observed_write in by_seq:
            add(op.observed_write, op.seq, "rf")
            # fr: the read precedes the observed write's co-successor.
            # co is issue order, so that is the first same-location
            # write with a larger seq.
            for w in writes:
                if w > op.observed_write:
                    add(op.seq, w, "fr")
                    break
        elif writes:
            # read of the initial value: before every write, i.e.
            # before the co-minimal one.
            add(op.seq, writes[0], "fr")

    for writes in writes_by_addr.values():
        for a, b in zip(writes, writes[1:]):
            add(a, b, "co")

    return graph, labels


def issue_order_is_witness(operations: List[MemoryOperation]) -> bool:
    """Whether issue order itself is an SC witness for *operations*.

    It is when seqs strictly increase and every read observes the
    latest same-location write issued before it (``None`` when there is
    none): then po and co follow issue order, rf comes from an earlier
    write, and fr leads to the observed write's co-successor, which is
    issued after the read.  The property is tested on ``observed_write``
    itself, not trusted from ``stale``, so hand-built streams stay
    sound; a stream that fails it goes to the order graph.
    """
    write = OperationKind.WRITE
    latest: Dict[int, int] = {}
    previous = None
    for op in operations:
        seq = op.seq
        if previous is not None and seq <= previous:
            return False
        previous = seq
        if op.kind is write:
            latest[op.addr] = seq
        elif op.observed_write != latest.get(op.addr):
            return False
    return True


def _minimal_cycle(
    graph: DiGraph, labels: Dict[Tuple[int, int], str]
) -> List[OrderEdge]:
    """A shortest violating cycle: BFS for the shortest closed path
    through each node of the smallest non-trivial SCC."""
    sccs = [c for c in strongly_connected_components(graph) if len(c) > 1]
    assert sccs, "cyclic graph must have a non-trivial SCC"
    component = min(sccs, key=len)
    sub = graph.subgraph(component)
    best: Optional[List[int]] = None
    for node in sorted(component):
        path = shortest_path(sub, node, node)
        if path is not None and (best is None or len(path) < len(best)):
            best = path
            if len(best) == 3:  # a 2-edge cycle cannot be beaten here
                break
    assert best is not None
    return [
        OrderEdge(src, dst, labels.get((src, dst), "?"))
        for src, dst in zip(best, best[1:])
    ]


def _stale_seeded_cuts(operations: List[MemoryOperation]) -> List[Optional[int]]:
    """Raw SC-prefix cuts for a bare operation stream: cut each
    processor at its first stale read (a sound under-approximation of
    the simulator's taint-derived cuts, which only cut at the first
    operation whose *identity* depends on a stale value)."""
    procs = max((op.proc for op in operations), default=-1) + 1
    cuts: List[Optional[int]] = [None] * procs
    for op in operations:
        if op.stale and op.is_read:
            cut = cuts[op.proc]
            if cut is None or op.local_index < cut:
                cuts[op.proc] = op.local_index
    return cuts


def check_robustness(source) -> RobustnessReport:
    """Verify robustness of an execution: *source* is an
    :class:`~repro.machine.simulator.ExecutionResult` or an iterable of
    :class:`~repro.machine.operations.MemoryOperation` in issue order
    (anything richer — trace files, paths — goes through
    :func:`repro.api.check_robustness`, which resolves and delegates
    here).

    Searches for an SC justification of the observed (po, rf, co) and
    returns a :class:`RobustnessReport` with the witness order or the
    minimal violating cycle, plus the SC-prefix boundary.  When issue
    order is a witness (:func:`issue_order_is_witness`) no graph is
    built unless the report's ``witness`` is read.
    """
    if isinstance(source, ExecutionResult):
        result: Optional[ExecutionResult] = source
        operations = source.operations
        model_name = source.model_name
        raw_cuts: List[Optional[int]] = list(source.raw_scp_cuts)
        describe = source.describe_op
    else:
        result = None
        operations = list(source)
        if not all(isinstance(op, MemoryOperation) for op in operations):
            raise TypeError(
                "check_robustness needs an ExecutionResult or an "
                "iterable of MemoryOperation objects"
            )
        model_name = ""
        raw_cuts = _stale_seeded_cuts(operations)
        describe = lambda op: op.describe()  # noqa: E731

    scp: SCPrefix = close_scp(operations, raw_cuts)
    stale = sum(1 for op in operations if op.stale)
    verdict = functools.partial(
        RobustnessReport,
        model_name=model_name,
        operation_count=len(operations),
        stale_reads=stale,
        scp_cuts=list(scp.cuts),
        scp_size=scp.size,
        scp_whole=scp.is_whole_execution,
    )
    if issue_order_is_witness(operations):
        return verdict(robust=True, operations=operations)

    graph, labels = build_order_graph(operations)
    try:
        witness = topological_sort(graph)
    except CycleError:
        by_seq = {op.seq: op for op in operations}
        cycle = _minimal_cycle(graph, labels)
        descriptions = {
            seq: describe(by_seq[seq])
            for edge in cycle
            for seq in (edge.src, edge.dst)
            if seq in by_seq
        }
        return verdict(robust=False, cycle=cycle, descriptions=descriptions)
    return verdict(robust=True, witness=list(witness))
