"""Compile-time race detection substrate (section 1 of the paper:
static techniques "can be applied to programs for weak systems
unchanged"): per-thread CFGs, must-hold lockset dataflow, and
conservative static data race reporting."""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "cfg": "ControlFlowGraph basic_blocks build_cfg",
    "lockset": "LockState compute_locksets",
    "races": "AddressRegion StaticAccess StaticRace StaticReport "
             "collect_accesses find_static_races",
})
