"""repro.faults — deterministic fault injection for the hunt engine.

Crash-recovery code that is only ever exercised by hand-written stubs
is unproven.  This package injects *real* failures — worker crashes,
hangs past the job timeout, the parent dying mid-hunt and torn
artifact files — at deterministic points, so the
integration suite can kill and resume actual hunts and assert result
equivalence.

A :class:`FaultPlan` names the injection points; it activates through
the ``REPRO_FAULTS`` environment variable (inline JSON or a path to a
JSON file), which fork-pool workers inherit, or in-process via
:func:`install`.  When no plan is active every hook is a cached-`None`
check — the hot loop pays one attribute read per job.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "plan": "ENV_VAR FaultPlan FaultPlanError InjectedCrash active_plan "
            "append_garbage clear install tear_file",
})
