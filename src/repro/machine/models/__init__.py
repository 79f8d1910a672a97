"""Memory-model implementations: SC, the four weak models the paper
covers (WO, RCsc, DRF0, DRF1), and the store-buffer machines (TSO,
PSO) that exercise the robustness checker."""

from ..._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "base": "CostModel MemoryModel",
    "sc": "SequentialConsistency",
    "wo": "WeakOrdering",
    "rcsc": "ReleaseConsistencySC",
    "drf0": "DataRaceFree0",
    "drf1": "DataRaceFree1",
    "tso": "TotalStoreOrder",
    "pso": "PartialStoreOrder",
    "registry": "MODEL_REGISTRY WEAK_MODEL_NAMES ALL_MODEL_NAMES make_model",
})
