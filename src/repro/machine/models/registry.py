"""The model registry: every shipped memory model by its paper name."""

from typing import Dict, Type

from .base import CostModel, MemoryModel
from .drf0 import DataRaceFree0
from .drf1 import DataRaceFree1
from .pso import PartialStoreOrder
from .rcsc import ReleaseConsistencySC
from .sc import SequentialConsistency
from .tso import TotalStoreOrder
from .wo import WeakOrdering

MODEL_REGISTRY: Dict[str, Type[MemoryModel]] = {
    cls.name: cls
    for cls in (
        SequentialConsistency,
        WeakOrdering,
        ReleaseConsistencySC,
        DataRaceFree0,
        DataRaceFree1,
        TotalStoreOrder,
        PartialStoreOrder,
    )
}

# Derived from the registry so registering a model can never leave the
# tuples stale; registry insertion order is the presentation order.
ALL_MODEL_NAMES = tuple(MODEL_REGISTRY)
WEAK_MODEL_NAMES = tuple(
    name for name, cls in MODEL_REGISTRY.items()
    if cls is not SequentialConsistency
)


def make_model(name: str, costs: CostModel = CostModel()) -> MemoryModel:
    """Instantiate a model by its paper name (see ``ALL_MODEL_NAMES``)."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown memory model {name!r}; "
            f"choose from {', '.join(ALL_MODEL_NAMES)}"
        ) from None
    return cls(costs)
