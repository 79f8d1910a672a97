"""Report fields computed only when something reads them.

A race-free report's verdict never reads its partitions (Theorem 4.1:
no data race means no first data partition), and a stale-free
execution's robustness verdict never needs its order graph.  :class:`LazyField` lets a report
dataclass keep such a field in its constructor while paying for it only
on first read.
"""

from __future__ import annotations


class LazyField:
    """A dataclass field computed on first read when not passed in.

    Use an instance as the field's default, naming the owner's method
    that computes the value::

        analysis: PartitionAnalysis = LazyField("_partition")

    This is the dataclass protocol for descriptor-typed fields: the
    generated ``__init__`` stores a passed value through :meth:`__set__`,
    and the class-level read returns ``None``, the "not passed" default.
    A ``None`` stored value is computed by ``getattr(obj, compute)()`` on
    the first read and cached on the instance; a passed value is
    returned as is.
    """

    def __init__(self, compute: str) -> None:
        self.compute = compute

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        value = obj.__dict__.get(self.slot)
        if value is None:
            value = obj.__dict__[self.slot] = getattr(obj, self.compute)()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value
