"""Global aggregator vertices.

Aggregators let vertices collaborate on a global value (paper Section 2,
"Aggregators"): every vertex knows the aggregator's id and can send values
to it; the aggregated value is readable at the next superstep (and at the
end of the run).  TAG-join uses one for scalar/global aggregation
(Section 7): the keyed :class:`GroupAggregator`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, Optional, TypeVar

T = TypeVar("T")


class Aggregator(Generic[T]):
    """Base aggregator: accumulates values sent by vertices during a superstep."""

    def __init__(self, name: str) -> None:
        self.name = name

    def accumulate(self, value: Any) -> None:
        raise NotImplementedError

    def value(self) -> T:
        raise NotImplementedError


class GroupAggregator(Aggregator[Dict[Any, Any]]):
    """Keyed aggregation: the global GROUP BY structure of Section 7 (GA).

    Vertices contribute ``(key, value)`` pairs; the aggregator folds values
    per key with ``combine`` (default: sum).  This models TigerGraph's
    global MapAccum used for multi-attribute GROUP BY.
    """

    def __init__(
        self,
        name: str,
        combine: Optional[Callable[[Any, Any], Any]] = None,
        initial: Any = 0,
    ) -> None:
        super().__init__(name)
        self._combine = combine or (lambda current, update: current + update)
        self._initial = initial
        self._groups: Dict[Any, Any] = {}

    def accumulate(self, value: Any) -> None:
        key, update = value
        if key in self._groups:
            self._groups[key] = self._combine(self._groups[key], update)
        else:
            self._groups[key] = self._combine(self._initial, update)

    def value(self) -> Dict[Any, Any]:
        return self._groups


class AggregatorRegistry:
    """The set of aggregator vertices available to a BSP run."""

    def __init__(self) -> None:
        self._aggregators: Dict[str, Aggregator] = {}

    def register(self, aggregator: Aggregator) -> Aggregator:
        self._aggregators[aggregator.name] = aggregator
        return aggregator

    def get(self, name: str) -> Aggregator:
        return self._aggregators[name]

    def __contains__(self, name: str) -> bool:
        return name in self._aggregators

    def values(self) -> Dict[str, Any]:
        return {name: aggregator.value() for name, aggregator in self._aggregators.items()}
