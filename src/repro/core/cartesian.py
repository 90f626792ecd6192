"""Cartesian products of disconnected query components (paper Section 6.3).

A query whose join graph is disconnected evaluates each connected
component as its own TAG-join fragment; the executor then combines the
component results with :func:`cartesian_product_rows`.  The paper's
vertex-centric Algorithms A and B (gather both relations at a global
aggregator, or scatter one relation's tuples to every vertex of the
other) are not implemented: no engine would run them.
"""

from __future__ import annotations

from typing import Any, Dict, List


def cartesian_product_rows(
    left_rows: List[Dict[str, Any]], right_rows: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Plain-Python product of two row lists (used to combine the results of
    disconnected query components after each has been evaluated)."""
    product = []
    for left in left_rows:
        for right in right_rows:
            merged = dict(left)
            merged.update(right)
            product.append(merged)
    return product
