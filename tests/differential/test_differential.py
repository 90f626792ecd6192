"""Randomized differential testing across every execution path.

Two layers:

* ``test_engines_agree_quick`` runs in the tier-1 suite with a small
  example budget — a smoke check that the harness itself works and the
  engines agree on a few dozen generated queries.
* ``test_extra_equalities_agree_quick`` / ``..._deep`` do the same for
  queries with a second ``=`` over a nullable column between two aliases
  (``query_cases(extra_equality=True)``): multi-key edges and
  cycle-closing conditions, which the TAG engines route on or check at a
  collection merge.
* ``test_subqueries_agree_quick`` / ``..._deep`` do the same for queries
  with a correlated EXISTS / NOT EXISTS / IN / NOT IN / scalar subquery
  (``query_cases(subquery=True)``), run also with every forward lookup
  taken (the ``tag@lookup`` path).
* ``test_engines_agree_deep`` (``-m differential``) is the real sweep:
  500+ generated queries by default, sized via ``DIFFERENTIAL_EXAMPLES``.
  CI runs it twice — once derandomized (a fixed, reproducible example
  sequence) and once with hypothesis's own entropy
  (``DIFFERENTIAL_SEED_MODE=random``) so every run also explores fresh
  queries.  Failures print a standalone repro script (see
  ``QueryCase.repro_script``) plus hypothesis's falsifying example.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings

from differential_harness import make_database, query_cases, run_case

DEEP_EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "500"))
DEEP_DERANDOMIZE = os.environ.get("DIFFERENTIAL_SEED_MODE", "fixed") != "random"

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@pytest.fixture(scope="module")
def database():
    return make_database()


@settings(max_examples=30, derandomize=True, **_COMMON)
@given(case=query_cases())
def test_engines_agree_quick(database, case):
    run_case(database, case)


@pytest.mark.differential
@settings(max_examples=DEEP_EXAMPLES, derandomize=DEEP_DERANDOMIZE, **_COMMON)
@given(case=query_cases())
def test_engines_agree_deep(database, case):
    run_case(database, case)


@settings(max_examples=30, derandomize=True, **_COMMON)
@given(case=query_cases(extra_equality=True))
def test_extra_equalities_agree_quick(database, case):
    run_case(database, case)


@pytest.mark.differential
@settings(max_examples=DEEP_EXAMPLES, derandomize=DEEP_DERANDOMIZE, **_COMMON)
@given(case=query_cases(extra_equality=True))
def test_extra_equalities_agree_deep(database, case):
    run_case(database, case)


@settings(max_examples=30, derandomize=True, **_COMMON)
@given(case=query_cases(subquery=True))
def test_subqueries_agree_quick(database, case):
    run_case(database, case)


@pytest.mark.differential
@settings(max_examples=DEEP_EXAMPLES, derandomize=DEEP_DERANDOMIZE, **_COMMON)
@given(case=query_cases(subquery=True))
def test_subqueries_agree_deep(database, case):
    run_case(database, case)
