"""The signed delta-term sum of :func:`repro.incremental.views.refresh_view`.

Each test calls it directly on a graph that holds every tuple, treating a
set of tuple indexes as the write ``X``: with ``sign`` 1 the view gains
exactly the join rows that touch ``X`` (each once, however many aliases
it touches), with ``sign`` -1 it loses them.  Tuple index = physical
position + 1, as in ``test_alias_restrictions``.
"""

from collections import Counter

import pytest

from repro.incremental.views import (
    MaterializedView,
    ViewError,
    populate_view,
    refresh_view,
    view_refresh_mode,
)
from repro.sql import parse_and_bind
from repro.tag import encode_catalog

from conftest import make_mini_catalog

CO_SQL = (
    "SELECT c.C_CUSTKEY AS ck, o.O_ORDERKEY AS ok FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY"
)
NCO_SQL = (
    "SELECT n.N_NAME AS nation, c.C_CUSTKEY AS ck, o.O_ORDERKEY AS ok "
    "FROM NATION n, CUSTOMER c, ORDERS o "
    "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY"
)
SELF_SQL = (
    "SELECT a.O_ORDERKEY AS first, b.O_ORDERKEY AS second FROM ORDERS a, ORDERS b "
    "WHERE a.O_CUSTKEY = b.O_CUSTKEY"
)
COUNT_SQL = (
    "SELECT c.C_CUSTKEY AS ck, COUNT(*) AS n FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY GROUP BY c.C_CUSTKEY"
)
CUSTOMER_INDEX = {10: 1, 11: 2, 12: 3, 13: 4, 14: 5}
ORDER_INDEX = {100: 1, 101: 2, 102: 3, 103: 4, 104: 5, 105: 6}
ORDER_CUSTOMER = {100: 10, 101: 10, 102: 12, 103: 13, 104: 14, 105: 99}
FULL_JOIN = [(10, 100), (10, 101), (12, 102), (13, 103), (14, 104)]


@pytest.fixture()
def setting():
    catalog = make_mini_catalog()
    return encode_catalog(catalog), catalog


def make_view(sql, catalog, name="v"):
    spec = parse_and_bind(sql, catalog, name=name)
    return MaterializedView(name=name, sql=sql, spec=spec, columns=[], mode=view_refresh_mode(spec))


def pairs(view, *columns):
    """The view's bag keyed on ``columns``, multiplicities kept."""
    compiled_columns = [view.columns.index(column) for column in columns]
    counted = Counter()
    for values, multiplicity in view.bag.items():
        counted[tuple(values[index] for index in compiled_columns)] += multiplicity
    return counted


def empty_delta_view(sql, graph, catalog):
    """A delta view whose columns are set but whose bag starts empty."""
    view = make_view(sql, catalog)
    populate_view(view, graph, catalog)
    view.clear()
    return view


def test_insert_terms_add_the_rows_touching_the_write(setting):
    graph, catalog = setting
    view = empty_delta_view(CO_SQL, graph, catalog)
    assert refresh_view(view, graph, catalog, {"ORDERS": [1, 3]}, 1) == 2
    assert pairs(view, "ck", "ok") == Counter([(10, 100), (12, 102)])


def test_delete_terms_remove_what_insert_terms_add(setting):
    graph, catalog = setting
    view = make_view(CO_SQL, catalog)
    populate_view(view, graph, catalog)
    full = Counter(view.bag)
    touched = {"CUSTOMER": [1, 4], "ORDERS": [2, 5]}

    removed = refresh_view(view, graph, catalog, touched, -1)
    kept = [
        (ck, ok)
        for ck, ok in FULL_JOIN
        if CUSTOMER_INDEX[ck] not in (1, 4) and ORDER_INDEX[ok] not in (2, 5)
    ]
    assert removed == len(FULL_JOIN) - len(kept)
    assert pairs(view, "ck", "ok") == Counter(kept)

    assert refresh_view(view, graph, catalog, touched, 1) == removed
    assert view.bag == full


def test_a_row_touching_several_written_relations_is_counted_once(setting):
    graph, catalog = setting
    view = empty_delta_view(CO_SQL, graph, catalog)
    # customer 10 and both of its orders are all in the write
    refresh_view(view, graph, catalog, {"CUSTOMER": [1], "ORDERS": [1, 2, 3]}, 1)
    assert pairs(view, "ck", "ok") == Counter([(10, 100), (10, 101), (12, 102)])


def test_a_three_way_write_touching_every_alias_counts_each_row_once(setting):
    graph, catalog = setting
    view = make_view(NCO_SQL, catalog)
    populate_view(view, graph, catalog)
    full = Counter(view.bag)
    view.clear()
    everything = {"NATION": [1, 2, 3], "CUSTOMER": [1, 2, 3, 4, 5], "ORDERS": range(1, 7)}
    refresh_view(view, graph, catalog, everything, 1)
    assert view.bag == full
    assert sum(full.values()) == len(FULL_JOIN)


def test_a_self_join_write_counts_each_pair_once(setting):
    graph, catalog = setting
    view = empty_delta_view(SELF_SQL, graph, catalog)
    # both orders of customer 10: the write is on both sides of every pair
    refresh_view(view, graph, catalog, {"ORDERS": [1, 2]}, 1)
    assert pairs(view, "first", "second") == Counter(
        [(100, 100), (100, 101), (101, 100), (101, 101)]
    )

    # one of them: every pair holding order 101 on either side, once
    view.clear()
    refresh_view(view, graph, catalog, {"ORDERS": [ORDER_INDEX[101]]}, 1)
    assert pairs(view, "first", "second") == Counter([(100, 101), (101, 100), (101, 101)])


def test_a_self_join_delete_leaves_the_untouched_pairs(setting):
    graph, catalog = setting
    view = make_view(SELF_SQL, catalog)
    populate_view(view, graph, catalog)
    refresh_view(view, graph, catalog, {"ORDERS": [ORDER_INDEX[100]]}, -1)
    expected = Counter(
        (first, second)
        for first, cust in ORDER_CUSTOMER.items()
        for second, other in ORDER_CUSTOMER.items()
        if cust == other and 100 not in (first, second)
    )
    assert pairs(view, "first", "second") == expected


@pytest.mark.parametrize("touched", [{"NATION": [1]}, {"ORDERS": []}, {}])
def test_a_write_outside_the_join_folds_nothing(setting, touched):
    graph, catalog = setting
    view = make_view(CO_SQL, catalog)
    populate_view(view, graph, catalog)
    before = Counter(view.bag)
    assert refresh_view(view, graph, catalog, touched, 1) == 0
    assert view.bag == before
    assert view.refresh_count == 1
    assert view.last_delta_rows == 0


def test_bookkeeping_is_updated_once_per_call(setting):
    graph, catalog = setting
    view = make_view(NCO_SQL, catalog)
    populate_view(view, graph, catalog)
    touched = {"NATION": [2], "CUSTOMER": [1], "ORDERS": [4]}
    removed = refresh_view(view, graph, catalog, touched, -1)
    assert view.refresh_count == 1
    assert view.last_delta_rows == removed > 0
    assert view.last_refresh_seconds > 0
    added = refresh_view(view, graph, catalog, touched, 1)
    assert added == removed
    assert view.refresh_count == 2
    assert view.info()["refresh_count"] == 2


def test_aggregate_views_fold_the_signed_delta_per_group(setting):
    graph, catalog = setting
    view = make_view(COUNT_SQL, catalog)
    assert view.mode == "aggregate"
    populate_view(view, graph, catalog)
    full = {row["ck"]: row["n"] for row in view.result_rows()}
    assert full == {10: 2, 12: 1, 13: 1, 14: 1}

    refresh_view(view, graph, catalog, {"ORDERS": [ORDER_INDEX[101], ORDER_INDEX[103]]}, -1)
    assert {row["ck"]: row["n"] for row in view.result_rows()} == {10: 1, 12: 1, 14: 1}
    refresh_view(view, graph, catalog, {"ORDERS": [ORDER_INDEX[101], ORDER_INDEX[103]]}, 1)
    assert {row["ck"]: row["n"] for row in view.result_rows()} == full


def test_removing_rows_the_view_never_held_raises(setting):
    graph, catalog = setting
    view = make_view(COUNT_SQL, catalog)
    populate_view(view, graph, catalog)
    view.clear()
    with pytest.raises(ViewError):
        refresh_view(view, graph, catalog, {"ORDERS": [1]}, -1)
