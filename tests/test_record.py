"""The value classes behave as frozen value objects without ``dataclasses``."""

from __future__ import annotations

from fractions import Fraction

import pytest

from boxbc import (
    CentralityReport,
    GeodesicTable,
    Graph,
    ProductGraph,
    ProductSpec,
    bfs_geodesics,
    cartesian_product,
    graph_from_edges,
    product_spec,
)
from boxbc.record import Record


def _path3(edges=((0, 1), (1, 2))) -> Graph:
    return graph_from_edges(3, edges)


def _pairs():
    # two independently built, equal instances of every value class
    return [
        (_path3(), _path3([(2, 1), (1, 0)])),
        (bfs_geodesics(_path3(), 0), GeodesicTable(0, (0, 1, 2), (1, 1, 1))),
        (CentralityReport("brandes", "P3", (Fraction(0), Fraction(1), Fraction(0))),
         CentralityReport(method="brandes", graph="P3", values=(Fraction(0), Fraction(1), Fraction(0)), uniform=False)),
        (product_spec([_path3(), _path3()]), ProductSpec((_path3([(1, 2), (0, 1)]), _path3()))),
        (cartesian_product([_path3()] * 2), cartesian_product([_path3([(2, 1), (0, 1)])] * 2)),
    ]


@pytest.mark.parametrize("a, b", _pairs(), ids=lambda v: type(v).__name__)
def test_equal_values_compare_and_hash_equal(a, b):
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b)


@pytest.mark.parametrize("a, b", _pairs(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(a, b):
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_different_values_and_classes_differ():
    assert _path3() != graph_from_edges(3, [(0, 1), (0, 2)])
    assert GeodesicTable(0, (0,), (1,)) != GeodesicTable(1, (0,), (1,))

    class Twin(Record):
        adjacency: tuple

    assert Twin(_path3().adjacency) != _path3()
    assert _path3() != _path3().adjacency


def test_repr_lists_fields_in_order():
    assert repr(GeodesicTable(0, (0, 1), (1, 1))) == "GeodesicTable(source=0, dist=(0, 1), sigma=(1, 1))"
    report = CentralityReport("closed-form", "Q3", (Fraction(5, 2),), uniform=True)
    assert repr(report) == (
        "CentralityReport(method='closed-form', graph='Q3', values=(Fraction(5, 2),), uniform=True)"
    )
    spec = ProductSpec((Graph(((1,), (0,))),))
    assert repr(ProductGraph(spec, spec.factors[0])) == (
        "ProductGraph(spec=ProductSpec(factors=(Graph(adjacency=((1,), (0,))),)), graph=Graph(adjacency=((1,), (0,))))"
    )


def test_constructor_takes_every_field():
    assert CentralityReport("brandes", "g", ()).uniform is False
    with pytest.raises(TypeError):
        GeodesicTable(0, (0,))
    with pytest.raises(TypeError):
        GeodesicTable(0, (0,), (1,), 2)
    with pytest.raises(TypeError):
        CentralityReport("brandes", "g", (), False, False)


def test_cached_properties_survive_immutability():
    spec = product_spec([_path3(), _path3()])
    assert spec.strides == (3, 1)
    assert spec.strides is spec.strides
    g = _path3()
    assert g.edge_count == 2
    assert g.geodesic_tables is g.geodesic_tables
    assert g == _path3()  # cached values take no part in equality
