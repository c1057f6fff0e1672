"""The public record types are immutable named tuples: equal and hashable by
value, with the reprs they had as frozen dataclasses, and with the
constructor's checks on every path that builds one."""

import pytest

from powg import (
    DistanceDistribution,
    DistanceProfile,
    EdgeClassification,
    FamilyParams,
    FiniteGroup,
    Graph,
    GroupError,
    GroupPartition,
    MatchingPolynomial,
    StructureReport,
    build_cyclic,
    build_family,
    build_power_graph,
    classify_edges,
    distance_profile,
    hosoya_polynomial,
    matching_polynomial,
    partition,
    verify_structure_theorem,
)


def one_of_each():
    """A fresh instance of every public record type, built from scratch."""
    params = FamilyParams(2, 3)
    group = build_family(params)
    part = partition(group, params)
    graph = build_power_graph(group)
    return [params, group, part, graph, classify_edges(graph, part),
            verify_structure_theorem(graph, part), hosoya_polynomial(graph),
            distance_profile(graph), matching_polynomial(build_power_graph(build_cyclic(6)))]


def test_every_record_type_is_covered():
    assert {type(r) for r in one_of_each()} == {
        FamilyParams, FiniteGroup, GroupPartition, Graph, EdgeClassification,
        StructureReport, DistanceDistribution, DistanceProfile, MatchingPolynomial}


@pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_records_are_equal_and_hashable_by_value():
    for a, b in zip(one_of_each(), one_of_each()):
        assert a == b and a is not b, type(a).__name__
        if isinstance(a, EdgeClassification):  # its blocks and counts are dicts
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), type(a).__name__
    assert FamilyParams(2, 3) != FamilyParams(2, 5)
    assert len({FamilyParams(2, 3), FamilyParams(2, 3), FamilyParams(3, 3)}) == 2


def test_reprs_are_unchanged():
    graph = build_power_graph(build_cyclic(2))
    assert [repr(r) for r in (
        FamilyParams(2, 3),
        build_cyclic(2),
        graph,
        GroupPartition(frozenset({0}), frozenset(), frozenset(), frozenset(), 0, ((1, 2),), 4),
        EdgeClassification(graph, {"eu": [(1, 2)]}, {"eu": 1}),
        hosoya_polynomial(graph),
        distance_profile(graph),
        matching_polynomial(graph),
    )] == [
        "FamilyParams(k=2, p=3)",
        "FiniteGroup(order=2, table=None, labels=('0', '1'), rule=(2, 1))",
        "Graph(n=2, adj=(2, 1), labels=('0', '1'))",
        "GroupPartition(h0=frozenset({0}), h1=frozenset(), h2=frozenset(), h3=frozenset(), "
        "u=0, partner_pairs=((1, 2),), n_r=4)",
        "EdgeClassification(graph=Graph(n=2, adj=(2, 1), labels=('0', '1')), "
        "blocks={'eu': [(1, 2)]}, counts={'eu': 1})",
        "DistanceDistribution(counts=(2, 1), unreachable_pairs=0)",
        "DistanceProfile(graph=Graph(n=2, adj=(2, 1), labels=('0', '1')), "
        "layers=((1, 1), (1, 1)))",
        "MatchingPolynomial(coeffs=(1, 1))",
    ]
    params = FamilyParams(2, 3)
    report = verify_structure_theorem(build_power_graph(build_family(params)),
                                      partition(build_family(params), params))
    assert repr(report) == (
        "StructureReport(edges_total=77, edges_in_r=56, pendant_count=6, pair_edge_count=15, "
        "cyclic_edge_count=56, prefix_matches_cyclic=True, cover_ok=True, disjoint_ok=True, "
        "count_identity_ok=True)")


def test_keywords_and_defaults_build_the_same_records():
    assert FamilyParams(p=3, k=2) == FamilyParams(2, 3)
    g = build_cyclic(3)
    assert FiniteGroup(order=3, table=None, labels=g.labels, rule=(3, 1)) == g
    assert g.rule == (3, 1) and g.identity == FiniteGroup.identity == 0
    rows = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    h = FiniteGroup(3, rows, g.labels)
    assert FiniteGroup(order=3, table=rows, labels=g.labels) == h
    assert h.rule is None and h.identity == 0


def test_replace_and_make_run_the_constructor_checks():
    params = FamilyParams(2, 3)
    assert params._replace(p=5) == FamilyParams._make([2, 5]) == FamilyParams(2, 5)
    assert type(params._replace(p=5)) is FamilyParams
    for build in (lambda: params._replace(p=9), lambda: FamilyParams._make([2, 9]),
                  lambda: params._replace(k=1), lambda: FamilyParams._make([6, 31])):
        with pytest.raises(ValueError):
            build()

    g = build_cyclic(2)
    assert g._replace(labels=("e", "a")).labels == ("e", "a")
    assert FiniteGroup._make(g) == g
    with pytest.raises(GroupError, match="labels are not unique"):
        g._replace(labels=("a", "a"))
    with pytest.raises(GroupError, match="labels are not unique"):
        FiniteGroup._make([2, None, ("a", "a"), (2, 1)])

    graph = build_power_graph(g)
    assert Graph._make(graph) == graph
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        graph._replace(adj=(3, 1))
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph._make([2, (2, 3), graph.labels])
