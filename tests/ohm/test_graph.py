"""Dataflow-graph unit tests (shared machinery + OHM specifics)."""

import pytest

from repro.dataflow import Edge
from repro.errors import GraphError, TypeCheckError, ValidationError
from repro.expr.parser import parse
from repro.ohm.graph import OhmGraph
from repro.ohm.operators import (
    Filter, Join, Project, Source, Split, Target, Union,
)
from repro.schema import relation


@pytest.fixture
def rel():
    return relation("R", ("id", "int", False), ("v", "float"))


def linear_graph(rel):
    g = OhmGraph("lin")
    s = g.add(Source(rel))
    f = g.add(Filter("v > 0"))
    t = g.add(Target(rel.renamed("Out")))
    g.connect(s, f, name="e1")
    g.connect(f, t, name="e2")
    return g, s, f, t


class TestConstruction:
    def test_duplicate_uid_rejected(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        with pytest.raises(GraphError):
            g.add(s)

    def test_connect_unknown_operator_rejected(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        with pytest.raises(GraphError):
            g.connect(s, "ghost")

    def test_double_connect_output_port_rejected(self, rel):
        g, s, f, t = linear_graph(rel)
        extra = g.add(Filter("v > 1"))
        with pytest.raises(GraphError):
            g.connect(s, extra)

    def test_double_connect_input_port_rejected(self, rel):
        g, s, f, t = linear_graph(rel)
        extra = g.add(Source(rel.renamed("R2")))
        with pytest.raises(GraphError):
            g.connect(extra, f)

    def test_chain_helper(self, rel):
        g = OhmGraph()
        s = Source(rel)
        f = Filter("v > 0")
        t = Target(rel.renamed("Out"))
        edges = g.chain(s, f, t, names=["a", "b"])
        assert [e.name for e in edges] == ["a", "b"]
        assert len(g) == 3


class TestAnalysis:
    def test_topological_order(self, rel):
        g, s, f, t = linear_graph(rel)
        order = [op.uid for op in g.topological_order()]
        assert order.index(s.uid) < order.index(f.uid) < order.index(t.uid)

    def test_cycle_detected(self, rel):
        g = OhmGraph()
        f1 = g.add(Filter("v > 0"))
        f2 = g.add(Filter("v > 1"))
        g.connect(f1, f2)
        g.connect(f2, f1)
        with pytest.raises(GraphError):
            g.topological_order()

    def test_kinds_in_order(self, rel):
        g, *_ = linear_graph(rel)
        assert g.kinds_in_order() == ["SOURCE", "FILTER", "TARGET"]

    def test_neighbourhood_lookups(self, rel):
        g, s, f, t = linear_graph(rel)
        assert [op.uid for op in g.successors(s.uid)] == [f.uid]
        assert [op.uid for op in g.predecessors(t.uid)] == [f.uid]
        assert g.edge_between(s.uid, f.uid).name == "e1"
        assert g.find_edge("e2").dst == t.uid

    def test_sources_and_targets(self, rel):
        g, s, f, t = linear_graph(rel)
        assert g.sources() == [s]
        assert g.targets() == [t]

    def test_operators_of_kind(self, rel):
        g, *_ = linear_graph(rel)
        assert len(g.operators_of_kind("FILTER")) == 1


class TestSchemaPropagation:
    def test_edges_annotated(self, rel):
        g, s, f, t = linear_graph(rel)
        g.propagate_schemas()
        assert g.find_edge("e1").schema.name == "e1"
        assert g.find_edge("e2").schema.attribute_names == rel.attribute_names

    def test_validation_failure_surfaces_operator(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        f = g.add(Filter("missing > 0"))
        t = g.add(Target(rel.renamed("Out")))
        g.connect(s, f)
        g.connect(f, t)
        with pytest.raises(Exception):
            g.propagate_schemas()

    def test_port_count_validation(self, rel):
        g = OhmGraph()
        g.add(Filter("v > 0"))  # dangling: no inputs/outputs
        with pytest.raises(ValidationError):
            g.validate_structure()

    def test_non_contiguous_ports_rejected(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        split = g.add(Split())
        t1 = g.add(Target(rel.renamed("O1")))
        t2 = g.add(Target(rel.renamed("O2")))
        g.connect(s, split)
        g.connect(split, t1, src_port=0)
        g.connect(split, t2, src_port=2)  # hole at port 1
        with pytest.raises(ValidationError):
            g.validate_structure()


class TestMutation:
    def test_splice_out_keeps_consumer_facing_edge_name(self, rel):
        g, s, f, t = linear_graph(rel)
        g.splice_out(f.uid)
        assert len(g) == 2
        (edge,) = g.edges
        # the outgoing edge's identity survives: consumers may reference
        # their input edge by name, producers never reference outputs
        assert edge.name == "e2"
        assert edge.src == s.uid and edge.dst == t.uid

    def test_splice_requires_single_io(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        split = g.add(Split())
        t1 = g.add(Target(rel.renamed("O1")))
        t2 = g.add(Target(rel.renamed("O2")))
        g.connect(s, split)
        g.connect(split, t1, src_port=0)
        g.connect(split, t2, src_port=1)
        with pytest.raises(GraphError):
            g.splice_out(split.uid)

    def test_remove_operator_drops_edges(self, rel):
        g, s, f, t = linear_graph(rel)
        g.remove_operator(f.uid)
        assert len(g.edges) == 0

    def test_shallow_copy_is_structurally_independent(self, rel):
        g, s, f, t = linear_graph(rel)
        clone = g.shallow_copy()
        clone.splice_out(f.uid)
        assert len(g) == 3 and len(clone) == 2
        assert len(g.edges) == 2


class TestIncrementalPropagation:
    """Propagation reuses a node's last result only while its inputs,
    its out-edges and its properties are what they were."""

    @pytest.mark.parametrize("condition", ["missing > 0", "v + 1"])
    def test_reassigned_ill_typed_condition_is_checked_again(
        self, rel, condition
    ):
        g, s, f, t = linear_graph(rel)
        g.propagate_schemas()
        f.condition = parse(condition)
        with pytest.raises(TypeCheckError):
            g.propagate_schemas()

    def test_reassigned_property_error_is_located_at_the_operator(self, rel):
        g, s, f, t = linear_graph(rel)
        g.propagate_schemas()
        t.relation = relation("Out", ("id", "int"), ("missing", "int"))
        with pytest.raises(ValidationError) as caught:
            g.propagate_schemas()
        assert caught.value.location() == {"operator": t.uid}

    def test_failed_validation_is_not_remembered(self, rel):
        g, s, f, t = linear_graph(rel)
        f.condition = parse("missing > 0")
        for _ in range(2):
            with pytest.raises(TypeCheckError):
                g.propagate_schemas()

    def test_reassigned_condition_reaches_the_edges(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        p = g.add(Project([("id", "id")]))
        t = g.add(Target(relation("Out", ("id", "int"))))
        g.connect(s, p, name="e1")
        g.connect(p, t, name="e2")
        g.propagate_schemas()
        p.derivations = [("id", parse("id")), ("w", parse("v * 2"))]
        g.propagate_schemas()
        assert g.find_edge("e2").schema.attribute_names == ("id", "w")

    def _loop(self, rel):
        g = OhmGraph()
        s = g.add(Source(rel))
        u = g.add(Union())
        split = g.add(Split())
        t = g.add(Target(rel.renamed("Out")))
        s2 = g.add(Source(rel.renamed("R2")))
        g.connect(s, u, dst_port=0)
        g.connect(s2, u, dst_port=1)
        g.connect(u, split)
        g.connect(split, t, src_port=0)
        g.propagate_schemas()
        return g, u, split

    def test_cycle_added_by_connect_is_reported(self, rel):
        g, u, split = self._loop(rel)
        g.connect(split, u, src_port=1, dst_port=2)
        with pytest.raises(GraphError, match="cycle"):
            g.propagate_schemas()
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_cycle_added_by_edge_object_is_reported(self, rel):
        g, u, split = self._loop(rel)
        g.add_edge_object(Edge(split.uid, 1, u.uid, 2, "back"))
        with pytest.raises(GraphError, match="cycle"):
            g.propagate_schemas()

    def test_adjacency_comes_back_in_port_order(self, rel):
        g = OhmGraph()
        left = g.add(Source(rel))
        right = g.add(Source(relation("S", ("id2", "int"))))
        j = g.add(Join("id = id2"))
        split = g.add(Split())
        t0 = g.add(Target(relation("O0", ("id", "int"))))
        t1 = g.add(Target(relation("O1", ("id", "int"))))
        g.connect(right, j, dst_port=1, name="r")
        g.connect(left, j, dst_port=0, name="l")
        g.connect(j, split)
        g.connect(split, t1, src_port=1, name="o1")
        g.connect(split, t0, src_port=0, name="o0")
        assert [e.name for e in g.in_edges(j.uid)] == ["l", "r"]
        assert [e.dst_port for e in g.in_edges(j.uid)] == [0, 1]
        assert [e.name for e in g.out_edges(split.uid)] == ["o0", "o1"]
        assert [op.uid for op in g.predecessors(j.uid)] == [left.uid, right.uid]
        assert [op.uid for op in g.successors(split.uid)] == [t0.uid, t1.uid]
        g.propagate_schemas()
        assert g.find_edge("o1").schema.name == "o1"

    def test_node_shared_by_shallow_copies_gets_each_graphs_schema(self, rel):
        g, s, f, t = linear_graph(rel)
        wide = relation("W", ("id", "int", False), ("v", "float"), ("x", "int"))
        clone = g.shallow_copy()
        clone.remove_operator(s.uid)
        w = clone.add(Source(wide))
        clone.connect(w, f, name="e1")
        for graph, names in ((g, rel.attribute_names), (clone, wide.attribute_names)) * 2:
            graph.propagate_schemas()
            assert graph.find_edge("e2").schema.attribute_names == names
        assert g.find_edge("e2").schema.attribute_names == ("id", "v")


class TestRendering:
    def test_to_dot_mentions_all_operators(self, rel):
        g, *_ = linear_graph(rel)
        dot = g.to_dot()
        assert "digraph" in dot
        assert dot.count("->") == 2
        assert "FILTER" in dot
