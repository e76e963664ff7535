"""First-class mapping composition tests (paper section V-B)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile import compile_job
from repro.data.dataset import Dataset, Instance
from repro.errors import CompositionError
from repro.mapping import (
    Mapping,
    MappingExecutor,
    MappingSet,
    SourceBinding,
    can_compose,
    compose_all,
    compose_mappings,
    ohm_to_mappings,
)
from repro.schema import relation
from repro.workloads import build_example_job, build_chain_job, generate_instance


@pytest.fixture
def a_rel():
    return relation("A", ("id", "int", False), ("v", "float", False))


@pytest.fixture
def b_rel():
    return relation("B", ("id", "int", False), ("u", "float", False))


@pytest.fixture
def mid():
    return relation("Mid", ("id", "int"), ("w", "float"))


@pytest.fixture
def target():
    return relation("T", ("id", "int"), ("w", "float"))


def m_first(a_rel, mid, **kwargs):
    return Mapping(
        [SourceBinding("a", a_rel)], mid,
        [("id", "a.id"), ("w", "a.v * 2")],
        where="a.v > 1", name="M1", **kwargs,
    )


def m_second(mid, target, **kwargs):
    return Mapping(
        [SourceBinding("d", mid)], target,
        [("id", "d.id"), ("w", "d.w")],
        where="d.w < 100", name="M2", **kwargs,
    )


def a_data(a_rel, values):
    return Dataset(
        a_rel, [{"id": i, "v": float(v)} for i, v in enumerate(values)]
    )


class TestBasicComposition:
    def test_unfolds_derivations_into_predicates(self, a_rel, mid, target):
        composed = compose_mappings(m_first(a_rel, mid), m_second(mid, target))
        conjuncts = {c.to_sql() for c in composed.where_conjuncts()}
        assert "((a.v * 2) < 100)" in conjuncts
        assert "(a.v > 1)" in conjuncts
        assert composed.target.name == "T"
        assert composed.source_relation_names == ["A"]

    def test_semantics_equal_sequential_execution(self, a_rel, mid, target):
        first, second = m_first(a_rel, mid), m_second(mid, target)
        composed = compose_mappings(first, second)
        instance = Instance([a_data(a_rel, [2, 60, 0.5, 49.5])])
        sequential = MappingExecutor().execute(MappingSet([first, second]), instance)
        direct = MappingExecutor().execute(
            MappingSet([composed]), instance
        ).dataset(composed.target.name)
        assert direct.same_bag(sequential.dataset("T"))

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False,
                      width=32),
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_composition_preserves_semantics(self, values):
        a_rel = relation("A", ("id", "int", False), ("v", "float", False))
        mid = relation("Mid", ("id", "int"), ("w", "float"))
        target = relation("T", ("id", "int"), ("w", "float"))
        first, second = m_first(a_rel, mid), m_second(mid, target)
        composed = compose_mappings(first, second)
        instance = Instance([a_data(a_rel, [round(v, 3) for v in values])])
        sequential = MappingExecutor().execute(MappingSet([first, second]), instance)
        direct = MappingExecutor().execute(
            MappingSet([composed]), instance
        ).dataset(composed.target.name)
        assert direct.same_bag(sequential.dataset("T"))

    def test_second_mapping_with_extra_sources(self, a_rel, b_rel, mid, target):
        # composing through a join in the outer mapping
        wide = relation("W", ("id", "int"), ("w", "float"), ("u", "float"))
        second = Mapping(
            [SourceBinding("d", mid), SourceBinding("b", b_rel)],
            wide,
            [("id", "d.id"), ("w", "d.w"), ("u", "b.u")],
            where="d.id = b.id",
            name="J",
        )
        composed = compose_mappings(m_first(a_rel, mid), second)
        assert sorted(composed.source_relation_names) == ["A", "B"]
        instance = Instance([
            a_data(a_rel, [2, 60]),
            Dataset(b_rel, [{"id": 0, "u": 7.0}, {"id": 1, "u": 8.0}]),
        ])
        sequential = MappingExecutor().execute(
            MappingSet([m_first(a_rel, mid), second]), instance
        )
        direct = MappingExecutor().execute(
            MappingSet([composed]), instance
        ).dataset(composed.target.name)
        assert direct.same_bag(sequential.dataset("W"))

    def test_variable_collision_renamed(self, a_rel, mid, target):
        # both mappings use the variable name 'a'
        first = Mapping(
            [SourceBinding("a", a_rel)], mid,
            [("id", "a.id"), ("w", "a.v")], name="F",
        )
        other = relation("O", ("id", "int", False), ("z", "float", False))
        second = Mapping(
            [SourceBinding("d", mid), SourceBinding("a", other)],
            relation("T2", ("id", "int"), ("z", "float")),
            [("id", "d.id"), ("z", "a.z")],
            where="d.id = a.id",
            name="S",
        )
        composed = compose_mappings(first, second)
        assert len({b.var for b in composed.sources}) == 2
        composed.validate()


class TestGroupingRestriction:
    def grouping_mapping(self, a_rel, mid):
        return Mapping(
            [SourceBinding("a", a_rel)], mid,
            [("id", "a.id"), ("w", "SUM(a.v)")],
            group_by=["a.id"], name="G",
        )

    def test_filter_after_grouping_refused(self, a_rel, mid, target):
        with pytest.raises(CompositionError):
            compose_mappings(
                self.grouping_mapping(a_rel, mid), m_second(mid, target)
            )

    def test_rename_after_grouping_allowed(self, a_rel, mid):
        renamed = relation("R", ("ident", "int"), ("total", "float"))
        second = Mapping(
            [SourceBinding("d", mid)], renamed,
            [("ident", "d.id"), ("total", "d.w")], name="Rn",
        )
        composed = compose_mappings(self.grouping_mapping(a_rel, mid), second)
        assert composed.is_grouping
        assert dict(composed.derivations)["total"].to_sql() == "SUM(a.v)"
        instance = Instance([a_data(a_rel, [1, 2, 3])])
        sequential = MappingExecutor().execute(
            MappingSet([self.grouping_mapping(a_rel, mid), second]), instance
        )
        direct = MappingExecutor().execute(
            MappingSet([composed]), instance
        ).dataset(composed.target.name)
        assert direct.same_bag(sequential.dataset("R"))

    def test_grouping_in_outer_mapping_is_fine(self, a_rel, mid):
        # first projects, second groups: composable (grouping is not
        # being *read through*, it is being applied)
        first = m_first(a_rel, mid)
        second = Mapping(
            [SourceBinding("d", mid)],
            relation("S", ("id", "int"), ("n", "int")),
            [("id", "d.id"), ("n", "COUNT(*)")],
            group_by=["d.id"], name="C",
        )
        composed = compose_mappings(first, second)
        assert composed.is_grouping


class TestRefusals:
    def test_opaque_refused(self, a_rel, mid, target):
        opaque = Mapping(
            [SourceBinding("a", a_rel)], mid, [], reference="box"
        )
        with pytest.raises(CompositionError):
            compose_mappings(opaque, m_second(mid, target))
        assert not can_compose(opaque, m_second(mid, target))

    def test_unrelated_mappings_refused(self, a_rel, b_rel, mid, target):
        unrelated = Mapping(
            [SourceBinding("b", b_rel)], target,
            [("id", "b.id"), ("w", "b.u")], name="U",
        )
        with pytest.raises(CompositionError):
            compose_mappings(m_first(a_rel, mid), unrelated)

    def test_self_join_on_intermediate_refused(self, a_rel, mid):
        second = Mapping(
            [SourceBinding("d1", mid), SourceBinding("d2", mid)],
            relation("P", ("l", "int"), ("r", "int")),
            [("l", "d1.id"), ("r", "d2.id")],
            where="d1.id < d2.id",
            name="Pairs",
        )
        with pytest.raises(CompositionError):
            compose_mappings(m_first(a_rel, mid), second)

    def test_underived_column_read_refused(self, a_rel, mid, target):
        narrow = Mapping(
            [SourceBinding("a", a_rel)], mid, [("id", "a.id")], name="N"
        )
        with pytest.raises(CompositionError):
            compose_mappings(narrow, m_second(mid, target))


class TestComposeAll:
    def test_chain_collapses_to_single_mapping(self):
        graph = compile_job(build_chain_job(8))
        mappings = ohm_to_mappings(graph)
        folded = compose_all(mappings)
        assert len(folded) == 1

    def test_grouping_boundary_survives(self):
        mappings = ohm_to_mappings(compile_job(build_example_job()))
        folded = compose_all(mappings)
        # M1 groups: M2/M3 cannot fold into it
        assert len(folded) == 3
        instance = generate_instance(30)
        assert MappingExecutor().execute(folded, instance).same_bags(
            MappingExecutor().execute(mappings, instance)
        )
