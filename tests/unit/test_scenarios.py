"""Unit tests for the metamorphic scenario registry.

Covers the registry surface (names, lookup, capability gating), the
transformation families (sampling and admissibility), every scenario's
query builder and expectation function on hand-built specs, the KNN
scenario end to end (the paper's Section 7 sketch), and the docs-catalog
coverage contract (every registered scenario must have a section in
docs/SCENARIOS.md).
"""

from __future__ import annotations

import pathlib
import random

import pytest

from repro.core.affine import AffineTransformation, rigid_affine_transformation
from repro.core.generator import DatabaseSpec
from repro.core.oracle import AEIOracle, allocate_query_budget
from repro.engine.database import connect
from repro.engine.dialects import get_dialect
from repro.scenarios import (
    TransformationFamily,
    all_scenarios,
    applicable_scenarios,
    get_scenario,
    resolve_scenarios,
    scenario_names,
)
from repro.geometry import load_wkt
from repro.scenarios.base import ScenarioContext
from repro.scenarios.knn import knn_sql

DOCS_CATALOG = pathlib.Path(__file__).resolve().parents[2] / "docs" / "SCENARIOS.md"

SPEC = DatabaseSpec(
    tables={
        "t1": ["POINT(0 0)", "LINESTRING(0 0,3 4)", "POLYGON((0 0,4 0,4 4,0 4,0 0))"],
        "t2": ["POINT(1 1)", "POLYGON((1 1,2 1,2 2,1 2,1 1))"],
    }
)

SHEAR = AffineTransformation.from_parts(1, 3, 0, 1, 0, 0)
ROTATE_SCALE = AffineTransformation.from_parts(0, -2, 2, 0, 5, -3)
TRANSLATION = AffineTransformation.from_parts(1, 0, 0, 1, 7, -2)


def _context(transformation=TRANSLATION, dialect="postgis", seed=0):
    oracle = AEIOracle(lambda: connect(dialect))
    return ScenarioContext(
        dialect=get_dialect(dialect),
        rng=random.Random(seed),
        transformation=transformation,
        followup_wkt=lambda wkt: oracle._followup_wkt(wkt, transformation, True),
    )


class TestRegistry:
    def test_at_least_five_scenarios_are_registered(self):
        assert len(all_scenarios()) >= 5

    def test_reference_scenario_comes_first(self):
        assert scenario_names()[0] == "topological-join"

    def test_names_are_unique_and_lookup_works(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        for name in names:
            assert get_scenario(name).name == name

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_resolve_none_and_all_select_every_applicable(self):
        dialect = get_dialect("postgis")
        assert resolve_scenarios(None, dialect) == applicable_scenarios(dialect)
        assert resolve_scenarios(["all"], dialect) == applicable_scenarios(dialect)

    def test_resolve_honours_explicit_selection_order(self):
        dialect = get_dialect("postgis")
        selected = resolve_scenarios(["knn", "topological-join"], dialect)
        assert [scenario.name for scenario in selected] == ["knn", "topological-join"]

    def test_resolve_deduplicates_repeated_names(self):
        # registry scenarios are singletons and budgets are per instance, so
        # a repeated selection must collapse to one entry.
        dialect = get_dialect("postgis")
        selected = resolve_scenarios(["knn", "knn", "metric-area", "knn"], dialect)
        assert [scenario.name for scenario in selected] == ["knn", "metric-area"]


class TestTransformationFamilies:
    def test_samples_are_members_of_their_family(self):
        rng = random.Random(5)
        for family in TransformationFamily:
            for _ in range(25):
                assert family.admits(family.sample(rng))

    def test_general_admits_shear_but_similarity_does_not(self):
        assert TransformationFamily.GENERAL.admits(SHEAR)
        assert not TransformationFamily.SIMILARITY.admits(SHEAR)
        assert not TransformationFamily.RIGID.admits(SHEAR)

    def test_similarity_admits_scaled_rotation_rigid_does_not(self):
        assert TransformationFamily.SIMILARITY.admits(ROTATE_SCALE)
        assert not TransformationFamily.RIGID.admits(ROTATE_SCALE)

    def test_rigid_admits_pure_translation(self):
        for family in TransformationFamily:
            assert family.admits(TRANSLATION)

    def test_scale_helpers(self):
        assert ROTATE_SCALE.is_similarity
        assert ROTATE_SCALE.area_scale == 4
        assert ROTATE_SCALE.length_scale == 2.0
        assert SHEAR.area_scale == 1
        assert not SHEAR.is_similarity

    def test_distance_scenario_rejects_irrational_length_scales(self):
        # (1,-1;1,1) is a similarity with s = sqrt(2): family-admissible, but
        # the scenario refuses it because the scaled threshold would be lossy.
        rotation_45 = AffineTransformation.from_parts(1, -1, 1, 1, 0, 0)
        assert TransformationFamily.SIMILARITY.admits(rotation_45)
        scenario = get_scenario("distance-join")
        assert not scenario.admits_transformation(rotation_45)
        assert scenario.admits_transformation(ROTATE_SCALE)
        # the oracle consults the scenario hook, not just the family
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(1))
        outcome = oracle.check(SPEC, query_count=6, transformation=rotation_45)
        assert "distance-join" not in outcome.queries_by_scenario
        assert "knn" in outcome.queries_by_scenario


class TestCapabilityGating:
    def test_sqlserver_lacks_the_distance_scenario(self):
        names = {s.name for s in applicable_scenarios(get_dialect("sqlserver"))}
        assert "distance-join" not in names
        assert "topological-join" in names

    def test_postgis_runs_the_whole_registry(self):
        names = {s.name for s in applicable_scenarios(get_dialect("postgis"))}
        assert names == set(scenario_names())

    def test_explicitly_requesting_an_inapplicable_scenario_raises(self):
        # the default (None) silently narrows to what the dialect supports,
        # but an explicit request the dialect cannot honour must fail loudly
        # instead of producing a zero-query campaign that reads as clean.
        with pytest.raises(ValueError):
            resolve_scenarios(["distance-join"], get_dialect("sqlserver"))
        assert "distance-join" not in {
            s.name for s in resolve_scenarios(None, get_dialect("sqlserver"))
        }


class TestQueryBuilders:
    def test_topological_join_matches_the_paper_template(self):
        queries = get_scenario("topological-join").build_queries(SPEC, _context(), 5)
        for query in queries:
            assert query.sql_original == query.sql_followup
            assert query.sql_original.startswith("SELECT COUNT(*) FROM t")
            assert " JOIN t" in query.sql_original
            assert query.label in query.sql_original
            # the admissibility rule: no distance predicates under general maps
            assert "dwithin" not in query.label

    def test_attribute_filter_transforms_the_literal(self):
        queries = get_scenario("attribute-filter").build_queries(SPEC, _context(), 8)
        for query in queries:
            assert "WHERE" in query.sql_original
            assert query.sql_original != query.sql_followup
        # a translated literal appears in the follow-up SQL
        assert any("7" in q.sql_followup for q in queries)

    def test_join_chain_uses_three_bindings(self):
        queries = get_scenario("join-chain").build_queries(SPEC, _context(), 5)
        for query in queries:
            assert query.sql_original.count(" JOIN ") == 2
            assert " AS a " in query.sql_original
            assert "ORDER BY id LIMIT" in query.sql_original
            assert query.sql_original == query.sql_followup

    def test_distance_join_scales_the_threshold(self):
        context = _context(ROTATE_SCALE)  # length scale 2
        queries = get_scenario("distance-join").build_queries(SPEC, context, 8)
        for query in queries:
            original_threshold = int(query.sql_original.rsplit(", ", 1)[1].rstrip(")"))
            followup_threshold = int(query.sql_followup.rsplit(", ", 1)[1].rstrip(")"))
            assert followup_threshold == 2 * original_threshold

    def test_knn_transforms_the_query_point(self):
        context = _context(TRANSLATION)
        queries = get_scenario("knn").build_queries(SPEC, context, 6)
        for query in queries:
            assert query.kind == "rows"
            assert "ORDER BY ST_Distance" in query.sql_original
            assert query.sql_original != query.sql_followup

    def test_metric_queries_aggregate_one_table(self):
        for name in ("metric-area", "metric-length"):
            queries = get_scenario(name).build_queries(SPEC, _context(), 4)
            for query in queries:
                assert query.sql_original.startswith("SELECT SUM(st_")
                assert query.sql_original == query.sql_followup


class TestExpectationFunctions:
    def test_invariance_scenarios_expect_identity(self):
        scenario = get_scenario("topological-join")
        query = scenario.build_queries(SPEC, _context(), 1)[0]
        assert scenario.expected_followup(query, 7, SHEAR) == 7
        assert scenario.results_match(7, 7)
        assert not scenario.results_match(7, 8)

    def test_metric_area_scales_by_determinant(self):
        scenario = get_scenario("metric-area")
        query = scenario.build_queries(SPEC, _context(), 1)[0]
        assert scenario.expected_followup(query, 2.5, ROTATE_SCALE) == 10.0
        assert scenario.expected_followup(query, 2.5, SHEAR) == 2.5  # |det|=1
        assert scenario.expected_followup(query, None, ROTATE_SCALE) is None

    def test_metric_length_scales_by_length_factor(self):
        scenario = get_scenario("metric-length")
        query = scenario.build_queries(SPEC, _context(), 1)[0]
        assert scenario.expected_followup(query, 3.0, ROTATE_SCALE) == 6.0

    def test_metric_match_uses_a_tolerance(self):
        scenario = get_scenario("metric-area")
        assert scenario.results_match(10.0, 10.0 + 1e-12)
        assert not scenario.results_match(10.0, 10.5)
        assert scenario.results_match(None, None)
        assert not scenario.results_match(None, 0.0)

    def test_metric_scenarios_opt_out_of_canonicalization(self):
        assert not get_scenario("metric-area").canonicalize_followup
        assert not get_scenario("metric-length").canonicalize_followup
        assert get_scenario("topological-join").canonicalize_followup


class TestBudgetAllocation:
    def test_budget_sums_to_the_query_count(self):
        for count in (0, 1, 5, 20, 21):
            for scenarios in (1, 3, 7):
                assert sum(allocate_query_budget(count, scenarios)) == count

    def test_earlier_scenarios_receive_the_remainder(self):
        assert allocate_query_budget(10, 7) == [2, 2, 2, 1, 1, 1, 1]

    def test_zero_scenarios_yield_no_budget(self):
        assert allocate_query_budget(10, 0) == []

    def test_offset_rotates_who_gets_the_remainder(self):
        assert allocate_query_budget(10, 7, offset=3) == [1, 1, 1, 2, 2, 2, 1]
        for offset in range(7):
            assert sum(allocate_query_budget(10, 7, offset=offset)) == 10

    def test_rotation_prevents_permanent_starvation(self):
        # with fewer queries than scenarios, rotating the offset (as the
        # oracle does per check) must let every scenario run eventually
        seen: set[int] = set()
        for offset in range(7):
            budgets = allocate_query_budget(5, 7, offset=offset)
            seen.update(index for index, budget in enumerate(budgets) if budget > 0)
        assert seen == set(range(7))


class TestOracleScenarioIntegration:
    def test_each_scenario_is_sound_on_a_clean_engine(self):
        for scenario in all_scenarios():
            oracle = AEIOracle(lambda: connect("postgis"), random.Random(13))
            outcome = oracle.check(SPEC, query_count=8, scenarios=[scenario.name])
            assert outcome.discrepancies == [], scenario.name
            assert outcome.queries_run == 8, scenario.name
            assert outcome.queries_by_scenario == {scenario.name: 8}

    def test_inadmissible_scenarios_are_skipped_for_explicit_transformations(self):
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(3))
        outcome = oracle.check(SPEC, query_count=14, transformation=SHEAR)
        names = set(outcome.queries_by_scenario)
        # similarity-only scenarios must not run under a shear
        assert "knn" not in names
        assert "distance-join" not in names
        assert "metric-length" not in names
        assert "topological-join" in names
        assert "metric-area" in names

    def test_shear_scales_summed_areas_by_unit_determinant(self):
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(3))
        outcome = oracle.check(
            SPEC, query_count=4, transformation=SHEAR, scenarios=["metric-area"]
        )
        assert outcome.discrepancies == []
        assert outcome.queries_run == 4

    def test_reducer_honours_a_covariant_scenario_expectation(self):
        # On a clean engine a metric-area "discrepancy" does not exist: a
        # scenario-aware reducer must leave the spec untouched instead of
        # mistaking the legitimate |det|-scaled difference for a failure.
        from repro.core.reduce import TestCaseReducer

        scenario = get_scenario("metric-area")
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(0))
        query = scenario.build_queries(SPEC, _context(ROTATE_SCALE), 1)[0]
        reducer = TestCaseReducer(oracle, scenario=scenario)
        reduced = reducer.reduce(SPEC, query, ROTATE_SCALE)
        assert reduced.removed_geometries == 0
        assert reduced.spec.geometry_count() == SPEC.geometry_count()

    def test_reducer_rejects_row_list_queries(self):
        from repro.core.reduce import TestCaseReducer

        scenario = get_scenario("knn")
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(0))
        query = scenario.build_queries(SPEC, _context(ROTATE_SCALE), 1)[0]
        with pytest.raises(ValueError):
            TestCaseReducer(oracle, scenario=scenario).reduce(SPEC, query, ROTATE_SCALE)

    def test_distance_template_refuses_a_naive_followup(self):
        from repro.core.queries import TopologicalQuery

        query = TopologicalQuery("t1", "t2", "st_dwithin", distance=5)
        with pytest.raises(ValueError):
            query.followup_sql()
        # non-distance templates are transformation-independent
        assert TopologicalQuery("t1", "t2", "st_covers").followup_sql().startswith(
            "SELECT COUNT(*)"
        )

    def test_explicit_transformation_collapses_followup_groups(self):
        from repro.core.oracle import AEIOracle as Oracle

        scenarios = [get_scenario(n) for n in ("topological-join", "knn", "metric-area")]
        sampled = Oracle._group_scenarios(scenarios)
        shared = Oracle._group_scenarios(scenarios, shared_transformation=True)
        # three distinct (family, canonicalize) groups collapse to two
        # (canonicalized vs not) when one transformation serves them all
        assert len(sampled) == 3
        assert len(shared) == 2


KNN_SPEC = DatabaseSpec(
    tables={
        "t1": [
            "POINT(0 0)",
            "POINT(3 0)",
            "POINT(10 0)",
            "POINT(0 7)",
            "POLYGON((20 20,22 20,22 22,20 22,20 20))",
        ]
    }
)


def _neighbours(database, point_wkt, k, table="t1"):
    return [row[0] for row in database.query_rows(knn_sql(table, point_wkt, k))]


def _materialise(spec, bug_ids=()):
    return AEIOracle(lambda: connect("postgis", bug_ids=list(bug_ids))).materialise(spec)


class TestKNNScenario:
    def test_knn_sql_shape(self):
        sql = knn_sql("t1", "POINT(1 1)", 3)
        assert "ORDER BY ST_Distance" in sql
        assert sql.endswith("LIMIT 3")

    def test_knn_query_returns_nearest_rows_in_order(self):
        assert _neighbours(_materialise(KNN_SPEC), "POINT(1 0)", 3) == [1, 2, 4]

    def test_limit_caps_the_neighbour_count(self):
        assert len(_neighbours(_materialise(KNN_SPEC), "POINT(0 0)", 2)) == 2

    def test_clean_engine_is_invariant_under_sampled_similarities(self):
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(3))
        outcome = oracle.check(KNN_SPEC, query_count=12, scenarios=["knn"])
        assert outcome.queries_by_scenario == {"knn": 12}
        assert outcome.discrepancies == []

    def test_every_rigid_transformation_preserves_knn(self):
        rng = random.Random(11)
        for _ in range(5):
            transformation = rigid_affine_transformation(rng)
            oracle = AEIOracle(lambda: connect("postgis"), random.Random(5))
            outcome = oracle.check(
                KNN_SPEC, query_count=6, transformation=transformation, scenarios=["knn"]
            )
            assert outcome.queries_by_scenario == {"knn": 6}
            assert outcome.discrepancies == []

    def test_shearing_is_not_a_valid_knn_transformation(self):
        # The paper's caveat: shearing does not preserve relative distances,
        # so even a correct engine returns other neighbours after a shear -
        # which is why the scenario declares the similarity family and the
        # oracle skips it under a shear.
        oracle = AEIOracle(lambda: connect("postgis"), random.Random(9))
        outcome = oracle.check(KNN_SPEC, query_count=6, transformation=SHEAR, scenarios=["knn"])
        assert "knn" not in outcome.queries_by_scenario
        sheared = DatabaseSpec(
            tables={"t1": [SHEAR.apply(load_wkt(wkt)).wkt for wkt in KNN_SPEC.tables["t1"]]}
        )
        original, followup = _materialise(KNN_SPEC), _materialise(sheared)
        rng = random.Random(9)
        differing = 0
        for _ in range(25):
            point = load_wkt(f"POINT({rng.randint(-10, 10)} {rng.randint(-10, 10)})")
            if _neighbours(original, point.wkt, 3) != _neighbours(
                followup, SHEAR.apply(point).wkt, 3
            ):
                differing += 1
        assert differing

    def test_distance_recursion_bug_changes_knn_results(self):
        # A geometry with an EMPTY element makes the buggy ST_Distance pick
        # the wrong element, reordering the neighbour list.
        with_empty = DatabaseSpec(
            tables={"t1": ["MULTIPOINT((9 0),(0 0),EMPTY)", "POINT(2 0)", "POINT(6 0)"]}
        )
        clean = _materialise(with_empty)
        buggy = _materialise(with_empty, ["geos-distance-empty-recursion"])
        assert _neighbours(clean, "POINT(0 0)", 3) == [1, 2, 3]
        assert _neighbours(buggy, "POINT(0 0)", 3) != [1, 2, 3]


class TestDocsCatalog:
    def test_every_registered_scenario_is_documented(self):
        assert DOCS_CATALOG.exists(), "docs/SCENARIOS.md is missing"
        text = DOCS_CATALOG.read_text(encoding="utf-8")
        headings = [line for line in text.splitlines() if line.startswith("#")]
        for scenario in all_scenarios():
            assert any(
                f"`{scenario.name}`" in heading for heading in headings
            ), f"scenario {scenario.name!r} has no section in docs/SCENARIOS.md"
