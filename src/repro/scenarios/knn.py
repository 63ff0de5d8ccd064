"""K-nearest-neighbour scenario (the paper's Section 7 extension).

The k rows nearest to a query point, evaluated via

    SELECT id FROM t ORDER BY ST_Distance(g, '<point>'::geometry), id LIMIT k

must be the *same rows* after a similarity transformation is applied to the
data and the query point alike: rotation, translation and uniform scaling
multiply every distance by one factor and therefore preserve the relative
distance order (shearing does not, which is exactly why the scenario
declares the similarity family).  Ties are broken by row id, so the row
lists compare deterministically.

The oracle materialises specs with stable ``id`` columns for every
scenario, so the neighbour lists join the same campaign/dedup pipeline as
the count scenarios.
"""

from __future__ import annotations

from repro.core.generator import DatabaseSpec
from repro.core.qir import (
    Column,
    FunctionCall,
    GeometryLiteral,
    OrderItem,
    Select,
    TableRef,
    render,
    rewrite_literals,
)
from repro.scenarios.base import Scenario, ScenarioContext, ScenarioQuery, TransformationFamily


def knn_ir(table: str, query_point_wkt: str, k: int) -> Select:
    """The KNN query template: order by distance to the query point."""
    distance = FunctionCall("ST_Distance", (Column("g"), GeometryLiteral(query_point_wkt)))
    return Select(
        projection=(Column("id"),),
        sources=(TableRef(table),),
        order_by=(OrderItem(distance), OrderItem(Column("id"))),
        limit=k,
    )


def knn_sql(table: str, query_point_wkt: str, k: int) -> str:
    """Canonical rendering of :func:`knn_ir`."""
    return render(knn_ir(table, query_point_wkt, k))


class KNNScenario(Scenario):
    name = "knn"
    title = "k nearest neighbours of a transformed query point, by row id"
    family = TransformationFamily.SIMILARITY
    requires_functions = ("st_distance",)
    paper_anchor = "Section 7 (KNN extension)"

    #: the paper's sketch uses small k; the builder draws from this range.
    k_range: tuple[int, int] = (1, 5)

    def build_queries(self, spec: DatabaseSpec, context: ScenarioContext, count: int) -> list[ScenarioQuery]:
        tables = spec.table_names()
        queries = []
        for _ in range(count):
            table = context.rng.choice(tables)
            x = context.rng.randint(-10, 10)
            y = context.rng.randint(-10, 10)
            k = context.rng.randint(*self.k_range)
            point = f"POINT({x} {y})"
            ir = knn_ir(table, point, k)
            # The SDB2 plan moves the query point through the follow-up
            # pipeline alongside the data, rewriting the literal in place.
            followup_ir = rewrite_literals(ir, geometry=context.followup_wkt)
            queries.append(
                ScenarioQuery.from_ir(self.name, f"k={k}", ir, followup_ir, kind="rows")
            )
        return queries
