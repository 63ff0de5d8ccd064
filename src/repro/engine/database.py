"""The public database facade of MiniSDB.

:class:`SpatialDatabase` plays the role psycopg / mysql connectors play in
the paper's artifact: Spatter opens one per emulated system, sends SQL
strings, and reads back result rows.  The facade also keeps the execution
statistics (statement count, time spent inside the engine) the Figure 7
benchmark reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.dialects import Dialect, default_fault_profile, get_dialect
from repro.engine.executor import Executor, ResultSet, SpatialDatabaseState
from repro.engine.faults import FaultPlan
from repro.engine.parser import parse_script
from repro.engine.prepared import PreparedGeometryCache
from repro.engine.registry import FunctionRegistry
from repro.errors import TableError


@dataclass
class ExecutionStats:
    """Aggregate statistics for one database connection."""

    statements: int = 0
    seconds_in_engine: float = 0.0
    crashes: int = 0
    errors: int = 0

    def reset(self) -> None:
        self.statements = 0
        self.seconds_in_engine = 0.0
        self.crashes = 0
        self.errors = 0


class SpatialDatabase:
    """One emulated SDBMS instance: a dialect, a fault profile, and storage."""

    def __init__(
        self,
        dialect: Dialect | str = "postgis",
        fault_plan: FaultPlan | None = None,
        use_default_faults: bool = False,
        fast_path: bool = True,
    ):
        self.dialect = get_dialect(dialect) if isinstance(dialect, str) else dialect
        if fault_plan is None and use_default_faults:
            fault_plan = FaultPlan.from_ids(default_fault_profile(self.dialect.name))
        self.fault_plan = fault_plan or FaultPlan.none()
        self.prepared_cache = PreparedGeometryCache(
            buggy_collection_repeat=any(
                bug.mechanism == "prepared_collection_false" for bug in self.fault_plan.active_bugs
            )
        )
        self.registry = FunctionRegistry(
            self.dialect, self.fault_plan, self.prepared_cache, fast_path=fast_path
        )
        self.state = SpatialDatabaseState()
        self.executor = Executor(self.state, self.registry, self.fault_plan, fast_path=fast_path)
        self.stats = ExecutionStats()

    @property
    def fast_path(self) -> bool:
        """Whether this connection runs the optimised execution path."""
        return self.executor.fast_path

    @fast_path.setter
    def fast_path(self, enabled: bool) -> None:
        # the executor (batch pipelines, prefilters) and the registry
        # (prepared routing) read the one switch
        self.executor.fast_path = self.registry.fast_path = bool(enabled)

    # ------------------------------------------------------------------ API
    def execute(self, sql: str) -> ResultSet:
        """Execute a script of one or more statements; returns the last result."""
        statements = parse_script(sql)
        result = ResultSet(command="EMPTY")
        started = time.perf_counter()
        try:
            for statement in statements:
                self.stats.statements += 1
                result = self.executor.execute(statement)
        finally:
            self.stats.seconds_in_engine += time.perf_counter() - started
        return result

    def load_geometry_tables(
        self,
        tables: dict[str, list],
        geometry_column: str = "g",
        include_ids: bool = True,
    ) -> None:
        """Bulk-load already-parsed geometry tables (fast-path materialisation).

        Mirrors executing ``DatabaseSpec.create_statements`` statement for
        statement — same table/column names and lower-casing, same 1-based
        ``id`` values, same duplicate-table error, same statement counter
        and index behaviour (``auto`` indexes honour the same
        drop-empty-from-index fault) — but stores the given ``Geometry``
        objects directly instead of parsing their WKT out of INSERT
        literals.  Callers guarantee each object is value-identical to the
        parse of the WKT the legacy path would have inserted.
        """
        from repro.engine.catalog import Column, Table

        started = time.perf_counter()
        try:
            drop_empty = self.executor._drop_empty_from_index()
            for name in sorted(tables):
                key = name.lower()
                self.stats.statements += 1
                if key in self.state.tables:
                    raise TableError(f"table {key!r} already exists")
                if include_ids:
                    columns = [Column("id", "int"), Column(geometry_column, "geometry")]
                else:
                    columns = [Column(geometry_column, "geometry")]
                table = Table(key, columns)
                self.state.tables[key] = table
                for row_id, geometry in enumerate(tables[name], start=1):
                    self.stats.statements += 1
                    if include_ids:
                        values = {"id": row_id, geometry_column: geometry}
                    else:
                        values = {geometry_column: geometry}
                    table.insert_row(values, drop_empty_from_index=drop_empty)
        finally:
            self.stats.seconds_in_engine += time.perf_counter() - started

    def query_value(self, sql: str) -> Any:
        """Execute a query and return its single scalar value."""
        return self.execute(sql).scalar()

    def query_rows(self, sql: str) -> list[tuple]:
        """Execute a query and return all result rows."""
        return self.execute(sql).rows

    def table_names(self) -> list[str]:
        """Names of all stored tables."""
        return sorted(self.state.tables)

    def row_count(self, table: str) -> int:
        """Number of rows currently stored in a table."""
        return len(self.state.tables[table.lower()])

    def reset(self) -> None:
        """Drop all tables, variables, and settings (a fresh database)."""
        self.state.tables.clear()
        self.state.variables.clear()
        self.state.settings.clear()
        self.state.settings["enable_seqscan"] = True
        self.prepared_cache.clear()

    def build_auto_indexes(self) -> int:
        """Eagerly build the fast-path STR indexes on every geometry column.

        Returns the number of indexes built.  The oracle calls this right
        after materialising a database so join-heavy scenario queries start
        with warm envelope prefilters; lazy construction inside the executor
        covers every other entry point.  A no-op when the connection runs
        with the fast path disabled.
        """
        if not self.fast_path:
            return 0
        built = 0
        for table in self.state.tables.values():
            for column in table.columns:
                if column.is_geometry and table.auto_spatial_index(column.name) is not None:
                    built += 1
        return built

    def cache_stats(self) -> dict[str, int]:
        """Connection-scoped cache counters (prepared-geometry cache).

        Only true counters are exposed — the ``entries`` gauge is omitted
        because campaign aggregation sums these values across connections
        and rounds, which is meaningless for a point-in-time size.
        """
        stats = self.prepared_cache.stats()
        return {
            f"prepared_{key}": stats[key] for key in ("hits", "misses", "evictions")
        }

    def clone_empty(self) -> "SpatialDatabase":
        """A new database with the same dialect and fault profile, no data."""
        return SpatialDatabase(
            self.dialect,
            FaultPlan(self.fault_plan.active_bugs),
            fast_path=self.fast_path,
        )


def connect(
    dialect: str = "postgis",
    bug_ids: Iterable[str] | None = None,
    emulate_release_under_test: bool = False,
    fast_path: bool = True,
) -> SpatialDatabase:
    """Open an emulated SDBMS connection.

    ``bug_ids`` selects an explicit fault profile; passing
    ``emulate_release_under_test=True`` instead activates the default profile
    for the dialect (every catalog bug the paper reported against that
    system), which is what the testing-campaign experiments use.
    ``fast_path=False`` selects the reference execution path: scalar
    row-at-a-time SELECTs, prepared caching for ST_Contains only and no
    automatic envelope prefilters — the reference side of the
    optimised-vs-reference self-checks and the mode the Index baseline
    oracle runs in.
    """
    if bug_ids is not None:
        plan = FaultPlan.from_ids(bug_ids)
        return SpatialDatabase(dialect, plan, fast_path=fast_path)
    return SpatialDatabase(
        dialect, use_default_faults=emulate_release_under_test, fast_path=fast_path
    )
