"""The one speed switch: ``fast_path`` end to end, and nothing else.

``CampaignConfig.fast_path`` (``--no-fast-path``) is the only knob that
selects between the optimised path and the scalar reference.  These tests
pin how it is threaded through every layer that reads it — the
process-global geometry kernels, the per-connection executor and registry,
the backends, spec materialisation, the Index oracle and the CLI report —
and that the retired ``vectorized``/``reuse`` switches are gone from every
entry point that used to accept them (stored snapshots excepted, which
drop them on load).
"""

from __future__ import annotations

import json

import pytest

from repro.backends import create_backend
from repro.backends.base import Capabilities
from repro.baselines.index_oracle import IndexToggleOracle
from repro.cli import main
from repro.core.campaign import CampaignConfig, TestingCampaign
from repro.core.generator import DatabaseSpec
from repro.core.oracle import load_spec
from repro.engine.database import SpatialDatabase, connect
from repro.errors import TableError
from repro.geometry import columnar
from repro.geometry.columnar import (
    fast_kernels_enabled,
    set_fast_kernels,
    vectorized_kernels_enabled,
)
from repro.store.runner import config_from_json

RETIRED = ("vectorized", "reuse")
MODES = pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])

SPEC = DatabaseSpec(
    tables={
        "t1": ["POINT(0 0)", "POLYGON((0 0,4 0,4 4,0 4,0 0))", "LINESTRING(6 6,8 8)"],
        "t2": ["POINT(1 1)", "GEOMETRYCOLLECTION EMPTY"],
    }
)


@pytest.fixture(autouse=True)
def _restore_kernel_switch():
    """The kernel switch is process-global: leave it as each test found it."""
    previous = fast_kernels_enabled()
    yield
    set_fast_kernels(previous)


def _tiny_config(**overrides) -> CampaignConfig:
    options = dict(
        dialect="postgis",
        emulate_release_under_test=True,
        seed=7,
        geometry_count=4,
        queries_per_round=4,
    )
    options.update(overrides)
    return CampaignConfig(**options)


def _storage(session) -> dict[str, list[tuple]]:
    """Every stored row, by table, as comparable values."""
    return {
        table: sorted(
            (row_id, wkt)
            for row_id, wkt in session.query_rows(f"SELECT id, ST_AsText(g) FROM {table}")
        )
        for table in SPEC.table_names()
    }


class TestKernelSwitch:
    def test_set_fast_kernels_returns_previous_setting(self):
        set_fast_kernels(True)
        assert set_fast_kernels(False) is True
        assert fast_kernels_enabled() is False
        assert set_fast_kernels(True) is False
        assert fast_kernels_enabled() is True

    def test_batch_kernels_follow_the_switch(self):
        set_fast_kernels(True)
        assert vectorized_kernels_enabled() is (columnar.np is not None)
        set_fast_kernels(False)
        assert not vectorized_kernels_enabled()

    def test_batch_kernels_need_numpy(self, monkeypatch):
        set_fast_kernels(True)
        monkeypatch.setattr(columnar, "np", None)
        # the platform fallback: fast path on, batch kernels off
        assert fast_kernels_enabled()
        assert not vectorized_kernels_enabled()

    @MODES
    def test_campaign_scopes_the_switch_to_its_config(self, fast_path):
        campaign = TestingCampaign(_tiny_config(fast_path=fast_path))
        seen = []
        campaign.round_hook = lambda _campaign, _result: seen.append(fast_kernels_enabled())
        set_fast_kernels(not fast_path)
        campaign.run(rounds=2)
        assert seen == [fast_path, fast_path]
        assert fast_kernels_enabled() is (not fast_path)

    def test_switch_restored_when_a_round_raises(self):
        campaign = TestingCampaign(_tiny_config(fast_path=False))

        def fail(_campaign, _result):
            raise RuntimeError("round hook failed")

        campaign.round_hook = fail
        set_fast_kernels(True)
        with pytest.raises(RuntimeError, match="round hook failed"):
            campaign.run(rounds=1)
        assert fast_kernels_enabled() is True


class TestSessionSwitch:
    @MODES
    def test_setter_flips_executor_and_registry_together(self, fast_path):
        database = SpatialDatabase("postgis", fast_path=not fast_path)
        database.fast_path = fast_path
        assert database.fast_path is fast_path
        assert database.executor.fast_path is fast_path
        assert database.registry.fast_path is fast_path

    @MODES
    def test_connect_threads_the_switch(self, fast_path):
        database = connect("postgis", fast_path=fast_path)
        assert database.executor.fast_path is fast_path
        assert database.registry.fast_path is fast_path

    @MODES
    def test_clone_empty_keeps_the_switch(self, fast_path):
        database = connect("postgis", bug_ids=["geos-prepared-contains-collection"])
        database.fast_path = fast_path
        clone = database.clone_empty()
        assert clone.fast_path is fast_path
        assert clone.registry.fast_path is fast_path
        assert clone.fault_plan.active_bugs == database.fault_plan.active_bugs

    @MODES
    def test_inprocess_backend_sessions_carry_the_switch(self, fast_path):
        backend = create_backend("inprocess", fast_path=fast_path)
        first, second = backend.open_session(), backend.open_session()
        assert first is not second
        assert first.fast_path is fast_path and second.fast_path is fast_path

    @MODES
    def test_sqlite_sessions_never_take_the_fast_path(self, fast_path):
        # SQLite plans itself: the switch is accepted and has no per-session
        # layer to drive, so materialisation always replays SQL there.
        session = create_backend("sqlite", fast_path=fast_path).open_session()
        assert getattr(session, "fast_path", False) is False
        assert getattr(session, "load_geometry_tables", None) is None
        assert session.registry.fast_path is False

    def test_reference_session_builds_no_auto_indexes(self):
        database = connect("postgis", fast_path=False)
        load_spec(database, SPEC)
        assert database.build_auto_indexes() == 0
        database.query_value(
            "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Intersects(t1.g, t2.g)"
        )
        assert all(not table.auto_indexes for table in database.state.tables.values())


class TestRetiredSwitches:
    @pytest.mark.parametrize("key", RETIRED)
    def test_campaign_config_rejects_them(self, key):
        with pytest.raises(TypeError, match=key):
            CampaignConfig(**{key: False})

    def test_create_backend_rejects_vectorized(self):
        with pytest.raises(TypeError, match="vectorized"):
            create_backend("inprocess", vectorized=False)

    def test_connect_rejects_vectorized(self):
        with pytest.raises(TypeError, match="vectorized"):
            connect("postgis", vectorized=False)

    @pytest.mark.parametrize("flag", ["--no-vectorized", "--no-reuse"])
    def test_cli_rejects_their_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, "--rounds", "1"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("key", RETIRED)
    def test_stored_snapshots_drop_them(self, key):
        snapshot = {"seed": 11, "fast_path": False, key: False}
        config = config_from_json(snapshot)
        assert config.seed == 11
        assert config.fast_path is False
        assert not hasattr(config, key)


class TestLoadSpec:
    def _spy(self, monkeypatch) -> list:
        calls = []
        load = SpatialDatabase.load_geometry_tables

        def spy(self, *args, **kwargs):
            calls.append(self)
            return load(self, *args, **kwargs)

        monkeypatch.setattr(SpatialDatabase, "load_geometry_tables", spy)
        return calls

    def test_bulk_loads_into_fast_inprocess_sessions(self, monkeypatch):
        calls = self._spy(monkeypatch)
        direct = connect("postgis", fast_path=True)
        load_spec(direct, SPEC)
        assert calls == [direct]
        replayed = connect("postgis", fast_path=False)
        load_spec(replayed, SPEC)
        assert calls == [direct]
        assert _storage(direct) == _storage(replayed)
        assert direct.stats.statements == replayed.stats.statements

    def test_replays_into_reference_sessions(self, monkeypatch):
        calls = self._spy(monkeypatch)
        database = connect("postgis", fast_path=False)
        load_spec(database, SPEC)
        assert calls == []
        assert database.table_names() == ["t1", "t2"]
        assert database.row_count("t1") == 3 and database.row_count("t2") == 2

    def test_replays_into_sqlite_sessions(self):
        session = create_backend("sqlite").open_session()
        load_spec(session, SPEC)
        replayed = connect("postgis", fast_path=False)
        load_spec(replayed, SPEC)
        assert session.query_value("SELECT COUNT(*) FROM t1") == 3
        assert _storage(session) == _storage(replayed)

    @pytest.mark.parametrize("supported", [True, False], ids=["capable", "incapable"])
    def test_auto_indexes_follow_the_capability(self, supported):
        capabilities = Capabilities.from_dialect("postgis", backend="inprocess")
        capabilities = Capabilities(
            **{**capabilities.__dict__, "supports_auto_indexes": supported}
        )
        database = connect("postgis", fast_path=True)
        load_spec(database, SPEC, capabilities)
        built = {name for name, table in database.state.tables.items() if table.auto_indexes}
        assert built == ({"t1", "t2"} if supported else set())

    @MODES
    def test_duplicate_table_is_the_same_error_either_way(self, fast_path):
        database = connect("postgis", fast_path=fast_path)
        load_spec(database, SPEC)
        with pytest.raises(TableError, match="already exists"):
            load_spec(database, SPEC)


class TestIndexOracle:
    def test_materialise_uses_the_reference_path(self):
        oracle = IndexToggleOracle(database_factory=lambda: connect("postgis", fast_path=True))
        database = oracle._materialise(SPEC)
        assert database.fast_path is False
        assert database.executor.fast_path is False
        assert database.registry.fast_path is False
        for table in database.state.tables.values():
            # only the oracle's own GIST index; no fast-path STR index
            assert not table.auto_indexes
            assert table.indexes


class TestFaultTransparency:
    """An injected fault flips results identically, prepared cache hot vs. cold."""

    BUG = "geos-prepared-contains-collection"
    #: repeated prepared probes of a collection trigger the Listing 7 bug.
    QUERY = (
        "SELECT COUNT(*) FROM t1 WHERE ST_Contains(t1.g, "
        "'GEOMETRYCOLLECTION(MULTIPOINT((1 1),(3 1)))'::geometry)"
    )

    def _run_twice(self, fast_path: bool) -> list:
        database = connect("postgis", bug_ids=[self.BUG], fast_path=fast_path)
        load_spec(database, SPEC)
        return [database.query_value(self.QUERY) for _ in range(2)]

    def test_fault_fires_identically_hot_and_cold(self):
        optimised = self._run_twice(fast_path=True)
        reference = self._run_twice(fast_path=False)
        assert optimised == reference
        # Non-vacuity: the repeated probe flips under the prepared-collection bug.
        assert optimised[0] != optimised[1]


class TestCliReport:
    @pytest.mark.parametrize(
        "arguments, cache_line",
        [([], True), (["--no-fast-path"], False), (["--backend", "sqlite"], False)],
        ids=["inprocess-fast", "inprocess-reference", "sqlite"],
    )
    def test_report_prints_the_phase_split(self, arguments, cache_line, capsys):
        main(arguments + ["--rounds", "1", "--geometries", "4", "--queries", "4", "--seed", "7"])
        output = capsys.readouterr().out
        phases = [line for line in output.splitlines() if line.startswith("Phases: ")]
        assert len(phases) == 1
        assert "materialise " in phases[0] and ", execute " in phases[0]
        assert ("Fast-path caches:" in output) is cache_line

    def test_no_fast_path_reaches_the_snapshot(self, capsys):
        main(["--no-fast-path", "--json", "--rounds", "1", "--geometries", "4",
              "--queries", "4", "--seed", "7"])
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["fast_path"] is False
        assert not set(RETIRED) & set(config)
