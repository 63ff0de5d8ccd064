"""Seeded property suite: bulk-loaded storage equals SQL replay.

On the fast path, :func:`repro.core.oracle.load_spec` bulk-loads the parsed
geometries of a spec's WKTs into in-process sessions instead of replaying
its CREATE/INSERT statements.  Its admissibility contract is *storage
identity*: for every generated database and its affine follow-ups (every
transformation family, both canonicalization modes), the bulk-loaded
tables must hold exactly what the replay stores — same tables, same row
ids, same geometries — with the same statement accounting.

200 seeded cases as the generator produces them (derivative strategy on),
cycling the three transformation families.
"""

from __future__ import annotations

import random

from repro.core.generator import GeneratorConfig, GeometryAwareGenerator
from repro.core.oracle import AEIOracle, load_spec
from repro.engine.database import SpatialDatabase, connect
from repro.scenarios.base import TransformationFamily

CASES = 200
FAMILIES = (
    TransformationFamily.GENERAL,
    TransformationFamily.SIMILARITY,
    TransformationFamily.RIGID,
)


def _case(index: int):
    """One seeded (spec, transformation) pair, families round-robin."""
    rng = random.Random(f"derived-materialisation|{index}")
    generator = GeometryAwareGenerator(
        connect(),
        GeneratorConfig(geometry_count=3, table_count=2),
        rng=rng,
    )
    spec = generator.generate()
    family = FAMILIES[index % len(FAMILIES)]
    return spec, family.sample(rng)


def _materialised_rows(database):
    """``(table, id, wkt)`` triples of everything the engine stored."""
    rows = []
    for name in database.table_names():
        for row in database.state.tables[name].rows:
            geometry = row["g"]
            rows.append((name, row["id"], None if geometry is None else geometry.wkt))
    return rows


def test_bulk_loaded_tables_match_sql_replay(monkeypatch):
    bulk_loads = []
    load = SpatialDatabase.load_geometry_tables

    def counting_load(database, *args, **kwargs):
        bulk_loads.append(1)
        return load(database, *args, **kwargs)

    monkeypatch.setattr(SpatialDatabase, "load_geometry_tables", counting_load)
    oracle = AEIOracle(connect)
    compared = 0
    for index in range(CASES):
        spec, transformation = _case(index)
        specs = [spec] + [
            oracle.build_followup_spec(spec, transformation, canonicalize_spec=canonical)
            for canonical in (True, False)
        ]
        for candidate in specs:
            direct = connect()
            load_spec(direct, candidate)
            replayed = connect(fast_path=False)
            load_spec(replayed, candidate)
            assert _materialised_rows(direct) == _materialised_rows(replayed)
            assert direct.table_names() == replayed.table_names()
            assert direct.stats.statements == replayed.stats.statements
            compared += 1
    # every fast-path load took the bulk-load route, none of the replays did
    assert len(bulk_loads) == compared == 3 * CASES
