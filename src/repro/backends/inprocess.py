"""The in-process engine behind the backend protocol (the default).

:class:`InProcessBackend` is a thin constructor shim: ``open_session``
returns exactly the :class:`~repro.engine.database.SpatialDatabase` that
:func:`repro.engine.database.connect` would have produced before the
protocol existed — the connection object *is* the session (it satisfies
:class:`~repro.backends.base.BackendSession` structurally), so the default
campaign executes the identical code path instruction for instruction.
The backend-equivalence suite (``tests/integration/
test_backend_equivalence.py``) locks that in finding-for-finding.
"""

from __future__ import annotations

from repro.backends.base import Backend, BackendSession, Capabilities
from repro.engine.database import SpatialDatabase, connect


class InProcessBackend(Backend):
    """MiniSDB, the emulated engine the reproduction has always driven."""

    name = "inprocess"

    def __init__(
        self,
        dialect: str = "postgis",
        bug_ids: tuple[str, ...] = (),
        fast_path: bool = True,
    ):
        self.dialect = dialect
        self.bug_ids = tuple(bug_ids)
        self.fast_path = fast_path

    def capabilities(self) -> Capabilities:
        return Capabilities.from_dialect(self.dialect, backend=self.name)

    def open_session(self) -> BackendSession:
        return connect(self.dialect, bug_ids=self.bug_ids, fast_path=self.fast_path)
