"""Line-coverage measurement scoped to the system under test.

The paper's Table 5 and Figure 8(b,c) report gcov line coverage of PostGIS
and GEOS under different test-generation strategies.  The reproduction's
analogue of PostGIS is :mod:`repro.engine` (SQL parsing, planning, indexes,
the function registry) and the analogue of GEOS is :mod:`repro.topology`
plus :mod:`repro.geometry` plus :mod:`repro.functions` (the geometry
library).  This module measures executed source lines of those packages with
a ``sys.settrace`` hook, and reports them against the number of executable
lines so percentages are comparable across configurations.
"""

from __future__ import annotations

import ast as python_ast
import os
import sys
from dataclasses import dataclass, field

import repro

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Component groups: name -> package sub-directories relative to repro/.
COMPONENT_GROUPS: dict[str, tuple[str, ...]] = {
    "engine": ("engine",),
    "geometry-library": ("topology", "geometry", "functions"),
}


def _python_files(subdirectories: tuple[str, ...]) -> list[str]:
    files = []
    for subdirectory in subdirectories:
        root = os.path.join(_PACKAGE_ROOT, subdirectory)
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                if filename.endswith(".py"):
                    files.append(os.path.join(dirpath, filename))
    return sorted(files)


def _executable_lines(path: str) -> set[int]:
    """Line numbers of executable statements in a source file."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = python_ast.parse(source)
    lines: set[int] = set()
    for node in python_ast.walk(tree):
        if isinstance(node, (python_ast.stmt, python_ast.excepthandler)):
            if isinstance(node, (python_ast.FunctionDef, python_ast.AsyncFunctionDef, python_ast.ClassDef, python_ast.Module)):
                continue
            lines.add(node.lineno)
    return lines


@dataclass
class CoverageReport:
    """Covered/executable line counts per component group."""

    covered: dict[str, set] = field(default_factory=dict)
    executable: dict[str, int] = field(default_factory=dict)

    def line_coverage(self, group: str) -> float:
        total = self.executable.get(group, 0)
        if total == 0:
            return 0.0
        return 100.0 * len(self.covered.get(group, set())) / total

    def covered_lines(self, group: str) -> int:
        return len(self.covered.get(group, set()))

    def merged_with(self, other: "CoverageReport") -> "CoverageReport":
        """Union of two reports (the "Unit Tests + Spatter" row of Table 5)."""
        merged = CoverageReport(executable=dict(self.executable))
        for group in set(self.covered) | set(other.covered):
            merged.covered[group] = set(self.covered.get(group, set())) | set(
                other.covered.get(group, set())
            )
        for group, total in other.executable.items():
            merged.executable.setdefault(group, total)
        return merged

    def as_rows(self) -> list[tuple[str, int, int, float]]:
        """(group, covered, executable, percentage) rows for reporting."""
        rows = []
        for group in sorted(self.executable):
            rows.append(
                (
                    group,
                    self.covered_lines(group),
                    self.executable[group],
                    self.line_coverage(group),
                )
            )
        return rows


class CoverageTracker:
    """A context manager that records executed lines of the tracked packages."""

    def __init__(self, groups: dict[str, tuple[str, ...]] | None = None):
        self.groups = groups or COMPONENT_GROUPS
        self._files_to_group: dict[str, str] = {}
        self._executable_totals: dict[str, int] = {}
        for group, subdirectories in self.groups.items():
            total = 0
            for path in _python_files(subdirectories):
                self._files_to_group[path] = group
                total += len(_executable_lines(path))
            self._executable_totals[group] = total
        self._covered: dict[str, set] = {group: set() for group in self.groups}
        self._previous_trace = None

    # --------------------------------------------------------------- tracing
    def _trace(self, frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename in self._files_to_group:
                return self._trace_lines
            return None
        return None

    def _trace_lines(self, frame, event, arg):
        if event == "line":
            filename = frame.f_code.co_filename
            group = self._files_to_group.get(filename)
            if group is not None:
                self._covered[group].add((filename, frame.f_lineno))
        return self._trace_lines

    def __enter__(self) -> "CoverageTracker":
        # Coverage runs measure what the engine *executes*; process-global
        # memos (relate, canonicalization, interned parsing) warmed by
        # earlier work would let the tracked workload skip whole code paths
        # and make percentages incomparable across configurations — the
        # same reason the benchmarks clear these caches between runs.
        from repro.core.canonical import clear_canonical_cache
        from repro.geometry.cache import clear_geometry_cache
        from repro.topology.relate import clear_relate_cache

        clear_relate_cache()
        clear_canonical_cache()
        clear_geometry_cache()
        self._previous_trace = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        sys.settrace(self._previous_trace)

    # ---------------------------------------------------------------- report
    def report(self) -> CoverageReport:
        return CoverageReport(
            covered={group: set(values) for group, values in self._covered.items()},
            executable=dict(self._executable_totals),
        )
