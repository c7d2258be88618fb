"""Plain-text rendering of tables, matrices and surrogate graphs.

These helpers keep the formatting of the paper's rows and series in one
place; :mod:`repro.experiments.artifacts` composes them into the one
renderer per committed ``results/`` file.  Every persisted rendering
(the benchmarks' ``results/``, ``repro report``, ``--out`` JSON files)
goes through :func:`write_artifact` / :func:`write_json_artifact` —
thin wrappers over :mod:`repro.engine.io_atomic` — so artifacts are
atomic: a crash mid-report never leaves a torn table.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from ..communal.surrogate import SurrogateGraph
from ..engine.io_atomic import write_json_atomic, write_text_atomic


def write_artifact(path: str | Path, text: str) -> Path:
    """Atomically persist one rendered artifact (adds a trailing newline)."""
    return write_text_atomic(path, text if text.endswith("\n") else text + "\n")


def write_json_artifact(path: str | Path, payload: Any) -> Path:
    """Atomically persist one JSON artifact (indented, newline-terminated)."""
    path = Path(path)
    write_json_atomic(path, payload, indent=2)
    return path


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_matrix(
    names: Sequence[str],
    matrix: np.ndarray,
    fmt: str = "{:6.2f}",
    title: str | None = None,
    percent: bool = False,
) -> str:
    """Square matrix with row/column workload labels (Table 5 style)."""
    matrix = np.asarray(matrix)
    header = ["{:8s}".format("")] + [f"{n:>8s}" for n in names]
    lines = []
    if title:
        lines.append(title)
    lines.append("".join(header))
    for i, name in enumerate(names):
        cells = []
        for j in range(len(names)):
            value = matrix[i, j] * 100 if percent else matrix[i, j]
            text = fmt.format(value) + ("%" if percent else "")
            cells.append(f"{text:>8s}")
        lines.append(f"{name:8s}" + "".join(cells))
    return "\n".join(lines)


def render_surrogate_graph(graph: SurrogateGraph) -> str:
    """Edge list + groups, mirroring the Figure 6-8 annotations."""
    lines = [f"policy: {graph.policy.value}"]
    for edge in graph.edges:
        via = (
            f" (via {edge.provider})"
            if edge.effective_root != edge.provider
            else ""
        )
        lines.append(
            f"  {edge.order:2d}. {edge.consumer} <- {edge.effective_root}{via}"
            f"  slowdown {edge.slowdown * 100:.1f}%"
        )
    for event in graph.feedback_events:
        lines.append(
            f"  feedback: {event.consumer} <-x- {event.provider} (cycle blocked)"
        )
    if graph.stalled:
        lines.append("  [stalled: no eligible assignments remain]")
    lines.append(f"surviving architectures: {', '.join(graph.roots)}")
    for root, members in graph.groups.items():
        lines.append(f"  {root}: {', '.join(members)}")
    return "\n".join(lines)


#: Shade ramp for ASCII heatmaps, light to dark.
_SHADES = " .:-=+*#%@"


def render_heatmap(
    names: Sequence[str],
    matrix: np.ndarray,
    title: str | None = None,
    invert: bool = False,
) -> str:
    """ASCII heatmap of a square matrix (xp-scalar's visualization tool).

    The paper's framework ships "a tool for visualizing the performance
    of the benchmarks on each other's customized configurations, which
    eases the identification of discrepancies".  Darker glyphs mean
    larger values; pass ``invert=True`` when small values deserve the ink
    (e.g. slowdown matrices where the interesting entries are the cheap
    surrogates).
    """
    matrix = np.asarray(matrix, dtype=float)
    n = len(names)
    if matrix.shape != (n, n):
        raise ValueError(f"matrix shape {matrix.shape} does not match {n} names")
    lo, hi = float(matrix.min()), float(matrix.max())
    span = hi - lo if hi > lo else 1.0
    lines = []
    if title:
        lines.append(title)
    width = max(len(n_) for n_ in names)
    header = " " * (width + 2) + " ".join(f"{n_[:3]:>3s}" for n_ in names)
    lines.append(header)
    for i, name in enumerate(names):
        cells = []
        for j in range(n):
            level = (matrix[i, j] - lo) / span
            if invert:
                level = 1.0 - level
            glyph = _SHADES[min(len(_SHADES) - 1, int(level * (len(_SHADES) - 1) + 0.5))]
            cells.append(f"  {glyph} ")
        lines.append(f"{name:<{width}s}  " + "".join(c[1:] for c in cells))
    lines.append(
        f"scale: '{_SHADES[0]}' = {lo:.2f} ... '{_SHADES[-1]}' = {hi:.2f}"
        + (" (inverted)" if invert else "")
    )
    return "\n".join(lines)


def render_kv(pairs: Mapping[str, object], title: str | None = None) -> str:
    """Aligned key/value listing (Table 2 style)."""
    width = max(len(k) for k in pairs)
    lines = [title] if title else []
    lines.extend(f"{k.ljust(width)}  {_fmt(v)}" for k, v in pairs.items())
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
