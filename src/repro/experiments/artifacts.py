"""One renderer per paper artifact that a CLI command also prints.

``render(name, pipe)`` returns the whole text of the committed
``results/<name>.txt``, trailing newline included.  The benchmarks save
it, ``repro report``/``repro pipeline`` write it and ``repro table``/
``repro figure`` print it, so the three cannot disagree.  Cheap inputs
are recomputed from the pipeline run; Figure 1's costly searches can be
passed in by a caller that already ran them.

Not imported by :mod:`repro.experiments`: the CLI and the benchmarks
import it directly, so importing the library does not pay for it.
"""

from __future__ import annotations

from ..communal.combination import best_combination
from ..communal.merit import ideal_average_ipt, ideal_harmonic_ipt
from ..communal.surrogate import surrogate_merits
from ..tech import default_technology
from ..uarch.config import initial_configuration
from .figures import figure1, figure1_slowdowns, figure2_scenarios, figure4, figure6, figure7, figure8
from .pipeline import PipelineResult
from .reporting import render_heatmap, render_kv, render_matrix, render_surrogate_graph, render_table
from .tables import (
    appendix_a_matrix,
    table1_unit_delays,
    table2_fixed_parameters,
    table4_rows,
    table5_matrix,
    table6_rows,
    table7_summary,
)


def render_table1_cacti() -> str:
    tech = default_technology()
    delays = table1_unit_delays(initial_configuration(tech), tech)
    return render_kv(
        {k: f"{v:.3f} ns" for k, v in delays.items()},
        title="Table 1: unit delays for the Table 3 configuration",
    ) + "\n"


def render_figure1_kiviat(slowdowns: tuple[float, float] | None = None) -> str:
    """``slowdowns`` is :func:`figure1_slowdowns`, computed when omitted."""
    slowdown_beta, slowdown_gamma = slowdowns or figure1_slowdowns()
    graphs, dist = figure1()
    names = [g.name for g in graphs]
    a, b, g = names.index("alpha"), names.index("beta"), names.index("gamma")
    rows = [[graph.name] + [f"{v:.1f}" for v in graph.values] for graph in graphs]
    text = render_table(
        ["workload", *graphs[0].axes], rows, title="Figure 1: Kiviat values (0-10)"
    )
    return text + (
        f"\n\nraw distance alpha-beta {dist[a, b]:.2f}, alpha-gamma {dist[a, g]:.2f}"
        f"\nslowdown on alpha's core: beta {slowdown_beta * 100:.1f}%, "
        f"gamma {slowdown_gamma * 100:.1f}%\n"
    )


def render_figure2_slack() -> str:
    rows = [
        [s.name, f"{s.clock_ns:.2f}", s.iq_size, f"{s.iq_delay_ns:.2f}", s.iq_cycles,
         f"{s.iq_slack_ns:.2f}", f"{s.l1_capacity_bytes // 1024}K", f"{s.l1_delay_ns:.2f}",
         s.l1_cycles, f"{s.l1_slack_ns:.2f}"]
        for s in figure2_scenarios()
    ]
    headers = ["scenario", "clock", "IQ", "IQ ns", "IQ cyc", "IQ slack",
               "L1", "L1 ns", "L1 cyc", "L1 slack"]
    return render_table(headers, rows, title="Figure 2: clock/sizing slack scenarios") + "\n"


def render_table4_customization(pipe: PipelineResult) -> str:
    headers, rows = table4_rows(pipe.characteristics)
    text = render_table(headers, rows, title="Table 4: customized configurations")
    text += "\n\nfixed parameters (Table 2):\n"
    for k, v in table2_fixed_parameters(pipe.explorer.tech).items():
        text += f"  {k}: {v}\n"
    return text + "\n"


def render_table5_cross_ipt(pipe: PipelineResult) -> str:
    return render_matrix(
        list(pipe.cross.names), table5_matrix(pipe.cross), title="Table 5: IPT of each "
        "benchmark (rows) on each customized configuration (columns)"
    ) + "\n"


def render_table6_combinations(pipe: PipelineResult) -> str:
    cross = pipe.cross
    rows = [
        [r.label, ", ".join(r.combination.configs), f"{r.combination.average:.2f}",
         f"{r.combination.harmonic:.2f}", f"{r.combination.contention_weighted:.2f}"]
        for r in table6_rows(cross)
    ]
    rows.append(
        ["each benchmark on its own customized architecture", "-",
         f"{ideal_average_ipt(cross):.2f}", f"{ideal_harmonic_ipt(cross):.2f}", "-"]
    )
    return render_table(
        ["scenario", "customized core(s)", "avg IPT", "har IPT", "cw-har IPT"],
        rows,
        title="Table 6: best core combinations",
    ) + "\n"


def render_table7_summary(pipe: PipelineResult) -> str:
    s = table7_summary(pipe.cross)
    scenarios = [
        ("Ideal (every workload on its own customized arch)", s.ideal_harmonic),
        (f"Homogeneous: best single config ({s.homogeneous_config})",
         s.homogeneous_harmonic),
        (f"Heterogeneous via complete search ({', '.join(s.complete_search_configs)})",
         s.complete_search_harmonic),
        (f"Heterogeneous via greedy surrogates ({', '.join(s.surrogate_configs)})",
         s.surrogate_harmonic),
    ]
    rows = [[label, f"{value:.2f}", f"{s.slowdown_vs_ideal(value) * 100:.0f}%"]
            for label, value in scenarios]
    return render_table(
        ["scenario", "harmonic-mean IPT", "slowdown vs ideal"],
        rows,
        title="Table 7: dual-core CMP design approaches",
    ) + "\n"


def render_appendix_a_slowdowns(pipe: PipelineResult) -> str:
    cross = pipe.cross
    text = render_matrix(
        list(cross.names), appendix_a_matrix(cross), percent=True, fmt="{:5.1f}",
        title="Appendix A: slowdown of each benchmark (rows) on each "
        "customized configuration (columns)",
    )
    edges = figure7(cross, target_roots=2).edges
    marks = ", ".join(f"{e.consumer}<-{e.effective_root}" for e in edges)
    return text + f"\n\ngreedy (full propagation) picks: {marks}\n"


def render_figure4_limited_configs(pipe: PipelineResult) -> str:
    series = figure4(pipe.cross)
    rows = [[w] + [f"{s.ipt[w]:.2f}" for s in series] for w in pipe.cross.names]
    return render_table(
        ["benchmark"] + [s.label for s in series],
        rows,
        title="Figure 4: IPT on the best available core per config set",
    ) + "\n"


def render_figure6_surrogates_none(pipe: PipelineResult) -> str:
    graph = figure6(pipe.cross)
    merits = surrogate_merits(pipe.cross, graph)
    return render_surrogate_graph(graph) + (
        f"\nharmonic IPT {merits['harmonic_ipt']:.2f}, "
        f"average slowdown {merits['average_slowdown'] * 100:.1f}%\n"
    )


def render_figure7_surrogates_full(pipe: PipelineResult) -> str:
    graph = figure7(pipe.cross, target_roots=2)
    merits = surrogate_merits(pipe.cross, graph)
    exhaustive = best_combination(pipe.cross, 2, "har").harmonic
    return render_surrogate_graph(graph) + (
        f"\nharmonic IPT {merits['harmonic_ipt']:.2f} (complete search: {exhaustive:.2f})\n"
    )


def render_figure8_surrogates_forward(pipe: PipelineResult) -> str:
    graph = figure8(pipe.cross, target_roots=2)
    merits = surrogate_merits(pipe.cross, graph)
    return render_surrogate_graph(graph) + f"\nharmonic IPT {merits['harmonic_ipt']:.2f}\n"


#: Artifacts rendered without a pipeline run, by file stem.
STANDALONE = {
    "table1_cacti": render_table1_cacti,
    "figure1_kiviat": render_figure1_kiviat,
    "figure2_slack": render_figure2_slack,
}
#: Artifacts rendered from a pipeline run, by file stem.
FROM_PIPELINE = {
    "table4_customization": render_table4_customization,
    "table5_cross_ipt": render_table5_cross_ipt,
    "table6_combinations": render_table6_combinations,
    "table7_summary": render_table7_summary,
    "appendix_a_slowdowns": render_appendix_a_slowdowns,
    "figure4_limited_configs": render_figure4_limited_configs,
    "figure6_surrogates_none": render_figure6_surrogates_none,
    "figure7_surrogates_full": render_figure7_surrogates_full,
    "figure8_surrogates_forward": render_figure8_surrogates_forward,
}
#: The artifact each ``repro table`` / ``repro figure`` choice prints.
TABLES = {"1": "table1_cacti", "4": "table4_customization", "5": "table5_cross_ipt",
          "6": "table6_combinations", "7": "table7_summary", "a": "appendix_a_slowdowns"}
FIGURES = {"1": "figure1_kiviat", "2": "figure2_slack", "4": "figure4_limited_configs",
           "6": "figure6_surrogates_none", "7": "figure7_surrogates_full",
           "8": "figure8_surrogates_forward"}


def render(name: str, pipe: PipelineResult | None = None) -> str:
    """The text of artifact ``name``; pipeline artifacts need ``pipe``."""
    if name in STANDALONE:
        return STANDALONE[name]()
    return FROM_PIPELINE[name](pipe)


def render_report(pipe: PipelineResult) -> dict[str, str]:
    """Every artifact by file stem, plus the slowdown heatmap that only
    the report writes."""
    texts = {name: render(name, pipe) for name in (*STANDALONE, *FROM_PIPELINE)}
    texts["slowdown_heatmap"] = render_heatmap(
        list(pipe.cross.names), pipe.cross.slowdown_matrix(),
        title="cross-configuration slowdowns",
    ) + "\n"
    return texts
