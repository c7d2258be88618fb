"""Constrained multi-objective design subsystem.

Covers the envelope algebra, the Pareto machinery (with an independent
O(n²) dominance check over the *full* evaluated point set, not just the
emitted front), the constrained heterogeneous search (bit-identical
delegation to the paper's complete search when unconstrained, and a
committed scenario where a mixed combination strictly beats the best
homogeneous one under a power envelope), and the objective plumbing.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.characterize.cross import CrossPerformance
from repro.cli import main
from repro.communal import best_combination
from repro.design import (
    ConstraintSet,
    CoreCandidate,
    DesignError,
    DesignMatrix,
    DesignPoint,
    ParetoExplorer,
    best_homogeneous,
    build_design_matrix,
    dominates,
    hetero_search,
    make_objective,
    pareto_filter,
    sample_design_space,
)
from repro.engine import EvaluationEngine
from repro.errors import CommunalError
from repro.explore.xpscalar import XpScalar, apply_objective, objective_identity
from repro.tech import default_technology
from repro.uarch.config import initial_configuration
from repro.workloads import spec2000_profile, spec2000_profiles


# ----------------------------------------------------------------------
# constraint sets
# ----------------------------------------------------------------------


class TestConstraintSet:
    def test_rejects_non_positive_budgets(self):
        with pytest.raises(DesignError):
            ConstraintSet(peak_power_w=0.0)
        with pytest.raises(DesignError):
            ConstraintSet(area_mm2=-1.0)
        with pytest.raises(DesignError):
            ConstraintSet(epi_budget_nj=-0.5)

    def test_unconstrained(self):
        assert ConstraintSet().unconstrained
        assert not ConstraintSet(peak_power_w=5.0).unconstrained

    def test_overruns_only_active_budgets(self):
        cs = ConstraintSet(peak_power_w=10.0)
        measures = {"power_w": 15.0, "area_mm2": 999.0, "epi_nj": 999.0}
        assert cs.overruns(measures) == {"power_w": 0.5}
        assert not cs.satisfied(measures)
        assert cs.discount(measures) == 1.5

    def test_satisfied_inside_every_budget(self):
        cs = ConstraintSet(peak_power_w=10.0, area_mm2=20.0, epi_budget_nj=3.0)
        measures = {"power_w": 10.0, "area_mm2": 19.0, "epi_nj": 2.0}
        assert cs.satisfied(measures)
        assert cs.discount(measures) == 1.0

    def test_discount_multiplies_across_envelopes(self):
        cs = ConstraintSet(peak_power_w=10.0, area_mm2=10.0)
        measures = {"power_w": 20.0, "area_mm2": 30.0, "epi_nj": 1.0}
        assert cs.discount(measures) == pytest.approx(2.0 * 3.0)

    def test_measure_matches_tech_models(self, tech):
        from repro.tech.area import core_area_mm2
        from repro.tech.power import (
            energy_per_instruction_nj,
            estimate_power,
        )

        engine = EvaluationEngine(context=tech)
        configs = [initial_configuration(tech)] + sample_design_space(12, seed=3, tech=tech)
        for profile in spec2000_profiles():
            results = engine.evaluate_many([(profile, c) for c in configs])
            for config, result in zip(configs, results):
                measures = ConstraintSet().measure(tech, profile, config, result)
                power = estimate_power(tech, profile, config, result)
                # Bit for bit: the three public calls, and EPI's formula.
                assert measures == {
                    "power_w": power.total_w,
                    "area_mm2": core_area_mm2(tech, config),
                    "epi_nj": energy_per_instruction_nj(tech, profile, config, result),
                }
                assert measures["epi_nj"] == power.total_w / max(result.ipt, 1e-12)

    def test_measure_takes_a_precomputed_area(self, tech):
        from repro.tech.area import core_area_mm2

        profile = spec2000_profile("mcf")
        config = initial_configuration(tech).replace(core_type="inorder")
        result = EvaluationEngine(context=tech).evaluate(profile, config)
        area = core_area_mm2(tech, config)
        assert ConstraintSet().measure(
            tech, profile, config, result, area_mm2=area
        ) == ConstraintSet().measure(tech, profile, config, result)


# ----------------------------------------------------------------------
# pareto machinery
# ----------------------------------------------------------------------


def _point(ipt, power, area, config=None, tech=None):
    config = config or initial_configuration(tech or default_technology())
    return DesignPoint(
        config=config, ipt=ipt, power_w=power, area_mm2=area, epi_nj=1.0
    )


def brute_force_front(points):
    """Independent O(n²) non-dominated filter (first metric-dup kept)."""
    seen, distinct = set(), []
    for p in points:
        if p.metrics not in seen:
            seen.add(p.metrics)
            distinct.append(p)
    return {
        p.metrics
        for p in distinct
        if not any(dominates(q, p) for q in distinct)
    }


class TestParetoFilter:
    def test_dominance_definition(self):
        a = _point(2.0, 1.0, 1.0)
        assert dominates(a, _point(1.0, 1.0, 1.0))
        assert dominates(a, _point(2.0, 2.0, 1.0))
        assert not dominates(a, a)  # equal: no strict edge
        assert not dominates(a, _point(3.0, 0.5, 0.5))
        # Incomparable: better IPT but worse power.
        assert not dominates(a, _point(1.0, 0.5, 1.0))
        assert not dominates(_point(1.0, 0.5, 1.0), a)

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pts = [
                _point(*rng.uniform(1.0, 4.0, size=3).tolist())
                for _ in range(rng.integers(1, 40))
            ]
            front = pareto_filter(pts)
            assert {p.metrics for p in front} == brute_force_front(pts)
            # The front itself is mutually non-dominated.
            assert not any(
                dominates(a, b) for a in front for b in front if a is not b
            )

    def test_collapses_duplicate_metrics(self):
        a, b = _point(1.0, 1.0, 1.0), _point(1.0, 1.0, 1.0)
        assert pareto_filter([a, b]) == [a]

    def test_sorted_by_descending_ipt(self):
        pts = [_point(1.0, 1.0, 3.0), _point(3.0, 3.0, 1.0), _point(2.0, 2.0, 2.0)]
        front = pareto_filter(pts)
        assert [p.ipt for p in front] == sorted(
            (p.ipt for p in front), reverse=True
        )


class TestSampleDesignSpace:
    def test_deterministic_and_typed(self, tech):
        a = sample_design_space(6, seed=3, tech=tech)
        b = sample_design_space(6, seed=3, tech=tech)
        assert a == b
        assert {c.core_type for c in a} == {"ooo", "inorder"}
        assert len(a) == 12  # each structural point in both core types
        # Same structural designs across types: stripping the type
        # collapses the list to half its size.
        assert len({c.replace(core_type="ooo") for c in a}) == 6

    def test_seed_changes_walk(self, tech):
        assert sample_design_space(6, seed=3, tech=tech) != sample_design_space(
            6, seed=4, tech=tech
        )

    def test_validation(self, tech):
        with pytest.raises(DesignError):
            sample_design_space(0, seed=1, tech=tech)
        with pytest.raises(DesignError):
            sample_design_space(2, seed=1, tech=tech, core_types=("vliw",))

    def test_untenable_cache_moves_are_skipped(self):
        """Regression: a move proposing an L2 smaller than L1 raises
        ConfigurationError, which the walk must skip like a TimingError
        (seed 1 hits one within 128 samples)."""
        fronts = ParetoExplorer().fronts([spec2000_profile("gzip")], samples=128, seed=1)
        assert fronts["gzip"]


class TestParetoExplorer:
    def test_front_is_pareto_optimal_by_independent_check(self, tech):
        """The emitted front == brute force over ALL evaluated points."""
        explorer = ParetoExplorer(tech=tech)
        profile = spec2000_profile("gzip")
        configs = sample_design_space(12, seed=5, tech=tech)
        front = explorer.front(profile, configs=configs)
        results = explorer.engine.evaluate_many(
            [(profile, c) for c in configs]
        )
        everything = []
        for config, result in zip(configs, results):
            m = ConstraintSet().measure(tech, profile, config, result)
            everything.append(
                DesignPoint(
                    config=config,
                    ipt=result.ipt,
                    power_w=m["power_w"],
                    area_mm2=m["area_mm2"],
                    epi_nj=m["epi_nj"],
                )
            )
        assert front.explored == len(configs)
        assert front.feasible == len(configs)  # unconstrained
        assert {p.metrics for p in front.points} == brute_force_front(
            everything
        )

    def test_constraints_restrict_the_feasible_region(self, tech):
        profile = spec2000_profile("gzip")
        configs = sample_design_space(8, seed=5, tech=tech)
        unbounded = ParetoExplorer(tech=tech).front(profile, configs=configs)
        cap = sorted(p.power_w for p in unbounded.points)[0] * 1.01
        bounded = ParetoExplorer(
            tech=tech, constraints=ConstraintSet(peak_power_w=cap)
        ).front(profile, configs=configs)
        assert bounded.feasible < bounded.explored
        assert all(p.power_w <= cap for p in bounded.points)
        assert bounded.points  # something always fits a front-point cap

    def test_front_includes_both_core_types_in_tradeoff(self, tech):
        """In-order twins are cheaper: some survive on the front."""
        profile = spec2000_profile("gzip")
        front = ParetoExplorer(tech=tech).front(profile, samples=16, seed=0)
        types = {p.config.core_type for p in front.points}
        assert types == {"ooo", "inorder"}

    def test_fronts_share_samples_across_workloads(self, tech):
        explorer = ParetoExplorer(tech=tech)
        fronts = explorer.fronts(
            [spec2000_profile("gzip"), spec2000_profile("mcf")],
            samples=6,
            seed=1,
        )
        assert set(fronts) == {"gzip", "mcf"}
        assert all(f.points for f in fronts.values())

    def test_jsonable_roundtrips_through_json(self, tech):
        front = ParetoExplorer(tech=tech).front(
            spec2000_profile("twolf"), samples=4, seed=2
        )
        payload = json.loads(json.dumps(front.as_jsonable()))
        assert payload["workload"] == "twolf"
        assert len(payload["front"]) == len(front.points)
        assert all("core_type" in p["config"] for p in payload["front"])


# ----------------------------------------------------------------------
# heterogeneous search
# ----------------------------------------------------------------------


def make_matrix(names, candidates, ipt, weights=None):
    config = initial_configuration(default_technology())
    return DesignMatrix(
        names=tuple(names),
        weights=tuple(weights or [1.0] * len(names)),
        candidates=tuple(
            CoreCandidate(
                name=name,
                config=config.replace(core_type=core_type),
                area_mm2=area,
                peak_power_w=power,
            )
            for name, core_type, area, power in candidates
        ),
        ipt=np.asarray(ipt, dtype=float),
    )


# The committed dark-silicon scenario: a big OoO core, its in-order
# little twin, and a memory-tilted core.  Under a 15.5 W envelope two
# bigs don't fit, so the best homogeneous design is memcore x2 — and the
# heterogeneous big+memcore mix strictly beats it.
SCENARIO = dict(
    names=("cpu", "mem"),
    candidates=(
        ("big", "ooo", 20.0, 10.0),
        ("little", "inorder", 5.0, 2.0),
        ("memcore", "ooo", 10.0, 5.0),
    ),
    ipt=[[4.0, 1.5, 1.2], [1.0, 0.9, 3.0]],
)


class TestDesignMatrix:
    def test_duck_types_cross_performance_protocol(self):
        m = make_matrix(**SCENARIO)
        assert m.index("little") == 1
        assert m.ipt_on("cpu", "big") == 4.0
        assert m.best_config_for("mem", ["big", "memcore"]) == "memcore"
        with pytest.raises(CommunalError):
            m.index("huge")
        with pytest.raises(CommunalError):
            m.ipt_on("gcc", "big")

    def test_validation(self):
        with pytest.raises(CommunalError):
            make_matrix(("a",), SCENARIO["candidates"], [[1.0, 2.0]])
        with pytest.raises(CommunalError):
            make_matrix(
                ("a", "b"),
                (("x", "ooo", 1.0, 1.0), ("x", "ooo", 1.0, 1.0)),
                [[1.0, 2.0], [1.0, 2.0]],
            )

    def test_build_design_matrix_adds_inorder_twins(self, tech):
        engine = EvaluationEngine(context=tech)
        profiles = [spec2000_profile("gzip"), spec2000_profile("mcf")]
        base = initial_configuration(tech)
        matrix = build_design_matrix(
            engine,
            profiles,
            {"gzip": base, "mcf": base.replace(width=2)},
            tech=tech,
        )
        assert matrix.candidate_names == (
            "gzip", "gzip@io", "mcf", "mcf@io",
        )
        assert matrix.candidate("gzip@io").core_type == "inorder"
        assert matrix.candidate("gzip").core_type == "ooo"
        # The in-order twin is smaller, cooler and slower than its base.
        big, little = matrix.candidate("gzip"), matrix.candidate("gzip@io")
        assert little.area_mm2 < big.area_mm2
        assert little.peak_power_w < big.peak_power_w
        assert matrix.ipt_on("gzip", "gzip@io") < matrix.ipt_on("gzip", "gzip")
        # Matrix cells are the engine's own evaluations, bit-identically.
        result = engine.evaluate(profiles[0], base)
        assert matrix.ipt_on("gzip", "gzip") == result.ipt

    def test_peak_power_is_worst_case_over_workloads(self, tech):
        from repro.tech.power import estimate_power

        engine = EvaluationEngine(context=tech)
        profiles = [spec2000_profile("gzip"), spec2000_profile("mcf")]
        base = initial_configuration(tech)
        matrix = build_design_matrix(
            engine, profiles, {"gzip": base}, tech=tech, include_inorder=False
        )
        powers = [
            estimate_power(tech, p, base, engine.evaluate(p, base)).total_w
            for p in profiles
        ]
        assert matrix.candidate("gzip").peak_power_w == max(powers)

    def test_candidates_priced_by_the_public_models(self, tech):
        from repro.tech.area import core_area_mm2
        from repro.tech.power import estimate_power

        engine = EvaluationEngine(context=tech)
        profiles = spec2000_profiles()
        base = initial_configuration(tech)
        configs = {"gzip": base, "mcf": base.replace(width=2), "art": base.replace(rob_size=64)}
        matrix = build_design_matrix(engine, profiles, configs, tech=tech)
        for candidate in matrix.candidates:
            config = candidate.config
            assert candidate.area_mm2 == core_area_mm2(tech, config)
            assert candidate.peak_power_w == max(
                estimate_power(tech, p, config, engine.evaluate(p, config)).total_w
                for p in profiles
            )


class TestHeteroSearch:
    def test_unconstrained_is_bit_identical_to_best_combination(self):
        """No envelope -> exactly the paper's complete search."""
        names = ("a", "b", "c")
        ipt = [[3.0, 2.0, 1.0], [1.0, 2.0, 1.5], [0.5, 0.4, 0.9]]
        config = initial_configuration(default_technology())
        cross = CrossPerformance(
            names=names,
            ipt=np.asarray(ipt, dtype=float),
            configs=(config,) * 3,
            weights=(1.0,) * 3,
        )
        matrix = make_matrix(
            names, tuple((n, "ooo", 10.0, 5.0) for n in names), ipt
        )
        for k in (1, 2, 3):
            for merit in ("avg", "har", "cw-har"):
                want = best_combination(cross, k, merit)
                got = hetero_search(matrix, k, merit=merit)
                assert got.combination == want
                assert got.merit == want.merit

    def test_constrained_matches_brute_force(self):
        from itertools import combinations_with_replacement

        from repro.communal.merit import MERITS

        m = make_matrix(**SCENARIO)
        cs = ConstraintSet(peak_power_w=15.5)
        result = hetero_search(m, 2, cs)
        fn = MERITS["cw-har"]
        feasible = [
            c
            for c in combinations_with_replacement(m.candidate_names, 2)
            if sum(m.candidate(n).peak_power_w for n in c) <= 15.5
        ]
        assert feasible
        best = max(fn(m, c) for c in feasible)
        assert result.merit == best
        assert ("big", "big") not in feasible  # the budget binds

    def test_hetero_beats_homogeneous_under_power_envelope(self):
        """The committed scenario of the acceptance criteria."""
        m = make_matrix(**SCENARIO)
        cs = ConstraintSet(peak_power_w=15.5)
        hetero = hetero_search(m, 2, cs)
        homogeneous = best_homogeneous(m, 2, cs)
        assert hetero.counts == (("big", 1), ("memcore", 1))
        assert dict(hetero.core_types) == {"big": "ooo", "memcore": "ooo"}
        assert homogeneous.counts == (("memcore", 2),)
        assert hetero.merit > homogeneous.merit
        assert hetero.total_peak_power_w <= 15.5

    def test_replication_allowed_under_constraints(self):
        m = make_matrix(**SCENARIO)
        # Only little cores fit two-at-a-time under 5 W.
        result = hetero_search(m, 2, ConstraintSet(peak_power_w=5.0))
        assert result.counts == (("little", 2),)
        assert result.total_peak_power_w == 4.0

    def test_area_budget_binds_too(self):
        m = make_matrix(**SCENARIO)
        result = hetero_search(m, 2, ConstraintSet(area_mm2=16.0))
        assert all(
            name != "big" for name, _ in result.counts
        )  # big alone is 20 mm2
        assert result.total_area_mm2 <= 16.0

    def test_infeasible_raises(self):
        m = make_matrix(**SCENARIO)
        with pytest.raises(DesignError):
            hetero_search(m, 2, ConstraintSet(peak_power_w=3.0))
        with pytest.raises(DesignError):
            best_homogeneous(m, 2, ConstraintSet(peak_power_w=3.0))

    def test_beam_matches_exact_for_small_n(self):
        m = make_matrix(**SCENARIO)
        cs = ConstraintSet(peak_power_w=15.5)
        for k in (1, 2, 3):
            exact = hetero_search(m, k, cs, mode="exact")
            beam = hetero_search(m, k, cs, mode="beam", beam_width=64)
            assert beam.combination == exact.combination

    def test_mode_validation(self):
        m = make_matrix(**SCENARIO)
        cs = ConstraintSet(peak_power_w=15.5)
        with pytest.raises(CommunalError):
            hetero_search(m, 2, cs, mode="genetic")
        with pytest.raises(CommunalError):
            hetero_search(m, 2, cs, beam_width=0)
        with pytest.raises(CommunalError):
            hetero_search(m, 0, cs)
        with pytest.raises(CommunalError):
            hetero_search(m, 2, cs, merit="best")

    def test_homogeneous_is_within_the_hetero_search_space(self):
        """Multisets include k-of-one: hetero merit >= homogeneous merit."""
        m = make_matrix(**SCENARIO)
        for cap in (5.0, 15.5, 25.0):
            cs = ConstraintSet(peak_power_w=cap)
            assert (
                hetero_search(m, 2, cs).merit
                >= best_homogeneous(m, 2, cs).merit
            )

    def test_result_jsonable(self):
        m = make_matrix(**SCENARIO)
        payload = json.loads(
            json.dumps(
                hetero_search(
                    m, 2, ConstraintSet(peak_power_w=15.5)
                ).as_jsonable()
            )
        )
        assert payload["cores"] == [
            {"name": "big", "count": 1, "core_type": "ooo"},
            {"name": "memcore", "count": 1, "core_type": "ooo"},
        ]
        assert payload["constraints"]["peak_power_w"] == 15.5


# ----------------------------------------------------------------------
# objective plumbing
# ----------------------------------------------------------------------


class TestObjectives:
    def test_make_objective_vocabulary(self, tech):
        assert make_objective("ipt", tech) is None
        for name in ("edp", "ed2"):
            objective = make_objective(name, tech)
            assert getattr(objective, "needs_context", False)
        with pytest.raises(DesignError):
            make_objective("speed", tech)
        with pytest.raises(DesignError):
            make_objective("epi", tech)  # needs an EPI budget
        with pytest.raises(DesignError):
            make_objective("envelope", tech)  # needs >= 1 active budget
        assert (
            make_objective(
                "epi", tech, ConstraintSet(epi_budget_nj=2.0)
            ).identity
            == "epi:2.0"
        )

    def test_identity_feeds_run_signatures(self, tech):
        objective = make_objective("edp", tech)
        assert objective_identity(objective) == "edp"
        plain = XpScalar(tech=tech)
        edp = XpScalar(tech=tech, objective=objective)
        assert plain.run_signature(
            ["gzip"], seed=0, cross_seed_rounds=2
        ) != edp.run_signature(["gzip"], seed=0, cross_seed_rounds=2)

    def test_objectives_pickle_for_worker_pools(self, tech):
        for objective in (
            make_objective("edp", tech),
            make_objective("ed2", tech),
            make_objective("epi", tech, ConstraintSet(epi_budget_nj=2.0)),
            make_objective(
                "envelope", tech, ConstraintSet(peak_power_w=8.0)
            ),
        ):
            clone = pickle.loads(pickle.dumps(objective))
            assert objective_identity(clone) == objective_identity(objective)

    def test_apply_objective_dispatches_on_needs_context(self, tech):
        profile = spec2000_profile("gzip")
        config = initial_configuration(tech)
        result = EvaluationEngine(context=tech).evaluate(profile, config)
        edp = make_objective("edp", tech)
        assert apply_objective(edp, profile, config, result) == edp(
            profile, config, result
        )
        assert apply_objective(lambda r: r.ipt, profile, config, result) == (
            result.ipt
        )

    def test_envelope_objective_discounts_overruns(self, tech):
        profile = spec2000_profile("gzip")
        config = initial_configuration(tech)
        result = EvaluationEngine(context=tech).evaluate(profile, config)
        loose = make_objective(
            "envelope", tech, ConstraintSet(peak_power_w=1000.0)
        )
        tight = make_objective(
            "envelope", tech, ConstraintSet(peak_power_w=0.5)
        )
        assert loose(profile, config, result) == result.ipt
        assert tight(profile, config, result) < result.ipt

    def test_customize_runs_under_edp_objective(self, tech):
        from repro.explore import AnnealingSchedule

        xp = XpScalar(
            tech=tech,
            schedule=AnnealingSchedule(iterations=40),
            objective=make_objective("edp", tech),
        )
        result = xp.customize(spec2000_profile("gzip"), seed=1)
        assert result.score > 0


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------


class TestDesignCli:
    def test_pareto_command_emits_dominance_checked_front(
        self, tmp_path, capsys
    ):
        out = tmp_path / "front.json"
        assert (
            main(
                [
                    "pareto", "gzip", "--samples", "8", "--seed", "3",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "non-dominated" in text
        payload = json.loads(out.read_text())
        front = payload["gzip"]["front"]
        assert front
        # Independent O(n²) check on the emitted artifact.
        axes = [(p["ipt"], p["power_w"], p["area_mm2"]) for p in front]
        for i, a in enumerate(axes):
            for j, b in enumerate(axes):
                if i == j:
                    continue
                assert not (
                    a[0] >= b[0]
                    and a[1] <= b[1]
                    and a[2] <= b[2]
                    and a != b
                ), f"front point {j} is dominated by {i}"

    def test_pareto_respects_budgets(self, tmp_path, capsys):
        out = tmp_path / "front.json"
        assert (
            main(
                [
                    "pareto", "gzip", "--samples", "8", "--seed", "3",
                    "--power-budget", "2.5", "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["gzip"]["feasible"] < payload["gzip"]["explored"]
        assert payload["gzip"]["front"]  # in-order points fit the cap
        assert all(
            p["power_w"] <= 2.5 for p in payload["gzip"]["front"]
        )

    def test_hetero_command_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "hetero.json"
        assert (
            main(
                [
                    "hetero", "gzip", "mcf", "--iterations", "60",
                    "--cores", "2", "--power-budget", "14",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "heterogeneous 2-core search" in text
        payload = json.loads(out.read_text())
        assert payload["hetero"]["total_peak_power_w"] <= 14.0
        assert sum(c["count"] for c in payload["hetero"]["cores"]) == 2

    def test_customize_objective_flag(self, capsys):
        assert (
            main(
                [
                    "customize", "gzip", "--iterations", "40", "--seed", "1",
                    "--objective", "edp",
                ]
            )
            == 0
        )
        assert "gzip" in capsys.readouterr().out

    def test_objective_epi_requires_budget(self, capsys):
        assert (
            main(
                [
                    "customize", "gzip", "--iterations", "10",
                    "--objective", "epi",
                ]
            )
            != 0
        )
