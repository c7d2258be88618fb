"""xp-scalar explorer: customization quality and cross-seeding."""

import pytest

from repro.errors import ExplorationError
from repro.explore import AnnealingSchedule, XpScalar, ipt_objective
from repro.uarch import initial_configuration, validate_config
from repro.workloads import spec2000_profile


@pytest.fixture(scope="module")
def xp():
    return XpScalar(schedule=AnnealingSchedule(iterations=500))


class TestCustomize:
    def test_improves_on_initial(self, xp, tech):
        p = spec2000_profile("gzip")
        initial_score = xp.score(p, initial_configuration(tech))
        result = xp.customize(p, seed=1)
        assert result.score > initial_score

    def test_result_config_valid(self, xp):
        result = xp.customize(spec2000_profile("gcc"), seed=2)
        validate_config(result.config, xp.tech, xp.model)

    def test_deterministic(self, xp):
        p = spec2000_profile("gap")
        a = xp.customize(p, seed=3)
        b = xp.customize(p, seed=3)
        assert a.config == b.config
        assert a.score == b.score

    def test_score_matches_result(self, xp):
        result = xp.customize(spec2000_profile("perl"), seed=4)
        assert result.score == pytest.approx(result.result.ipt)

    def test_custom_initial_point(self, xp, tech):
        start = initial_configuration(tech).replace(width=5)
        result = xp.customize(spec2000_profile("vortex"), seed=5, initial=start)
        assert result.score > 0

    def test_objective_hook(self):
        """A custom objective (here: IPC instead of IPT) changes the
        optimum — the paper's §3 extension point."""
        ipc_xp = XpScalar(
            schedule=AnnealingSchedule(iterations=400),
            objective=lambda r: r.ipc,
        )
        p = spec2000_profile("gzip")
        result = ipc_xp.customize(p, seed=6)
        # Maximizing IPC (ignoring clock) favours slow clocks.
        ipt_result = XpScalar(schedule=AnnealingSchedule(iterations=400)).customize(
            p, seed=6
        )
        assert result.config.clock_period_ns >= ipt_result.config.clock_period_ns

    def test_no_duplicate_final_evaluation(self):
        """The winning configuration's SimResult is carried out of the
        annealing loop, not re-simulated afterwards."""
        xp = XpScalar(schedule=AnnealingSchedule(iterations=300))
        result = xp.customize(spec2000_profile("vpr"), seed=4)
        sims = xp.engine.metrics.evaluations
        hits = xp.engine.metrics.cache_hits
        assert result.annealing is not None
        # Every annealing evaluation is accounted for; no extra
        # simulation happened for the returned result.
        assert sims + hits == result.annealing.evaluations
        assert xp.objective(result.result) == result.score

    def test_ipt_objective_function(self, xp):
        p = spec2000_profile("gcc")
        r = xp.evaluate(p, initial_configuration(xp.tech))
        assert ipt_objective(r) == pytest.approx(r.ipt)


class TestCustomizeAll:
    def test_rejects_empty(self, xp):
        with pytest.raises(ExplorationError):
            xp.customize_all([])

    def test_rejects_duplicates(self, xp):
        p = spec2000_profile("gcc")
        with pytest.raises(ExplorationError):
            xp.customize_all([p, p])

    def test_cross_seeding_consistency(self, xp):
        """After customize_all, no workload prefers another workload's
        configuration (the paper's adoption rule, run to a fixed point)."""
        profiles = [spec2000_profile(n) for n in ("gzip", "mcf", "crafty")]
        results = xp.customize_all(profiles, seed=0, cross_seed_rounds=1)
        for p in profiles:
            own = results[p.name].score
            for other in profiles:
                if other.name == p.name:
                    continue
                assert xp.score(p, results[other.name].config) <= own * (1 + 1e-9)

    def test_all_results_present_and_valid(self, xp):
        profiles = [spec2000_profile(n) for n in ("gap", "twolf")]
        results = xp.customize_all(profiles, seed=1, cross_seed_rounds=1)
        assert set(results) == {"gap", "twolf"}
        for r in results.values():
            validate_config(r.config, xp.tech, xp.model)
