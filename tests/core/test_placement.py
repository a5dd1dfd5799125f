"""NF state placement tests (Section 4.3 / Figures 12, 15)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import (
    PlacementAdvisor,
    PlacementError,
    PlacementProblem,
    expert_search,
    solve_baseline,
    solve_ilp,
)
from repro.nic.targets import get_target

NFP_HIERARCHY = get_target("nfp-4000").hierarchy()


def problem(names, sizes, freqs):
    return PlacementProblem(list(names), list(sizes), list(freqs),
                            NFP_HIERARCHY)


class TestIlp:
    def test_hot_small_structure_gets_fast_region(self):
        p = problem(["hot", "cold_big"], [1024, 500 * 1024 * 1024], [10.0, 0.1])
        sol = solve_ilp(p)
        assert sol.assignment["hot"] == "cls"
        assert sol.assignment["cold_big"] == "emem"

    def test_capacity_constraints_respected(self):
        # Two structures that each fit CLS but not together.
        p = problem(["a", "b"], [40 * 1024, 40 * 1024], [5.0, 4.0])
        sol = solve_ilp(p)
        regions = sorted(sol.assignment.values())
        assert regions != ["cls", "cls"]
        # The hotter one gets the faster region.
        assert sol.assignment["a"] == "cls"

    def test_oversized_structure_infeasible_in_ilp(self):
        p = problem(["huge"], [4 * 1024 * 1024 * 1024], [1.0])
        with pytest.raises(PlacementError):
            solve_ilp(p)

    def test_empty_problem(self):
        sol = solve_ilp(problem([], [], []))
        assert sol.assignment == {}
        assert sol.expected_cost == 0.0

    def test_zero_frequency_structures_yield_no_cost(self):
        p = problem(["idle"], [64], [0.0])
        sol = solve_ilp(p)
        assert sol.expected_cost == 0.0

    @given(
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_ilp_assignment_is_complete_and_feasible(self, k, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        sizes = (rng.integers(1, 64, size=k) * 1024).tolist()
        freqs = rng.uniform(0.0, 4.0, size=k).tolist()
        p = problem([f"s{i}" for i in range(k)], sizes, freqs)
        sol = solve_ilp(p)
        assert set(sol.assignment) == set(p.names)
        used = {}
        for name, region in sol.assignment.items():
            used[region] = used.get(region, 0) + p.sizes[p.names.index(name)]
        for region in p.regions:
            assert used.get(region.name, 0) <= region.capacity_bytes


class TestBaselineAndGreedy:
    def test_baseline_all_emem(self):
        p = problem(["a", "b"], [64, 64], [1.0, 2.0])
        sol = solve_baseline(p)
        assert set(sol.assignment.values()) == {"emem"}

    def test_ilp_beats_baseline(self):
        p = problem(["a", "b"], [64, 64], [1.0, 2.0])
        assert solve_ilp(p).expected_cost < solve_baseline(p).expected_cost


class TestExpertSearch:
    def test_expert_at_least_as_good_on_ilp_objective(self):
        p = problem(["a", "b", "c"], [4096, 8192, 1024], [3.0, 1.0, 5.0])
        ilp = solve_ilp(p)
        latency = {r.name: r.latency_cycles for r in p.regions}

        def objective(assignment):
            return sum(
                latency[assignment[n]] * p.frequencies[i]
                for i, n in enumerate(p.names)
            )

        best_assignment, best_cost = expert_search(p, objective)
        assert best_cost <= ilp.expected_cost + 1e-9

    def test_expert_can_beat_ilp_on_bandwidth_objective(self):
        """The Section 5.8 finding: spreading hot state across two
        regions can beat the ILP's latency-only optimum once the
        objective includes bandwidth contention."""
        p = problem(["t1", "t2"], [512 * 1024, 512 * 1024], [6.0, 6.0])
        latency = {r.name: r.latency_cycles for r in p.regions}
        bandwidth = {"cls": 2.0, "ctm": 1.2, "imem": 0.4, "emem": 0.12}

        def contention_objective(assignment):
            total = 0.0
            load = {}
            for i, name in enumerate(p.names):
                load[assignment[name]] = (
                    load.get(assignment[name], 0.0) + p.frequencies[i]
                )
            for i, name in enumerate(p.names):
                region = assignment[name]
                rho = min(load[region] / (bandwidth[region] * 10.0), 0.9)
                total += p.frequencies[i] * latency[region] / (1.0 - rho)
            return total

        ilp = solve_ilp(p)
        expert_assignment, expert_cost = expert_search(p, contention_objective)
        ilp_cost = contention_objective(ilp.assignment)
        assert expert_cost <= ilp_cost
        # The expert spreads; the ILP piles into the fastest feasible.
        assert len(set(expert_assignment.values())) >= len(
            set(ilp.assignment.values())
        )

    def test_expert_rejects_oversized_problems(self):
        p = problem(
            [f"s{i}" for i in range(10)], [64] * 10, [1.0] * 10
        )
        with pytest.raises(PlacementError, match="too large"):
            expert_search(p, lambda a: 0.0)


class TestAdvisor:
    def test_advisor_from_profile(self):
        from repro.click.elements import build_element
        from repro.click.frontend import lower_element
        from repro.click.interp import Interpreter
        from repro.workload import generate_trace
        from repro.workload.spec import WorkloadSpec

        # A production-sized flow table (multi-MB) alongside hot
        # per-packet counters: the paper's UDPCount scenario.
        module = lower_element(build_element("udpcount", flow_entries=262_144))
        interp = Interpreter(module)
        spec = WorkloadSpec(name="t", n_flows=100, n_packets=200,
                            udp_fraction=1.0)
        profile = interp.run_trace(generate_trace(spec, seed=0))
        advisor = PlacementAdvisor(NFP_HIERARCHY)
        solution = advisor.advise(module, profile)
        assert set(solution.assignment) == set(module.globals)
        # The hot per-packet counter must not land in EMEM.
        assert solution.assignment["counter"] != "emem"
        # The multi-MB flow table only fits in EMEM.
        assert solution.assignment["flow_table"] == "emem"

    def test_advisor_handles_stateless_nf(self, lowered_library):
        from repro.click.interp import ExecutionProfile

        advisor = PlacementAdvisor(NFP_HIERARCHY)
        solution = advisor.advise(
            lowered_library["anonipaddr"], ExecutionProfile()
        )
        assert solution.assignment == {}

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            problem(["a"], [0], [1.0])
        with pytest.raises(ValueError):
            problem(["a"], [4], [-1.0])
        with pytest.raises(ValueError):
            problem(["a", "b"], [4], [1.0, 1.0])
