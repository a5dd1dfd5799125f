"""ILP placement optimality: on small instances the ILP's solution
must exactly match brute-force enumeration of all assignments under
the same objective (frequency-weighted latency subject to capacities).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import PlacementProblem, solve_ilp
from repro.nic.targets import get_target

NFP_HIERARCHY = get_target("nfp-4000").hierarchy()


def _brute_force(problem: PlacementProblem):
    regions = problem.regions
    best_cost = float("inf")
    best = None
    for combo in itertools.product(regions, repeat=len(problem.names)):
        used = {}
        feasible = True
        for size, region in zip(problem.sizes, combo):
            used[region.name] = used.get(region.name, 0) + size
            if used[region.name] > region.capacity_bytes:
                feasible = False
                break
        if not feasible:
            continue
        cost = sum(
            freq * region.latency_cycles
            for freq, region in zip(problem.frequencies, combo)
        )
        if cost < best_cost:
            best_cost = cost
            best = combo
    return best, best_cost


@given(
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_ilp_matches_brute_force(k, seed):
    rng = np.random.default_rng(seed)
    # Sizes spanning "fits anywhere" to "EMEM only".
    sizes = [
        int(rng.choice([512, 8 * 1024, 48 * 1024, 600 * 1024, 8 * 2**20]))
        for _ in range(k)
    ]
    freqs = [float(rng.uniform(0.0, 10.0)) for _ in range(k)]
    problem = PlacementProblem([f"s{i}" for i in range(k)], sizes, freqs,
                               NFP_HIERARCHY)
    _best, brute_cost = _brute_force(problem)
    solution = solve_ilp(problem)
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-9)


def test_ilp_handles_tight_packing():
    """Three 30KB structures against a 64KB CLS: exactly two fit."""
    problem = PlacementProblem(
        ["a", "b", "c"], [30 * 1024] * 3, [5.0, 4.0, 3.0], NFP_HIERARCHY
    )
    solution = solve_ilp(problem)
    _best, brute_cost = _brute_force(problem)
    assert solution.expected_cost == pytest.approx(brute_cost)
    in_cls = [n for n, r in solution.assignment.items() if r == "cls"]
    assert len(in_cls) == 2
    assert "c" not in in_cls  # the coldest one is displaced


TARGETS = ("nfp-4000", "dpu-offpath")
#: sizes that fill dpu-offpath's 8 KiB CLS, 32 KiB CTM and 64 KiB IMEM
#: (and nfp-4000's 64 KiB CLS and 4 MiB IMEM) alone or in uneven pairs,
#: plus sizes that fit only the larger regions.
SIZES = (512, 2048, 3072, 4096, 5120, 6144, 8192, 12288, 16384, 20480,
         24576, 32768, 40960, 53_248, 65536, 600 * 1024, 4 * 2**20,
         8 * 2**20)
FREQUENCIES = st.sampled_from([0.0, 0.5, 1.5, 3.0]) | st.floats(0.01, 10.0)


@st.composite
def tied_problems(draw):
    """Problems of 1-8 structures drawn, with repeats, from a pool of
    (size, frequency) pairs, so ties and zero frequencies are common."""
    pool = draw(st.lists(st.tuples(st.sampled_from(SIZES), FREQUENCIES),
                         min_size=1, max_size=8))
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    hierarchy = get_target(draw(st.sampled_from(TARGETS))).hierarchy()
    return PlacementProblem(
        [f"s{i}" for i in range(len(pairs))],
        [size for size, _ in pairs],
        [freq for _, freq in pairs],
        hierarchy,
    )


@given(problem=tied_problems())
@settings(max_examples=60, deadline=None)
def test_ilp_matches_brute_force_with_ties(problem):
    solution = solve_ilp(problem)
    _best, brute_cost = _brute_force(problem)
    assert solution.expected_cost == pytest.approx(brute_cost, rel=1e-9)

    assert list(solution.assignment) == problem.names
    capacity = {r.name: r.capacity_bytes for r in problem.regions}
    latency = {r.name: r.latency_cycles for r in problem.regions}
    used = dict.fromkeys(capacity, 0)
    for name, size in zip(problem.names, problem.sizes):
        used[solution.assignment[name]] += size
    assert all(used[r] <= capacity[r] for r in capacity)
    # Untouched state sits in the slowest region it can.
    for name, size, freq in zip(problem.names, problem.sizes,
                                problem.frequencies):
        here = solution.assignment[name]
        if freq == 0.0:
            for region in capacity:
                if latency[region] > latency[here]:
                    assert used[region] + size > capacity[region], name


@pytest.mark.parametrize("names", [["fwd_map", "rev_map"],
                                   ["rev_map", "fwd_map"]])
def test_equal_structures_keep_declaration_order(names):
    """mazunat's NAT maps: equal size and frequency, and room for one
    in CLS.  The earlier-declared map gets it."""
    problem = PlacementProblem(names, [53_248] * 2, [1.5, 1.5],
                               NFP_HIERARCHY)
    solution = solve_ilp(problem)
    assert solution.assignment == {names[0]: "cls", names[1]: "ctm"}


def test_search_goes_past_the_first_leaf():
    """The densest structure fills most of dpu-offpath's 8 KiB CLS, but
    two slightly less dense 4 KiB ones use it better."""
    problem = PlacementProblem(
        ["a", "b", "c"], [6144, 4096, 4096], [6.0, 3.9, 3.9],
        get_target("dpu-offpath").hierarchy(),
    )
    solution = solve_ilp(problem)
    assert solution.assignment == {"a": "ctm", "b": "cls", "c": "cls"}
    assert solution.expected_cost == pytest.approx(118.8)
