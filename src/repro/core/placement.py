"""NF state placement via ILP (paper Section 4.3).

``min sum_ij L_j * p_ij * f_i`` subject to every structure placed
exactly once and region capacities respected.  Solved with
``scipy.optimize.milp``; a greedy heuristic provides a fallback and a
baseline, and an exhaustive sweep implements the Section 5.8 "expert".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.nic.regions import MemoryHierarchy
from repro.nic.targets import resolve_target
from repro.obs import span


def _default_hierarchy() -> MemoryHierarchy:
    """Hierarchy of the default registered target (the NFP)."""
    return resolve_target(None).hierarchy()


@dataclass
class PlacementProblem:
    """Sizes and access frequencies of an NF's stateful structures."""

    names: List[str]
    sizes: List[int]          # bytes
    frequencies: List[float]  # accesses per packet (host-profiled)
    hierarchy: MemoryHierarchy = field(default_factory=_default_hierarchy)

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.sizes) == len(self.frequencies)):
            raise ValueError("names/sizes/frequencies must align")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if any(f < 0 for f in self.frequencies):
            raise ValueError("frequencies must be non-negative")

    @property
    def regions(self):
        return self.hierarchy.placeable


class PlacementError(RuntimeError):
    pass


@dataclass
class PlacementSolution:
    assignment: Dict[str, str]
    expected_cost: float  # frequency-weighted latency cycles per packet
    method: str


def solve_ilp(problem: PlacementProblem) -> PlacementSolution:
    """Exact ILP solution (Section 4.3 formulation)."""
    k = len(problem.names)
    regions = problem.regions
    t = len(regions)
    if k == 0:
        return PlacementSolution({}, 0.0, "ilp")
    # Decision variables p_ij flattened row-major: i * t + j.
    costs = np.array(
        [
            problem.frequencies[i] * regions[j].latency_cycles
            for i in range(k)
            for j in range(t)
        ]
    )
    # Each structure placed exactly once.
    assign_rows = np.zeros((k, k * t))
    for i in range(k):
        assign_rows[i, i * t : (i + 1) * t] = 1.0
    assign_constraint = LinearConstraint(assign_rows, lb=1.0, ub=1.0)
    # Region capacities.
    cap_rows = np.zeros((t, k * t))
    for j in range(t):
        for i in range(k):
            cap_rows[j, i * t + j] = float(problem.sizes[i])
    cap_constraint = LinearConstraint(
        cap_rows,
        lb=0.0,
        ub=[r.capacity_bytes for r in regions],
    )
    result = milp(
        c=costs,
        constraints=[assign_constraint, cap_constraint],
        integrality=np.ones(k * t),
        bounds=Bounds(0.0, 1.0),
    )
    if not result.success:
        raise PlacementError(f"ILP infeasible: {result.message}")
    x = np.round(result.x).reshape(k, t)
    assignment = {
        problem.names[i]: regions[int(np.argmax(x[i]))].name for i in range(k)
    }
    return PlacementSolution(assignment, float(costs @ result.x), "ilp")


def solve_greedy(problem: PlacementProblem) -> PlacementSolution:
    """Hottest-first greedy: place by descending access frequency into
    the fastest region with remaining capacity."""
    remaining = {r.name: r.capacity_bytes for r in problem.regions}
    order = sorted(
        range(len(problem.names)),
        key=lambda i: -problem.frequencies[i] / max(problem.sizes[i], 1),
    )
    assignment: Dict[str, str] = {}
    cost = 0.0
    for i in order:
        placed = False
        for region in problem.regions:  # fastest first
            if remaining[region.name] >= problem.sizes[i]:
                remaining[region.name] -= problem.sizes[i]
                assignment[problem.names[i]] = region.name
                cost += problem.frequencies[i] * region.latency_cycles
                placed = True
                break
        if not placed:
            raise PlacementError(
                f"structure {problem.names[i]} does not fit anywhere"
            )
    return PlacementSolution(assignment, cost, "greedy")


def solve_baseline(problem: PlacementProblem) -> PlacementSolution:
    """The naive port: everything in EMEM (Section 5.5 baseline)."""
    emem = problem.regions[-1]
    assignment = {name: emem.name for name in problem.names}
    cost = sum(f * emem.latency_cycles for f in problem.frequencies)
    return PlacementSolution(assignment, cost, "baseline")


def expert_search(
    problem: PlacementProblem,
    evaluate: Callable[[Dict[str, str]], float],
    max_structures: int = 8,
) -> Tuple[Dict[str, str], float]:
    """Exhaustive per-structure sweep (Section 5.8): try every feasible
    assignment, scored by a caller-supplied objective (typically a full
    NIC simulation, which sees bandwidth effects the ILP's latency-only
    objective cannot).  Returns (best assignment, best score);
    ``evaluate`` is minimized.
    """
    k = len(problem.names)
    if k > max_structures:
        raise PlacementError(
            f"exhaustive search over {k} structures is too large"
        )
    region_names = [r.name for r in problem.regions]
    capacities = {r.name: r.capacity_bytes for r in problem.regions}
    best: Tuple[Optional[Dict[str, str]], float] = (None, float("inf"))
    for combo in itertools.product(region_names, repeat=k):
        used: Dict[str, int] = {}
        feasible = True
        for i, region in enumerate(combo):
            used[region] = used.get(region, 0) + problem.sizes[i]
            if used[region] > capacities[region]:
                feasible = False
                break
        if not feasible:
            continue
        assignment = dict(zip(problem.names, combo))
        score = evaluate(assignment)
        if score < best[1]:
            best = (assignment, score)
    if best[0] is None:
        raise PlacementError("no feasible assignment found")
    return best  # type: ignore[return-value]


class PlacementAdvisor:
    """Clara's placement insight generator."""

    def __init__(self, hierarchy: Optional[MemoryHierarchy] = None) -> None:
        self.hierarchy = hierarchy or _default_hierarchy()

    def problem_from_profile(
        self, module, profile
    ) -> PlacementProblem:
        """Build the ILP inputs from the lowered module's globals and a
        host execution profile."""
        names, sizes, freqs = [], [], []
        for name, g in module.globals.items():
            names.append(name)
            sizes.append(g.size_bytes)
            freqs.append(profile.access_frequency(name))
        return PlacementProblem(names, sizes, freqs, self.hierarchy)

    def advise(self, prepared, profile, workload=None) -> PlacementSolution:
        """Uniform advisor entry point.  ``prepared`` may be a
        :class:`~repro.core.prepare.PreparedNF` or a bare lowered
        module (the historical calling convention)."""
        module = getattr(prepared, "module", prepared)
        problem = self.problem_from_profile(module, profile)
        if not problem.names:
            return PlacementSolution({}, 0.0, "ilp")
        try:
            with span("placement_solve", method="ilp"):
                return solve_ilp(problem)
        except PlacementError:
            with span("placement_solve", method="greedy"):
                return solve_greedy(problem)

    # -- uniform advisor protocol --------------------------------------
    def fit(self, *args, **kwargs) -> "PlacementAdvisor":
        """Placement solves an ILP per NF; there is nothing to learn."""
        return self

    def state_dict(self) -> Dict[str, object]:
        return {"hierarchy": self.hierarchy}

    def load_state_dict(self, state: Dict[str, object]) -> "PlacementAdvisor":
        self.hierarchy = state["hierarchy"]
        return self
