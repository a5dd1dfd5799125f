"""NF state placement via ILP (paper Section 4.3).

``min sum_ij L_j * p_ij * f_i`` subject to every structure placed
exactly once and region capacities respected.  Solved exactly by a
small branch and bound (:func:`solve_ilp`); the all-EMEM port is the
baseline, and an exhaustive sweep implements the Section 5.8 "expert".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.nic.regions import MemoryHierarchy
from repro.obs import span


@dataclass
class PlacementProblem:
    """Sizes and access frequencies of an NF's stateful structures, and
    the target memory hierarchy they are placed in."""

    names: List[str]
    sizes: List[int]          # bytes
    frequencies: List[float]  # accesses per packet (host-profiled)
    hierarchy: MemoryHierarchy

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
    """Exact ILP solution (Section 4.3 formulation) by depth-first
    branch and bound.

    Costs have product form (frequency x latency), so filling the
    regions fastest first with the remaining structures in descending
    frequency/size order, splitting one where a region runs out, solves
    the LP relaxation; that fill bounds each subtree.

    Structures are visited in descending frequency/size order (ties in
    declaration order) and try regions fastest first, or slowest first
    if never accessed.  The first optimum found is kept: a leaf must be
    cheaper by a relative 1e-12, so float rounding cannot swap
    equal-cost placements.  The first leaf thus puts each accessed
    structure, hottest per byte first, in the fastest region with room
    left, and untouched state in the slowest region that still fits.

    The search is exponential in the number of structures in the worst
    case.  Library NFs have at most 9 and solve in well under a
    millisecond; random 24-structure problems can take seconds.
    """
    sizes, freqs = problem.sizes, problem.frequencies
    regions = sorted(problem.regions, key=lambda r: r.latency_cycles)
    latency = [r.latency_cycles for r in regions]
    free = [r.capacity_bytes for r in regions]
    order = sorted(range(len(sizes)), key=lambda i: -freqs[i] / sizes[i])
    fastest_first = range(len(free))
    slowest_first = fastest_first[::-1]
    chosen = [0] * len(sizes)  # region index per structure
    best: Optional[Dict[str, str]] = None
    best_cost = math.inf

    def relaxation(depth: int) -> float:
        """LP-relaxation cost of placing ``order[depth:]`` into ``free``."""
        total, j, room = 0.0, 0, free[0]
        for i in order[depth:]:
            need = sizes[i]
            while need > room:
                total += freqs[i] * latency[j] * room / sizes[i]
                need -= room
                j += 1
                if j == len(free):
                    return math.inf
                room = free[j]
            room -= need
            total += freqs[i] * latency[j] * need / sizes[i]
        return total

    def search(depth: int, cost: float) -> None:
        nonlocal best, best_cost
        if depth == len(order):
            best_cost = cost
            best = {name: regions[j].name
                    for name, j in zip(problem.names, chosen)}
            return
        i = order[depth]
        for j in fastest_first if freqs[i] > 0 else slowest_first:
            if sizes[i] > free[j]:
                continue
            free[j] -= sizes[i]
            placed = cost + freqs[i] * latency[j]
            if placed + relaxation(depth + 1) < best_cost * (1 - 1e-12):
                chosen[i] = j
                search(depth + 1, placed)
            free[j] += sizes[i]

    search(0, 0.0)
    if best is None:
        raise PlacementError("ILP infeasible: the structures do not fit")
    return PlacementSolution(best, best_cost, "ilp")


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
    """Clara's placement insight generator for one target's memory
    hierarchy."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

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
        with span("placement_solve", method="ilp"):
            return solve_ilp(problem)

    # -- uniform advisor protocol --------------------------------------
    def fit(self, *args, **kwargs) -> "PlacementAdvisor":
        """Placement solves an ILP per NF; there is nothing to learn."""
        return self

    def state_dict(self) -> Dict[str, object]:
        return {"hierarchy": self.hierarchy}

    def load_state_dict(self, state: Dict[str, object]) -> "PlacementAdvisor":
        self.hierarchy = state["hierarchy"]
        return self
