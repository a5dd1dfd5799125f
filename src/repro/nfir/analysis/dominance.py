"""Dominator tree and dominance frontier for NFIR functions.

Implements the Cooper-Harvey-Kennedy iterative algorithm ("A Simple,
Fast Dominance Algorithm") over the function's basic blocks directly —
no graph library needed — and exposes O(1) ``dominates`` queries via a
DFS interval numbering of the tree.  Its predecessor lists,
reachability and reverse postorder are the CFG every other analysis
reads: the verifier's SSA checks, the natural loops and block order of
:mod:`repro.nfir.cfg`, and the lint passes all build on this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.nfir.block import BasicBlock
from repro.nfir.function import Function


def block_predecessors(function: Function) -> Dict[str, List[BasicBlock]]:
    """Predecessor lists for every block (by block name)."""
    preds: Dict[str, List[BasicBlock]] = {b.name: [] for b in function.blocks}
    for block in function.blocks:
        for successor in block.successors():
            if successor.name in preds:
                preds[successor.name].append(block)
    return preds


class DominatorTree:
    """The dominator tree of a function's CFG.

    Only blocks reachable from the entry participate; unreachable
    blocks are absent from :attr:`reachable` and :attr:`rpo` (the
    reachable block names in reverse postorder), and every
    ``dominates`` query involving one returns ``False``.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.entry = function.entry.name
        preds = block_predecessors(function)

        # Reverse postorder over reachable blocks (iterative DFS).
        postorder: List[str] = []
        state: Dict[str, int] = {}
        stack: List[tuple] = [(function.entry, iter(function.entry.successors()))]
        state[self.entry] = 1
        while stack:
            block, it = stack[-1]
            advanced = False
            for succ in it:
                if succ.name not in state:
                    state[succ.name] = 1
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(block.name)
                stack.pop()
        rpo = self.rpo = postorder[::-1]
        self.reachable: Set[str] = set(rpo)
        self._rpo_index: Dict[str, int] = {name: i for i, name in enumerate(rpo)}

        # Cooper-Harvey-Kennedy fixpoint over idoms.
        idom: Dict[str, str] = {self.entry: self.entry}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while self._rpo_index[a] > self._rpo_index[b]:
                    a = idom[a]
                while self._rpo_index[b] > self._rpo_index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for name in rpo[1:]:
                candidates = [
                    p.name for p in preds[name]
                    if p.name in idom
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(new_idom, other)
                if idom.get(name) != new_idom:
                    idom[name] = new_idom
                    changed = True
        self._idom = idom

        # Children lists and a DFS interval numbering for O(1) queries.
        self.children: Dict[str, List[str]] = {name: [] for name in rpo}
        for name in rpo:
            if name != self.entry:
                self.children[self._idom[name]].append(name)
        self._tin: Dict[str, int] = {}
        self._tout: Dict[str, int] = {}
        clock = 0
        visit: List[tuple] = [(self.entry, False)]
        while visit:
            name, done = visit.pop()
            if done:
                self._tout[name] = clock
                clock += 1
                continue
            self._tin[name] = clock
            clock += 1
            visit.append((name, True))
            for child in reversed(self.children[name]):
                visit.append((child, False))

        self._frontier: Optional[Dict[str, Set[str]]] = None
        self._preds = preds

    def idom(self, name: str) -> Optional[str]:
        """Immediate dominator of a block (the entry's is itself);
        ``None`` for unreachable blocks."""
        return self._idom.get(name)

    def dominates(self, a: str, b: str) -> bool:
        """Whether block ``a`` dominates block ``b`` (reflexive)."""
        if a not in self._tin or b not in self._tin:
            return False
        return self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a]

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def depth(self, name: str) -> int:
        """Tree depth of a block (entry = 0)."""
        if name not in self._idom:
            raise KeyError(f"block {name!r} is unreachable")
        d = 0
        while name != self.entry:
            name = self._idom[name]
            d += 1
        return d

    def frontier(self) -> Dict[str, Set[str]]:
        """Dominance frontier of every reachable block (computed once,
        cached): the blocks where a definition's dominance ends —
        exactly the phi-placement sites of SSA construction."""
        if self._frontier is None:
            frontier: Dict[str, Set[str]] = {n: set() for n in self.reachable}
            for name in self.reachable:
                preds = [
                    p.name for p in self._preds[name]
                    if p.name in self.reachable
                ]
                for pred in preds:
                    # Walk the runner up until it strictly dominates
                    # the join (not "until idom": the entry's idom is
                    # itself, so a back edge into the entry puts it in
                    # its own frontier).
                    runner = pred
                    while not self.strictly_dominates(runner, name):
                        frontier[runner].add(name)
                        if runner == self.entry:
                            break
                        runner = self._idom[runner]
            self._frontier = frontier
        return self._frontier
