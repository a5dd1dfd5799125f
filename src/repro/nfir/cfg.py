"""Control-flow queries over an NFIR function's basic blocks.

Clara extracts the CFG during program preparation (Section 3.1) and the
LSTM predictor operates per basic block; the scale-out/coalescing
analyses additionally need block execution frequencies, which the
ClickScript interpreter records against these same block names.  The
graph is the blocks' own successor lists: predecessors, reachability
and the reverse postorder come from
:mod:`repro.nfir.analysis.dominance`, so no graph object is built.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.nfir.analysis.dominance import DominatorTree, block_predecessors
from repro.nfir.block import BasicBlock
from repro.nfir.function import Function


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry (a topological-ish
    order that visits definitions before most uses).  Unreachable
    blocks go last, in layout order."""
    tree = DominatorTree(function)
    by_name = {b.name: b for b in function.blocks}
    return [by_name[name] for name in tree.rpo] + [
        b for b in function.blocks if b.name not in tree.reachable
    ]


def natural_loops(function: Function) -> Dict[str, Set[str]]:
    """Natural loop membership: header block name -> set of block
    names in the loop (header included).  Loops sharing a header are
    merged, nested loops appear under their own headers too.  Headers
    are keyed in the order their first back edge is met, walking blocks
    in layout order and each block's distinct successors in branch
    order."""
    tree = DominatorTree(function)
    preds = block_predecessors(function)
    loops: Dict[str, Set[str]] = {}
    for block in function.blocks:
        for header in dict.fromkeys(s.name for s in block.successors()):
            if not tree.dominates(header, block.name):
                continue
            body = loops.setdefault(header, {header})
            stack = [block.name]
            while stack:
                name = stack.pop()
                if name in body:
                    continue
                body.add(name)
                stack.extend(p.name for p in preds[name])
    return loops
