"""Program preparation (paper Section 3.1, Figure 3 lines 2-5).

``llir <- LLVMBYTECODE(prog); cfg <- GETCFG(llir); api_set <- GETAPI;
nf_blocks <- GETCODEBLOCK(cfg)`` — lower the unported element to NFIR,
collect the framework API set, and annotate every block's instructions
by category.  ``GETCFG`` needs no separate graph: the CFG is the
handler's blocks and their successor lists, which the loop queries of
:mod:`repro.nfir.cfg` read directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


from repro.click.ast import ElementDef
from repro.click.frontend import lower_element
from repro.nfir.annotate import AnnotatedBlock, ModuleAnnotation, annotate_module
from repro.nfir.function import Module
from repro.ml.encoding import block_tokens


@dataclass
class PreparedNF:
    """Everything downstream analyses need about one unported NF."""

    element: Optional[ElementDef]
    module: Module
    annotation: ModuleAnnotation
    #: per-block abstracted token sequences (vocabulary-compacted).
    tokens: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.module.name

    @property
    def api_set(self) -> List[str]:
        return self.annotation.api_set

    @property
    def blocks(self) -> List[AnnotatedBlock]:
        return self.annotation.blocks

    def block_token_sequences(self) -> List[List[str]]:
        return [self.tokens[b.name] for b in self.blocks]


def prepare_module(module: Module, element: Optional[ElementDef] = None) -> PreparedNF:
    """Prepare an already-lowered module."""
    annotation = annotate_module(module)
    tokens = {
        block.name: block_tokens(block, compact=True)
        for block in module.handler.blocks
    }
    return PreparedNF(
        element=element,
        module=module,
        annotation=annotation,
        tokens=tokens,
    )


def prepare_element(element: ElementDef) -> PreparedNF:
    """Lower an unported ClickScript element and prepare it."""
    module = lower_element(element, inline=True)
    return prepare_module(module, element)
