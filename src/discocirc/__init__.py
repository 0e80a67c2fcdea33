"""Compile pregroup-parsed text into parameterised quantum circuits."""

from .grammar import (
    N,
    S,
    PregroupDiagram,
    PregroupType,
    SimpleType,
    Ty,
    can_contract,
    reduce,
    validate_diagram,
)
from .trees import (
    PregroupTreeNode,
    TreeBuildReport,
    build_trees,
    compound_type,
    find_heads,
)

__version__ = "0.1.0"
