"""AIG substrate: graph, literals, traversal, MFFC, simulation, I/O."""

from .graph import Aig, KIND_AND, KIND_CONST, KIND_DEAD, KIND_PI
from .literals import (
    CONST_VAR,
    LIT_FALSE,
    LIT_TRUE,
    lit_compl,
    lit_not,
    lit_not_cond,
    lit_regular,
    lit_var,
    make_lit,
)
from .mffc import mffc, mffc_size
from .traversal import cone_cover, is_in_tfi, related, tfi, tfo, topo_order
from .check import check
from .simulate import (
    exhaustive_signatures,
    random_patterns,
    random_simulation,
    simulate,
    simulate_pattern,
)
from .io_aiger import read_aiger, write_aag, write_aig
from .snapshot import AigSnapshot

__all__ = [
    "Aig",
    "AigSnapshot",
    "KIND_AND",
    "KIND_CONST",
    "KIND_DEAD",
    "KIND_PI",
    "CONST_VAR",
    "LIT_FALSE",
    "LIT_TRUE",
    "lit_compl",
    "lit_not",
    "lit_not_cond",
    "lit_regular",
    "lit_var",
    "make_lit",
    "mffc",
    "mffc_size",
    "cone_cover",
    "is_in_tfi",
    "related",
    "tfi",
    "tfo",
    "topo_order",
    "check",
    "exhaustive_signatures",
    "random_patterns",
    "random_simulation",
    "simulate",
    "simulate_pattern",
    "read_aiger",
    "write_aag",
    "write_aig",
]
