"""Deep-connectivity parameters of overlay networks.

Computes the edge-removal, path-disjoint, and flow connectivity of an
overlay graph over an underlying graph and routing scheme, constructs
sparse 2-survivable overlays greedily, and generates reduction gadgets as
verifiable test corpora.
"""

from .errors import (
    BudgetExceededError,
    DeepConnError,
    FormatError,
    PreconditionError,
    ValidationError,
)
from .fdc import FlowResult, fdc_pair, separation_oracle
from .gadgets import (
    GadgetOutput,
    SetSystem,
    build_hamiltonian_reduction,
    build_spddc_reduction,
    encode_set_system,
    random_instance,
)
from .model import (
    Instance,
    build_instance,
    edge_key,
    enumerate_simple_paths,
    is_simple_concatenation,
    parse_instance,
    route_image,
    serialize_instance,
)
from .oracles import (
    CutCertificate,
    PathPacking,
    all_pairs,
    erdc_pair,
    pair_parameter,
    pddc_pair,
    spddc_pair,
)
from .sparsifier import (
    AugmentationState,
    check_precondition,
    compute_kappa,
    delta,
    greedy_augment,
    sparsify,
    sparsified_instance,
    special_case_construct,
    star_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
