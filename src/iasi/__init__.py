"""Integer additive set-indexers: arithmetic, verification, construction,
divisor-class analysis, and exhaustive search for finite simple graphs."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .setlabel import SetLabel, sumset, difference_set, is_sumset_maximal
from .graphs import (
    Graph,
    Bipartition,
    GraphFormatError,
    parse_edge_list,
    bipartition_of,
    connected_components,
    is_clique,
    complete_graph,
    path_graph,
    cycle_graph,
    complete_bipartite_graph,
    disjoint_union,
)
from .verify import (
    Labeling,
    LabelingError,
    VerificationReport,
    PartitionReport,
    verify,
    check_weak_characterization,
    check_strong_criterion,
    analyze_divisor_partition,
    divisors_of,
)
from .construct import (
    ConstructionError,
    ConstructionParams,
    FactorPair,
    ReductionError,
    construct_bipartite_strong,
    construct_complete_strong,
    construct_weak_uniform,
    topological_reduce,
    default_factor_pair,
)
from .search import (
    SearchSpec,
    SearchOutcome,
    BudgetExceededError,
    brute_force_search,
    count_labelings,
)

# the public names are the objects imported above: everything but private
# names and the submodules that the relative imports bind on the package
__all__ = [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))]
