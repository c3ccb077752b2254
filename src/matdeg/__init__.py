"""Maximal matroid degenerations in the weak order and the recursive
circuit-variety decomposition built on them."""

from .core import (
    Matroid,
    QuotientMap,
    closure,
    cyclic_flats,
    deletion,
    dependent_hyperplanes,
    designate_loop,
    dual,
    is_inductively_connected,
    is_nilpotent,
    is_paving,
    matroid_from_circuits,
    rank_of,
    relabel,
    restriction,
    simplify,
    truncation,
    uniform_matroid,
)
from .hypergraph import (
    LabeledHypergraph,
    check_matroid_conditions,
    delta_of_matroid,
    induce,
    leq_hyper,
    matroid_from_hypergraph,
    reduce,
    valuation,
)
from .weak_order import brute_force_leq, compare, maximal_elements
from .search import (
    DegenerationReport,
    SearchStats,
    min_above,
    min_above_general,
    min_above_hyp,
    min_above_hyp_rank4,
    min_above_rank4,
    stratum_min,
)
from .isomorphism import (
    AutomorphismGroup,
    CanonicalForm,
    are_isomorphic,
    automorphisms,
    canonical_form,
    group_by_symmetry,
)
from .decomposition import (
    DecompositionComponent,
    DecompositionResult,
    Hints,
    decompose,
    default_hints,
    paper_hints,
    proper_submatroids_all_nilpotent,
    redundancy_prune,
)
from .catalog import catalog, catalog_names, affine_plane, projective_plane, steiner_matroid
from .enumeration import all_matroids
from .experiments import steiner_experiment
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    ConditionsFailed,
    GroundSetMismatch,
    MatdegError,
    NotRankFour,
    NotSimple,
    RankMismatch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
