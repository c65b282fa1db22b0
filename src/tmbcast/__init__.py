"""Temporal multi-broadcast scheduling: model, distances, solvers, gadgets.

Schedule time labels on the edges of an undirected graph, at most a
per-edge quota of them, so that every source vertex temporally reaches every
other vertex, optimizing a worst-case temporal distance (earliest arrival,
latest departure, duration, travel time, hops, or waiting time).
"""

from tmbcast.core import (
    ContradictoryClause,
    FullAvailability,
    Instance,
    InvalidParams,
    InvalidPath,
    Labeling,
    MultiplicityTooSmall,
    MultiplicityViolation,
    NotATree,
    NotThreeSat,
    ParseError,
    PathStats,
    ReachFastInstance,
    SameVertex,
    SearchSpaceTooLarge,
    StaticGraph,
    TemporalPath,
    TmbError,
    TraversalSpec,
    Unreachable,
    UnsatisfiedClause,
    ValidationError,
    WrongSourceCount,
    is_feasible,
    path_stats,
    reaches_all,
    validate_path,
)
from tmbcast.distances import (
    Bounds,
    DistanceResult,
    Measure,
    distance,
    ft_mw_bounds,
    objective,
    sssp,
)
from tmbcast.fileformat import (
    InstanceDocument,
    LabelingDocument,
    export_dot,
    parse_cnf,
    parse_instance,
    parse_instance_document,
    parse_labeling,
    serialize_cnf,
    serialize_instance,
    serialize_labeling,
)
from tmbcast.reductions import (
    CnfFormula,
    GadgetInstance,
    GadgetParams,
    apply_shifts,
    connected_after_removal,
    duplicate_formula,
    find_nonseparating_path,
    gadget_labeling_from_assignment,
    gen_single_source_gadget,
    gen_two_source_gadget,
    reachfast_to_tmb,
    shift_schedule,
    tmb_to_reachfast,
    two_source_witness_labeling,
)
from tmbcast.solvers import (
    NoTractableRegime,
    OracleLimits,
    SolveResult,
    SolveStatus,
    add_super_source,
    approx_ft_mw,
    brute_force,
    pick_regime,
    search_space_size,
    solve_auto,
    solve_multi_full_mu,
    solve_single_source,
    solve_tree,
    tree_mu_diagnostic,
)
from tmbcast.tsot import Tsot, build_ea_tsot, build_ld_tsot

__version__ = "0.1.0"
