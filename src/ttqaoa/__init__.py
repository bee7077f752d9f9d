"""Hybrid grid-search plus simplex optimization of max-3-cut QAOA circuits."""

from .graph import (
    ApproximationReport,
    Graph,
    GraphFormatError,
    approximation_ratio,
    brute_force_max_cut,
    cut_value,
    load_graph,
    parse_edge_list,
    random_complete_graph,
    total_weight,
)
from .protes import OptimizationTrace, ProtesConfig, optimize, trace_to_csv
from .qaoa_model import (
    CostDiagonal,
    build_cost_diagonal,
    cut_from_energy,
    decode_bitstring,
    decode_vertex,
    format_bitstring,
    index_to_angles,
    interaction_table,
)
from .refine import RefineConfig, RefineResult, refine
from .simulator import (
    Backend,
    ParameterVector,
    QaoaInstance,
    energy_grid,
    expectation,
    make_instance,
    prepare_initial,
    run_qaoa,
    sample_counts,
)
from .tt import (
    TTDistribution,
    ascent_step,
    log_value_grad,
    random_tt,
    sample,
    sample_squared,
    tt_value,
)

__version__ = "0.1.0"
