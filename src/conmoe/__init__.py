"""Train-free MoE expert-pool consolidation: prototype selection,
deterministic slot remapping, pruning/merging baselines, and fidelity
analysis on synthetic checkpoints."""

from .model import (
    DupConfig,
    MoELayer,
    MoEModel,
    ModelSpec,
    gen_synthetic,
    gen_tokens,
    materialize,
    model_forward,
    moe_forward,
)
from .calibration import CalibStats, contribution, run_calibration
from .geometry import (
    DistanceTable,
    distance_matrix,
    minmax_norm,
    nearest,
    projection_distance,
)
from .plan import ConsolidationPlan
from .planner import (
    ScopeConfig,
    assign,
    budget,
    consolidate,
    objective,
    scope_partition,
    select_prototypes,
    score,
)
from .baselines import fuse_weighted_average, merge_msmoe, prune_frequency, prune_reap
from .analysis import (
    FidelityReport,
    NNReport,
    cross_layer_nn,
    evaluate_fidelity,
    reduction_accounting,
    scope_sweep,
)
from .store import (
    read_checkpoint,
    read_plan,
    read_stats,
    write_checkpoint,
    write_plan,
    write_stats,
)

__version__ = "0.1.0"
