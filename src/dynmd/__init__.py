"""Online convex programming with dynamical models.

Dynamic mirror descent (DMD) threads a model of the environment's motion
through the mirror-descent update; dynamic fixed share (DFS) runs a bank
of DMD experts with exponential weighting and share.  The regret toolkit
evaluates both against drifting comparators.
"""

from .geometry import (
    Ball,
    BoundConstants,
    Box,
    ConstantStep,
    DoublingStep,
    FeasibleSet,
    SquaredEuclidean,
    StepSchedule,
    Unconstrained,
)
from .losses import (
    CompositeLoss,
    IsingPseudolikelihoodLoss,
    L1Regularizer,
    LeastSquaresLoss,
    least_squares,
    vote_pseudolikelihood,
)
from .dynamics import (
    ContractionAudit,
    DynamicalModel,
    IdentityModel,
    NetworkAttraction,
    PixelShift,
    audit_contraction,
    shift_family,
)
from .dmd import DmdState, comid_init, comid_step, dmd_init, dmd_step, lemma1_check
from .fixedshare import (
    FixedShareState,
    default_lambda,
    dfs_step,
    fixed_share_init,
)
from .regret import (
    ComparatorSequence,
    SegmentationResult,
    TrackingDecomposition,
    best_segmentation,
    cumulative_regret,
    fixed_share_bound,
    moving_average,
    theorem2_curve,
    tracking_decomposition_from_losses,
)

__version__ = "0.1.0"

__all__ = [
    "Ball", "BoundConstants", "Box", "ConstantStep", "DoublingStep",
    "FeasibleSet", "SquaredEuclidean", "StepSchedule", "Unconstrained",
    "CompositeLoss", "IsingPseudolikelihoodLoss", "L1Regularizer",
    "LeastSquaresLoss", "least_squares", "vote_pseudolikelihood",
    "ContractionAudit", "DynamicalModel", "IdentityModel",
    "NetworkAttraction", "PixelShift", "audit_contraction", "shift_family",
    "DmdState", "comid_init", "comid_step", "dmd_init", "dmd_step",
    "lemma1_check",
    "FixedShareState", "default_lambda", "dfs_step", "fixed_share_init",
    "ComparatorSequence", "SegmentationResult", "TrackingDecomposition",
    "best_segmentation", "cumulative_regret", "fixed_share_bound",
    "moving_average", "theorem2_curve", "tracking_decomposition_from_losses",
]
