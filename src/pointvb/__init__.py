"""Self-supervised pretraining and pointly-supervised fine-tuning for 3D
point clouds, at desk scale."""

from .pcio import (
    ABSENT,
    PointCloud,
    SceneSet,
    SparseLabelSet,
    generate_synthetic_scene,
    load_labels,
    load_ply,
    save_labels,
    save_ply,
    subsample_labels,
)
from .geometry import (
    TransformSpec,
    apply_transform,
    farthest_point_sampling,
    sample_transform,
    vote_labels,
    voxel_downsample,
)
from .nncore import (
    EncoderParams,
    encoder_backward,
    encoder_forward,
    gradient_check,
    init_encoder,
)
from .vbloss import (
    cross_correlation,
    gaussian_entropy,
    normalize_columns,
    vb_loss,
    vb_loss_backward,
    vb_objective_estimate,
)
from .training import (
    HeadParams,
    TrainConfig,
    TrainState,
    init_state,
    load_checkpoint,
    masked_cross_entropy,
    poly_lr,
    save_checkpoint,
    sgd_momentum_step,
)
from .metrics import ConfusionMatrix, RunReport, evaluate, miou
from .experiment import run_experiment, sparsify_scenes

__version__ = "0.1.0"
