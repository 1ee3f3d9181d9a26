"""Memory-aided random-matrix Bayesian filtering for extended object tracking.

The package couples a closed-form joint state/extension recursion with an
LSTM compensation network trained end-to-end through the filter by
backpropagation through time, plus a non-Markovian scenario simulator and
RMSE/IoU/GWD evaluation.
"""

from . import errors, ops, spdmat
from .filtering import (
    FilterDiagnostics,
    InnovationStats,
    TrackerConfig,
    extension_mean,
    init_track,
    innovation,
    predict_extension,
    predict_state,
    run_filter,
    update_extension,
    update_state,
)
from .metrics import EllipseEstimate, MetricsReport, evaluate_run, gwd, iou_ellipse
from .models import (
    ExtensionState,
    Frames,
    FrameStats,
    NominalModel,
    ScenarioConfig,
    TrackState,
    cv_process_noise,
    frame_features,
    frame_stats,
    nominal_cv_model,
    reduce_frames,
    stack_frames,
)
from .network import (
    MemoryState,
    NetworkParams,
    block_weights,
    forward_sequence,
    init_params,
    jeb_heads,
    jub_heads,
    mub_step,
    sequence_loss,
    zero_params,
)
from .simulate import (
    Dataset,
    GroundTruthSequence,
    SimCase,
    generate_case,
    generate_dataset,
    generate_trajectory,
)
from .store import (
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
    write_report,
)
from .training import TrainConfig, collect_feature_stats, grad_check, sgd_step, train

__version__ = "0.1.0"
