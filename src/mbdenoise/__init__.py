"""Lightweight muzzle-blast denoising toolkit.

Synthetic corpus generation, a decimating autoencoder with a trainable
convolution-matrix output layer, SNR-phased curriculum training, and a
detection-rate evaluation harness with binomial error margins.
"""

from .config import RunConfig, load_config
from .curriculum import (
    ConvergenceLog,
    DatasetSplit,
    MaterializedSplit,
    NoisyExample,
    OptimizerConfig,
    PhasePlan,
    build_split,
    materialize_combo,
    materialize_examples,
    train_curriculum,
)
from .detect import (
    Detection,
    DetectionScore,
    DetectorConfig,
    default_tolerance,
    detect_conditions,
    detect_impulses,
    match_detections,
    score_rates,
)
from .dsp import (
    FilterSpec,
    decimate,
    design_butterworth,
    interpolate,
    kernel_to_matrix,
    mix_at_snr,
    snr_db,
)
from .net import (
    AdamState,
    Gradients,
    LossReport,
    Network,
    adam_step,
    backward_batch,
    denoise_frame,
    forward_batch,
    init_network,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
)
from .signals import (
    NoiseRecord,
    ShotRecord,
    Waveform,
    friedlander,
    gen_vehicle_noise,
    load_wav,
    save_wav,
)

__version__ = "0.1.0"
