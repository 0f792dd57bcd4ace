"""Lightweight muzzle-blast denoising toolkit.

Synthetic corpus generation, a decimating autoencoder with a trainable
convolution-matrix output layer, SNR-phased curriculum training, and a
detection-rate evaluation harness with binomial error margins.
"""

from .config import RunConfig, load_config
from .curriculum import (
    ConvergenceLog,
    DatasetSplit,
    TrainingFrames,
    build_split,
    combo_cells,
    mix_cells,
    train_curriculum,
    training_frames,
)
from .detect import (
    Detection,
    DetectionScore,
    DetectorConfig,
    default_tolerance,
    detect_impulses,
    match_detections,
    onsets_detected,
    score_rates,
)
from .dsp import (
    FilterSpec,
    decimate,
    design_butterworth,
    interpolate,
    kernel_to_matrix,
    mix_stack,
    snr_db,
)
from .net import (
    AdamState,
    Network,
    Plan,
    adam_step,
    batch_loss,
    compile_plan,
    denoise_frame,
    hidden_layer,
    init_network,
    load_checkpoint,
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
