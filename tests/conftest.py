import numpy as np
import pytest

from mbdenoise import dsp, net, signals

FS = 32768


@pytest.fixture(scope="session")
def shot_a() -> signals.ShotRecord:
    return signals.friedlander(12.0, 0.0025, FS, 2048, 700, shot_id="A-fix")


@pytest.fixture(scope="session")
def noise_rec() -> signals.NoiseRecord:
    return signals.gen_vehicle_noise(7, 2.0, FS, 1.0, noise_id="N-fix")


@pytest.fixture(scope="session")
def filter_spec_dec() -> dsp.FilterSpec:
    # The trainable-layer initializer: fs/41 cutoff applied at the
    # decimated rate.
    return dsp.design_butterworth(8, FS / 41.0, FS / 8.0)


def gradient_errors(model, x, t, samples_per_group: int, rng, eps=1e-5):
    """Central finite differences vs analytic backprop on the batch of
    one holding the frame x and target t.

    Returns one relative error per sampled parameter, sampled evenly
    across the five parameter groups.
    """
    X, T = x[np.newaxis], t[np.newaxis]
    Y, cache = net.forward_batch(model, X)
    grads = net.backward_batch(model, cache, 2.0 * (Y - T)).as_dict()
    params = model.params()

    def loss():
        YY, _ = net.forward_batch(model, X)
        return net.mse_loss(YY, T).mse

    errors = []
    for name, arr in params.items():
        for _ in range(samples_per_group):
            flat = int(rng.integers(0, arr.size))
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss()
            arr[idx] = orig - eps
            down = loss()
            arr[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            errors.append(abs(numeric - analytic) / denom)
    return np.array(errors)


def make_corpus(n_shots: int, seed: int, fs: int = FS, frame_len: int = 2048,
                noise_seconds: float = 3.0):
    """Small deterministic corpus for split/training tests."""
    rng = np.random.default_rng(seed)
    shots = []
    for i in range(n_shots):
        t_plus = 0.0025 * (1.0 + 0.2 * rng.uniform(-1, 1))
        peak = 12.0 * (1.0 + 0.5 * rng.uniform(-1, 1))
        support = int(np.ceil(8 * t_plus * fs))
        onset = int(rng.integers(frame_len // 4,
                                 min(3 * frame_len // 4, frame_len - support)))
        shots.append(signals.friedlander(peak, t_plus, fs, frame_len, onset,
                                         shot_id=f"s{i:03d}"))
    noises = [
        signals.gen_vehicle_noise(seed * 10 + j, noise_seconds, fs, 1.0,
                                  noise_id=f"n{j}")
        for j in range(3)
    ]
    return shots, noises
