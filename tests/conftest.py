import hashlib
import struct

import numpy as np
import pytest

from mbdenoise import cli, dsp, net, signals

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


def textbook_forward(model, X):
    """The network's output f @ (w2 @ tanh(w1 @ x + b1) + b2) on each
    row of X, with nothing folded: (Y, hidden activations A, pre-filter
    output Z)."""
    A = np.tanh(X @ model.w1.T + model.b1)
    Z = A @ model.w2.T + model.b2
    return Z @ model.f.T, A, Z


def textbook_loss(model, X, T):
    """The batch-mean sum of squared errors of the output against the
    rows of T."""
    Y, _, _ = textbook_forward(model, X)
    return float(np.sum((Y - T) ** 2)) / len(X)


def textbook_backward(model, X, T):
    """Backprop of textbook_loss through the unfolded graph, all five
    gradients keyed like model.params(): the reference net.batch_loss's
    gradients must match."""
    Y, A, Z = textbook_forward(model, X)
    G = 2.0 * (Y - T) / len(X)
    dZ = G @ model.f
    dU = (dZ @ model.w2) * (1.0 - A * A)
    return {"w1": dU.T @ X, "b1": dU.sum(axis=0), "w2": dZ.T @ A, "b2": dZ.sum(axis=0),
            "f": G.T @ Z}


def gradient_errors(model, x, t, samples_per_group: int, rng, eps=1e-5):
    """Central finite differences of textbook_loss vs net.batch_loss's
    gradients on the batch of one holding the frame x and target t.

    The model's filter layer is released first, so batch_loss returns
    its gradient too. Returns one relative error per sampled parameter,
    sampled evenly across the five parameter groups.
    """
    X, T = x[np.newaxis], t[np.newaxis]
    model.f_frozen = False
    _, grads = net.batch_loss(model, X, T, [0])
    params = model.params()

    errors = []
    for name, arr in params.items():
        for _ in range(samples_per_group):
            flat = int(rng.integers(0, arr.size))
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            up = textbook_loss(model, X, T)
            arr[idx] = orig - eps
            down = textbook_loss(model, X, T)
            arr[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            errors.append(abs(numeric - analytic) / denom)
    return np.array(errors)


def textbook_adam_step(model, grads, moments, lr=1e-3, f_lr_scale=0.5):
    """Allocating Adam, written out as in Kingma & Ba: the reference the
    in-place net.adam_step must equal bit for bit. moments maps a
    parameter name to its (m, v, t); a frozen filter gets none."""
    b1, b2, eps = net.ADAM_BETA1, net.ADAM_BETA2, net.ADAM_EPS
    for name, g in grads.items():
        if name == "f" and model.f_frozen:
            continue
        m, v, t = moments.get(name, (np.zeros_like(g), np.zeros_like(g), 0))
        m = m + (1.0 - b1) * (g - m)
        v = v + (1.0 - b2) * (g * g - v)
        t += 1
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        step = lr * f_lr_scale if name == "f" else lr
        setattr(model, name, getattr(model, name) - step * m_hat / (np.sqrt(v_hat) + eps))
        moments[name] = (m, v, t)


def make_corpus(n_shots: int, seed: int, fs: int = FS, frame_len: int = 2048,
                noise_seconds: float = 3.0, id_prefix: str = "s"):
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
                                         shot_id=f"{id_prefix}{i:03d}"))
    noises = [
        signals.gen_vehicle_noise(seed * 10 + j, noise_seconds, fs, 1.0,
                                  noise_id=f"n{j}")
        for j in range(3)
    ]
    return shots, noises


def serial_gen_data(cfg, out):
    """The corpus written one file after another, as gen-data first did:
    every caliber A shot, every caliber B shot, then the three noise
    records, each seeded by the first state word of a SeedSequence of
    [seed, 3, j]; then every file read back and checksummed into the
    manifest. The reference cli.cmd_gen_data's files must equal byte
    for byte."""
    entries = []
    for caliber, count in (("A", cfg.n_shots_a), ("B", cfg.n_shots_b)):
        for i in range(count):
            shot = cli._synth_shot(cfg, caliber, i)
            rel = f"shots_{caliber.lower()}/{shot.shot_id}.wav"
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
            signals.save_shot(out / rel, shot)
            entries.append((rel, shot.shot_id))
    (out / "noise").mkdir(parents=True, exist_ok=True)
    for j in range(3):
        seed = int(np.random.SeedSequence([cfg.seed, 3, j]).generate_state(1)[0])
        noise = signals.gen_vehicle_noise(seed, cfg.noise_duration, cfg.fs,
                                          cfg.noise_rms_pa, noise_id=f"N{j}",
                                          burst_rate=cfg.burst_rate)
        rel = f"noise/{noise.noise_id}.wav"
        signals.save_noise(out / rel, noise)
        entries.append((rel, noise.noise_id))
    lines = [f"{hashlib.sha256((out / (rel + suffix)).read_bytes()).hexdigest()}  "
             f"{rel + suffix}  id={ident}"
             for rel, ident in entries for suffix in ("", ".meta")]
    (out / "manifest.txt").write_text(cfg.comment_header() + "\n".join(lines) + "\n")
    return out


CHECKPOINT_HEADER = "<IIqIIBd"
CHECKPOINT_FIELDS = ("dim", "hidden", "seed", "fs", "decim_factor", "f_frozen",
                     "input_scale")


def wav_bytes(fmt_tag: int, bits: int, payload: bytes, fs: int = 8000) -> bytes:
    """A mono WAV file's bytes: a fmt chunk of the given format tag and
    sample width, and payload as the data chunk, padded to an even
    length as RIFF requires."""
    width = bits // 8
    body = b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, fmt_tag, 1, fs, fs * width,
                                           width, bits)
    body += b"data" + struct.pack("<I", len(payload)) + payload + bytes(len(payload) & 1)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def empty_layer_net(dim: int, hidden: int) -> net.Network:
    """A network with no input samples (dim 0) or no hidden units."""
    return net.Network(w1=np.zeros((hidden, dim)), b1=np.zeros(hidden),
                       w2=np.zeros((dim, hidden)), b2=np.zeros(dim),
                       f=np.zeros((dim, dim)))


def rewrite_header(path, model: net.Network | None = None, **values) -> None:
    """Set header fields of the checkpoint at path in place, past the
    check save_checkpoint makes. Given a model, the header takes its dim
    and hidden and the body becomes its parameters."""
    raw = bytearray(path.read_bytes())
    fields = dict(zip(CHECKPOINT_FIELDS, struct.unpack_from(CHECKPOINT_HEADER, raw, 8)))
    if model is not None:
        fields.update(dim=model.dim, hidden=model.hidden)
    fields.update(values)
    struct.pack_into(CHECKPOINT_HEADER, raw, 8, *fields.values())
    if model is not None:
        name_len_at = 8 + struct.calcsize(CHECKPOINT_HEADER)
        raw = raw[:name_len_at + 1 + raw[name_len_at]] + b"".join(
            arr.astype("<f8").tobytes() for arr in model.params().values())
    path.write_bytes(bytes(raw))
