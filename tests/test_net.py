import math
import struct

import numpy as np
import pytest

from mbdenoise import dsp, net
from mbdenoise.errors import DataError, NumericError

from conftest import (empty_layer_net, gradient_errors, rewrite_header,
                      textbook_adam_step, textbook_backward, textbook_forward,
                      textbook_loss)

FS = 32768
# RunConfig's default step sizes.
LR, F_LR_SCALE = 1e-3, 0.5


@pytest.fixture(scope="module")
def small_spec():
    # Small frame for oracle tests: 16-dim decimated frame.
    return dsp.design_butterworth(8, 100.0, 4096.0, kernel_len=7)


def small_net(hidden=5, seed=0, dim=16, spec=None):
    spec = spec or dsp.design_butterworth(8, 100.0, 4096.0, kernel_len=7)
    return net.init_network(hidden, seed, spec, dim=dim, fs=FS)


def released_net(hidden=6, seed=4, dim=16, spec=None, rng_seed=17):
    """A network as training leaves it: F released and dense (the banded
    init plus small noise everywhere) and non-zero output bias b2."""
    n = small_net(hidden=hidden, seed=seed, dim=dim, spec=spec)
    rng = np.random.default_rng(rng_seed)
    n.f = n.f + 0.01 * rng.standard_normal(n.f.shape)
    n.b2 = 0.3 * rng.standard_normal(dim)
    n.b1 = 0.1 * rng.standard_normal(hidden)
    n.f_frozen = False
    return n


def straight_line_forward(n: net.Network, x):
    """Independent re-implementation with explicit loops."""
    hidden = len(n.b1)
    dim = len(n.b2)
    a = [0.0] * hidden
    for i in range(hidden):
        s = n.b1[i]
        for j in range(dim):
            s += n.w1[i, j] * x[j]
        a[i] = np.tanh(s)
    z = [0.0] * dim
    for i in range(dim):
        s = n.b2[i]
        for j in range(hidden):
            s += n.w2[i, j] * a[j]
        z[i] = s
    y = [0.0] * dim
    for i in range(dim):
        s = 0.0
        for j in range(dim):
            s += n.f[i, j] * z[j]
        y[i] = s
    return np.array(y)


class TestInit:
    def test_deterministic(self, small_spec):
        a = small_net(seed=77, spec=small_spec)
        b = small_net(seed=77, spec=small_spec)
        for name in ("w1", "b1", "w2", "b2", "f"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero(self, small_spec):
        n = small_net(spec=small_spec)
        assert np.all(n.b1 == 0.0) and np.all(n.b2 == 0.0)

    def test_glorot_bounds(self, small_spec):
        n = small_net(hidden=5, dim=16, spec=small_spec)
        lim = np.sqrt(6.0 / (16 + 5))
        assert np.max(np.abs(n.w1)) <= lim and np.max(np.abs(n.w2)) <= lim

    def test_filter_initialized_as_lowpass(self):
        # Passband probe: the filter layer must pass a slow sine nearly
        # unchanged (dsp oracle via direct convolution).
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(8, 0, spec, dim=256, fs=FS)
        t = np.arange(256) * 8.0 / FS
        x = np.sin(2 * np.pi * 100.0 * t)
        half = (spec.kernel.size - 1) // 2
        direct = np.convolve(x, spec.kernel)[half: half + x.size]
        assert np.max(np.abs(model.f @ x - direct)) < 1e-12

    def test_starts_frozen(self, small_spec):
        assert small_net(spec=small_spec).f_frozen is True

    def test_rejects_zero_hidden(self, small_spec):
        with pytest.raises(DataError):
            net.init_network(0, 0, small_spec)

    @pytest.mark.parametrize("hidden", [32, 64, 128])
    def test_hidden_size_sweep(self, small_spec, hidden):
        model = net.init_network(hidden, 3, small_spec, dim=16, fs=FS)
        x = np.linspace(-1, 1, 16)[np.newaxis]
        loss, grads = net.batch_loss(model, x, x, [0])
        assert math.isfinite(loss)
        assert {k: g.shape for k, g in grads.items()} == {
            k: v.shape for k, v in model.params().items() if k != "f"}


def zero_output_net(spec):
    """A network whose output is 0 for every input: w1, w2 and b2 zero."""
    n = small_net(spec=spec)
    n.w1[:] = 0.0
    n.w2[:] = 0.0
    n.b2[:] = 0.0
    return n


class TestForward:
    """The network's forward map, as the loss against known targets
    shows it."""

    def test_matches_straight_line_oracle(self, small_spec):
        rng = np.random.default_rng(5)
        n = small_net(hidden=7, seed=9, spec=small_spec)
        for _ in range(5):
            x, t = rng.standard_normal(16), rng.standard_normal(16)
            y = straight_line_forward(n, x)
            Y, _, _ = textbook_forward(n, x[np.newaxis])
            assert np.max(np.abs(Y[0] - y)) < 1e-12
            loss, _ = net.batch_loss(n, x[np.newaxis], t[np.newaxis], [0])
            assert loss == pytest.approx(float(np.sum((y - t) ** 2)), rel=1e-12)

    def test_zero_weights_zero_output(self, small_spec):
        # A zero output leaves the target's energy as the loss.
        n = zero_output_net(small_spec)
        loss, _ = net.batch_loss(n, np.ones((1, 16)), np.ones((1, 16)), [0])
        assert loss == 16.0

    def test_unit_bias_isolates_filter_column(self, small_spec):
        n = zero_output_net(small_spec)
        n.b1[:] = 0.0
        n.b2[3] = 1.0
        column = n.f[:, 3][np.newaxis]
        at_column, _ = net.batch_loss(n, np.zeros((1, 16)), column, [0])
        at_zero, _ = net.batch_loss(n, np.zeros((1, 16)), np.zeros((1, 16)), [0])
        assert 0.0 <= at_column <= 1e-12 * float(np.sum(column ** 2))
        assert at_zero == pytest.approx(float(np.sum(column ** 2)), rel=1e-12)

    def test_folded_matches_explicit_filter_product(self, small_spec):
        rng = np.random.default_rng(8)
        n = released_net(spec=small_spec)
        X, T = rng.standard_normal((5, 16)), rng.standard_normal((5, 16))
        explicit = (np.tanh(X @ n.w1.T + n.b1) @ n.w2.T + n.b2) @ n.f.T
        loss, _ = net.batch_loss(n, X, T, np.arange(5))
        assert loss == pytest.approx(float(np.sum((explicit - T) ** 2)) / 5, rel=1e-12)

    def test_batch_matches_single(self, small_spec):
        rng = np.random.default_rng(6)
        n = small_net(spec=small_spec)
        X, T = rng.standard_normal((4, 16)), rng.standard_normal((4, 16))
        loss, _ = net.batch_loss(n, X, T, np.arange(4))
        singles = [net.batch_loss(n, X[i:i + 1], T[i:i + 1], [0])[0] for i in range(4)]
        assert loss == pytest.approx(np.mean(singles), rel=1e-12)


class TestMseLoss:
    """The loss of a network whose output is zero: the batch mean of
    each row's target energy."""

    def test_identical_is_zero(self, small_spec):
        loss, _ = net.batch_loss(zero_output_net(small_spec), np.ones((2, 16)),
                                 np.zeros((1, 16)), [0, 0])
        assert loss == 0.0

    def test_simple_sum(self, small_spec):
        t = np.zeros((1, 16))
        t[0, 0], t[0, 1] = 1.0, -1.0
        loss, _ = net.batch_loss(zero_output_net(small_spec), np.ones((1, 16)), t, [0])
        assert loss == 2.0

    def test_random_matches_independent_sum(self, small_spec):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((1, 16))
        expected = sum(float(v) ** 2 for v in t[0])
        loss, _ = net.batch_loss(zero_output_net(small_spec), np.ones((1, 16)), t, [0])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_batch_is_mean_of_per_example_sums(self, small_spec):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 16))
        per = [float(np.sum(t ** 2)) for t in T]
        loss, _ = net.batch_loss(zero_output_net(small_spec), np.ones((3, 16)), T,
                                 np.arange(3))
        assert loss == pytest.approx(np.mean(per), abs=1e-12)


class TestBatchLoss:
    @pytest.mark.parametrize("rows", [
        [0, 0, 0, 1, 1, 2, 2, 2],
        [0, 1, 1, 1, 2, 2],  # target 3 unused
        [2, 0, 1, 2, 0, 0, 3, 1, 2],
    ], ids=["repeated-targets", "one-row-group", "shuffled"])
    def test_matches_oracle(self, small_spec, rows):
        rng = np.random.default_rng(len(rows))
        n = released_net(spec=small_spec)
        X = rng.standard_normal((len(rows), 16))
        C = rng.standard_normal((4, 16))
        loss, grads = net.batch_loss(n, X, C, rows)
        assert loss == pytest.approx(textbook_loss(n, X, C[rows]), rel=1e-12)
        reference = textbook_backward(n, X, C[rows])
        assert grads.keys() == reference.keys()
        for k, g in reference.items():
            assert np.max(np.abs(grads[k] - g)) <= 1e-12 * np.max(np.abs(g)), k

    def test_perfect_fit(self, small_spec):
        # Rows that share a target share their input, and each target is
        # the network's own output, so every residual is zero.
        rng = np.random.default_rng(19)
        n = released_net(spec=small_spec)
        X0 = rng.standard_normal((3, 16))
        C, _, _ = textbook_forward(n, X0)
        rows = np.array([2, 0, 0, 1, 2, 2, 1])
        loss, _ = net.batch_loss(n, X0[rows], C, rows)
        assert 0.0 <= loss < 1e-12 * float(np.sum(C[rows] ** 2))

    def test_nan_input_row_rejected(self, small_spec):
        X = np.random.default_rng(20).standard_normal((4, 16))
        X[2, 5] = np.nan
        with pytest.raises(NumericError):
            net.batch_loss(released_net(spec=small_spec), X, X[:2], [0, 1, 0, 1])


class TestBackward:
    def test_zero_grad_out_gives_zero_grads(self, small_spec):
        # A zero output against zero targets; a frozen filter gets no
        # gradient at all.
        n = zero_output_net(small_spec)
        for frozen in (True, False):
            n.f_frozen = frozen
            _, grads = net.batch_loss(n, np.linspace(-1, 1, 16)[np.newaxis],
                                      np.zeros((1, 16)), [0])
            assert grads.keys() == {k for k in n.params() if not (frozen and k == "f")}
            for g in grads.values():
                assert np.all(g == 0.0)

    @staticmethod
    def max_fd_error(n: net.Network) -> float:
        rng = np.random.default_rng(11)
        x = rng.standard_normal(16)
        t = rng.standard_normal(16)
        return float(np.max(gradient_errors(n, x, t, samples_per_group=40, rng=rng)))

    def test_finite_difference_all_groups(self, small_spec):
        assert self.max_fd_error(small_net(hidden=6, seed=4, spec=small_spec)) < 1e-4

    def test_finite_difference_released_dense_filter(self, small_spec):
        # A dense F and a non-zero b2 exercise the f.T @ d[P|c] and
        # d[P|c] @ [w2|b2].T terms of the folded gradients, which an
        # init network hides.
        assert self.max_fd_error(released_net(hidden=6, seed=4, spec=small_spec)) < 1e-4

    def test_linear_path_filter_gradient(self, small_spec):
        # Bypass the tanh path: w1 = w2 = 0 makes y = f @ b2, so for the
        # loss of one row dL/df is the outer product 2 (y - t) x b2 (hand
        # derivation); t is chosen to make 2 (y - t) = grad_out.
        n = zero_output_net(small_spec)
        n.b2[:] = np.linspace(0.5, 2.0, 16)
        n.f_frozen = False
        grad_out = np.arange(16.0)
        t = n.f @ n.b2 - grad_out / 2
        _, grads = net.batch_loss(n, np.zeros((1, 16)), t[np.newaxis], [0])
        assert np.max(np.abs(grads["f"] - np.outer(grad_out, n.b2))) < 1e-12

    def test_batch_matches_sum_of_singles(self, small_spec):
        rng = np.random.default_rng(12)
        n = small_net(spec=small_spec)
        n.f_frozen = False
        X, T = rng.standard_normal((3, 16)), rng.standard_normal((3, 16))
        _, batch = net.batch_loss(n, X, T, np.arange(3))
        summed = {k: np.zeros_like(v) for k, v in batch.items()}
        for i in range(3):
            for k, g in net.batch_loss(n, X[i:i + 1], T[i:i + 1], [0])[1].items():
                summed[k] += g / 3
        for k in batch:
            assert np.max(np.abs(batch[k] - summed[k])) < 1e-10


class TestAdam:
    def test_frozen_filter_untouched(self, small_spec):
        n = small_net(spec=small_spec)
        before = n.f.copy()
        state = net.AdamState()
        grads = {k: np.ones_like(v) for k, v in n.params().items()}
        for _ in range(5):
            net.adam_step(n, grads, state, LR, F_LR_SCALE)
        assert np.array_equal(n.f, before)
        assert "f" not in state.m

    def test_zero_gradients_no_change(self, small_spec):
        n = small_net(spec=small_spec)
        n.f_frozen = False
        snapshot = {k: v.copy() for k, v in n.params().items()}
        zeros = {k: np.zeros_like(v) for k, v in n.params().items()}
        net.adam_step(n, zeros, net.AdamState(), LR, F_LR_SCALE)
        for k, v in n.params().items():
            assert np.array_equal(v, snapshot[k])

    def test_scalar_step_matches_hand_calculation(self, small_spec):
        # One Adam step on a single parameter, lr 0.1, gradient 0.5:
        # m = (1-b1)*g = 0.05, v = (1-b2)*g^2 = 2.5e-4, m_hat = 0.5,
        # v_hat = 0.25, theta -= 0.1 * 0.5 / (0.5 + 1e-8).
        n = small_net(spec=small_spec)
        n.w1[:] = 0.0
        n.w1[0, 0] = 1.0
        grads = {k: np.zeros_like(v) for k, v in n.params().items()}
        grads["w1"][0, 0] = 0.5
        net.adam_step(n, grads, net.AdamState(), 0.1, F_LR_SCALE)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert n.w1[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_release_starts_fresh_clock(self, small_spec):
        n = small_net(spec=small_spec)
        state = net.AdamState()
        grads = {k: np.ones_like(v) * 0.1 for k, v in n.params().items()}
        net.adam_step(n, grads, state, LR, F_LR_SCALE)
        net.adam_step(n, grads, state, LR, F_LR_SCALE)
        n.f_frozen = False
        net.adam_step(n, grads, state, LR, F_LR_SCALE)
        assert state.t["w1"] == 3 and state.t["f"] == 1

    def test_in_place_step_matches_allocating_formula(self, small_spec):
        # Dense random gradients over seven steps; the filter is released
        # after the third, so its own clock starts at 1 there.
        rng = np.random.default_rng(14)
        n, ref = released_net(spec=small_spec), released_net(spec=small_spec)
        n.f_frozen = ref.f_frozen = True
        state, moments = net.AdamState(), {}
        for step in range(7):
            if step == 3:
                n.f_frozen = ref.f_frozen = False
            grads = {k: rng.standard_normal(v.shape) for k, v in n.params().items()}
            net.adam_step(n, grads, state, lr=0.01, f_lr_scale=0.3)
            textbook_adam_step(ref, grads, moments, lr=0.01, f_lr_scale=0.3)
            for k, v in ref.params().items():
                assert np.array_equal(n.params()[k], v), (step, k)
            for k, (m, v, t) in moments.items():
                assert np.array_equal(state.m[k], m) and np.array_equal(state.v[k], v)
                assert state.t[k] == t
        assert state.t == {"w1": 7, "b1": 7, "w2": 7, "b2": 7, "f": 4}

    def test_nonfinite_gradients_rejected(self, small_spec):
        n = small_net(spec=small_spec)
        grads = {k: np.zeros_like(v) for k, v in n.params().items()}
        grads["w2"][0, 0] = np.inf
        with pytest.raises(NumericError):
            net.adam_step(n, grads, net.AdamState(), LR, F_LR_SCALE)

    def test_training_determinism(self, small_spec):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 16))
        T = rng.standard_normal((6, 16))

        def run():
            n = small_net(hidden=4, seed=21, spec=small_spec)
            n.f_frozen = False
            state = net.AdamState()
            for _ in range(40):
                _, grads = net.batch_loss(n, X, T, np.arange(6))
                net.adam_step(n, grads, state, LR, F_LR_SCALE)
            return n

        a, b = run(), run()
        for k in a.params():
            assert np.array_equal(a.params()[k], b.params()[k])


BAD_HEADER_VALUES = [
    ("fs", 0), ("decim_factor", 0), ("input_scale", 0.0), ("input_scale", -2.0),
    ("input_scale", math.nan), ("input_scale", math.inf),
]
EMPTY_LAYERS = [(0, 0), (0, 4), (256, 0)]


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path, small_spec):
        n = small_net(hidden=6, seed=8, spec=small_spec)
        n.input_scale = 17.25
        n.f_frozen = False
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, n)
        loaded = net.load_checkpoint(path)
        for k in n.params():
            assert np.array_equal(n.params()[k], loaded.params()[k])
        assert loaded.hidden == 6 and loaded.seed == 8
        assert loaded.input_scale == 17.25
        assert loaded.f_frozen is False
        assert loaded.fs == FS

    def test_byte_stable_resave(self, tmp_path, small_spec):
        n = small_net(spec=small_spec)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        net.save_checkpoint(p1, n)
        net.save_checkpoint(p2, net.load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"never a checkpoint")
        with pytest.raises(DataError):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 20, 300, -8])
    def test_rejects_truncated(self, tmp_path, small_spec, keep):
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, small_net(spec=small_spec))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataError):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("field, value", BAD_HEADER_VALUES)
    def test_rejects_bad_header_value(self, tmp_path, small_spec, field, value):
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, small_net(spec=small_spec))
        rewrite_header(path, **{field: value})
        with pytest.raises(DataError, match="checkpoint header needs"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("dim, hidden", EMPTY_LAYERS)
    def test_rejects_empty_layer(self, tmp_path, small_spec, dim, hidden):
        # The body matches the header, so only the header check can
        # catch a network with no input samples or no hidden units.
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, small_net(spec=small_spec))
        rewrite_header(path, empty_layer_net(dim, hidden))
        with pytest.raises(DataError, match="needs dim >= 1 and hidden >= 1"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("field, value", BAD_HEADER_VALUES)
    def test_save_refuses_bad_header_value(self, tmp_path, small_spec, field, value):
        model = small_net(spec=small_spec)
        setattr(model, field, value)
        path = tmp_path / "model.bin"
        with pytest.raises(DataError, match="checkpoint header needs"):
            net.save_checkpoint(path, model)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dim, hidden", EMPTY_LAYERS)
    def test_save_refuses_empty_layer(self, tmp_path, dim, hidden):
        path = tmp_path / "model.bin"
        with pytest.raises(DataError, match="needs dim >= 1 and hidden >= 1"):
            net.save_checkpoint(path, empty_layer_net(dim, hidden))
        assert list(tmp_path.iterdir()) == []

    def test_rejects_other_activation(self, tmp_path, small_spec):
        # The network only computes tanh; a checkpoint naming another
        # activation must not load and silently run tanh.
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, small_net(spec=small_spec))
        raw = path.read_bytes()
        name_at = 8 + struct.calcsize("<IIqIIBd") + 1
        assert raw[name_at:name_at + 4] == b"tanh"
        path.write_bytes(raw[:name_at] + b"relu" + raw[name_at + 4:])
        with pytest.raises(DataError, match="activation 'relu'"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("w1", np.nan), ("f", np.inf),
                                             ("b2", -np.inf)])
    def test_rejects_non_finite_parameter(self, tmp_path, small_spec, name, value):
        model = small_net(spec=small_spec)
        param = getattr(model, name).copy()
        param.flat[-1] = value
        setattr(model, name, param)
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, model)
        with pytest.raises(DataError, match=f"parameter {name} holds NaN or Inf") as info:
            net.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_rejects_trailing_bytes(self, tmp_path, small_spec):
        path = tmp_path / "model.bin"
        net.save_checkpoint(path, small_net(spec=small_spec))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DataError):
            net.load_checkpoint(path)


class TestDenoiseFrame:
    def test_output_length(self):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(8, 0, spec, dim=256, fs=FS)
        out = net.denoise_frame(model, np.zeros(2048))
        assert out.shape == (2048,)
        assert np.all(np.isfinite(out))

    def test_rejects_wrong_length(self):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(8, 0, spec, dim=256, fs=FS)
        with pytest.raises(DataError):
            net.denoise_frame(model, np.zeros(1000))

    def test_rejects_nonfinite(self):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(8, 0, spec, dim=256, fs=FS)
        frame = np.zeros(2048)
        frame[100] = np.nan
        with pytest.raises(NumericError):
            net.denoise_frame(model, frame)

    def test_batch_matches_single_frames(self):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(16, 1, spec, dim=256, fs=FS)
        model.input_scale = 3.5
        frames = np.random.default_rng(5).uniform(-2.0, 2.0, (4, 2048))
        batch = net.compile_plan(model)(frames)
        assert batch.shape == frames.shape
        for frame, out in zip(frames, batch):
            assert np.max(np.abs(net.denoise_frame(model, frame) - out)) < 1e-12

    def test_batch_rejects_wrong_shape(self):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(8, 0, spec, dim=256, fs=FS)
        plan = net.compile_plan(model)
        with pytest.raises(DataError):
            plan(np.zeros(2048))
        with pytest.raises(DataError):
            plan(np.zeros((2, 1000)))

    def test_bounded_on_bounded_input(self):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
        model = net.init_network(16, 1, spec, dim=256, fs=FS)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, 2048)
        out = net.denoise_frame(model, x)
        assert np.all(np.isfinite(out))


def trained_like_net(hidden=16, seed=1, rng_seed=9):
    """A full-size network with F released and dense, non-zero biases
    and an input scale that is not 1, as training leaves it."""
    spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
    n = net.init_network(hidden, seed, spec, dim=256, fs=FS)
    rng = np.random.default_rng(rng_seed)
    n.f = n.f + 0.01 * rng.standard_normal(n.f.shape)
    n.b1 = 0.1 * rng.standard_normal(hidden)
    n.b2 = 0.3 * rng.standard_normal(256)
    n.input_scale = 3.5
    return n


def explicit_chain(n: net.Network, frames):
    """Inference as decimate, scale, textbook forward, unscale, interpolate."""
    X = dsp.decimate(frames, n.fs, n.decim_factor) / n.input_scale
    Y, _, _ = textbook_forward(n, X)
    return dsp.interpolate(Y * n.input_scale, n.fs, n.decim_factor)


class TestPlan:
    def test_matches_explicit_chain(self):
        n = trained_like_net()
        frames = np.random.default_rng(6).normal(0.0, 4.0, (9, 2048))
        ref = explicit_chain(n, frames)
        for out in (net.compile_plan(n)(frames),
                    np.stack([net.denoise_frame(n, frame) for frame in frames])):
            assert out.shape == frames.shape
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        n = trained_like_net()
        frames = np.zeros((3, 2048))
        frames[1, 700] = bad
        with pytest.raises(NumericError):
            net.compile_plan(n)(frames)
        with pytest.raises(NumericError):
            net.denoise_frame(n, frames[1])

    def test_loaded_checkpoint_compiles_once(self, tmp_path, monkeypatch):
        net.save_checkpoint(tmp_path / "c.bin", trained_like_net())
        loaded = net.load_checkpoint(tmp_path / "c.bin")
        compiled = []
        compile_plan = net.compile_plan
        monkeypatch.setattr(net, "compile_plan",
                            lambda m: compiled.append(m) or compile_plan(m))
        frame = np.random.default_rng(2).standard_normal(2048)
        first = net.denoise_frame(loaded, frame)
        assert np.array_equal(net.denoise_frame(loaded, frame), first)
        assert len(compiled) == 1
        assert all(not arr.flags.writeable for arr in loaded.params().values())
        with pytest.raises(ValueError):
            loaded.w2[0, 0] += 1.0

    def test_follows_assigned_parameters(self, tmp_path):
        net.save_checkpoint(tmp_path / "c.bin", trained_like_net())
        loaded = net.load_checkpoint(tmp_path / "c.bin")
        frame = np.random.default_rng(3).normal(0.0, 4.0, 2048)
        net.denoise_frame(loaded, frame)
        for change in (lambda m: setattr(m, "w2", 0.5 * m.w2),
                       lambda m: setattr(m, "input_scale", 2.0 * m.input_scale),
                       lambda m: setattr(m, "f", m.f + 0.01)):
            before = net.denoise_frame(loaded, frame)
            change(loaded)
            after = net.denoise_frame(loaded, frame)
            ref = explicit_chain(loaded, frame[np.newaxis])[0]
            assert not np.allclose(after, before)
            assert np.max(np.abs(after - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_follows_in_place_training_updates(self):
        n = trained_like_net()
        frame = np.random.default_rng(4).normal(0.0, 4.0, 2048)
        before = net.denoise_frame(n, frame)
        n.b2 += 0.5  # an in-place update, as adam_step makes
        after = net.denoise_frame(n, frame)
        ref = explicit_chain(n, frame[np.newaxis])[0]
        assert not np.allclose(after, before)
        assert np.max(np.abs(after - ref)) <= 1e-12 * np.max(np.abs(ref))
