import math
import struct

import numpy as np
import pytest

from mbdenoise import dsp, net
from mbdenoise.errors import DataError, NumericError

from conftest import (empty_layer_net, gradient_errors, rewrite_header,
                      textbook_adam_step)

FS = 32768


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
        Y, _ = net.forward_batch(model, np.linspace(-1, 1, 16)[np.newaxis])
        assert Y.shape == (1, 16) and np.all(np.isfinite(Y))


class TestForward:
    def test_zero_weights_zero_output(self, small_spec):
        n = small_net(spec=small_spec)
        n.w1[:] = 0.0
        n.w2[:] = 0.0
        Y, _ = net.forward_batch(n, np.ones((1, 16)))
        assert np.all(Y == 0.0)

    def test_unit_bias_isolates_filter_column(self, small_spec):
        n = small_net(spec=small_spec)
        n.w1[:] = 0.0
        n.b1[:] = 0.0
        n.w2[:] = 0.0
        n.b2[:] = 0.0
        n.b2[3] = 1.0
        Y, _ = net.forward_batch(n, np.zeros((1, 16)))
        assert np.array_equal(Y[0], n.f[:, 3])

    def test_matches_straight_line_oracle(self, small_spec):
        rng = np.random.default_rng(5)
        n = small_net(hidden=7, seed=9, spec=small_spec)
        for _ in range(5):
            x = rng.standard_normal(16)
            Y, _ = net.forward_batch(n, x[np.newaxis])
            assert np.max(np.abs(Y[0] - straight_line_forward(n, x))) < 1e-12

    def test_folded_matches_explicit_filter_product(self, small_spec):
        rng = np.random.default_rng(8)
        n = released_net(spec=small_spec)
        X = rng.standard_normal((5, 16))
        Y, _ = net.forward_batch(n, X)
        explicit = (np.tanh(X @ n.w1.T + n.b1) @ n.w2.T + n.b2) @ n.f.T
        assert np.max(np.abs(Y - explicit)) <= 1e-12 * np.max(np.abs(explicit))

    def test_batch_matches_single(self, small_spec):
        rng = np.random.default_rng(6)
        n = small_net(spec=small_spec)
        X = rng.standard_normal((4, 16))
        Y, _ = net.forward_batch(n, X)
        for i in range(4):
            y, _ = net.forward_batch(n, X[i:i + 1])
            assert np.max(np.abs(Y[i] - y[0])) < 1e-12


class TestMseLoss:
    def test_identical_is_zero(self):
        y = np.arange(5.0)
        assert net.residual_loss(y - y) == 0.0

    def test_simple_sum(self):
        y = np.zeros(8)
        t = np.zeros(8)
        y[0], y[1] = 1.0, -1.0
        assert net.residual_loss(y - t) == 2.0

    def test_random_matches_independent_sum(self):
        rng = np.random.default_rng(2)
        y, t = rng.standard_normal(64), rng.standard_normal(64)
        expected = sum((float(a) - float(b)) ** 2 for a, b in zip(y, t))
        assert net.residual_loss(y - t) == pytest.approx(expected, abs=1e-12)

    def test_batch_is_mean_of_per_example_sums(self):
        rng = np.random.default_rng(3)
        Y, T = rng.standard_normal((3, 10)), rng.standard_normal((3, 10))
        per = [net.residual_loss(Y[i] - T[i]) for i in range(3)]
        assert net.residual_loss(Y - T) == pytest.approx(np.mean(per), abs=1e-12)


class TestBackward:
    def test_zero_grad_out_gives_zero_grads(self, small_spec):
        n = small_net(spec=small_spec)
        _, cache = net.forward_batch(n, np.linspace(-1, 1, 16)[np.newaxis])
        grads = net.backward_batch(n, cache, np.zeros((1, 16)))
        assert grads.keys() == n.params().keys()
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
        # A dense F and a non-zero b2 exercise the f.T @ dP and dc b2.T
        # terms of the folded backward, which an init network hides.
        assert self.max_fd_error(released_net(hidden=6, seed=4, spec=small_spec)) < 1e-4

    def test_linear_path_filter_gradient(self, small_spec):
        # Bypass the tanh path: w1 = 0 makes z = b2, so dL/df is the
        # outer product grad_out x b2 (hand derivation).
        n = small_net(spec=small_spec)
        n.w1[:] = 0.0
        n.w2[:] = 0.0
        n.b2[:] = np.linspace(0.5, 2.0, 16)
        _, cache = net.forward_batch(n, np.zeros((1, 16)))
        grad_out = np.arange(16.0)
        grads = net.backward_batch(n, cache, grad_out[np.newaxis])
        assert np.max(np.abs(grads["f"] - np.outer(grad_out, n.b2))) < 1e-12

    def test_batch_matches_sum_of_singles(self, small_spec):
        rng = np.random.default_rng(12)
        n = small_net(spec=small_spec)
        X = rng.standard_normal((3, 16))
        G = rng.standard_normal((3, 16))
        Yb, cacheb = net.forward_batch(n, X)
        batch = net.backward_batch(n, cacheb, G)
        summed = {k: np.zeros_like(v) for k, v in batch.items()}
        for i in range(3):
            _, cache = net.forward_batch(n, X[i:i + 1])
            for k, g in net.backward_batch(n, cache, G[i:i + 1]).items():
                summed[k] += g
        for k in batch:
            assert np.max(np.abs(batch[k] - summed[k])) < 1e-10


class TestAdam:
    def test_frozen_filter_untouched(self, small_spec):
        n = small_net(spec=small_spec)
        before = n.f.copy()
        state = net.AdamState()
        grads = {k: np.ones_like(v) for k, v in n.params().items()}
        for _ in range(5):
            net.adam_step(n, grads, state)
        assert np.array_equal(n.f, before)
        assert "f" not in state.m

    def test_zero_gradients_no_change(self, small_spec):
        n = small_net(spec=small_spec)
        n.f_frozen = False
        snapshot = {k: v.copy() for k, v in n.params().items()}
        zeros = {k: np.zeros_like(v) for k, v in n.params().items()}
        net.adam_step(n, zeros, net.AdamState())
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
        net.adam_step(n, grads, net.AdamState(), lr=0.1)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert n.w1[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_release_starts_fresh_clock(self, small_spec):
        n = small_net(spec=small_spec)
        state = net.AdamState()
        grads = {k: np.ones_like(v) * 0.1 for k, v in n.params().items()}
        net.adam_step(n, grads, state)
        net.adam_step(n, grads, state)
        n.f_frozen = False
        net.adam_step(n, grads, state)
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
            net.adam_step(n, grads, net.AdamState())

    def test_training_determinism(self, small_spec):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((6, 16))
        T = rng.standard_normal((6, 16))

        def run():
            n = small_net(hidden=4, seed=21, spec=small_spec)
            n.f_frozen = False
            state = net.AdamState()
            for _ in range(40):
                Y, cache = net.forward_batch(n, X)
                grads = net.backward_batch(n, cache, (2.0 / 6) * (Y - T))
                net.adam_step(n, grads, state)
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
    """Inference as decimate, scale, forward_batch, unscale, interpolate."""
    X = dsp.decimate(frames, n.fs, n.decim_factor) / n.input_scale
    Y, _ = net.forward_batch(n, X)
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
