import hashlib
from collections import Counter

import numpy as np
import pytest

from rseg import autodiff as ad
from rseg.autodiff import Tensor
from rseg.backbones import (
    ModelConfig,
    attention_gate,
    build_model,
    forward,
    forward_segunet,
)
from rseg.data import SliceSequence
from rseg.gradcheck import backbone_fd_worst, max_rel_error, numeric_grad
from rseg.loss import sequence_loss
from rseg.recurrent import unroll_forward


TINY = dict(levels=2, base_channels=4)

# sha256 of repr([(name, shape), ...]) of each TINY store; a changed name,
# shape or creation order changes every checkpoint
LAYOUT_SHA256 = {
    ("unet", False): "270f8aa5ae117ee9e318d62784830cfc9314eb5df2e1ab89f83b052936e9ccad",
    ("unet", True): "aa21ad48961cc423992a415c5f08e650f2f0533648178c1af72f8380e6f30b8a",
    ("segunet", False): "b73aa5956b2fb76125c7ddf8f2ddaace542917c25a9b913b10bb62a67d2a3037",
    ("segunet", True): "1a2b8eab06088edb78472161fd3d98a72dcf220d43f471c6fff53fef67e3516b",
    ("attunet", False): "6b7bce3b1ac7a420a758f1d4b0edddb85bd5d9a09a50b1c03f1ef8125225633e",
    ("attunet", True): "14d2c9c765c9a579f1b4840ef89ec2fdc7d27cc6ab890b17dc153cdf4f72dfdf",
}


def rand_input(rng, cfg, hw=64, dtype=np.float32):
    return Tensor(rng.normal(size=(1, cfg.in_channels, hw, hw)).astype(dtype))


class TestModelConfig:
    def test_unknown_backbone_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(backbone="resnet")

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(levels=1)

    def test_too_few_channels_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(base_channels=2)

    def test_widest_layer_bound_is_inclusive(self):
        assert ModelConfig(levels=5, base_channels=64).channels(4) == 1024
        with pytest.raises(ValueError, match="base_channels"):
            ModelConfig(levels=5, base_channels=65)

    def test_in_channels_follows_recurrence(self):
        assert ModelConfig(recurrent=False).in_channels == 1
        assert ModelConfig(recurrent=True).in_channels == 2


class TestBuild:
    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_same_seed_bit_identical(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        s1 = build_model(cfg, seed=7)
        s2 = build_model(cfg, seed=7)
        assert s1.names() == s2.names()
        for (_, a), (_, b) in zip(s1.items(), s2.items()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        cfg = ModelConfig(**TINY)
        a = build_model(cfg, seed=1)["enc0.conv_a.w"].data
        b = build_model(cfg, seed=2)["enc0.conv_a.w"].data
        assert not np.array_equal(a, b)

    def test_unet_parameter_count_closed_form(self):
        cfg = ModelConfig(backbone="unet", levels=2, base_channels=8)
        store = build_model(cfg, seed=0)
        # layer list: (out_ch, in_ch, k) conv, plus 2*C per BN; only the
        # head, which feeds no BN, has a bias
        convs = [
            (8, 1, 3), (8, 8, 3),      # enc0
            (16, 8, 3), (16, 16, 3),   # enc1
            (16, 16, 2), (16, 32, 3),  # dec1 (up + merge)
            (8, 16, 2), (8, 16, 3),    # dec0
            (1, 8, 1),                 # head
        ]
        bns = [8, 8, 16, 16, 16, 16, 8, 8]
        expected = sum(co * ci * k * k for co, ci, k in convs) + 1 + sum(2 * c for c in bns)
        assert store.num_trainable() == expected
        assert len(store.names()) == len(convs) + 1 + 2 * len(bns)

    def test_biases_zero_and_bn_identity(self):
        store = build_model(ModelConfig(backbone="attunet", **TINY), seed=3)
        for name, t in store.items():
            if name.endswith(".b") or name.endswith(".beta"):
                assert not t.data.any(), name
            if name.endswith(".gamma"):
                np.testing.assert_array_equal(t.data, np.ones_like(t.data))

    def test_he_scale(self):
        store = build_model(ModelConfig(backbone="unet", levels=2, base_channels=16), seed=5)
        w = store["dec1.conv.w"].data  # (32, 64, 3, 3): fan_in 64*9
        assert w.std() == pytest.approx(np.sqrt(2.0 / (64 * 9)), rel=0.1)

    def test_duplicate_name_rejected(self):
        store = build_model(ModelConfig(**TINY), seed=0)
        with pytest.raises(ValueError):
            store.add("head.w", np.zeros(1))

    @pytest.mark.parametrize("backbone, recurrent", list(LAYOUT_SHA256))
    def test_parameter_layout_pinned(self, backbone, recurrent):
        store = build_model(ModelConfig(backbone=backbone, recurrent=recurrent, **TINY), seed=0)
        layout = [(n, t.shape) for n, t in store.items()]
        digest = hashlib.sha256(repr(layout).encode()).hexdigest()
        assert digest == LAYOUT_SHA256[backbone, recurrent]

    def test_channel_doubling(self):
        cfg = ModelConfig(backbone="segunet", levels=3, base_channels=4)
        store = build_model(cfg, seed=0)
        for l in range(3):
            assert store[f"enc{l}.conv2.w"].shape[0] == 4 * 2 ** l


class TestForwardContracts:
    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_shape_preserved_at_default_config(self, backbone):
        cfg = ModelConfig(backbone=backbone)
        store = build_model(cfg, seed=0)
        out = forward(store, rand_input(np.random.default_rng(0), cfg))
        assert out.shape == (1, 1, 64, 64)

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_zero_head_forces_half_probability(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        store = build_model(cfg, seed=1)
        store["head.w"].data[...] = 0.0
        store["head.b"].data[...] = 0.0
        logits = forward(store, rand_input(np.random.default_rng(1), cfg, hw=16))
        np.testing.assert_array_equal(logits.data, np.zeros_like(logits.data))
        np.testing.assert_array_equal(ad.sigmoid(logits).data, np.full(logits.shape, 0.5))

    def test_indivisible_extent_rejected(self):
        cfg = ModelConfig(**TINY)
        store = build_model(cfg, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            forward(store, Tensor(np.zeros((1, 1, 18, 16), dtype=np.float32)))

    def test_wrong_channel_count_rejected(self):
        cfg = ModelConfig(recurrent=True, **TINY)
        store = build_model(cfg, seed=0)
        with pytest.raises(ValueError, match="channels"):
            forward(store, Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_eval_forward_deterministic(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        store = build_model(cfg, seed=2)
        x = rand_input(np.random.default_rng(2), cfg, hw=32)
        a = forward(store, x).data
        b = forward(store, x).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_forward_leaves_store_unchanged(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        store = build_model(cfg, seed=0)
        x = rand_input(np.random.default_rng(3), cfg, hw=16)
        before = {n: t.data.tobytes() for n, t in store.items()}
        forward(store, x)
        with ad.no_grad():
            forward(store, x)
        assert {n: t.data.tobytes() for n, t in store.items()} == before

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_same_output_bytes_with_and_without_a_tape(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        store = build_model(cfg, seed=8)
        x = rand_input(np.random.default_rng(8), cfg, hw=16)
        taped = forward(store, x)
        with ad.no_grad():
            untaped = forward(store, x)
        assert taped.requires_grad and not untaped.requires_grad
        assert taped.data.tobytes() == untaped.data.tobytes()

    def test_segunet_unpooled_maps_sparse_per_window(self, monkeypatch):
        cfg = ModelConfig(backbone="segunet", **TINY)
        store = build_model(cfg, seed=4)
        unpooled = []
        unpool = ad.maxunpool2d

        def record(*args):
            unpooled.append(unpool(*args))
            return unpooled[-1]

        monkeypatch.setattr(ad, "maxunpool2d", record)
        forward_segunet(store, rand_input(np.random.default_rng(4), cfg, hw=16))
        assert len(unpooled) == cfg.levels
        for out in unpooled:
            u = out.data
            n, c, h, w = u.shape
            windows = u.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
            assert (windows != 0).sum(axis=1).max() <= 1

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_no_dead_parameters(self, backbone):
        cfg = ModelConfig(backbone=backbone, levels=2, base_channels=8)
        store = build_model(cfg, seed=5, dtype=np.float64)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 1, 32, 32)))
        coef = Tensor(rng.normal(size=(1, 1, 32, 32)))
        ad.backward(ad.reduce_sum(ad.mul(forward(store, x), coef)))
        largest = {name: 0.0 if t.grad is None else float(np.abs(t.grad).max())
                   for name, t in store.items()}
        # a gradient of roundoff size, like a bias a batch norm cancels, is dead too
        floor = 1e-6 * max(largest.values())
        dead = [name for name, g in largest.items() if not g >= floor]
        assert not dead, f"dead parameters {dead}"

    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_no_bias_feeds_a_batch_norm(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        store = build_model(cfg, seed=0)
        out = forward(store, rand_input(np.random.default_rng(0), cfg, hw=16))
        norms = [t for t in ad.schedule(out) if t.op == "batchnorm2d"]
        assert norms
        for bn in norms:
            conv = bn._inputs[0]
            assert conv.op in ("conv2d", "conv2d_transpose") and len(conv._inputs) == 2
        biases = sorted(n for n in store.names() if n.endswith(".b"))
        gates = [f"att{l}.{c}.b" for l in range(2) for c in ("psi", "wg")]
        assert biases == sorted(["head.b"] + (gates if backbone == "attunet" else []))


class TestTape:
    @pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
    def test_the_relu_of_every_batch_norm_is_inside_it(self, backbone):
        cfg = ModelConfig(backbone=backbone, **TINY)
        store = build_model(cfg, seed=0)
        nodes = ad.schedule(forward(store, rand_input(np.random.default_rng(0), cfg, hw=16)))
        relus = [t for t in nodes if t.op == "relu"]
        assert not any(i.op == "batchnorm2d" for r in relus for i in r._inputs)
        # only the attention gates keep a relu, one each
        assert len(relus) == (cfg.levels if backbone == "attunet" else 0)

    def test_teacher_forced_unet_chunk_node_count(self):
        # the train-small step: unet L2C8, recurrent, one 8-slice chunk at 48x48,
        # teacher-forced and so one batch of 8 through the backbone
        counts = []
        for _ in range(2):
            store = build_model(ModelConfig(levels=2, base_channels=8, recurrent=True), seed=0)
            rng = np.random.default_rng(9)
            frames = rng.normal(size=(8, 1, 48, 48)).astype(np.float32)
            labels = (rng.random((8, 1, 48, 48)) > 0.5).astype(np.float32)
            seq = SliceSequence(frames, labels, (48, 48), (0, 0), (1.0, 1.0, 1.0))
            preds = unroll_forward(store, seq, teacher_forcing=True)
            nodes = ad.schedule(sequence_loss(preds, Tensor(labels)))
            counts.append(Counter(t.op for t in nodes))
        assert counts[0] == counts[1]
        # 20 backbone nodes, and one loss graph of 22 over the whole stack
        assert sum(counts[0].values()) == 42
        assert counts[0]["batchnorm2d"] == 8 and counts[0]["relu"] == 0
        assert counts[0]["sigmoid"] == 1 and counts[0]["sum"] == 4


class TestAttentionGate:
    def _gate_store(self, seed=0, dtype=np.float64):
        cfg = ModelConfig(backbone="attunet", **TINY)
        return build_model(cfg, seed, dtype=dtype)

    def test_zero_psi_forces_half_alpha(self):
        store = self._gate_store()
        store["att0.psi.w"].data[...] = 0.0
        store["att0.psi.b"].data[...] = 0.0
        rng = np.random.default_rng(6)
        g = Tensor(rng.normal(size=(1, 4, 8, 8)))
        x_skip = Tensor(rng.normal(size=(1, 4, 8, 8)))
        gated, alpha = attention_gate(store, "att0", g, x_skip)
        np.testing.assert_array_equal(alpha.data, np.full((1, 1, 8, 8), 0.5))
        np.testing.assert_allclose(gated.data, x_skip.data / 2.0, rtol=1e-12)

    def test_contraction(self):
        store = self._gate_store(seed=1)
        rng = np.random.default_rng(7)
        g = Tensor(rng.normal(size=(1, 4, 8, 8)))
        x_skip = Tensor(rng.normal(size=(1, 4, 8, 8)))
        gated, alpha = attention_gate(store, "att0", g, x_skip)
        assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)
        assert np.all(np.abs(gated.data) <= np.abs(x_skip.data))

    def test_channel_mismatch_rejected(self):
        store = self._gate_store()
        bad = Tensor(np.zeros((1, 3, 8, 8)))
        with pytest.raises(ValueError):
            attention_gate(store, "att0", bad, Tensor(np.zeros((1, 4, 8, 8))))

    def test_gradcheck_through_gate(self):
        store = self._gate_store(seed=2)
        rng = np.random.default_rng(8)
        g_arr = rng.normal(size=(1, 4, 8, 8))
        x_arr = rng.normal(size=(1, 4, 8, 8))
        coef = rng.normal(size=(1, 4, 8, 8))

        def build():
            tg = Tensor(g_arr, requires_grad=True)
            tx = Tensor(x_arr, requires_grad=True)
            gated, _ = attention_gate(store, "att0", tg, tx)
            return ad.reduce_sum(ad.mul(gated, Tensor(coef))), (tg, tx)

        loss, tensors = build()
        ad.backward(loss)
        for arr, tens in zip((g_arr, x_arr), tensors):
            num = numeric_grad(lambda: float(build()[0].data), arr, h=1e-5)
            assert max_rel_error(tens.grad, num) <= 1e-4


@pytest.mark.parametrize("backbone", ["unet", "segunet", "attunet"])
def test_backbone_end_to_end_gradcheck(backbone):
    worst = backbone_fd_worst(backbone, 0, np.random.default_rng(1000))
    assert worst <= 1e-3, f"{backbone}: worst rel error {worst:.3e}"


def test_backbone_gradcheck_with_nan_step_fails():
    worst = backbone_fd_worst("unet", 0, np.random.default_rng(0), h=float("nan"))
    assert worst == np.inf
