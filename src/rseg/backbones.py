"""Three encoder-decoder segmentation backbones over the autodiff core.

All convolutions preserve spatial extent ("same" padding); down-sampling
is strided convolution (unet) or 2x2 max pooling (segunet, attunet), so a
net with L levels needs input extents divisible by 2^L. Channel width at
level l is base_channels * 2^l. Forward passes emit 1-channel logits;
callers apply the sigmoid.

Skip concatenation order is decoder features first, then encoder
features; pinned so checkpoints stay compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BACKBONES = ("unet", "segunet", "attunet")


@dataclass(frozen=True)
class ModelConfig:
    backbone: str = "unet"
    levels: int = 4
    base_channels: int = 16
    recurrent: bool = False
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}, expected one of {BACKBONES}")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.base_channels < 4:
            raise ValueError(f"base_channels must be >= 4, got {self.base_channels}")

    @property
    def in_channels(self) -> int:
        # the recurrent variant feeds the previous slice's prediction as a
        # second input channel
        return 1 + (1 if self.recurrent else 0)

    def channels(self, level: int) -> int:
        return self.base_channels * (2 ** level)


class ParamStore:
    """Ordered name -> Tensor map; insertion order fixes checkpoint layout."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self._tensors: dict = {}

    def add(self, name: str, data: np.ndarray, trainable: bool) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=trainable)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self):
        return list(self._tensors)

    def items(self):
        return list(self._tensors.items())

    def trainable_items(self):
        return [(n, t) for n, t in self._tensors.items() if t.requires_grad]

    def num_trainable(self) -> int:
        return sum(t.data.size for _, t in self.trainable_items())

    def zero_grads(self) -> None:
        for _, t in self.trainable_items():
            t.grad = None


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ParamStore:
    """He-normal conv weights, zero biases, identity BN, from seeded Philox."""
    rng = np.random.Generator(np.random.Philox(seed))
    store = ParamStore(config)

    def conv(name, cout, cin, k):
        fan_in = cin * k * k
        std = np.sqrt(2.0 / fan_in)
        store.add(f"{name}.w", rng.normal(0.0, std, size=(cout, cin, k, k)).astype(dtype), True)
        store.add(f"{name}.b", np.zeros(cout, dtype=dtype), True)

    def conv_t(name, cin, cout, k):
        fan_in = cin * k * k
        std = np.sqrt(2.0 / fan_in)
        store.add(f"{name}.w", rng.normal(0.0, std, size=(cin, cout, k, k)).astype(dtype), True)
        store.add(f"{name}.b", np.zeros(cout, dtype=dtype), True)

    def bn(name, c):
        store.add(f"{name}.gamma", np.ones(c, dtype=dtype), True)
        store.add(f"{name}.beta", np.zeros(c, dtype=dtype), True)
        store.add(f"{name}.mean", np.zeros(c, dtype=dtype), False)
        store.add(f"{name}.var", np.ones(c, dtype=dtype), False)

    levels = config.levels
    ch = config.channels
    bottom = ch(levels - 1)

    if config.backbone == "unet":
        prev = config.in_channels
        for l in range(levels):
            conv(f"enc{l}.conv_a", ch(l), prev, 3)
            bn(f"enc{l}.bn_a", ch(l))
            conv(f"enc{l}.conv_b", ch(l), ch(l), 3)
            bn(f"enc{l}.bn_b", ch(l))
            prev = ch(l)
        for l in range(levels - 1, -1, -1):
            up_in = bottom if l == levels - 1 else ch(l + 1)
            conv_t(f"dec{l}.up", up_in, ch(l), 2)
            bn(f"dec{l}.bn_up", ch(l))
            conv(f"dec{l}.conv", ch(l), 2 * ch(l), 3)
            bn(f"dec{l}.bn", ch(l))
    else:
        prev = config.in_channels
        for l in range(levels):
            conv(f"enc{l}.conv1", ch(l), prev, 3)
            bn(f"enc{l}.bn1", ch(l))
            conv(f"enc{l}.conv2", ch(l), ch(l), 3)
            bn(f"enc{l}.bn2", ch(l))
            prev = ch(l)
        if config.backbone == "segunet":
            for l in range(levels - 1, -1, -1):
                out_c = ch(l - 1) if l > 0 else ch(0)
                conv(f"dec{l}.conv1", ch(l), 2 * ch(l), 3)
                bn(f"dec{l}.bn1", ch(l))
                conv(f"dec{l}.conv2", out_c, ch(l), 3)
                bn(f"dec{l}.bn2", out_c)
        else:
            for l in range(levels - 1, -1, -1):
                up_in = bottom if l == levels - 1 else ch(l + 1)
                f_int = max(ch(l) // 2, 1)
                conv(f"dec{l}.up_conv", ch(l), up_in, 3)
                bn(f"dec{l}.bn_up", ch(l))
                conv(f"att{l}.wg", f_int, ch(l), 1)
                conv(f"att{l}.wx", f_int, ch(l), 1)
                conv(f"att{l}.psi", 1, f_int, 1)
                conv(f"dec{l}.conv", ch(l), 2 * ch(l), 3)
                bn(f"dec{l}.bn", ch(l))
    conv("head", 1, ch(0), 1)
    return store


def _check_input(x: Tensor, config: ModelConfig) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"input must be (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    if c != config.in_channels:
        raise ValueError(f"input has {c} channels, config expects {config.in_channels}")
    div = 2 ** config.levels
    if h % div or w % div:
        raise ValueError(f"spatial extent {h}x{w} not divisible by 2^levels = {div}")


def _bn_relu(store, bn_name, y, train):
    cfg = store.config
    y = ad.batchnorm2d(
        y,
        store[f"{bn_name}.gamma"],
        store[f"{bn_name}.beta"],
        store[f"{bn_name}.mean"],
        store[f"{bn_name}.var"],
        train,
        cfg.bn_eps,
        cfg.bn_momentum,
    )
    return ad.relu(y)


def _cbr(store, conv_name, bn_name, x, stride, pad, train):
    y = ad.conv2d(x, store[f"{conv_name}.w"], store[f"{conv_name}.b"], (stride, stride), (pad, pad))
    return _bn_relu(store, bn_name, y, train)


def _cbr_transpose(store, conv_name, bn_name, x, train):
    y = ad.conv2d_transpose(x, store[f"{conv_name}.w"], store[f"{conv_name}.b"], (2, 2), (0, 0))
    return _bn_relu(store, bn_name, y, train)


def forward_unet(store: ParamStore, x: Tensor, train: bool = False, taps=None) -> Tensor:
    cfg = store.config
    _check_input(x, cfg)
    skips = []
    h = x
    for l in range(cfg.levels):
        a = _cbr(store, f"enc{l}.conv_a", f"enc{l}.bn_a", h, 1, 1, train)
        skips.append(a)
        h = _cbr(store, f"enc{l}.conv_b", f"enc{l}.bn_b", a, 2, 1, train)
    for l in range(cfg.levels - 1, -1, -1):
        h = _cbr_transpose(store, f"dec{l}.up", f"dec{l}.bn_up", h, train)
        h = ad.concat_channels(h, skips[l])
        h = _cbr(store, f"dec{l}.conv", f"dec{l}.bn", h, 1, 1, train)
    return ad.conv2d(h, store["head.w"], store["head.b"], (1, 1), (0, 0))


def _segstyle_encoder(store, x, train):
    cfg = store.config
    skips = []
    indices = []
    h = x
    for l in range(cfg.levels):
        h = _cbr(store, f"enc{l}.conv1", f"enc{l}.bn1", h, 1, 1, train)
        h = _cbr(store, f"enc{l}.conv2", f"enc{l}.bn2", h, 1, 1, train)
        skips.append(h)
        h, idx = ad.maxpool2d(h)
        indices.append(idx)
    return h, skips, indices


def forward_segunet(store: ParamStore, x: Tensor, train: bool = False, taps=None) -> Tensor:
    cfg = store.config
    _check_input(x, cfg)
    h, skips, indices = _segstyle_encoder(store, x, train)
    for l in range(cfg.levels - 1, -1, -1):
        h = ad.maxunpool2d(h, indices[l], skips[l].shape[2:])
        if taps is not None:
            taps[f"dec{l}.unpooled"] = h
        h = ad.concat_channels(h, skips[l])
        h = _cbr(store, f"dec{l}.conv1", f"dec{l}.bn1", h, 1, 1, train)
        h = _cbr(store, f"dec{l}.conv2", f"dec{l}.bn2", h, 1, 1, train)
    return ad.conv2d(h, store["head.w"], store["head.b"], (1, 1), (0, 0))


def attention_gate(store: ParamStore, prefix: str, g: Tensor, x_skip: Tensor):
    """alpha = sigmoid(psi(relu(Wg.g + Wx.x))); returns (x_skip * alpha, alpha)."""
    zg = ad.conv2d(g, store[f"{prefix}.wg.w"], store[f"{prefix}.wg.b"], (1, 1), (0, 0))
    zx = ad.conv2d(x_skip, store[f"{prefix}.wx.w"], store[f"{prefix}.wx.b"], (1, 1), (0, 0))
    s = ad.relu(ad.add(zg, zx))
    alpha = ad.sigmoid(ad.conv2d(s, store[f"{prefix}.psi.w"], store[f"{prefix}.psi.b"], (1, 1), (0, 0)))
    gated = ad.mul(x_skip, ad.expand_channels(alpha, x_skip.shape[1]))
    return gated, alpha


def forward_attunet(store: ParamStore, x: Tensor, train: bool = False, taps=None) -> Tensor:
    cfg = store.config
    _check_input(x, cfg)
    h, skips, _ = _segstyle_encoder(store, x, train)
    for l in range(cfg.levels - 1, -1, -1):
        h = ad.upsample_nearest2x(h)
        h = _cbr(store, f"dec{l}.up_conv", f"dec{l}.bn_up", h, 1, 1, train)
        gated, alpha = attention_gate(store, f"att{l}", h, skips[l])
        if taps is not None:
            taps[f"att{l}.alpha"] = alpha
        h = ad.concat_channels(h, gated)
        h = _cbr(store, f"dec{l}.conv", f"dec{l}.bn", h, 1, 1, train)
    return ad.conv2d(h, store["head.w"], store["head.b"], (1, 1), (0, 0))


_FORWARDS = {
    "unet": forward_unet,
    "segunet": forward_segunet,
    "attunet": forward_attunet,
}


def forward(store: ParamStore, x: Tensor, train: bool = False, taps=None) -> Tensor:
    return _FORWARDS[store.config.backbone](store, x, train, taps)
