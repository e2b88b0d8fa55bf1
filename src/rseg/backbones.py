"""Three encoder-decoder segmentation backbones over the autodiff core.

All convolutions preserve spatial extent ("same" padding); down-sampling
is strided convolution (unet) or 2x2 max pooling (segunet, attunet), so a
net with L levels needs input extents divisible by 2^L. Channel width at
level l is base_channels * 2^l. Forward passes emit 1-channel logits;
callers apply the sigmoid.

The forward pass is the only declaration of each architecture. A layer
takes its output channel count and reads its input channels off the input;
while a store is being built, it creates its own parameters on first use,
so one forward pass lays out the whole store, in checkpoint order.

Skip concatenation order is decoder features first, then encoder
features; pinned so checkpoints stay compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BACKBONES = ("unet", "segunet", "attunet")
MAX_LEVELS = 10  # slices up to 2^10 px a side: a build pass runs a 2^levels square
# channels of the widest layer, base_channels * 2^(levels - 1): the original
# U-Net's 64 * 2^4. Its 3x3 weight from a 2048-channel concat is 72 MiB in f32
MAX_WIDTH = 1024


@dataclass(frozen=True)
class ModelConfig:
    backbone: str = "unet"
    levels: int = 4
    base_channels: int = 16
    recurrent: bool = False

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}, expected one of {BACKBONES}")
        if not 2 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"levels must be in [2, {MAX_LEVELS}], got {self.levels}")
        if self.base_channels < 4:
            raise ValueError(f"base_channels must be >= 4, got {self.base_channels}")
        if self.channels(self.levels - 1) > MAX_WIDTH:
            raise ValueError(f"base_channels * 2^(levels - 1) must be at most {MAX_WIDTH}, "
                             f"got {self.channels(self.levels - 1)}")

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
        self._source = None  # set only while build_store lays the store out

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._tensors[name] = t
        return t

    def param(self, name: str, shape: tuple, fan_in: int = None, fill: float = 0.0) -> Tensor:
        """Look ``name`` up; during a build, first create it from the value source."""
        if self._source is not None and name not in self._tensors:
            return self.add(name, self._source(name, shape, fan_in, fill))
        return self[name]

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

    def num_trainable(self) -> int:
        return sum(t.data.size for t in self._tensors.values())

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = t._own = None


def build_store(config: ModelConfig, source) -> ParamStore:
    """Lay out every parameter by one untaped forward pass over a zero input.

    ``source(name, shape, fan_in, fill)`` gives each array as its layer first
    asks for it: He-normal for weights (``fan_in`` set), else constant ``fill``.
    The pass's output is discarded; a forward changes no array of the store.
    """
    store = ParamStore(config)
    store._source = source
    side = 2 ** config.levels
    with ad.no_grad():
        forward(store, Tensor(np.zeros((1, config.in_channels, side, side), dtype=np.float32)))
    store._source = None
    return store


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ParamStore:
    """He-normal conv weights, zero biases, identity BN, from seeded Philox."""
    rng = np.random.Generator(np.random.Philox(seed))

    def draw(name, shape, fan_in, fill):
        if fan_in is None:
            return np.full(shape, fill, dtype=dtype)
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)

    return build_store(config, draw)


def _check_input(x: Tensor, config: ModelConfig) -> None:
    if x.data.ndim != 4:
        raise ValueError(f"input must be (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    if c != config.in_channels:
        raise ValueError(f"input has {c} channels, config expects {config.in_channels}")
    div = 2 ** config.levels
    if h % div or w % div:
        raise ValueError(f"spatial extent {h}x{w} not divisible by 2^levels = {div}")


def _conv(store, name, x, cout, k, stride=1, pad=0, transpose=False, bias=True):
    """A conv that feeds a batch norm takes no bias: the norm subtracts it again."""
    cin = x.shape[1]
    shape = (cin, cout, k, k) if transpose else (cout, cin, k, k)
    w = store.param(f"{name}.w", shape, fan_in=cin * k * k)
    if transpose:
        return ad.conv2d_transpose(x, w)
    b = store.param(f"{name}.b", (cout,)) if bias else None
    return ad.conv2d(x, w, b, (stride, stride), (pad, pad))


def _bn_relu(store, bn_name, y):
    c = y.shape[1]
    gamma = store.param(f"{bn_name}.gamma", (c,), fill=1.0)
    beta = store.param(f"{bn_name}.beta", (c,))
    return ad.batchnorm2d(y, gamma, beta)  # the relu included


def _cbr(store, conv_name, bn_name, x, cout, stride=1):
    """3x3 "same" conv without a bias, batch norm, relu."""
    return _bn_relu(store, bn_name, _conv(store, conv_name, x, cout, 3, stride, 1, bias=False))


def forward_unet(store: ParamStore, x: Tensor) -> Tensor:
    cfg = store.config
    _check_input(x, cfg)
    skips = []
    h = x
    for l in range(cfg.levels):
        a = _cbr(store, f"enc{l}.conv_a", f"enc{l}.bn_a", h, cfg.channels(l))
        skips.append(a)
        h = _cbr(store, f"enc{l}.conv_b", f"enc{l}.bn_b", a, cfg.channels(l), stride=2)
    for l in range(cfg.levels - 1, -1, -1):
        up = _conv(store, f"dec{l}.up", h, cfg.channels(l), 2, transpose=True)
        h = _bn_relu(store, f"dec{l}.bn_up", up)
        h = ad.concat_channels(h, skips[l])
        h = _cbr(store, f"dec{l}.conv", f"dec{l}.bn", h, cfg.channels(l))
    return _conv(store, "head", h, 1, 1)


def _segstyle_encoder(store, x):
    cfg = store.config
    skips = []
    indices = []
    h = x
    for l in range(cfg.levels):
        h = _cbr(store, f"enc{l}.conv1", f"enc{l}.bn1", h, cfg.channels(l))
        h = _cbr(store, f"enc{l}.conv2", f"enc{l}.bn2", h, cfg.channels(l))
        skips.append(h)
        h, idx = ad.maxpool2d(h)
        indices.append(idx)
    return h, skips, indices


def forward_segunet(store: ParamStore, x: Tensor) -> Tensor:
    cfg = store.config
    _check_input(x, cfg)
    h, skips, indices = _segstyle_encoder(store, x)
    for l in range(cfg.levels - 1, -1, -1):
        h = ad.maxunpool2d(h, indices[l], skips[l].shape[2:])
        h = ad.concat_channels(h, skips[l])
        h = _cbr(store, f"dec{l}.conv1", f"dec{l}.bn1", h, cfg.channels(l))
        # narrow to the next level's width, so its unpooled map matches its skip
        h = _cbr(store, f"dec{l}.conv2", f"dec{l}.bn2", h, cfg.channels(max(l - 1, 0)))
    return _conv(store, "head", h, 1, 1)


def attention_gate(store: ParamStore, prefix: str, g: Tensor, x_skip: Tensor):
    """alpha = sigmoid(psi(relu(Wg.g + Wx.x + b))); returns (x_skip * alpha, alpha).

    The one bias b is wg's: a second on wx would add to the same sum, the
    same parameter stored twice.
    """
    f_int = x_skip.shape[1] // 2
    zg = _conv(store, f"{prefix}.wg", g, f_int, 1)
    zx = _conv(store, f"{prefix}.wx", x_skip, f_int, 1, bias=False)
    s = ad.relu(ad.add(zg, zx))
    alpha = ad.sigmoid(_conv(store, f"{prefix}.psi", s, 1, 1))
    gated = ad.mul(x_skip, ad.expand_channels(alpha, x_skip.shape[1]))
    return gated, alpha


def forward_attunet(store: ParamStore, x: Tensor) -> Tensor:
    cfg = store.config
    _check_input(x, cfg)
    h, skips, _ = _segstyle_encoder(store, x)
    for l in range(cfg.levels - 1, -1, -1):
        h = ad.upsample_nearest2x(h)
        h = _cbr(store, f"dec{l}.up_conv", f"dec{l}.bn_up", h, cfg.channels(l))
        gated, _ = attention_gate(store, f"att{l}", h, skips[l])
        h = ad.concat_channels(h, gated)
        h = _cbr(store, f"dec{l}.conv", f"dec{l}.bn", h, cfg.channels(l))
    return _conv(store, "head", h, 1, 1)


_FORWARDS = {
    "unet": forward_unet,
    "segunet": forward_segunet,
    "attunet": forward_attunet,
}


def forward(store: ParamStore, x: Tensor) -> Tensor:
    return _FORWARDS[store.config.backbone](store, x)
