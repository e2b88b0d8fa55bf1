"""Sequence training: Adam over backprop-through-time with early stopping.

A model is trained one sequence chunk per optimizer step. Long sequences are
split into consecutive chunks of at most ``max_seq_len`` slices. A chunk's
first slice is fed what ``recurrent.next_feed`` gives for the slice before it
(its label under teacher forcing, else its prediction) as a constant, so
gradients never flow across chunk boundaries regardless of mode. Early
stopping monitors the validation mean combined loss and restores the best
snapshot seen. Training, validation and ``segment`` run the same arithmetic:
each batch norm normalizes a slice by that slice's own statistics, whether
``unroll_forward`` runs a teacher-forced chunk as one batch or feeds one
slice per call.

Checkpoints use a small binary format ("RSCK" version 3): magic, version, a
UTF-8 ``key = value`` echo of the model config, every named parameter as an
f32 little-endian payload, then a CRC-32 (zlib) of all preceding bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import ModelConfig, ParamStore, build_store
from .data import SliceSequence, _write_atomic
from .loss import combined_loss, sequence_loss
from .metrics import VolumeMask, dice_coefficient
from .recurrent import MODES, next_feed, segment_sequence, unroll_forward

CHECKPOINT_MAGIC = b"RSCK"
CHECKPOINT_VERSION = 3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 40
    patience: int = 10
    seed: int = 0
    bptt_mode: str = "detach"
    teacher_forcing: bool = False
    threshold: float = 0.5
    max_seq_len: int = 8

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.bptt_mode not in MODES:
            raise ValueError(f"bptt_mode must be one of {MODES}, got {self.bptt_mode!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be at least 1, got {self.max_seq_len}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_dice: float


class AdamState:
    """First/second moment accumulators mirroring the parameters."""

    def __init__(self, params: ParamStore):
        self.step_count = 0
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}


def adam_step(params: ParamStore, state: AdamState, lr: float) -> None:
    """Apply one Adam update in place from each parameter's .grad, then clear it.

    A tensor without a .grad (the loss never reached it) counts as a zero
    gradient; moments advance even when lr is 0.
    """
    if lr < 0.0:
        raise ValueError(f"lr must be nonnegative, got {lr}")
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    for name, tens in params.items():
        g = np.zeros_like(tens.data) if tens.grad is None else tens.grad
        tens.grad = tens._own = None
        if g.shape != tens.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match {name!r} {tens.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        tens.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def sequence_gradients(params: ParamStore, tconfig: TrainConfig, seq: SliceSequence,
                       y0: np.ndarray = None):
    """Unroll, sum per-slice losses, backprop into each .grad; (loss, last prediction)."""
    if seq.labels is None:
        raise ValueError("training requires a labeled sequence")
    start = None if y0 is None else Tensor(y0)
    out = unroll_forward(params, seq, y0=start, mode=tconfig.bptt_mode,
                         teacher_forcing=tconfig.teacher_forcing)
    loss = sequence_loss(out, Tensor(seq.labels))
    params.zero_grads()
    ad.backward(loss)
    return float(loss.data), out.data[-1:]


def train_step(params: ParamStore, tconfig: TrainConfig, state: AdamState,
               seq: SliceSequence, y0: np.ndarray = None):
    """One optimizer step on one chunk; returns (loss, feed for the next chunk's first slice)."""
    loss, y_last = sequence_gradients(params, tconfig, seq, y0)
    adam_step(params, state, tconfig.lr)
    return loss, next_feed(seq, len(seq) - 1, Tensor(y_last), tconfig.teacher_forcing).data


def _chunks(seq: SliceSequence, max_len: int):
    for i in range(0, len(seq), max_len):
        yield replace(seq, frames=seq.frames[i:i + max_len], labels=seq.labels[i:i + max_len])


def validation_stats(params: ParamStore, tconfig: TrainConfig, val_set):
    """``segment_sequence`` on each sequence; (mean per-slice loss, mean volume Dice)."""
    losses, dices = [], []
    for seq in val_set:
        if seq.labels is None:
            raise ValueError("validation requires labeled sequences")
        probs, mask = segment_sequence(params, seq, tconfig.threshold)
        losses.append(combined_loss(probs, Tensor(seq.labels), items=len(seq)).data)
        gt = seq.restore(seq.labels > 0.5)
        dices.append(dice_coefficient(mask, VolumeMask(gt, seq.spacing_mm)))
    losses = np.concatenate(losses)
    # a running f64 total of the slice losses, added in slice order
    return float(np.cumsum(losses, dtype=np.float64)[-1] / len(losses)), float(np.mean(dices))


def train(params: ParamStore, tconfig: TrainConfig, train_set, val_set):
    """Epoch loop with seeded shuffling; leaves params at the best snapshot."""
    if not train_set:
        raise ValueError("training set must not be empty")
    if not val_set:
        raise ValueError("validation set must not be empty")
    for seq in train_set:
        if seq.labels is None:
            raise ValueError("training requires labeled sequences")
    if not all(len(seq) for seq in (*train_set, *val_set)):
        raise ValueError("training and validation sequences must hold at least one slice")
    state = AdamState(params)
    rng = np.random.Generator(np.random.Philox(tconfig.seed))
    history = []
    best_val = np.inf
    best_snapshot = None
    stale = 0
    for epoch in range(tconfig.epochs):
        total = 0.0
        slices = 0
        for idx in rng.permutation(len(train_set)):
            carry = None
            for chunk in _chunks(train_set[idx], tconfig.max_seq_len):
                loss, carry = train_step(params, tconfig, state, chunk, y0=carry)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite training loss {loss!r} at epoch {epoch}, sequence {idx}"
                    )
                total += loss
                slices += len(chunk)
        val_loss, val_dice = validation_stats(params, tconfig, val_set)
        if not np.isfinite(val_loss):
            raise FloatingPointError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch, total / slices, val_loss, val_dice))
        if val_loss < best_val:
            best_val = val_loss
            # after the last epoch the params are the best: nothing to restore
            best_snapshot = (None if epoch == tconfig.epochs - 1
                             else {n: t.data.copy() for n, t in params.items()})
            stale = 0
        else:
            stale += 1
            if stale >= tconfig.patience:
                break
    if best_snapshot is not None:
        for name, tens in params.items():
            tens.data[...] = best_snapshot[name]
    return history


def _config_blob(config: ModelConfig) -> bytes:
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(ModelConfig)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_config(blob: bytes) -> ModelConfig:
    # each key's type is that of its ModelConfig default: str, int, bool or float
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    kwargs = {}
    for raw in blob.decode("utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise ValueError(f"malformed config line {raw!r} in checkpoint")
        kind = kinds.get(key)
        if kind is None:
            raise ValueError(f"unknown config key {key!r} in checkpoint")
        try:
            if kind is bool and value not in ("True", "False"):
                raise ValueError(f"bad boolean {value!r}")
            kwargs[key] = value == "True" if kind is bool else kind(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return ModelConfig(**kwargs)


def save_checkpoint(params: ParamStore, path) -> None:
    """Atomic write (temp file then rename) of every named array as f32, CRC-32 last."""
    blob = _config_blob(params.config)
    entries = params.items()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    out += struct.pack("<I", len(entries))
    for name, tens in entries:
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(tens.data, dtype="<f4")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    out += struct.pack("<I", zlib.crc32(out))
    _write_atomic(path, out)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.off = 0

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.buf):
            raise ValueError("truncated checkpoint file")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ParamStore:
    """Rebuild the architecture from the config echo, taking every array from the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    body = memoryview(raw)[:-4]
    reader = _Reader(body)
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} is not the supported version "
                         f"{CHECKPOINT_VERSION}; retrain the model")
    if zlib.crc32(body) != struct.unpack("<I", raw[-4:])[0]:
        raise ValueError(f"{path}: checksum mismatch, the checkpoint is damaged")
    (blob_len,) = reader.unpack("<I")
    config = _parse_config(bytes(reader.take(blob_len)))
    (count,) = reader.unpack("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        name = bytes(reader.take(name_len)).decode("utf-8")
        if name in arrays:
            raise ValueError(f"duplicate parameter {name!r} in checkpoint")
        (rank,) = reader.unpack("<B")
        shape = reader.unpack(f"<{rank}I")
        n_vals = int(np.prod(shape, dtype=np.int64)) if rank else 1
        arrays[name] = np.frombuffer(reader.take(4 * n_vals), dtype="<f4").reshape(shape)
    missing = []

    def from_file(name, shape, fan_in, fill):
        arr = arrays.get(name)
        if arr is None:
            missing.append(name)
            return np.zeros(shape, dtype=np.float32)
        if arr.shape != shape:
            raise ValueError(f"parameter {name!r} has shape {arr.shape} in file, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter {name!r} has non-finite values in checkpoint")
        return arr.astype(np.float32)

    params = build_store(config, from_file)
    unknown = [n for n in arrays if n not in params]
    if unknown:
        raise ValueError(f"unknown parameters for this architecture: {unknown}")
    if missing:
        raise ValueError(f"checkpoint is missing parameters: {missing[:3]}...")
    if reader.off != len(reader.buf):
        raise ValueError("trailing bytes after checkpoint payload")
    return params
