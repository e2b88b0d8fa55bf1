"""Command line surface: synthesis, training, inference, evaluation, gradcheck.

Every subcommand resolves its options as defaults, overridden by an optional
``--config FILE`` of ``key = value`` lines ('#' starts a comment), overridden
by explicit flags, and prints the resolved configuration before doing any
work, so each run is reproducible from its own output.

Each option is declared once, as one row of the ``_OPTIONS`` table: key,
type, default, choices, required mark and help text. Both the parser and the
config-file resolution loop over that table.

Heavy imports happen inside the command handlers so that ``--threads`` can pin
the BLAS thread-count environment variables before numpy first loads. For the
same reason the table's defaults are literals rather than imports from the
model modules; a test keeps them equal to the library defaults.
"""

from __future__ import annotations

import argparse
import functools
import glob
import math
import os
import sys
from typing import Callable, NamedTuple

_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}error: {message}")


def _flag(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# ArgumentTypeError, not ValueError: argparse then prints the message on the usage line
def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {n}")
    return n


def positive_float(text: str) -> float:
    h = float(text)
    if not (math.isfinite(h) and h > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {h}")
    return h


_BACKBONES = ("unet", "segunet", "attunet")


class _Opt(NamedTuple):
    """One option: flag ``--key`` (dashes for underscores) and config key ``key``.

    ``coerce`` types and range-checks both the flag and the config value;
    ``_flag`` makes a ``store_true`` flag that a config file can still set to
    false. Choices are checked on the flag and on the config value alike.
    """

    key: str
    coerce: Callable = str
    default: object = None
    choices: tuple = None
    required: bool = False
    help: str = None
    dest: str = None


# shared by every subcommand; its flag follows --config
_THREADS = _Opt("threads", positive_int, 1,
                help="BLAS thread cap; 1 (the default) is bit-deterministic; "
                     "takes full effect when set at process start")

_OPTIONS = {
    "synth": ("generate phantom volume/mask pairs", (
        _Opt("out", required=True, help="output directory"),
        _Opt("count", positive_int, 4, help="number of volumes"),
        _Opt("size", str, "16x48x48", help="volume extents as DxHxW"),
        _Opt("seed", int, 0, help="base seed; volume i uses a derived stream"),
        _Opt("decoys", _flag, False,
             help="add a same-shape decoy that teleports between slices, in each "
                  "slice where a pose clear of the object is found"),
        _Opt("noise", float, 30.0, help="Gaussian noise sigma"),
    )),
    "train": ("train a model on vol_*/mask_* pairs", (
        _Opt("data", required=True, help="training directory"),
        _Opt("val", required=True, help="validation directory"),
        _Opt("out", required=True, help="checkpoint path (.rsck); CSV goes beside it"),
        _Opt("backbone", str, "unet", choices=_BACKBONES),
        _Opt("levels", int, 4),
        _Opt("base_channels", int, 16),
        _Opt("recurrent", _flag, False, help="feed each prediction into the next slice"),
        _Opt("bptt", str, "detach", choices=("detach", "full"),
             help="gradient handling across the feedback edge"),
        _Opt("teacher_forcing", _flag, False),
        _Opt("lr", positive_float, 1e-4),
        _Opt("epochs", int, 40),
        _Opt("patience", int, 10),
        _Opt("seed", int, 0),
        _Opt("threshold", float, 0.5, help="validation Dice threshold"),
        _Opt("max_seq_len", int, 8, help="BPTT chunk length"),
    )),
    "segment": ("segment a volume with a checkpoint", (
        _Opt("model", required=True, help="checkpoint path"),
        _Opt("in", required=True, help="input volume (.mvf)", dest="in_path"),
        _Opt("out", required=True, help="output mask (.mvf)"),
        _Opt("threshold", float, 0.5),
    )),
    "evaluate": ("compare a predicted mask against a reference", (
        _Opt("pred", required=True, help="predicted mask (.mvf)"),
        _Opt("gt", required=True, help="reference mask (.mvf)"),
        _Opt("csv", required=True, help="report destination"),
    )),
    "gradcheck": ("finite-difference check of a tiny backbone", (
        _Opt("backbone", str, "unet", choices=_BACKBONES),
        _Opt("eps", positive_float, 1e-5, help="finite-difference step"),
        _Opt("dtype", str, "f64", choices=("f32", "f64")),
    )),
}


def _add_option(parser: argparse.ArgumentParser, opt: _Opt) -> None:
    flag = "--" + opt.key.replace("_", "-")
    if opt.coerce is _flag:
        parser.add_argument(flag, action="store_true", default=None, help=opt.help)
    else:
        parser.add_argument(flag, type=opt.coerce, choices=opt.choices, default=None,
                            help=opt.help, dest=opt.dest)


def build_parser(command: str = None) -> _Parser:
    """The parser of ``command``'s argv; with no known command, of every command.

    A parse reads one subcommand's options, and building another's costs a
    fraction of a millisecond each, so a call builds only the one it runs.
    """
    parser = _Parser(prog="rseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (summary, options) in _OPTIONS.items():
        if command in _OPTIONS and name != command:
            continue
        p = sub.add_parser(name, help=summary)
        for opt in options:
            _add_option(p, opt)
        p.add_argument("--config", default=None, help="key = value file; flags override it")
        _add_option(p, _THREADS)
    return parser


def _read_config_file(path: str) -> dict:
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"malformed config line {line.strip()!r} in {path}")
            raw[key.strip()] = value.strip()
    return raw


def _resolve(command: str, args: argparse.Namespace) -> dict:
    options = {opt.key: opt for opt in _OPTIONS[command][1] + (_THREADS,)}
    eff = {key: opt.default for key, opt in options.items()}
    if args.config is not None:
        for key, text in _read_config_file(args.config).items():
            if key not in options:
                raise ValueError(f"unknown config key {key!r} for {command}")
            opt = options[key]
            try:
                eff[key] = opt.coerce(text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
            if opt.choices is not None and eff[key] not in opt.choices:
                raise ValueError(f"config key {key!r}: invalid choice {eff[key]!r} "
                                 f"(choose from {', '.join(map(repr, opt.choices))})")
    for key, opt in options.items():
        value = getattr(args, opt.dest or key)
        if value is not None:
            eff[key] = value
    missing = [key for key, opt in options.items() if opt.required and eff[key] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required option(s): {flags}")
    return eff


def _set_threads(n: int) -> None:
    for var in _THREAD_ENV:
        os.environ[var] = str(n)


# glibc mallopt parameters and the values pinned: blocks up to 32 MiB come
# from the heap, and up to 128 MiB of freed heap stays mapped
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES = -3, 32 << 20
_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES = -1, 128 << 20


@functools.cache
def pin_malloc() -> None:
    """Keep freed arrays' pages in the process; the first call per process acts.

    By default glibc returns large freed blocks to the OS, so every request
    faults its temporaries and its tape in again. Every ``rseg`` command
    calls this; importing ``rseg`` does not, so a library caller that trains
    or segments repeatedly makes the call itself. Where the C library has no
    ``mallopt`` (macOS, Windows) this does nothing; musl's is a no-op.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _check_output(option: str, path: str, inputs=()) -> None:
    """Fail before any work when ``path`` cannot become a file; the error names the option.

    ``inputs`` holds the (option, path) of each file the command reads; an
    output that names one of them would overwrite it.
    """
    if not path:
        raise ValueError(f"--{option}: the path is empty")
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise ValueError(f"--{option}: {path} is a directory")
    if not os.path.isdir(parent):
        raise ValueError(f"--{option}: directory {parent} does not exist")
    for source, source_path in inputs:
        if os.path.realpath(path) == os.path.realpath(source_path):
            raise ValueError(f"--{option}: {path} is the --{source} file; name another output")


def _banner(command: str, eff: dict) -> None:
    print(f"command = {command}")
    for key in sorted(eff):
        print(f"{key} = {eff[key]}")


def _parse_size(text: str):
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"size must look like DxHxW, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"size must look like DxHxW, got {text!r}") from None
    return dims


def _cmd_synth(eff: dict) -> int:
    from .data import PhantomSpec, derive_seed, generate_phantom, save_volume

    dims = _parse_size(eff["size"])
    # check each option before anything is written; the error names the option
    for key, rest in (("size", {}), ("noise", {"noise_sigma": eff["noise"]}),
                      ("seed", {"seed": eff["seed"]})):
        try:
            PhantomSpec(dims=dims, **rest)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    out = eff["out"]
    if os.path.exists(out) and not os.path.isdir(out):
        raise ValueError(f"--out: {out} is a file, not a directory")
    os.makedirs(out, exist_ok=True)
    for i in range(eff["count"]):
        spec = PhantomSpec(dims=dims, noise_sigma=eff["noise"], decoys=eff["decoys"],
                           seed=derive_seed(eff["seed"], i))
        vol, mask = generate_phantom(spec)
        save_volume(vol, os.path.join(out, f"vol_{i:03d}.mvf"))
        save_volume(mask, os.path.join(out, f"mask_{i:03d}.mvf"))
    print(f"wrote {eff['count']} volume/mask pairs to {out}")
    return 0


def _load_dataset(dirpath: str, pad_to: int):
    from .data import load_volume, normalize_intensity, to_sequence
    from .data import Volume
    from .metrics import VolumeMask

    vol_paths = sorted(glob.glob(os.path.join(dirpath, "vol_*.mvf")))
    if not vol_paths:
        raise ValueError(f"no vol_*.mvf files in {dirpath}")
    seqs = []
    for vol_path in vol_paths:
        mask_path = os.path.join(os.path.dirname(vol_path),
                                 os.path.basename(vol_path).replace("vol_", "mask_", 1))
        if not os.path.exists(mask_path):
            raise ValueError(f"missing mask file {mask_path} for {vol_path}")
        vol = load_volume(vol_path)
        mask = load_volume(mask_path)
        if not isinstance(vol, Volume) or not isinstance(mask, VolumeMask):
            raise ValueError(f"{vol_path} / {mask_path}: expected a volume and a mask")
        seqs.append(to_sequence(normalize_intensity(vol), mask, pad_to=pad_to))
    return seqs


def _write_history_csv(path: str, history) -> None:
    from .data import _write_atomic

    lines = ["epoch,train_loss,val_loss,val_dice"]
    lines += [f"{h.epoch},{h.train_loss:.6f},{h.val_loss:.6f},{h.val_dice:.6f}" for h in history]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def _cmd_train(eff: dict) -> int:
    from .backbones import ModelConfig, build_model
    from .trainer import TrainConfig, save_checkpoint, train

    mconfig = ModelConfig(backbone=eff["backbone"], levels=eff["levels"],
                          base_channels=eff["base_channels"], recurrent=eff["recurrent"])
    tconfig = TrainConfig(lr=eff["lr"], epochs=eff["epochs"], patience=eff["patience"],
                          seed=eff["seed"], bptt_mode=eff["bptt"],
                          teacher_forcing=eff["teacher_forcing"],
                          threshold=eff["threshold"], max_seq_len=eff["max_seq_len"])
    csv_path = os.path.splitext(eff["out"])[0] + ".csv"
    if csv_path == eff["out"]:
        raise ValueError(f"--out: {csv_path} is where the history CSV goes; name another file")
    for path in (eff["out"], csv_path):
        _check_output("out", path)
    pad_to = 2 ** mconfig.levels
    train_set = _load_dataset(eff["data"], pad_to)
    val_set = _load_dataset(eff["val"], pad_to)
    store = build_model(mconfig, seed=eff["seed"])
    history = train(store, tconfig, train_set, val_set)
    for h in history:
        print(f"epoch {h.epoch:03d} train {h.train_loss:.6f} "
              f"val {h.val_loss:.6f} dice {h.val_dice:.6f}")
    save_checkpoint(store, eff["out"])
    _write_history_csv(csv_path, history)
    print(f"saved checkpoint to {eff['out']}")
    print(f"saved history to {csv_path}")
    return 0


def _cmd_segment(eff: dict) -> int:
    from .data import Volume, load_volume, normalize_intensity, save_volume
    from .recurrent import segment_volume
    from .trainer import load_checkpoint

    _check_output("out", eff["out"], (("in", eff["in"]), ("model", eff["model"])))
    store = load_checkpoint(eff["model"])
    vol = load_volume(eff["in"])
    if not isinstance(vol, Volume):
        raise ValueError(f"{eff['in']}: expected an intensity volume, got a mask")
    mask = segment_volume(store, normalize_intensity(vol), threshold=eff["threshold"])
    save_volume(mask, eff["out"])
    print(f"wrote mask with {mask.count()} foreground voxels to {eff['out']}")
    return 0


def _cmd_evaluate(eff: dict) -> int:
    from .data import load_volume
    from .metrics import EmptyMaskError, VolumeMask, evaluate, write_report_csv

    _check_output("csv", eff["csv"], (("pred", eff["pred"]), ("gt", eff["gt"])))
    pred = load_volume(eff["pred"])
    gt = load_volume(eff["gt"])
    if not isinstance(pred, VolumeMask) or not isinstance(gt, VolumeMask):
        raise ValueError("evaluate expects two mask files")
    for side, path, mask in (("prediction", eff["pred"], pred), ("ground truth", eff["gt"], gt)):
        if mask.count() == 0:
            raise EmptyMaskError(f"{side} {path} is an empty mask: surface distances are undefined")
    scan_id = os.path.splitext(os.path.basename(eff["pred"]))[0]
    report = evaluate(pred, gt, scan_id)
    write_report_csv([report], eff["csv"])
    print(f"dice {report.dice:.6f} asd {report.asd_mm:.6f} "
          f"hd95 {report.hd95_mm:.6f} hd {report.hd_mm:.6f}")
    return 0


def _cmd_gradcheck(eff: dict) -> int:
    import numpy as np

    from .gradcheck import backbone_fd_worst

    dtype = np.float64 if eff["dtype"] == "f64" else np.float32
    worst = backbone_fd_worst(eff["backbone"], 0, np.random.default_rng(0), dtype, eff["eps"])
    print(f"max relative error: {worst:.3e}")
    return 0 if worst <= 1e-3 else 2


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
}


def run_cli(argv) -> int:
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    if args.command is None:
        print(parser.format_usage() + "error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        eff = _resolve(args.command, args)
        _set_threads(eff["threads"])
        pin_malloc()
        _banner(args.command, eff)
        return _COMMANDS[args.command](eff)
    except (ValueError, argparse.ArgumentTypeError, KeyError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run_cli(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
