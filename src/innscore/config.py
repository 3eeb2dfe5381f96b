"""Settings: `RunConfig`, the one source of the `pipeline` and `timing`
flags and of the `--config` keys, and `TrainConfig`, that of the `train`
flags. Standard library only, so that the command line can parse and check
them, and set --threads, before numpy loads.

A field's type names its text parser, which is the flag's argparse `type`
and converts a config-file value. Its metadata holds only what the name,
type and default cannot give: the flag where it is not `--field-name`, the
choices and the help text.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields


def int_list(text):
    """'256,128' -> (256, 128); empty items are skipped."""
    return tuple(int(v) for v in text.split(",") if v != "")


def label_map(text):
    """'0:1,2:0' -> {0: 1, 2: 0}."""
    pairs = (part.split(":") for part in text.split(",") if part)
    return {int(src): int(dst) for src, dst in pairs}


def boolean(text):
    """A boolean setting in a config file, 'true' or 'false' (its flag takes no value)."""
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


_PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": int_list,
            "dict[int, int]": label_map}


def field_parser(f):
    """The text parser of settings field `f`; an optional one parses '' and 'null' to None."""
    parse = _PARSERS[f.type.removesuffix(" | None")]
    if not f.type.endswith(" | None"):
        return parse
    # wraps keeps the name, which argparse shows in its messages
    return functools.wraps(parse)(lambda text: None if text in ("", "null") else parse(text))


def fields_from(cls, source):
    """The attributes of `source` that name a field of dataclass `cls`."""
    return {f.name: getattr(source, f.name) for f in fields(cls) if hasattr(source, f.name)}


def _setting(default, **metadata):
    """A field with its `flag`, `choices` and `help` in its metadata."""
    return field(default=default, metadata=metadata)


LOSS_KINDS = ("ce", "cene", "mixup")
NOISE_KINDS = ("none", "symmetric", "chain", "map", "imbalanced")  # `data.corrupt`'s protocols
# the corruption settings that only some noise kinds read, and those kinds
_NOISE_READERS = {
    "noise_rate": ("symmetric", "chain", "map"), "noise_map": ("map",),
    **dict.fromkeys(("imb_class_a", "imb_class_b", "imb_keep", "imb_flip"), ("imbalanced",)),
}


@dataclass
class TrainConfig:
    loss_kind: str = _setting("ce", flag="--loss", choices=LOSS_KINDS)
    epochs: int = 100
    batch_size: int = 128
    lr0: float = 0.02
    momentum: float = 0.9
    lr_drop_factor: float = 5.0
    mixup_alpha: float = 1.0
    seed: int = 0
    checkpoint_every: int | None = None

    def __post_init__(self):
        """Reject a setting out of range before any work."""
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        for name in ("lr0", "lr_drop_factor", "mixup_alpha"):
            if not getattr(self, name) > 0:  # false for nan too
                raise ValueError(f"{name} is {getattr(self, name)}, not positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive or None")


@dataclass
class RunConfig:
    # data source: a file path or a synthetic spec
    data_path: str | None = _setting(None, flag="--data", help="dataset file (csv or raw "
                                     "sidecar json); default: synthesize")
    synth_kind: str = _setting("blobs", flag="--kind", choices=("blobs", "two_moons"))
    n: int = 2000
    n_classes: int = _setting(4, flag="--k", help="number of classes")
    dim: int = _setting(2, flag="--d", help="feature dimension")
    spread: float = 0.3
    # label corruption applied on top
    noise_kind: str = _setting("none", flag="--noise", choices=NOISE_KINDS)
    noise_rate: float = _setting(0.0, flag="--rate")
    noise_map: dict[int, int] | None = _setting(None, flag="--map", help="'src:dst,...'")
    imb_class_a: int = 0
    imb_class_b: int = 1
    imb_keep: float = 0.1
    imb_flip: float = 0.3
    # models; f and the loss baselines share `hidden` and the sinusoidal
    # lift, the feature model h gets its own stack (narrow penultimate,
    # no lift) so its embedding stays smooth
    hidden: tuple[int, ...] = (256, 128)
    lift_freq: float = _setting(4.0, help="frequency of the frozen sinusoidal first layer "
                                "of f and the baselines; 0 disables the lift")
    h_hidden: tuple[int, ...] = _setting((64, 4), help="hidden stack of the feature model")
    h_loss: str = _setting("ce", choices=LOSS_KINDS)
    h_epochs: int = 50
    f_loss: str = _setting("mixup", choices=LOSS_KINDS)
    epochs: int = 300
    checkpoint_every: int | None = 50
    batch_size: int = 128
    lr0: float = 0.02
    momentum: float = 0.9
    lr_drop_factor: float = 5.0
    mixup_alpha: float = 1.0
    # scorer
    trapezoids: int = 10
    n_neighbors: int = _setting(10, flag="--l")
    mode: str = _setting("integral", choices=("integral", "midpoint"))
    # extras
    baselines: bool = _setting(True, flag="--no-baselines")
    l_sweep: tuple[int, ...] | None = _setting(None, help="e.g. '1,2,5,10'")
    epoch_scale: float = 1.0
    share_epochs: bool = False
    normalize: bool = _setting(True, flag="--no-normalize")
    threshold: float = 0.5
    bins: int = 20
    seed: int = 0
    out_dir: str = _setting("out", flag="--out", help="output directory (default: out)")

    def __post_init__(self):
        """Reject a setting out of range before any work."""
        for name in ("h_epochs", "epochs", "checkpoint_every", "trapezoids",
                     "n_neighbors", "bins"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} is {value}, not a positive integer")
        if not self.epoch_scale > 0:
            raise ValueError(f"epoch_scale is {self.epoch_scale}, not positive")
        if self.l_sweep and min(self.l_sweep) < 1:
            raise ValueError(f"l_sweep is {self.l_sweep}, not all positive integers")
        if not 0.0 <= self.threshold <= 1.0:  # a clean posterior
            raise ValueError(f"threshold is {self.threshold}, not in [0, 1]")
        defaults = {f.name: f.default for f in fields(self)}
        for name, kinds in _NOISE_READERS.items():
            value = getattr(self, name)
            if self.noise_kind not in kinds and value != defaults[name]:
                raise ValueError(f"{name} is {value}, but noise_kind {self.noise_kind} "
                                 "does not read it")
        TrainConfig(**fields_from(TrainConfig, self))  # checks the shared training settings

    def scaled(self, value):
        return max(1, int(round(value * self.epoch_scale)))

    def config_hash(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
