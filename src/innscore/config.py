"""Settings: `RunConfig`, the one source of the `pipeline` flags,
`TrainConfig`, that of the `train` flags, and `write_manifest`,
which records the settings a command read. Standard library only, so that
the command line can parse and check them, and set --threads, before numpy
loads.

A field's type names its text parser, the flag's argparse `type`. Its
metadata holds only what the name, type and default cannot give: the flag
where it is not `--field-name`, the choices and the help text. `RunConfig`
refuses a setting away from its default that the run does not read
(`_READERS`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
from dataclasses import dataclass, field, fields

from ._records import write_json


def int_list(text):
    """'256,128' -> (256, 128) and '' -> (); an empty entry inside a list,
    as in '8,,4', is a ValueError."""
    return tuple(map(int, text.split(","))) if text else ()


def label_map(text):
    """'0:1,2:0' -> {0: 1, 2: 0} and '' -> {}; an empty entry, as in '0:1,',
    is a ValueError. A source label given twice is an ArgumentTypeError
    naming it, which argparse shows as it is."""
    mapping = {}
    for src, dst in (part.split(":") for part in text.split(",")) if text else ():
        if int(src) in mapping:
            raise argparse.ArgumentTypeError(f"{text!r} maps label {int(src)} twice")
        mapping[int(src)] = int(dst)
    return mapping


def kind_list(text):
    """'inn, midpoint' -> ('inn', 'midpoint'); an empty or repeated entry, as
    in 'inn,' or 'inn,inn', is a ValueError."""
    kinds = tuple(kind.strip() for kind in text.split(","))
    if not all(kinds) or len(set(kinds)) < len(kinds):
        raise ValueError(text)
    return kinds


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


def check_threads(threads):
    """A `--threads` value: None (no cap) or a positive int, else a ValueError."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads is {threads}, not a positive integer")
    return threads


# Training steps (batches) a command may ask for, summed over its models. The
# largest need of the acceptance protocols is criterion 10's: 5,000 rows in
# 40 batches an epoch, 300 epochs of f and of the two baselines and 50 of h,
# 38,000 steps; the budget is about 260 times that.
MAX_TRAINING_STEPS = 10**7


# Interior probe rows per chunk of the scoring pass (`scorer`), which bound its
# working memory. trapezoids is at most this, so that one segment's interior
# nodes, H - 1 and the midpoint of an odd H, fit one chunk.
CHUNK_PROBES = 4096
# Interior probe rows a scoring pass may ask for, n * L * (H - 1) summed over
# the checkpoints. The largest need of the acceptance protocols is criterion
# 10's: 5,000 rows, L = 10, H = 10 and 6 checkpoints of f, 2.7 * 10^6 rows; the
# budget is about 370 times that.
MAX_PROBE_ROWS = 10**9


def check_training_steps(rows, batch_size, model_epochs, settings):
    """Reject `model_epochs` epochs of training, summed over the models, on
    `rows` rows in batches of `batch_size` when the steps exceed
    MAX_TRAINING_STEPS; the ValueError names `settings`, the settings that
    asked for them."""
    steps = -(-rows // batch_size) * model_epochs
    if not steps <= MAX_TRAINING_STEPS:  # false for inf too
        raise ValueError(f"{settings} ask for {steps:.3g} training steps of {rows} rows, "
                         f"more than the budget of {MAX_TRAINING_STEPS:.0e}")


def check_neighbor_count(rows, n_neighbors, setting):
    """Reject `n_neighbors` neighbors of each of `rows` rows, more than there
    are other rows; the ValueError starts with `setting`, which asked for them."""
    if n_neighbors > rows - 1:
        raise ValueError(f"{setting}, but the dataset's {rows} rows allow at most "
                         f"{rows - 1} neighbors")


def scoring_pass(n_neighbors, trapezoids, kinds):
    """(L, H) of the scoring pass giving score columns `kinds`: loss columns
    alone read only f at the samples, which the pass gives at L = H = 1."""
    return (1, 1) if all(k.startswith("loss_") for k in kinds) else (n_neighbors, trapezoids)


def check_probe_rows(rows, n_neighbors, trapezoids, checkpoints, kinds, settings):
    """Reject the `scoring_pass` for columns `kinds` of `checkpoints`
    checkpoints over `rows` rows with `n_neighbors` neighbors and
    `trapezoids` trapezoids when its interior probe rows exceed
    MAX_PROBE_ROWS; the ValueError names `settings`, which asked for them."""
    n_neighbors, trapezoids = scoring_pass(n_neighbors, trapezoids, kinds)
    probes = rows * n_neighbors * (trapezoids - 1) * checkpoints
    if probes > MAX_PROBE_ROWS:
        raise ValueError(f"{settings} ask for {probes:.3g} probe rows of {rows} rows, "
                         f"more than the budget of {MAX_PROBE_ROWS:.0e}")


def check_score_kinds(kinds):
    """`kinds` when each is one of SCORE_KINDS, else a ValueError."""
    for kind in kinds:
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}, expected some of "
                             f"{','.join(SCORE_KINDS)}")
    return kinds


def _reject_non_finite(settings):
    """A float setting of dataclass instance `settings` that is nan or infinite is a ValueError."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} is {value}, not a finite number")


def write_manifest(config, command=None):
    """Write manifest.json into `config`'s out_dir: the settings dict `config`
    a command read, its hash, its seed and the versions, the OpenBLAS build
    among them (null without numpy's bundled one), and for a step command
    the `command`."""
    import numpy
    import scipy

    from . import __version__, workers

    blob = json.dumps(config, sort_keys=True).encode()
    return write_json(os.path.join(config["out_dir"], "manifest.json"), {
        **({} if command is None else {"command": command}),
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": config.get("seed"),
        "versions": {"innscore": __version__, "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "openblas": workers.openblas_build()},
    })


def _setting(default, **metadata):
    """A field with its `flag`, `choices` and `help` in its metadata."""
    return field(default=default, metadata=metadata)


LOSS_KINDS = ("ce", "cene", "mixup")
# the score columns of `scorer.summarize` and `score --kinds`
SCORE_KINDS = ("inn", "midpoint", "loss_ce", "loss_cene")
SEGMENT_KINDS = ("inn", "midpoint")  # f's columns in `pipeline`; the default kinds elsewhere
NOISE_KINDS = ("none", "symmetric", "chain", "map", "imbalanced")  # `data.corrupt`'s protocols
# the settings that a run reads only under others: field -> (those others,
# a test of their values that is true when the run reads the field)
_READERS = {
    "noise_rate": (("noise_kind",), lambda kind: kind in ("symmetric", "chain", "map")),
    "noise_map": (("noise_kind",), lambda kind: kind == "map"),
    **dict.fromkeys(("imb_class_a", "imb_class_b", "imb_keep", "imb_flip"),
                    (("noise_kind",), lambda kind: kind == "imbalanced")),
    **dict.fromkeys(("synth_kind", "n", "n_classes", "dim", "spread"),
                    (("data_path",), lambda path: path is None)),
    "mixup_alpha": (("f_loss", "h_loss"), lambda *losses: "mixup" in losses),
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
            raise ValueError(f"epochs is {self.epochs}, not at least 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size is {self.batch_size}, not a positive integer")
        for name in ("lr0", "lr_drop_factor", "mixup_alpha"):
            if not getattr(self, name) > 0:  # false for nan too
                raise ValueError(f"{name} is {getattr(self, name)}, not positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum is {self.momentum}, not in [0, 1)")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every is {self.checkpoint_every}, "
                             "not a positive integer or None")
        if self.seed < 0:
            raise ValueError(f"seed is {self.seed}, not at least 0")
        _reject_non_finite(self)
        if not 0.0 < self.lr_drop_factor * self.lr_drop_factor < math.inf:
            raise ValueError(f"lr_drop_factor is {self.lr_drop_factor}, too big or small to square")
        if self.mixup_alpha != TrainConfig.mixup_alpha and self.loss_kind != "mixup":
            raise ValueError(f"mixup_alpha is {self.mixup_alpha}, but loss_kind "
                             f"{self.loss_kind} does not read it")


@dataclass
class RunConfig:
    # data source: a file path or a synthetic spec
    data_path: str | None = _setting(None, flag="--data", help="dataset CSV; default: synthesize")
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
    # extras
    baselines: bool = _setting(True, flag="--no-baselines")
    l_sweep: tuple[int, ...] | None = _setting(None, help="e.g. '1,2,5,10'")
    epoch_scale: float = 1.0
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
        if self.n_classes < 2:
            raise ValueError(f"n_classes is {self.n_classes}, not at least 2")
        if self.trapezoids > CHUNK_PROBES:
            raise ValueError(f"trapezoids is {self.trapezoids}, more than the {CHUNK_PROBES} "
                             "interior nodes one chunk of the scoring pass holds")
        if not self.epoch_scale > 0:
            raise ValueError(f"epoch_scale is {self.epoch_scale}, not positive")
        for name in ("hidden", "h_hidden", "l_sweep"):  # layer widths and neighbor counts
            value = getattr(self, name)
            if min(value or (), default=1) < 1:
                raise ValueError(f"{name} is {value}, not all positive integers")
        if not 0.0 <= self.threshold <= 1.0:  # a clean posterior
            raise ValueError(f"threshold is {self.threshold}, not in [0, 1]")
        defaults = {f.name: f.default for f in fields(self)}
        for name, (others, reads) in _READERS.items():
            value = getattr(self, name)
            if value != defaults[name] and not reads(*(getattr(self, o) for o in others)):
                given = " and ".join(f"{o} {getattr(self, o)}" for o in others)
                raise ValueError(f"{name} is {value}, but {given} "
                                 f"{'does' if len(others) == 1 else 'do'} not read it")
        # checks the shared training settings, mixup_alpha as a mixup model reads it
        TrainConfig(**fields_from(TrainConfig, self), loss_kind="mixup")
        _reject_non_finite(self)
        for name in ("spread", "lift_freq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is {getattr(self, name)}, not at least 0")
        if self.lift_freq > 0 and not self.hidden:
            raise ValueError(f"hidden is (), but lift_freq {self.lift_freq} needs a hidden layer")
        if self.n < self.n_classes:  # with data_path both are their defaults
            raise ValueError(f"n is {self.n}, fewer than the {self.n_classes} classes")
        if self.dim < 2:
            raise ValueError(f"dim is {self.dim}, not at least 2")

    def scaled(self, value):
        return max(1, int(round(value * self.epoch_scale)))
