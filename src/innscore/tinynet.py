"""Small feed-forward softmax classifier with hand-written gradients.

The network is an MLP: ReLU hidden layers, softmax output, and
optionally a frozen sin first hidden layer (the lift). Everything is
float64 numpy so gradients can be checked against finite differences at
tight tolerances. The last hidden layer doubles as the feature embedding
used for nearest-neighbor search.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from ._records import read_json, write_json
from .config import LOSS_KINDS, TrainConfig  # re-exported
from .errors import NumericError

# log() arguments are clamped here to keep losses finite
PROB_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"INNM"
CHECKPOINT_VERSION = 1


@dataclass
class Model:
    """MLP parameters. weights[l] has shape (fan_in, fan_out).

    Hidden layers are ReLU. With lift set, the first hidden layer is a
    frozen sin layer instead, excluded from training: a random-feature
    lift that is bandlimited by its weight scale, bounded in [-1, 1], and
    gives the net high-frequency capacity at low input dimension.
    """

    layer_dims: list
    weights: list
    biases: list
    lift: bool = False

    @property
    def n_classes(self):
        return self.layer_dims[-1]

    @property
    def feature_dim(self):
        # penultimate width; for a linear model the input itself is the feature
        return self.layer_dims[-2]

    def copy(self):
        return Model(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.lift,
        )

    def activate(self, layer, pre):
        """Activations of hidden layer `layer` from its pre-activations."""
        return np.sin(pre) if self.lift and layer == 0 else np.maximum(pre, 0.0)

    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, inputs, start=0):
        """Return (probs, features) for a batch of inputs.

        probs is row-stochastic (n, K); features are the activations of
        the last hidden layer (n, feature_dim). With start > 0 the inputs
        are the activations of hidden layer start - 1 and the layers
        before `start` are skipped. A non-finite output, which diverged
        parameters give, is a NumericError.
        """
        X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if X.shape[1] != self.layer_dims[start]:
            raise ValueError(
                f"input dim {X.shape[1]} does not match model dim {self.layer_dims[start]}"
            )
        A = X
        for _, A in self._hidden(X, start):
            pass
        probs = _softmax(A @ self.weights[-1] + self.biases[-1])
        # an inf or nan feature reaches every logit of its row, so probs shows it too
        if not np.isfinite(probs).all():
            raise NumericError("non-finite model output; model parameters diverged")
        return probs, A

    def _hidden(self, A, start):
        """Yield (pre-activations, activations) of each hidden layer from `start` on."""
        for layer in range(start, len(self.weights) - 1):
            Z = A @ self.weights[layer] + self.biases[layer]
            A = self.activate(layer, Z)
            yield Z, A

    def predict_proba(self, inputs):
        return self.forward(inputs)[0]

    def penultimate(self, inputs):
        return self.forward(inputs)[1]


@dataclass
class OptState:
    """Per-parameter momentum buffers, shapes mirroring the model."""

    vel_w: list = field(default_factory=list)
    vel_b: list = field(default_factory=list)

    @classmethod
    def for_model(cls, model):
        return cls(
            [np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases],
        )


@dataclass
class TrainResult:
    model: Model
    checkpoints: list  # (completed epoch, Model snapshot)
    epoch_loss: list  # per epoch, the mean of its batch losses


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels, n_classes):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def init_model(layer_dims, seed, lift_freq=0.0):
    """Fan-in scaled uniform init: W ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), b = 0.

    With lift_freq > 0 the first hidden layer becomes a frozen sinusoidal
    random-feature lift: weights ~ N(0, lift_freq^2), phases ~ U(-pi, pi),
    activation sin, excluded from training. lift_freq sets the spatial
    frequency of the features; roughly the reciprocal of the finest input
    scale the network should resolve.
    """
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least input and output sizes")
    if any(d <= 0 for d in dims):
        raise ValueError("all layer dims must be positive")
    if not 0 <= lift_freq < np.inf:
        raise ValueError(f"lift_freq is {lift_freq}, not a finite number >= 0")
    if lift_freq > 0 and len(dims) < 3:
        raise ValueError("a lift layer needs at least one hidden layer")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if layer == 0 and lift_freq > 0:
            weights.append(rng.normal(0.0, lift_freq, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-np.pi, np.pi, size=fan_out))
        else:
            scale = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
    return Model(dims, weights, biases, lift=lift_freq > 0)


def mixup_batch(inputs_a, targets_a, inputs_b, targets_b, lam):
    """Convex-combine two aligned batches with a single mixing weight."""
    xa = np.asarray(inputs_a, dtype=np.float64)
    xb = np.asarray(inputs_b, dtype=np.float64)
    ta = np.asarray(targets_a, dtype=np.float64)
    tb = np.asarray(targets_b, dtype=np.float64)
    if xa.shape != xb.shape or ta.shape != tb.shape or xa.shape[0] != ta.shape[0]:
        raise ValueError("mixup batches must have identical shapes")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return lam * xa + (1.0 - lam) * xb, lam * ta + (1.0 - lam) * tb


def _target_matrix(model, targets, loss_kind):
    targets = np.asarray(targets)
    if loss_kind == "mixup":
        if targets.ndim != 2 or targets.shape[1] != model.n_classes:
            raise ValueError("mixup targets must be (n, K) soft labels")
        return targets.astype(np.float64)
    if targets.ndim != 1:
        raise ValueError("ce/cene targets must be integer class labels")
    if targets.min() < 0 or targets.max() >= model.n_classes:
        raise ValueError("labels out of range for model output size")
    return one_hot(targets, model.n_classes)


def loss_and_grad(model, inputs, targets, loss_kind):
    """Mean loss over the batch plus gradients mirroring the model shapes.

    ce:    cross-entropy against integer labels
    cene:  cross-entropy plus negative entropy of the prediction
    mixup: cross-entropy against soft (mixed) targets

    Every layer gets its gradient, the lift included.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    return _loss_and_grad(model, X, _target_matrix(model, targets, loss_kind), loss_kind, 0)


def _loss_and_grad(model, A, T, loss_kind, start):
    """Mean loss and (dW, db) of layers start.. for A, the inputs of layer
    `start`, and (n, K) targets T; nothing is propagated below `start`."""
    acts, pre = [A], []
    for Z, A in model._hidden(A, start):
        pre.append(Z)
        acts.append(A)
    probs = _softmax(A @ model.weights[-1] + model.biases[-1])

    logp = np.log(np.maximum(probs, PROB_FLOOR))
    ce = -(T * logp).sum(axis=1)
    if loss_kind == "cene":
        neg_ent = (probs * logp).sum(axis=1)
        per_sample = ce + neg_ent
        # d/dlogits of sum_k p_k log p_k
        d_logits = (probs - T) + probs * (logp - neg_ent[:, None])
    else:
        per_sample = ce
        d_logits = probs - T
    loss = per_sample.mean()
    if not np.isfinite(loss):
        raise NumericError("non-finite loss; model parameters diverged")

    delta = d_logits / T.shape[0]
    grads = []
    for layer in range(len(model.weights) - 1, start - 1, -1):
        i = layer - start  # acts[i] is the input of `layer`, pre[i - 1] its pre-activation
        grads.append((acts[i].T @ delta, delta.sum(axis=0)))
        if layer > start:
            sin = model.lift and layer == 1
            local = np.cos(pre[i - 1]) if sin else (pre[i - 1] > 0)
            delta = (delta @ model.weights[layer].T) * local
    return loss, grads[::-1]


def learning_rate(epoch, config):
    """Step schedule: drops by lr_drop_factor at floor(T/2) and floor(3T/4)."""
    T = config.epochs
    if epoch < T // 2:
        return config.lr0
    if epoch < (3 * T) // 4:
        return config.lr0 / config.lr_drop_factor
    return config.lr0 / config.lr_drop_factor**2


@np.errstate(over="ignore", invalid="ignore")  # a diverged loss is a NumericError
def train(model, dataset, config):
    """SGD-with-momentum training loop; returns final model and checkpoints.

    Shuffling, mixup pairing and mixing weights all come from one
    generator seeded with config.seed, so a fixed (seed, config, dataset)
    reproduces the final parameters bit for bit.

    The lift is evaluated once per call, or once per mixed batch for
    mixup, and gets no gradient.
    """
    X = dataset.features
    y = dataset.observed_labels
    if y.min() < 0 or y.max() >= model.n_classes:
        raise ValueError("dataset labels out of range for model")

    model = model.copy()
    opt = OptState.for_model(model)
    rng = np.random.default_rng(config.seed)
    n = X.shape[0]
    T = one_hot(y, model.n_classes)
    start = 1 if model.lift else 0
    mixup = config.loss_kind == "mixup"

    def prefix(inputs):
        return model.activate(0, inputs @ model.weights[0] + model.biases[0]) if start else inputs

    lifted = None if mixup else prefix(X)
    checkpoints, epoch_loss = [], []
    for epoch in range(config.epochs):
        lr = learning_rate(epoch, config)
        order = rng.permutation(n)
        batch_loss = []
        for first in range(0, n, config.batch_size):
            idx = order[first : first + config.batch_size]
            if mixup:
                lam = rng.beta(config.mixup_alpha, config.mixup_alpha)
                partner = rng.permutation(idx.shape[0])
                xb, tb = X[idx], T[idx]
                xb, tb = mixup_batch(xb, tb, xb[partner], tb[partner], lam)
                loss, grads = _loss_and_grad(model, prefix(xb), tb, "mixup", start)
            else:
                loss, grads = _loss_and_grad(model, lifted[idx], T[idx], config.loss_kind, start)
            batch_loss.append(loss)
            for layer, (gw, gb) in enumerate(grads, start):
                opt.vel_w[layer] = config.momentum * opt.vel_w[layer] + gw
                opt.vel_b[layer] = config.momentum * opt.vel_b[layer] + gb
                model.weights[layer] -= lr * opt.vel_w[layer]
                model.biases[layer] -= lr * opt.vel_b[layer]
        epoch_loss.append(float(np.mean(batch_loss)))
        done = epoch + 1
        if config.checkpoint_every and done % config.checkpoint_every == 0:
            checkpoints.append((done, model.copy()))

    return TrainResult(model, checkpoints, epoch_loss)


def per_sample_loss(model, dataset, loss_kind):
    """Per-sample training-objective values (ce or cene), one per row.

    Small values mean the sample is fit well; downstream ranking treats
    the negated loss as the cleanliness score.
    """
    if loss_kind not in ("ce", "cene"):
        raise ValueError("per-sample losses are defined for ce and cene only")
    probs = model.predict_proba(dataset.features)
    logp = np.log(np.maximum(probs, PROB_FLOOR))
    ce = -logp[np.arange(dataset.n), dataset.observed_labels]
    if loss_kind == "ce":
        return ce
    return ce + (probs * logp).sum(axis=1)


# --- checkpoint files -------------------------------------------------
#
# Binary layout (little endian):
#   4 bytes magic "INNM" | u32 version | u32 layer count (len(layer_dims))
#   | u32 * layer_dims | per layer: W row-major f64, then b f64
# A model with a lift is written as version 2, which inserts one u8 code
# per hidden layer after the dims: 3 (sin, frozen) for the lift, then 0
# (ReLU) for each later layer. Plain models are version 1, with no codes.
# A JSON sidecar (same path + ".json") carries the epoch and config echo.


def _lift_codes(n_hidden):
    return bytes([3] + [0] * (n_hidden - 1))


def save_checkpoint(model, path, epoch=None, config=None):
    n_hidden = len(model.layer_dims) - 2
    version = 2 if model.lift else CHECKPOINT_VERSION
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, version, len(model.layer_dims)))
        fh.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        if model.lift:
            fh.write(_lift_codes(n_hidden))
        for W, b in zip(model.weights, model.biases):
            fh.write(W.astype("<f8").tobytes(order="C"))
            fh.write(b.astype("<f8").tobytes())
    write_json(str(path) + ".json", {
        "epoch": epoch,
        "layer_dims": list(model.layer_dims),
        "activations": ["sin" if model.lift and i == 0 else "relu" for i in range(n_hidden)],
        "frozen_layers": [0] if model.lift else [],
        "config": asdict(config) if isinstance(config, TrainConfig) else config,
    })
    return str(path)


def load_checkpoint(path):
    """Read a checkpoint; returns (Model, sidecar dict or None).

    A file that ends early, runs on past the last bias, has a layer dim
    of 0, has layer codes other than a lift's or holds a non-finite weight
    or bias, and a sidecar whose epoch is not an integer or null, are
    rejected with ValueError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(size, what):
        nonlocal pos
        if size > len(blob) - pos:
            raise ValueError(f"{path}: truncated checkpoint ({what})")
        pos += size
        return blob[pos - size : pos]

    magic, version, n_dims = struct.unpack("<4sII", take(12, "header"))
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    if version not in (1, 2):
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if n_dims < 2:
        raise ValueError(f"{path}: checkpoint needs at least 2 layer dims, has {n_dims}")
    dims = list(struct.unpack(f"<{n_dims}I", take(4 * n_dims, "layer dims")))
    if 0 in dims:
        raise ValueError(f"{path}: layer dims {dims} include 0")
    lift = version == 2
    if lift:
        codes = take(n_dims - 2, "layer codes")
        if codes != _lift_codes(n_dims - 2):
            raise ValueError(f"{path}: layer codes {list(codes)} are not those of a frozen "
                             f"sin first hidden layer, {list(_lift_codes(n_dims - 2))}")
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = np.frombuffer(take(8 * fan_in * fan_out, f"layer {layer} weights"), dtype="<f8")
        b = np.frombuffer(take(8 * fan_out, f"layer {layer} biases"), dtype="<f8")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {layer} has a non-finite weight or bias")
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after the last layer")
    try:
        sidecar = read_json(str(path) + ".json", {"epoch": (int, type(None))})
    except FileNotFoundError:
        sidecar = None
    return Model(dims, weights, biases, lift), sidecar
