"""Shared independent oracles used by unit and acceptance tests."""

import numpy as np

from innscore import tinynet


def fd_gradients(model, X, targets, loss_kind, step=1e-5):
    """Central finite differences over every parameter."""
    grads = []
    for W, b in zip(model.weights, model.biases):
        gw = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + step
            hi, _ = tinynet.loss_and_grad(model, X, targets, loss_kind)
            W[idx] = orig - step
            lo, _ = tinynet.loss_and_grad(model, X, targets, loss_kind)
            W[idx] = orig
            gw[idx] = (hi - lo) / (2 * step)
        gb = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            hi, _ = tinynet.loss_and_grad(model, X, targets, loss_kind)
            b[idx] = orig - step
            lo, _ = tinynet.loss_and_grad(model, X, targets, loss_kind)
            b[idx] = orig
            gb[idx] = (hi - lo) / (2 * step)
        grads.append((gw, gb))
    return grads


def reference_train(model, dataset, config):
    """The training loop written plainly: full loss_and_grad on every batch.

    Every layer, the lift included, is evaluated and differentiated on
    each batch; the lift (layer 0 when model.lift) is then skipped by the
    update. Returns the final model, the (epoch, model) checkpoints and
    the per-epoch mean of the batch losses.
    """
    X, y = dataset.features, dataset.observed_labels
    model = model.copy()
    opt = tinynet.OptState.for_model(model)
    rng = np.random.default_rng(config.seed)
    checkpoints, epoch_loss = [], []
    for epoch in range(config.epochs):
        lr = tinynet.learning_rate(epoch, config)
        order = rng.permutation(X.shape[0])
        losses = []
        for first in range(0, X.shape[0], config.batch_size):
            idx = order[first : first + config.batch_size]
            xb, yb = X[idx], y[idx]
            if config.loss_kind == "mixup":
                lam = rng.beta(config.mixup_alpha, config.mixup_alpha)
                partner = rng.permutation(idx.shape[0])
                tb = tinynet.one_hot(yb, model.n_classes)
                xb, tb = tinynet.mixup_batch(xb, tb, xb[partner], tb[partner], lam)
                loss, grads = tinynet.loss_and_grad(model, xb, tb, "mixup")
            else:
                loss, grads = tinynet.loss_and_grad(model, xb, yb, config.loss_kind)
            losses.append(loss)
            for layer, (gw, gb) in enumerate(grads):
                if layer == 0 and model.lift:
                    continue
                opt.vel_w[layer] = config.momentum * opt.vel_w[layer] + gw
                opt.vel_b[layer] = config.momentum * opt.vel_b[layer] + gb
                model.weights[layer] -= lr * opt.vel_w[layer]
                model.biases[layer] -= lr * opt.vel_b[layer]
        epoch_loss.append(float(np.mean(losses)))
        if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
            checkpoints.append((epoch + 1, model.copy()))
    return model, checkpoints, epoch_loss


def max_rel_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def brute_force_knn(features, i, L):
    """Full distance list plus lexicographic (distance, id) sort."""
    diff = features - features[i]
    dist = np.sqrt((diff * diff).sum(axis=1))
    order = sorted((dist[j], j) for j in range(len(features)) if j != i)
    ids = np.array([j for _, j in order[:L]])
    return ids, np.array([d for d, _ in order[:L]])


def pairwise_auc(scores, clean_mask):
    """Exhaustive pairwise count with half ties."""
    pos = scores[clean_mask]
    neg = scores[~clean_mask]
    gt = ties = 0
    for a in pos:
        for b in neg:
            if a > b:
                gt += 1
            elif a == b:
                ties += 1
    return (gt + 0.5 * ties) / (len(pos) * len(neg))
