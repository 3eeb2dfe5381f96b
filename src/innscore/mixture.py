"""Two-component mixture EM on scores and losses, plus the posterior split.
`split_column` is the one normalize -> fit -> split sequence, run by both
`pipeline` and the `split` command.

fit_beta_mixture models scores in (0, 1) with two beta components; the
M-step is a weighted method-of-moments update (closed form, deterministic,
an approximation to the MLE M-step). fit_gaussian_mixture is standard EM
on per-sample losses. Because the moment M-step is not guaranteed to
increase the likelihood, both fitters revert and stop the moment the
log-likelihood drops, so the recorded trace is always nondecreasing.
The clean component is the larger-mean one for scores and the
smaller-mean one for losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, logsumexp

from ._records import write_json, write_rows
from .errors import FitError

_CLAMP = 1e-4
_BETA_PARAM_LO = 1e-2
_BETA_PARAM_HI = 1e4


@dataclass
class MixtureFit:
    kind: str  # beta | gaussian
    params: np.ndarray  # (2, 2): per component (a, b) or (mu, sigma)
    weights: np.ndarray  # (2,) mixing proportions
    loglik_trace: list = field(default_factory=list)
    clean_component: int = 0
    stop_reason: str = "max_iters"  # tol | ll_drop_reverted | max_iters | degenerate
    degenerate: bool = False
    n_iters: int = 0

    @property
    def converged(self):
        return self.stop_reason != "max_iters"

    def component_means(self):
        if self.kind == "beta":
            a, b = self.params[:, 0], self.params[:, 1]
            return a / (a + b)
        return self.params[:, 0]

    def posterior(self, x):
        """Per-sample component responsibilities, rows summing to 1."""
        if self.degenerate:
            post = np.zeros((np.asarray(x).shape[0], 2))
            post[:, self.clean_component] = 1.0
            return post
        logj = _log_pdf(self.kind, np.asarray(x, dtype=np.float64), self.params)
        logj += np.log(self.weights)
        return np.exp(logj - logsumexp(logj, axis=1, keepdims=True))

    def to_dict(self):
        return {
            "kind": self.kind,
            "params": self.params.tolist(),
            "weights": self.weights.tolist(),
            "component_means": self.component_means().tolist(),
            "clean_component": int(self.clean_component),
            "n_iters": int(self.n_iters),
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "degenerate": bool(self.degenerate),
            "final_loglik": self.loglik_trace[-1] if self.loglik_trace else None,
            "loglik_trace": self.loglik_trace,
        }

    def to_json(self, path):
        return write_json(path, self.to_dict())


@dataclass
class SplitResult:
    labeled_ids: np.ndarray
    unlabeled_ids: np.ndarray
    posterior: np.ndarray  # clean-component posterior per sample
    threshold: float
    ids: np.ndarray

    def to_csv(self, path):
        rows = (
            [str(sid), repr(p), "labeled" if p >= self.threshold else "unlabeled"]
            for sid, p in zip(self.ids.tolist(), self.posterior.tolist())
        )
        return write_rows(path, ("id", "posterior", "assignment"), rows)


def normalize_scores(scores, clamp=_CLAMP):
    """Min-max normalize into (0, 1), clamped away from the endpoints.

    Returns (normalized, degenerate); an all-equal input is degenerate
    and maps to a constant 0.5 column.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("scores must be nonempty")
    lo, hi = float(s.min()), float(s.max())
    if hi - lo <= 0.0:
        return np.full_like(s, 0.5), True
    out = np.clip((s - lo) / (hi - lo), clamp, 1.0 - clamp)
    return out, False


def _log_pdf(kind, x, params):
    """(n, 2) per-component log densities of a beta or Gaussian pair."""
    out = np.empty((x.shape[0], 2))
    for k in range(2):
        if kind == "beta":
            a, b = params[k]
            out[:, k] = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - betaln(a, b)
        else:
            mu, sigma = params[k]
            out[:, k] = -0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma * np.sqrt(2.0 * np.pi))
    return out


def _median_split_resp(x):
    resp = np.full((x.shape[0], 2), 0.1)
    high = x >= np.median(x)
    resp[high, 1] = 0.9
    resp[~high, 0] = 0.9
    return resp


def _run_em(x, kind, m_step, max_iters, tol, init_resp):
    resp = _median_split_resp(x) if init_resp is None else np.asarray(init_resp, dtype=float)
    params, weights = m_step(x, resp)
    prev = (params, weights)
    trace = []
    stop_reason = "max_iters"
    for it in range(max_iters + 1):
        logj = _log_pdf(kind, x, params) + np.log(weights)
        norm = logsumexp(logj, axis=1, keepdims=True)
        ll = float(norm.sum())
        if not np.isfinite(ll):
            raise FitError("non-finite mixture log-likelihood", trace)
        if trace and ll < trace[-1] - 1e-9:
            # moment/floored step reduced the likelihood: keep the previous fit
            params, weights = prev
            stop_reason = "ll_drop_reverted"
            break
        trace.append(ll)
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            stop_reason = "tol"
            break
        if it == max_iters:
            break
        new_resp = np.exp(logj - norm)
        if new_resp.sum(axis=0).min() < 1e-10:
            raise FitError("a mixture component lost all responsibility", trace)
        prev = (params, weights)
        params, weights = m_step(x, new_resp)
        if not (np.isfinite(params).all() and np.isfinite(weights).all()):
            raise FitError("non-finite mixture parameters", trace)
    return params, weights, trace, stop_reason, len(trace)


def fit_beta_mixture(scores, max_iters=200, tol=1e-8, init_resp=None):
    """EM fit of pi1 Beta(a1,b1) + pi2 Beta(a2,b2) to scores in (0, 1)."""
    x = np.asarray(scores, dtype=np.float64)
    if x.shape[0] < 10:
        raise ValueError("need at least 10 scores to fit a mixture")
    if x.min() <= 0.0 or x.max() >= 1.0:
        raise ValueError("beta mixture needs scores strictly inside (0, 1)")
    if x.max() - x.min() <= 0.0:
        return _degenerate_fit("beta", x)

    def m_step(x, resp):
        params = np.empty((2, 2))
        weights = resp.mean(axis=0)
        for k in range(2):
            w = resp[:, k]
            mu = float(w @ x / w.sum())
            var = float(w @ (x - mu) ** 2 / w.sum())
            var = max(var, 1e-12)
            common = max(mu * (1.0 - mu) / var - 1.0, 1e-6)
            a = np.clip(mu * common, _BETA_PARAM_LO, _BETA_PARAM_HI)
            b = np.clip((1.0 - mu) * common, _BETA_PARAM_LO, _BETA_PARAM_HI)
            params[k] = (a, b)
        return params, weights

    params, weights, trace, stop_reason, iters = _run_em(
        x, "beta", m_step, max_iters, tol, init_resp
    )
    fit = MixtureFit("beta", params, weights, trace, 0, stop_reason, False, iters)
    fit.clean_component = int(np.argmax(fit.component_means()))
    return fit


def fit_gaussian_mixture(losses, max_iters=200, tol=1e-8, init_resp=None):
    """EM fit of two Gaussians; the smaller-mean component is the clean one."""
    x = np.asarray(losses, dtype=np.float64)
    if x.shape[0] < 10:
        raise ValueError("need at least 10 values to fit a mixture")
    spread = float(x.max() - x.min())
    if spread <= 0.0:
        return _degenerate_fit("gaussian", x)
    sigma_floor = max(1e-3 * spread, 1e-6)

    def m_step(x, resp):
        params = np.empty((2, 2))
        weights = resp.mean(axis=0)
        for k in range(2):
            w = resp[:, k]
            mu = float(w @ x / w.sum())
            var = float(w @ (x - mu) ** 2 / w.sum())
            params[k] = (mu, max(np.sqrt(var), sigma_floor))
        return params, weights

    params, weights, trace, stop_reason, iters = _run_em(
        x, "gaussian", m_step, max_iters, tol, init_resp
    )
    degenerate = abs(params[0, 0] - params[1, 0]) < 1e-6 * max(1.0, spread)
    fit = MixtureFit("gaussian", params, weights, trace, 0, stop_reason, degenerate, iters)
    fit.clean_component = int(np.argmin(fit.component_means()))
    return fit


def _degenerate_fit(kind, x):
    # constant input: report a flagged fit instead of NaNs
    if kind == "beta":
        params = np.array([[1.0, 1.0], [1.0, 1.0]])
    else:
        mu = float(x.mean())
        params = np.array([[mu, 1e-6], [mu, 1e-6]])
    return MixtureFit(kind, params, np.array([0.5, 0.5]), [], 0, "degenerate", True, 0)


def split(fit, scores, threshold=0.5, ids=None):
    """Partition by clean-component posterior >= threshold.

    A degenerate fit's posterior is one on its clean component, so every
    sample is labeled (there is nothing to separate).
    """
    x = np.asarray(scores, dtype=np.float64)
    ids = np.arange(x.shape[0], dtype=np.int64) if ids is None else np.asarray(ids)
    post = fit.posterior(x)[:, fit.clean_component]
    labeled = post >= threshold
    return SplitResult(ids[labeled], ids[~labeled], post, threshold, ids)


def split_column(values, mixture="beta", normalize=True, threshold=0.5, ids=None):
    """Fit a two-component `mixture` ("beta" or "gaussian") to a score or
    loss column and split it at `threshold`; returns (fit, SplitResult).

    `normalize` min-max scales the column for the beta mixture only. A
    constant column then gets the degenerate all-labeled fit, whatever its
    length.
    """
    x = np.asarray(values, dtype=np.float64)
    if mixture == "gaussian":
        fit = fit_gaussian_mixture(x)
    else:
        x, degenerate = normalize_scores(x) if normalize else (x, False)
        fit = _degenerate_fit("beta", x) if degenerate else fit_beta_mixture(x)
    return fit, split(fit, x, threshold, ids)
