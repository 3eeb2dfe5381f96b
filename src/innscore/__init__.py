"""innscore: clean-label identification in noisy training data.

Scores each training sample by integrating a trained classifier's
predicted probability of the sample's observed label along straight
segments to its nearest neighbors in feature space, then separates
clean from noisy samples by ranking or by a two-component mixture split.

Submodules are imported lazily so the command-line entry point can
configure BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "data",
    "tinynet",
    "neighbors",
    "scorer",
    "oracle",
    "mixture",
    "evaluate",
    "pipeline",
    "workers",
    "config",
    "errors",
)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
