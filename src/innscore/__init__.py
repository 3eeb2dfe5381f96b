"""innscore: clean-label identification in noisy training data.

Scores each training sample by integrating a trained classifier's
predicted probability of the sample's observed label along straight
segments to its nearest neighbors in feature space, then separates
clean from noisy samples by ranking or by a two-component mixture split.

The package imports no submodule: each caller imports the one it uses
(`from innscore import data`), so the command-line entry point can
configure BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"
