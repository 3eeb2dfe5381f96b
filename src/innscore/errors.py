"""The package's one error type.

Invalid arguments raise plain ValueError; NumericError covers the numeric
failures (a diverged model, a mixture fit that breaks down), which get
their own exit code.
"""


class NumericError(RuntimeError):
    """Non-finite values encountered during training, scoring or a mixture fit."""
