"""Exception types shared across the package."""


class DegenerateConfigurationError(ValueError):
    """A hyperparameter combination that makes construction meaningless.

    Raised by ``HyperParams`` for leak_rate == 0: the effective layer matrix
    collapses to the identity and spectral-radius rescaling has no degree of
    freedom. Raised where the weights are built when the leak rate is so
    small that the recurrent matrix overflows when divided by it.
    """


class UnscalableMatrixError(RuntimeError):
    """Recurrent weight draw whose effective matrix cannot be rescaled.

    Raised after exhausting the retry substreams for a layer whose effective
    matrix has spectral radius below the scalable threshold.
    """
