"""Exception types shared across the package."""


class DegenerateConfigurationError(ValueError):
    """A hyperparameter combination that makes construction meaningless.

    Raised by ``HyperParams`` for leak_rate == 0: the effective layer matrix
    collapses to the identity and spectral-radius rescaling has no degree of
    freedom.
    """


class UnscalableMatrixError(RuntimeError):
    """Recurrent weight draw whose effective matrix cannot be rescaled.

    Raised after exhausting the retry substreams for a layer whose effective
    matrix has spectral radius below the scalable threshold.
    """


class UnsupportedConfigurationError(ValueError):
    """Operation invoked on a configuration it is not defined for.

    The layered-to-flat rewrite exists only for linear activation; asking
    for it on a saturating reservoir raises this.
    """
