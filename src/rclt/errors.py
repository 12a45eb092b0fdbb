"""Exception taxonomy for the whole package.

Three families matter to callers (and to the CLI exit-code mapping):

- ``ConfigError``       -> bad experiment configuration, input files or arguments, and
  the output side: an ``output_dir`` that cannot be one, or a file that
  cannot be written (exit 2; the CLI gives exit 2 to an ``OSError`` on the
  output side too, such as an ``output_dir`` it cannot make)
- ``NumericalError``    -> chain admission, spectral or solver failures (exit 3)
- ``StatisticalFailure``-> a seeded Monte Carlo check missed its declared
  threshold (exit 4); the computation itself succeeded.

Every library argument outside its domain is an ``InvalidArgument``, a
``ConfigError``: a count, length, replica count, seed or index as much as a
grid time or a mode. One rule judges the type of a number: ``rclt.chain._numbers``
applies it to numbers passed on their own or in a list, and ``rclt.chain._array``
to every array's entries as numpy reads them, a boolean among numbers in a
list included, which numpy would read as 0 or 1.
``rclt.chain._counts`` alone holds every count to the one size ceiling, so a
bad count is exit 2 wherever it is passed.

Those three judge inputs; ``rclt.chain._gate`` is the one judge of computed
numbers. Every certificate (a row sum, a detailed-balance, invariance or
identity defect, an eigenvalue's escape from [-1, 1], a spectral mass, a
resolvent residual, the sigma^2 route agreement, an observable's stationary
mean) passes it: the error its caller names, with the number, its value and
its tolerance, unless the value is at most a finite tolerance, so a NaN
value or tolerance, or an infinite tolerance, fails. A tolerance on a
number of the observable f is a constant times f's own scale, max|f| or
E f^2 by the number's degree in f, so f times a power of two meets every
gate as f does; the kernel's own certificates take no scale. That rule is
``rclt.chain._misses``, which also decides every statistical verdict of
``rclt.limits``; a missed verdict is a ``StatisticalFailure`` at the command
line. A JSON report or manifest that would hold a NaN or an infinity is a
``NumericalError`` there.
"""
from __future__ import annotations


class RcltError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RcltError):
    """Experiment configuration is unusable (missing file, bad schema, ...), or its outputs.

    The output side is ``rclt.cli``'s: an ``output_dir`` whose nearest existing
    path is not a directory, and an ``OSError`` while writing a file, each
    naming the path.
    """


class InvalidArgument(ConfigError, ValueError):
    """A parameter or observable lies outside its domain.

    Raised for a count below its least value or above the size ceiling, a
    non-integral or boolean count, a negative or non-integral seed, a missing
    master seed or replica count, an integer past the float range where a
    float is expected, an index outside the sampled path, a grid time outside
    [0, 1], an unknown mode, a non-boolean flag, a non-finite number, an
    observable that is not centered or does not fit, and a chain, observable,
    spectral measure or trajectory of the wrong type.
    """


class NumericalError(RcltError):
    """A chain, spectral or decomposition computation cannot proceed."""


class StatisticalFailure(RcltError):
    """A statistical acceptance threshold declared in the run was exceeded."""


# --- chain admission -------------------------------------------------------

class NotStochastic(NumericalError):
    """A kernel row does not sum to one within the admission tolerance."""


class NotIrreducible(NumericalError):
    """The kernel's support graph is not strongly connected."""


class NotReversible(NumericalError):
    """Detailed balance fails beyond the admission tolerance."""


class Disconnected(NumericalError):
    """A weight graph has an unreachable vertex (or an all-zero row)."""


class NegativeWeight(NumericalError):
    """A weight matrix carries a negative entry."""


class ZeroTargetMass(NumericalError):
    """A Metropolis target puts zero (or negative) mass on some state."""


class MalformedMatrix(NumericalError, ValueError):
    """A chain's matrix is ragged, not numeric, not square, mis-sized, empty or not symmetric."""


# --- spectral engine -------------------------------------------------------

class EigenFailure(NumericalError):
    """Symmetric eigensolver failed, eigenvalues escaped [-1, 1], or its numbers missed a check.

    The checks compare with values found without the eigensolver: the spectral
    mass against E(X_0^2), and the spectral sigma^2 against the Poisson one.
    The latter is judged once per exact layer, in ``rclt.spectral._Exact.sigma2``,
    so ``variance_report``, ``clt_test`` and ``fclt_profile`` all raise it.
    """


class FiniteVarianceViolated(NumericalError):
    """Spectral mass sits at 1: the variance of partial sums is superlinear."""


class SingularPoisson(NumericalError):
    """The deflated resolvent solve left a residual above tolerance."""


# --- limit laboratory ------------------------------------------------------

class DegenerateVariance(NumericalError):
    """Asymptotic variance is (numerically) zero; the CLT scaling is void."""


class ExhaustiveTooLarge(NumericalError):
    """Exact path enumeration would exceed the configured budget."""
