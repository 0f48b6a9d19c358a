"""Exception types raised across the package; cli.ERROR_EXIT_CODES gives a
distinct exit code to each one a CLI run can raise.  It leaves out
NonPositiveDiffusion, InsufficientModes and OrderMismatch, whose causes a
run reports earlier (ConfigParse or OrderTooSmall); NoFeasibleN, which a run
reports as exit 2; and DimensionMismatch and CertificateRequired, which the
pipeline's own calls never raise."""


class SpecstabError(Exception):
    """Base class for all package errors."""


# -- spectral solver -------------------------------------------------------

class NonPositiveDiffusion(SpecstabError):
    """The diffusion polynomial p is not strictly positive on [0, 1]."""


# -- homogenization / reduction --------------------------------------------

class InsufficientModes(SpecstabError):
    """The spectrum carries fewer modes than the reduction requires."""


class DecayUnreachable(SpecstabError):
    """No computed mode satisfies -lambda_n + q_c < -delta."""


class EpsOutOfRange(SpecstabError):
    """The tail exponent must lie in (0, 1/2]."""


# -- gain synthesis ---------------------------------------------------------

class UncontrollablePair(SpecstabError):
    """(A, B) fails the Kalman rank test beyond tolerance."""


class UnobservablePair(SpecstabError):
    """(A, C) fails the dual Kalman rank test beyond tolerance."""


class OrderTooSmall(SpecstabError):
    """Observer order N must satisfy N >= N0 + 1."""


# -- certificates ------------------------------------------------------------

class NotHurwitzShifted(SpecstabError):
    """F + delta*I has an eigenvalue with nonnegative real part, or its shifted
    Lyapunov solve fails the backward-error check."""


class DimensionMismatch(SpecstabError):
    """Matrix dimensions are inconsistent with the model order."""


class NoFeasibleN(SpecstabError):
    """No verified certificate up to N_max; carries per-N exact margins."""

    def __init__(self, message: str, margins: dict):
        super().__init__(message)
        self.margins = margins


class IoFailure(SpecstabError):
    """Writing an export file failed."""


# -- simulation ---------------------------------------------------------------

class OrderMismatch(SpecstabError):
    """Inconsistent plant truncation / observer orders."""


class StepRejected(SpecstabError):
    """The one-step propagator would overflow over the requested horizon."""


class NonPositiveSeries(SpecstabError):
    """Log-linear fit requested on a series that is not strictly positive."""


class CertificateRequired(SpecstabError):
    """The operation needs a feasible certificate."""


# -- scenario runner -----------------------------------------------------------

class ConfigParse(SpecstabError):
    """Scenario configuration file is malformed or incomplete."""
