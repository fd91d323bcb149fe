"""Exception hierarchy shared by all expobs modules."""


class ExpobsError(Exception):
    """Base class for every error raised by this package."""


class InvalidDocument(ExpobsError):
    """Structurally broken input document (missing keys, ragged matrix, ...)."""


class MalformedRational(ExpobsError):
    """A scalar literal that is not an integer or reduced 'p/q' string."""


class MetricViolation(ExpobsError):
    """Metric axiom failure; the message names the offending pair or triple."""


class NotABijection(ExpobsError):
    """The map of a finite system is not a permutation of its points."""


class DegenerateSpace(ExpobsError):
    """Operation needs at least two points."""


class UnknownPoint(ExpobsError):
    """Point identifier not present in the system."""


class DomainMismatch(ExpobsError):
    """Observable domain differs from the point set it is used with."""


class NonConvergent(ExpobsError):
    """Observable sequence whose separation pattern has not stabilized."""


class NotAConjugacy(ExpobsError):
    """Point bijection that does not intertwine the two maps."""


class AlphabetMismatch(ExpobsError):
    """Symbolic operands declared over different alphabets."""


class NoPairFound(ExpobsError):
    """No asymptotic pair within the requested description bound."""


class InconsistentRotationNumber(ExpobsError):
    """Periodic-point query has no solutions for the given p/q."""


class NoPeriodicOrbit(ExpobsError):
    """No periodic orbit found up to the iteration bound."""


class NoWanderingInterval(ExpobsError):
    """Fixed set of the reduced map leaves no complementary interval."""


class HorizonExceeded(ExpobsError):
    """Iteration budget exhausted before the certificate conditions held."""


class NotRigid(ExpobsError):
    """Circle map is not a rigid rotation."""


class AllFixed(ExpobsError):
    """Every point of the interval is fixed; carries the analytical report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InvariantViolation(ExpobsError):
    """A mathematical guarantee of the engine failed at run time (a bug)."""


class MalformedReport(ExpobsError):
    """Report document lacks the fields a renderer needs."""
