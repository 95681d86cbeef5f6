"""Exception types shared across the package."""


class MatchforceError(Exception):
    """Base class for every error raised by this library."""


class SelfLoop(MatchforceError):
    pass


class DuplicateEdge(MatchforceError):
    pass


class BadColoring(MatchforceError):
    pass


class LimitExceeded(MatchforceError):
    """An enumeration passed its configured cap instead of hanging."""


class NotPerfect(MatchforceError):
    pass


class NoPerfectMatching(MatchforceError):
    pass


class NotBipartite(MatchforceError):
    pass


class NotSubsetOfM(MatchforceError):
    pass


class IntersectsM(MatchforceError):
    pass


class Disconnected(MatchforceError):
    pass


class HasHole(MatchforceError):
    pass


class NotATree(MatchforceError):
    pass


class BadRowSequence(MatchforceError):
    pass


class UnknownName(MatchforceError):
    pass


class TooLarge(MatchforceError):
    pass


class InvalidGlue(MatchforceError):
    pass


class ParseError(MatchforceError):
    pass


class InapplicableInvariant(MatchforceError):
    pass


class UnknownSuite(MatchforceError):
    pass
