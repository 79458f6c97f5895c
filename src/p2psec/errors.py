"""Exception hierarchy shared by all p2psec modules."""

from __future__ import annotations


class P2PSecError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Policy model errors
# ---------------------------------------------------------------------------

class PolicyError(P2PSecError):
    """Base class for policy model violations."""


class PolicyValidationError(PolicyError):
    """A property or policy value breaks a structural invariant."""


class DuplicateDomainError(PolicyError):
    """A domain with the same name already exists in the policy."""


class UnknownDomainError(PolicyError):
    """The referenced domain is not declared in the policy."""


class UnknownResourceError(PolicyError):
    """The referenced resource is not present in the policy."""


class UnknownScopeError(PolicyError):
    """A scope reference matches neither a domain nor a resource."""


class PropertyConflictError(PolicyError):
    """Requested properties conflict with properties already in force.

    ``pairs`` holds the offending (requested, present) property pairs.
    """

    def __init__(self, message: str, pairs: tuple = ()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class PublicationForbiddenError(PolicyError):
    """The target domain forbids publication of new resources."""


# ---------------------------------------------------------------------------
# XML interchange errors
# ---------------------------------------------------------------------------

class XmlError(P2PSecError):
    """Base class for XML interchange failures."""


class XmlSyntaxError(XmlError):
    """Malformed markup; carries the 1-based line and column when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class XmlValidationError(XmlError):
    """Well-formed XML that violates the policy document schema."""

    def __init__(self, message: str, element: str | None = None):
        super().__init__(message)
        self.element = element


# ---------------------------------------------------------------------------
# MAC rule and audit trace errors
# ---------------------------------------------------------------------------

class MacError(P2PSecError):
    """Base class for MAC compilation and audit parsing failures."""


class UnknownPermissionError(MacError):
    """Permission name outside the file/dir vocabulary."""


class AvcParseError(MacError):
    """An audit line does not match the AVC grammar.

    ``token`` points at the first part of the line that failed to parse.
    """

    def __init__(self, message: str, token: str = ""):
        super().__init__(message)
        self.token = token


class ChallengeError(MacError):
    """A challenge cannot be built or decoded."""


# ---------------------------------------------------------------------------
# Negotiation and trust errors
# ---------------------------------------------------------------------------

class NegotiationError(P2PSecError):
    """Base class for negotiation protocol failures."""


class MissingTrustValueError(NegotiationError):
    """decide() called without a trust value for a required property."""


class TrustError(P2PSecError):
    """Base class for trust computation failures."""


class NoDelegatesError(TrustError):
    """Challenge delegation requested with no delegates available."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------

class ScenarioError(P2PSecError):
    """A scenario file is syntactically or referentially invalid."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class PrivacyViolationError(P2PSecError):
    """A message leaked policy content outside the negotiated domain."""
