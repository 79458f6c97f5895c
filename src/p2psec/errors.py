"""Exception hierarchy shared by all p2psec modules, and the one test
and the one wording for an int too long to name in a message."""

from __future__ import annotations


def too_long_to_write(value: object) -> bool:
    """Whether ``value`` is an int that ``str`` (and so ``repr``) refuses
    to write.  ``str`` refuses an int over its digit limit, which is
    never below 640 digits, so only an int over 2048 bits pays for the
    costly test."""
    if not isinstance(value, int) or value.bit_length() <= 2048:
        return False
    try:
        str(value)
    except ValueError:
        return True
    return False


def written(value: object) -> str:
    """``repr(value)`` for a message, or ``an int too long to write``
    for an int that ``repr`` refuses to write."""
    if too_long_to_write(value):
        return "an int too long to write"
    return repr(value)


class P2PSecError(Exception):
    """Base class for every error raised by this package: a message,
    and the 1-based ``line`` of the input that holds the fault, or None
    when the raiser does not know it."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Policy model errors
# ---------------------------------------------------------------------------

class PolicyError(P2PSecError):
    """Base class for policy model violations."""


class PolicyValidationError(PolicyError):
    """A property or policy value breaks a structural invariant."""


class DuplicateDomainError(PolicyError):
    """A domain with the same name already exists in the policy."""


class DuplicateResourceError(PolicyError):
    """A resource with the same path already exists in the policy."""


class UnknownDomainError(PolicyError):
    """The referenced domain is not declared in the policy."""


class UnknownResourceError(PolicyError):
    """The referenced resource is not present in the policy."""


class UnknownScopeError(PolicyError):
    """A scope reference matches neither a domain nor a resource."""


class PropertyConflictError(PolicyError):
    """Requested properties conflict with properties already in force."""


class PublicationForbiddenError(PolicyError):
    """The target domain forbids publication of new resources."""


# ---------------------------------------------------------------------------
# XML interchange errors
# ---------------------------------------------------------------------------

class XmlError(P2PSecError):
    """Base class for XML interchange failures."""


class XmlSyntaxError(XmlError):
    """Malformed markup; its ``line`` is set when the parser gives one,
    and its message then names the line and column."""


class XmlValidationError(XmlError):
    """Well-formed XML that violates the policy document schema; the
    message names the element or attribute at fault (``duplicate id N``
    names the id, which is unique across domains and files).  Its
    ``line`` is set when :func:`~p2psec.policy_xml.parse_policy` found
    the fault, and None when a document built in code holds it or the
    serializer refuses it."""


# ---------------------------------------------------------------------------
# MAC rule and audit trace errors
# ---------------------------------------------------------------------------

class MacError(P2PSecError):
    """Base class for MAC compilation and audit parsing failures."""


class UnknownPermissionError(MacError):
    """Permission name outside the file/dir vocabulary."""


class AvcParseError(MacError):
    """An audit line does not match the AVC grammar; the message names
    the field that failed."""


class ChallengeError(MacError):
    """A challenge cannot be built or decoded."""


# ---------------------------------------------------------------------------
# Trust errors
# ---------------------------------------------------------------------------

class TrustError(P2PSecError):
    """Base class for trust computation failures."""


class NoDelegatesError(TrustError):
    """Challenge delegation requested with no delegates available."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------

class ScenarioError(P2PSecError):
    """A scenario file is syntactically or referentially invalid; its
    ``line`` is set when the fault was found in a parsed file."""


class PrivacyViolationError(P2PSecError):
    """A message leaked policy content outside the negotiated domain."""
