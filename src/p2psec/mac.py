"""Projection of security properties onto MAC rules and audit traces.

Each property kind maps to a fixed set of ``neverallow`` entries over
the file and directory permission vocabularies; a domain's ruleset is
the union over its property kinds on top of a fixed default-allow base.
The rules listing is written, never read back.
Resources get ``system_u:object_r:<label>_t`` security contexts derived
from the owning domain name.

The module also reads and writes kernel-style AVC audit lines and
builds the access challenges used to probe whether a remote peer really
enforces what it claims.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    AvcParseError,
    ChallengeError,
    MacError,
    UnknownPermissionError,
    UnknownResourceError,
)
from .policy import Domain, PeerPolicy, PropertyKind


class PermissionClass(Enum):
    FILE = "file"
    DIR = "dir"
    __hash__ = object.__hash__  # identity, as PropertyKind's


#: Permission vocabularies, in canonical emission order.
FILE_PERMISSIONS = (
    "read", "write", "unlink", "create", "append", "mounton", "rename",
    "lock", "execute", "getattr", "setattr",
)
DIR_PERMISSIONS = (
    "read", "write", "unlink", "search", "create", "mounton", "getattr",
    "setattr", "rename", "add_name", "remove_name", "reparent", "rmdir",
)

_VOCABULARY = {
    PermissionClass.FILE: FILE_PERMISSIONS,
    PermissionClass.DIR: DIR_PERMISSIONS,
}


@dataclass(frozen=True)
class Permission:
    cls: PermissionClass
    name: str

    def __post_init__(self):
        if self.name not in _VOCABULARY[self.cls]:
            raise UnknownPermissionError(
                f"{self.name!r} is not a {self.cls.value} permission")


def _perms(cls: PermissionClass, names: Iterable[str]) -> frozenset[Permission]:
    return frozenset(Permission(cls, n) for n in names)


#: Per-kind neverallow sets.  Prohibition kinds remove capabilities;
#: permission kinds add nothing beyond the default-allow base.
KIND_NEVERALLOW: dict[PropertyKind, frozenset[Permission]] = {
    PropertyKind.CONFIDENTIALITY:
        _perms(PermissionClass.FILE, ("read", "append", "setattr"))
        | _perms(PermissionClass.DIR, ("read", "search", "setattr")),
    PropertyKind.INTEGRITY:
        _perms(PermissionClass.FILE,
               ("write", "unlink", "append", "rename", "setattr"))
        | _perms(PermissionClass.DIR,
                 ("write", "unlink", "setattr", "rename", "remove_name",
                  "rmdir")),
    PropertyKind.NOPUBLICATION:
        _perms(PermissionClass.FILE, ("create", "setattr", "mounton"))
        | _perms(PermissionClass.DIR,
                 ("create", "setattr", "add_name", "remove_name", "rmdir",
                  "mounton")),
    PropertyKind.COOPERATION: frozenset(),
    PropertyKind.SPREAD: frozenset(),
}
# noshare shares the nopublication projection.
KIND_NEVERALLOW[PropertyKind.NOSHARE] = KIND_NEVERALLOW[PropertyKind.NOPUBLICATION]

#: The allow lines every stanza starts with: the fixed default-allow
#: base, every permission of both vocabularies.
_ALLOW_LINES = (f"allow file {{{' '.join(FILE_PERMISSIONS)}}}\n"
                f"allow dir {{{' '.join(DIR_PERMISSIONS)}}}")


@dataclass(frozen=True)
class MacRuleSet:
    """The neverallow entries over the fixed allow base.

    Every vocabulary permission is allowed unless ``neverallow`` names
    it, so a ruleset is its neverallow set.
    """

    neverallow: frozenset[Permission] = frozenset()

    @cached_property
    def _body(self) -> str:
        """The stanza's rule lines, rendered once per instance."""
        return "\n".join(_ruleset_lines(self))


DEFAULT_RULESET = MacRuleSet()


#: kind_ruleset's results by kind set; at most one per subset of kinds.
_KIND_RULESETS: dict[frozenset[PropertyKind], MacRuleSet] = {}


def kind_ruleset(kinds: Iterable[PropertyKind]) -> MacRuleSet:
    """Union of the per-kind neverallow sets over the default base.

    Results are memoized by kind set and shared between callers, which
    is safe because ``MacRuleSet`` is frozen.
    """
    key = frozenset(kinds)
    ruleset = _KIND_RULESETS.get(key)
    if ruleset is None:
        ruleset = MacRuleSet(neverallow=frozenset().union(
            *(KIND_NEVERALLOW[kind] for kind in key)))
        _KIND_RULESETS[key] = ruleset
    return ruleset


class Decision(Enum):
    GRANTED = "granted"
    DENIED = "denied"


def check_access(ruleset: MacRuleSet, cls: PermissionClass,
                 permission: str) -> Decision:
    """Decide one access: DENIED when ``ruleset`` neverallows it, else
    GRANTED; unknown permission names are an error."""
    if Permission(cls, permission) in ruleset.neverallow:
        return Decision.DENIED
    return Decision.GRANTED


# ---------------------------------------------------------------------------
# Security contexts and labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityContext:
    """A user:role:type triple; no component is empty or holds a colon
    or whitespace, so the rendered context is one token."""

    user: str
    role: str
    type_name: str

    def __post_init__(self):
        for part in (self.user, self.role, self.type_name):
            if ":" in part or part.split() != [part]:
                raise MacError(f"bad security context component {part!r}")

    def render(self) -> str:
        return f"{self.user}:{self.role}:{self.type_name}"

    @classmethod
    def parse(cls, text: str) -> "SecurityContext":
        parts = text.split(":")
        if len(parts) != 3 or not all(parts):
            raise MacError(f"bad security context {text!r}")
        return cls(*parts)


_NON_LABEL = re.compile(r"[^0-9A-Za-z]")


def sanitize_label(domain_name: str) -> str:
    """Domain name to type label: non-alphanumerics become underscores."""
    return _NON_LABEL.sub("_", domain_name) + "_t"


def object_context(domain_name: str) -> SecurityContext:
    return SecurityContext("system_u", "object_r", sanitize_label(domain_name))


# ---------------------------------------------------------------------------
# Whole-policy compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledPolicy:
    """MAC projection of one peer policy.

    ``resource_rules`` folds resource-level properties into the owning
    domain's ruleset, so it may be stricter than ``domain_rules`` for
    the same path.
    """

    domain_rules: Mapping[str, MacRuleSet]
    resource_contexts: Mapping[str, SecurityContext]
    resource_rules: Mapping[str, MacRuleSet]
    resource_domains: Mapping[str, str]


def compile_policy(policy: PeerPolicy) -> CompiledPolicy:
    """Project a policy onto MAC rulesets and object contexts.

    ``policy`` is not checked again: building a ``PeerPolicy`` checks
    it, so every policy value is valid.  Each domain's ruleset and
    object context are derived once per compile: a file with no
    properties of its own shares its domain's ``MacRuleSet`` and
    ``SecurityContext`` objects, and a file with its own properties
    gets the ruleset of its domain's kinds united with its own.
    """
    domain_rules: dict[str, MacRuleSet] = {}
    by_id: dict[int, tuple[Domain, MacRuleSet, SecurityContext]] = {}
    for dom in policy.domains:
        ruleset = kind_ruleset(dom.kinds)
        domain_rules[dom.name] = ruleset
        by_id[dom.id] = (dom, ruleset, object_context(dom.name))
    contexts: dict[str, SecurityContext] = {}
    resource_rules: dict[str, MacRuleSet] = {}
    resource_domains: dict[str, str] = {}
    for res in policy.resources:
        dom, ruleset, context = by_id[res.domain_id]
        if res.properties:
            ruleset = kind_ruleset(
                dom.kinds.union(p.kind for p in res.properties))
        contexts[res.path] = context
        resource_rules[res.path] = ruleset
        resource_domains[res.path] = dom.name
    return CompiledPolicy(domain_rules=domain_rules,
                          resource_contexts=contexts,
                          resource_rules=resource_rules,
                          resource_domains=resource_domains)


def _neverallow_line(cls: PermissionClass,
                     perms: frozenset[Permission]) -> str:
    names = [p.name for p in perms if p.cls is cls]
    ordered = [n for n in _VOCABULARY[cls] if n in names]
    return f"neverallow {cls.value} {{{' '.join(ordered)}}}"


def _ruleset_lines(ruleset: MacRuleSet) -> list[str]:
    lines = [_ALLOW_LINES]
    for cls in (PermissionClass.FILE, PermissionClass.DIR):
        if any(p.cls is cls for p in ruleset.neverallow):
            lines.append(_neverallow_line(cls, ruleset.neverallow))
    return lines


def emit_rules(compiled: CompiledPolicy) -> str:
    """Canonical rules listing: one stanza per domain, permissions in
    vocabulary order, plus stanzas for resources stricter than their
    domain.

    Each ruleset's rule lines are rendered once and kept on the
    ruleset, so the ``kind_ruleset`` instances that every compile shares
    are rendered once per process.
    """
    stanzas = [f"{name}:\n{ruleset._body}"
               for name, ruleset in compiled.domain_rules.items()]
    for path, ruleset in compiled.resource_rules.items():
        if ruleset != compiled.domain_rules[compiled.resource_domains[path]]:
            stanzas.append(f"{path}:\n{ruleset._body}")
    return "\n\n".join(stanzas) + ("\n" if stanzas else "")


def render_contexts(compiled: CompiledPolicy) -> str:
    """Context map: one ``<path> <context>`` line per resource."""
    lines = [f"{path} {ctx.render()}"
             for path, ctx in compiled.resource_contexts.items()]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# AVC audit lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvcRecord:
    """One kernel audit decision about one object access."""

    timestamp: str
    serial: str
    decision: Decision
    permissions: frozenset[str]
    pid: int
    comm: str
    name: str
    dev: str
    ino: int
    scontext: SecurityContext
    tcontext: SecurityContext
    tclass: str

    def __post_init__(self):
        if not isinstance(self.permissions, frozenset):
            object.__setattr__(self, "permissions",
                               frozenset(self.permissions))
        if not self.permissions:
            raise AvcParseError("AVC record carries no permissions")


#: (label, compiled pattern) for each field of an AVC line, in order.
_AVC_STEPS: tuple[tuple[str, re.Pattern[str]], ...] = tuple(
    (label, re.compile(pattern)) for label, pattern in (
        ("audit prefix", r"\s*audit\("),
        ("timestamp", r"([0-9.]+):"),
        ("serial", r"([0-9]+)\):\s+"),
        ("avc marker", r"avc:\s+"),
        ("decision", r"(denied|granted)\s+"),
        ("permissions", r"\{\s*([^{}]*?)\s*\}\s+for\s+"),
        ("pid", r"pid=([0-9]+)\s+"),
        ("comm", r'comm="([^"]*)"\s+'),
        ("name", r'name="([^"]*)"\s+'),
        ("dev", r"dev=(\S+)\s+"),
        ("ino", r"ino=([0-9]+)\s+"),
        ("scontext", r"scontext=(\S+)\s+"),
        ("tcontext", r"tcontext=(\S+)\s+"),
        ("tclass", r"tclass=(\S+)\s*$"),
    )
)


def parse_avc(line: str) -> AvcRecord:
    """Parse one AVC audit line; errors name the field that failed."""
    pos = 0
    fields: dict[str, str] = {}
    for label, pattern in _AVC_STEPS:
        match = pattern.match(line, pos)
        if not match:
            offending = line[pos:pos + 40] or "<end of line>"
            raise AvcParseError(f"expected {label} at {offending!r}")
        if match.groups():
            fields[label] = match.group(1)
        pos = match.end()

    permissions = frozenset(fields["permissions"].split())
    if not permissions:
        raise AvcParseError("empty permission set in braces")
    try:
        scontext = SecurityContext.parse(fields["scontext"])
        tcontext = SecurityContext.parse(fields["tcontext"])
    except MacError as exc:
        raise AvcParseError(str(exc)) from exc
    return AvcRecord(
        timestamp=fields["timestamp"],
        serial=fields["serial"],
        decision=Decision(fields["decision"]),
        permissions=permissions,
        pid=_avc_int(fields, "pid"),
        comm=fields["comm"],
        name=fields["name"],
        dev=fields["dev"],
        ino=_avc_int(fields, "ino"),
        scontext=scontext,
        tcontext=tcontext,
        tclass=fields["tclass"],
    )


def _avc_int(fields: dict[str, str], label: str) -> int:
    try:
        return int(fields[label])
    except ValueError:  # more digits than ``int`` converts
        raise AvcParseError(f"{label} has too many digits") from None


def render_avc(record: AvcRecord) -> str:
    """Single-line canonical rendering; parse_avc inverts it exactly."""
    perms = " ".join(sorted(record.permissions))
    return (
        f"audit({record.timestamp}:{record.serial}): avc: "
        f"{record.decision.value} {{ {perms} }} for pid={record.pid} "
        f'comm="{record.comm}" name="{record.name}" dev={record.dev} '
        f"ino={record.ino} scontext={record.scontext.render()} "
        f"tcontext={record.tcontext.render()} tclass={record.tclass}"
    )


# ---------------------------------------------------------------------------
# Challenges
# ---------------------------------------------------------------------------

#: Probe permission implied by each known command stub.  A probe for a
#: permission uses the first stub listed for it.
PROBE_PERMISSIONS = {
    "vim": "read",
    "viewer": "read",
    "editor-write": "write",
    "publisher": "create",
}


def _probe_stub(forbidden: frozenset[Permission]) -> str:
    names = [p.name for p in forbidden if p.cls is PermissionClass.FILE]
    permission = min(names, key=FILE_PERMISSIONS.index, default="read")
    return next(s for s, p in PROBE_PERMISSIONS.items() if p == permission)


#: The stub probing each kind: the first one listed for the first file
#: permission (in vocabulary order) the kind forbids, else for ``read``.
PROBE_STUBS: dict[PropertyKind, str] = {
    kind: _probe_stub(forbidden)
    for kind, forbidden in KIND_NEVERALLOW.items()}


def probe_permission(command_stub: str) -> str:
    """The file permission a command stub probes."""
    if command_stub not in PROBE_PERMISSIONS:
        raise ChallengeError(f"unknown command stub {command_stub!r}")
    return PROBE_PERMISSIONS[command_stub]


@dataclass(frozen=True)
class Challenge:
    """A request that the remote peer attempt one access and return the
    resulting audit trace."""

    scontext: SecurityContext
    command: str
    target_path: str
    expected: Decision
    expected_permissions: frozenset[str]
    expected_tcontext: SecurityContext

    def __post_init__(self):
        if not isinstance(self.expected_permissions, frozenset):
            object.__setattr__(self, "expected_permissions",
                               frozenset(self.expected_permissions))
        if self.expected is Decision.DENIED and not self.expected_permissions:
            raise ChallengeError(
                "denied challenge needs expected permissions")

    @property
    def target_name(self) -> str:
        return self.target_path.rsplit("/", 1)[-1]


def make_challenge(resource_path: str, subject: SecurityContext,
                   command_stub: str, compiled: CompiledPolicy) -> Challenge:
    """Build a challenge for a compiled resource."""
    if resource_path not in compiled.resource_rules:
        raise UnknownResourceError(
            f"no compiled resource at {resource_path!r}")
    return build_challenge(resource_path, subject, command_stub,
                           compiled.resource_rules[resource_path],
                           compiled.resource_contexts[resource_path])


def build_challenge(resource_path: str, subject: SecurityContext,
                    command_stub: str, ruleset: MacRuleSet,
                    tcontext: SecurityContext) -> Challenge:
    """Build a challenge against the ruleset the target should enforce.

    The expected outcome is what ``ruleset`` itself decides for the
    stub's probe permission, so a faithful enforcer reproduces it.
    """
    permission = probe_permission(command_stub)
    return Challenge(
        scontext=subject,
        command=f"scontext={subject.render()} {command_stub} {resource_path}",
        target_path=resource_path,
        expected=check_access(ruleset, PermissionClass.FILE, permission),
        expected_permissions=frozenset({permission}),
        expected_tcontext=tcontext,
    )


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    reason: str

    def __bool__(self) -> bool:
        return self.passed


def verify_challenge(challenge: Challenge,
                     response_trace: Sequence[AvcRecord]) -> VerifyResult:
    """Check a returned trace against the challenge expectation.

    Passes when some record shows the expected decision for the target
    name with the expected permissions and the compiled object label.
    """
    if not response_trace:
        return VerifyResult(False, "response trace is empty")
    first_mismatch = ""
    for index, record in enumerate(response_trace):
        mismatch = _record_mismatch(challenge, record)
        if mismatch is None:
            return VerifyResult(True, f"matched audit record {index}")
        if not first_mismatch:
            first_mismatch = f"record {index}: {mismatch}"
    return VerifyResult(False, first_mismatch)


def _record_mismatch(challenge: Challenge, record: AvcRecord) -> str | None:
    if record.name != challenge.target_name:
        return (f"object name {record.name!r} is not "
                f"{challenge.target_name!r}")
    if record.decision is not challenge.expected:
        return (f"decision {record.decision.value} instead of "
                f"{challenge.expected.value}")
    if not challenge.expected_permissions <= record.permissions:
        missing = sorted(challenge.expected_permissions
                         - record.permissions)
        return f"permissions missing {missing}"
    if record.tcontext.type_name != challenge.expected_tcontext.type_name:
        return (f"target label {record.tcontext.type_name} instead of "
                f"{challenge.expected_tcontext.type_name}")
    return None


def render_challenge(challenge: Challenge) -> str:
    """Challenge file format: the wire line, then the expectations."""
    perms = ",".join(sorted(challenge.expected_permissions))
    return (
        f"{challenge.command}\n"
        f"expect={challenge.expected.value}\n"
        f"permissions={perms}\n"
        f"tcontext={challenge.expected_tcontext.render()}\n"
    )


def parse_challenge(text: str) -> Challenge:
    """Inverse of :func:`render_challenge`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ChallengeError("empty challenge file")
    command = lines[0].strip()
    # scontext, stub, then the path, which may hold spaces
    parts = command.split(maxsplit=2)
    if len(parts) < 3 or not parts[0].startswith("scontext="):
        raise ChallengeError(f"bad challenge command line {command!r}")
    try:
        scontext = SecurityContext.parse(parts[0][len("scontext="):])
    except MacError as exc:
        raise ChallengeError(str(exc)) from exc
    target_path = parts[2]
    keys: dict[str, str] = {}
    for line in lines[1:]:
        key, sep, value = line.strip().partition("=")
        if not sep or key not in ("expect", "permissions", "tcontext"):
            raise ChallengeError(f"bad challenge line {line.strip()!r}")
        keys[key] = value
    for key in ("expect", "permissions", "tcontext"):
        if key not in keys:
            raise ChallengeError(f"challenge file is missing {key!r}")
    if keys["expect"] not in (d.value for d in Decision):
        raise ChallengeError(f"bad expectation {keys['expect']!r}")
    try:
        tcontext = SecurityContext.parse(keys["tcontext"])
    except MacError as exc:
        raise ChallengeError(str(exc)) from exc
    permissions = frozenset(p for p in keys["permissions"].split(",") if p)
    return Challenge(
        scontext=scontext,
        command=command,
        target_path=target_path,
        expected=Decision(keys["expect"]),
        expected_permissions=permissions,
        expected_tcontext=tcontext,
    )
