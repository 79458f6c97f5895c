"""Projection of security properties onto MAC rules and audit traces.

Each property kind maps to a fixed set of ``neverallow`` entries over
the file and directory permission vocabularies; a domain's ruleset is
the union over its property kinds on top of a default-allow base.
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
from typing import Iterable, Mapping, Sequence

from .errors import (
    AvcParseError,
    ChallengeError,
    MacError,
    UnknownPermissionError,
    UnknownResourceError,
)
from .policy import PeerPolicy, PropertyKind


class PermissionClass(Enum):
    FILE = "file"
    DIR = "dir"


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

#: The default-allow base: every vocabulary permission of both classes.
DEFAULT_ALLOW = (_perms(PermissionClass.FILE, FILE_PERMISSIONS)
                 | _perms(PermissionClass.DIR, DIR_PERMISSIONS))


@dataclass(frozen=True)
class MacRuleSet:
    """Allow base plus neverallow entries; neverallow wins on overlap."""

    allow: frozenset[Permission] = DEFAULT_ALLOW
    neverallow: frozenset[Permission] = frozenset()


DEFAULT_RULESET = MacRuleSet()


def kind_ruleset(kinds: Iterable[PropertyKind]) -> MacRuleSet:
    """Union of the per-kind neverallow sets over the default base."""
    denied: frozenset[Permission] = frozenset()
    for kind in kinds:
        denied |= KIND_NEVERALLOW[kind]
    return MacRuleSet(neverallow=denied)


class Decision(Enum):
    GRANTED = "granted"
    DENIED = "denied"


def check_access(ruleset: MacRuleSet, cls: PermissionClass,
                 permission: str) -> Decision:
    """Decide one access; unknown permission names are an error."""
    perm = Permission(cls, permission)
    if perm in ruleset.neverallow:
        return Decision.DENIED
    if perm in ruleset.allow:
        return Decision.GRANTED
    return Decision.DENIED


# ---------------------------------------------------------------------------
# Security contexts and labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityContext:
    """A user:role:type triple."""

    user: str
    role: str
    type_name: str

    def __post_init__(self):
        for part in (self.user, self.role, self.type_name):
            if not part or ":" in part:
                raise MacError(f"bad security context component {part!r}")

    def render(self) -> str:
        return f"{self.user}:{self.role}:{self.type_name}"

    @classmethod
    def parse(cls, text: str) -> "SecurityContext":
        parts = text.split(":")
        if len(parts) != 3 or not all(parts):
            raise MacError(f"bad security context {text!r}")
        return cls(*parts)


def sanitize_label(domain_name: str) -> str:
    """Domain name to type label: non-alphanumerics become underscores."""
    return re.sub(r"[^0-9A-Za-z]", "_", domain_name) + "_t"


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
    policy.validate()
    domain_rules = {dom.name: kind_ruleset(dom.kinds)
                    for dom in policy.domains}
    contexts: dict[str, SecurityContext] = {}
    resource_rules: dict[str, MacRuleSet] = {}
    resource_domains: dict[str, str] = {}
    for res in policy.resources:
        dom = policy.domain_by_id(res.domain_id)
        contexts[res.path] = object_context(dom.name)
        kinds = dom.kinds | {p.kind for p in res.properties}
        resource_rules[res.path] = kind_ruleset(kinds)
        resource_domains[res.path] = dom.name
    return CompiledPolicy(domain_rules=domain_rules,
                          resource_contexts=contexts,
                          resource_rules=resource_rules,
                          resource_domains=resource_domains)


def _permission_line(verb: str, cls: PermissionClass,
                     perms: frozenset[Permission]) -> str:
    names = [p.name for p in perms if p.cls is cls]
    ordered = [n for n in _VOCABULARY[cls] if n in names]
    return f"{verb} {cls.value} {{{' '.join(ordered)}}}"


def _ruleset_lines(ruleset: MacRuleSet) -> list[str]:
    lines = [_permission_line("allow", PermissionClass.FILE, ruleset.allow),
             _permission_line("allow", PermissionClass.DIR, ruleset.allow)]
    for cls in (PermissionClass.FILE, PermissionClass.DIR):
        if any(p.cls is cls for p in ruleset.neverallow):
            lines.append(_permission_line("neverallow", cls,
                                          ruleset.neverallow))
    return lines


def emit_rules(compiled: CompiledPolicy) -> str:
    """Canonical rules listing: one stanza per domain, permissions in
    vocabulary order, plus stanzas for resources stricter than their
    domain."""
    stanzas = []
    for name, ruleset in compiled.domain_rules.items():
        stanzas.append("\n".join([f"{name}:"] + _ruleset_lines(ruleset)))
    for path, ruleset in compiled.resource_rules.items():
        if ruleset != compiled.domain_rules[compiled.resource_domains[path]]:
            stanzas.append("\n".join([f"{path}:"] + _ruleset_lines(ruleset)))
    return "\n\n".join(stanzas) + ("\n" if stanzas else "")


_RULE_LINE = re.compile(
    r"^(allow|neverallow) (file|dir) \{([^{}]*)\}$")


def parse_rules(text: str) -> dict[str, MacRuleSet]:
    """Inverse of :func:`emit_rules` over the emitted stanza mapping."""
    result: dict[str, MacRuleSet] = {}
    current: str | None = None
    allow: set[Permission] = set()
    neverallow: set[Permission] = set()

    def flush():
        if current is not None:
            result[current] = MacRuleSet(allow=frozenset(allow),
                                         neverallow=frozenset(neverallow))

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.endswith(":") and not _RULE_LINE.match(line):
            flush()
            current = line[:-1]
            allow, neverallow = set(), set()
            continue
        match = _RULE_LINE.match(line)
        if not match or current is None:
            raise MacError(f"unrecognized rules line {line!r}")
        verb, cls_name, body = match.groups()
        perms = {Permission(PermissionClass(cls_name), n)
                 for n in body.split()}
        (allow if verb == "allow" else neverallow).update(perms)
    flush()
    return result


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


_AVC_STEPS: tuple[tuple[str, str], ...] = (
    ("audit prefix", r"\s*audit\("),
    ("timestamp", r"([0-9.]+):"),
    ("serial", r"(\d+)\):\s+"),
    ("avc marker", r"avc:\s+"),
    ("decision", r"(denied|granted)\s+"),
    ("permissions", r"\{\s*([^{}]*?)\s*\}\s+for\s+"),
    ("pid", r"pid=(\d+)\s+"),
    ("comm", r'comm="([^"]*)"\s+'),
    ("name", r'name="([^"]*)"\s+'),
    ("dev", r"dev=(\S+)\s+"),
    ("ino", r"ino=(\d+)\s+"),
    ("scontext", r"scontext=(\S+)\s+"),
    ("tcontext", r"tcontext=(\S+)\s+"),
    ("tclass", r"tclass=(\S+)\s*$"),
)


def parse_avc(line: str) -> AvcRecord:
    """Parse one AVC audit line; errors name the field that failed."""
    pos = 0
    fields: dict[str, str] = {}
    for label, pattern in _AVC_STEPS:
        match = re.compile(pattern).match(line, pos)
        if not match:
            offending = line[pos:pos + 40] or "<end of line>"
            raise AvcParseError(
                f"expected {label} at {offending!r}", token=offending)
        if match.groups():
            fields[label] = match.group(1)
        pos = match.end()

    permissions = frozenset(fields["permissions"].split())
    if not permissions:
        raise AvcParseError("empty permission set in braces",
                            token=fields["permissions"])
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
        pid=int(fields["pid"]),
        comm=fields["comm"],
        name=fields["name"],
        dev=fields["dev"],
        ino=int(fields["ino"]),
        scontext=scontext,
        tcontext=tcontext,
        tclass=fields["tclass"],
    )


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
    if command_stub not in PROBE_PERMISSIONS:
        raise ChallengeError(f"unknown command stub {command_stub!r}")
    permission = PROBE_PERMISSIONS[command_stub]
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
    parts = command.split()
    if len(parts) < 3 or not parts[0].startswith("scontext="):
        raise ChallengeError(f"bad challenge command line {command!r}")
    try:
        scontext = SecurityContext.parse(parts[0][len("scontext="):])
    except MacError as exc:
        raise ChallengeError(str(exc)) from exc
    target_path = parts[-1]
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
