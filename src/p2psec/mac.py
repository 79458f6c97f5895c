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
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    AvcParseError,
    ChallengeError,
    MacError,
    UnknownPermissionError,
    UnknownResourceError,
    too_long_to_write,
    written,
)
from .policy import Domain, PeerPolicy, PropertyKind, frozen_record


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


@frozen_record
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


@frozen_record
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

@frozen_record
class SecurityContext:
    """A user:role:type triple; no component is empty or holds a colon
    or whitespace, so the rendered context is one token.  Building one
    from code or by :meth:`parse` checks this; :func:`object_context`
    builds from parts that already meet it."""

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
    """The object context of a domain's files,
    ``system_u:object_r:<label>_t``.  It is built without
    ``SecurityContext``'s checks, which its parts already meet: two
    constants, and a label :func:`sanitize_label` makes of ``[0-9A-Za-z_]``
    alone and never empty."""
    return SecurityContext.unchecked("system_u", "object_r",
                                     sanitize_label(domain_name))


# ---------------------------------------------------------------------------
# Whole-policy compilation
# ---------------------------------------------------------------------------

@frozen_record
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

    Nothing is checked again.  Every ``PeerPolicy`` value is valid: it
    was validated when built from code, checked step by step when frozen
    from a builder, or checked as a document before it was lifted.  Each
    object context comes from :func:`object_context`, whose parts need
    no check.  Each domain's ruleset and object context are derived
    once per compile: a file with no properties of its own shares its
    domain's ``MacRuleSet`` and ``SecurityContext`` objects, and a file
    with its own properties gets the ruleset of its domain's kinds
    united with its own.
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
        own = compiled.domain_rules[compiled.resource_domains[path]]
        if ruleset is not own and ruleset != own:
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

#: Each part of an AVC line, in order: its label, the pattern before its
#: value, the form of its value (None for a marker, which has none), the
#: pattern after it, and, for a text field that a code-built record is
#: held to, the wording of its form.  ``parse_avc`` steps through the
#: parts, and ``AvcRecord`` takes its forms from them.
_AVC_PARTS: tuple[tuple[str, str, Optional[str], str, Optional[str]], ...] = (
    ("audit prefix", r"\s*audit\(", None, "", None),
    ("timestamp", "", r"[0-9]+\.[0-9]+", ":", "<digits>.<digits>"),
    ("serial", "", "[0-9]+", r"\):\s+", "ASCII digits"),
    ("avc marker", r"avc:\s+", None, "", None),
    ("decision", "", "denied|granted", r"\s+", None),
    ("permissions", r"\{\s*", "[^{}]*?", r"\s*\}\s+for\s+", None),
    ("pid", "pid=", "[0-9]+", r"\s+", None),
    ("comm", 'comm="', '[^"]*', r'"\s+', "free of '\"'"),
    ("name", 'name="', '[^"]*', r'"\s+', None),
    ("dev", "dev=", r"\S+", r"\s+", "non-empty and free of whitespace"),
    ("ino", "ino=", "[0-9]+", r"\s+", None),
    ("scontext", "scontext=", r"\S+", r"\s+", None),
    ("tcontext", "tcontext=", r"\S+", r"\s+", None),
    ("tclass", "tclass=", r"\S+", r"\s*$",
     "non-empty and free of whitespace"),
)
#: (label, compiled pattern) for each part of an AVC line, in order.
_AVC_STEPS: tuple[tuple[str, re.Pattern[str]], ...] = tuple(
    (label, re.compile(before + ("" if form is None else f"({form})")
                       + after))
    for label, before, form, after, _ in _AVC_PARTS)
#: The form ``parse_avc`` reads back for each text field of a record
#: but ``name`` (see ``render_avc``), with the wording of its error.
_AVC_FORMS: tuple[tuple[str, re.Pattern[str], str], ...] = tuple(
    (label, re.compile(form), wording)
    for label, _, form, _, wording in _AVC_PARTS if wording)
_PERMISSION_NAME = re.compile(r"[^\s{}]+")


@frozen_record
class AvcRecord:
    """One kernel audit decision about one object access.  Each field
    but ``name`` holds what ``parse_avc`` reads back, or building the
    record raises ``AvcParseError`` naming the field.
    ``AvcRecord.unchecked`` builds one without that check: for fields
    built from parts that already hold what ``parse_avc`` reads back, as
    the simulator's probe responses and ``parse_avc``'s own fields
    are."""

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
        for label, form, wording in _AVC_FORMS:
            value = getattr(self, label)
            if not (isinstance(value, str) and form.fullmatch(value)):
                raise AvcParseError(
                    f"AVC {label} must be {wording}, not {value!r}")
        for label in ("pid", "ino"):
            value = getattr(self, label)
            if type(value) is not int or value < 0:  # a bool is not an int
                raise AvcParseError(f"AVC {label} must be a non-negative "
                                    f"int, not {written(value)}")
            if too_long_to_write(value):
                raise AvcParseError(f"AVC {label} has too many digits")
        bad = [p for p in self.permissions
               if not (isinstance(p, str) and _PERMISSION_NAME.fullmatch(p))]
        if bad:
            raise AvcParseError(
                f"AVC permission {min(bad, key=repr)!r} must be non-empty "
                f"and free of whitespace and braces")
        _check_types(self, AvcParseError, "AVC", ("decision", Decision),
                     ("scontext", SecurityContext),
                     ("tcontext", SecurityContext))


def _check_types(record, error: type, what: str,
                 *typed: tuple[str, type]) -> None:
    """Raise ``error`` naming the first ``(label, type)`` field of
    ``record`` whose value is not of that type, which ``render_avc`` and
    ``render_challenge`` could not write."""
    for label, cls in typed:
        value = getattr(record, label)
        if not isinstance(value, cls):
            raise error(f"{what} {label} must be a {cls.__name__}, not "
                        f"{written(value)}")


def parse_avc(line: str) -> AvcRecord:
    """Parse one AVC audit line; errors name the field that failed.
    The steps hold each field to the form ``AvcRecord`` checks, and
    ``_avc_int`` holds ``pid`` and ``ino`` to the digit limit, so the
    record is built unchecked."""
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
    return AvcRecord.unchecked(
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
    """Single-line canonical rendering; parse_avc inverts it exactly
    unless ``name`` holds ``"``.  ``name`` is the only field the record
    leaves unchecked: the engine builds it from resource paths, which a
    policy may write with ``"`` in them."""
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


@frozen_record
class Challenge:
    """A request that the remote peer attempt one access and return the
    resulting audit trace.  ``stub``, the probe command the target runs,
    is one word, the expected permissions are file permissions, the
    contexts are ``SecurityContext`` values and ``expected`` a
    ``Decision``, as ``parse_challenge`` reads them, or building the
    challenge raises ``ChallengeError`` naming the field, and the first
    bad entry of permissions given in order and the least by ``repr`` of
    a set; ``target_path`` is unchecked (see ``render_challenge``)."""

    scontext: SecurityContext
    stub: str
    target_path: str
    expected: Decision
    expected_permissions: frozenset[str]
    expected_tcontext: SecurityContext

    def __post_init__(self):
        given = self.expected_permissions
        ordered = not isinstance(given, (set, frozenset))
        given = tuple(given) if ordered else given
        object.__setattr__(self, "expected_permissions", frozenset(given))
        if not isinstance(self.stub, str) or self.stub.split() != [self.stub]:
            raise ChallengeError(f"bad command stub {self.stub!r}")
        bad = [p for p in given if p not in FILE_PERMISSIONS]
        if bad:
            first = bad[0] if ordered else min(bad, key=repr)
            raise ChallengeError(f"permissions entry {first!r} is not a file "
                                 f"permission")
        if self.expected is Decision.DENIED and not self.expected_permissions:
            raise ChallengeError(
                "denied challenge needs expected permissions")
        _check_types(self, ChallengeError, "challenge",
                     ("scontext", SecurityContext), ("expected", Decision),
                     ("expected_tcontext", SecurityContext))

    @property
    def target_name(self) -> str:
        return self.target_path.rsplit("/", 1)[-1]

    @property
    def command(self) -> str:
        """The wire line: subject context, stub and path, one space
        apart (the path may hold spaces)."""
        return (f"scontext={self.scontext.render()} {self.stub} "
                f"{self.target_path}")


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
    stub's probe permission, so a faithful enforcer reproduces it.  The
    challenge is built without ``Challenge``'s checks, which its parts
    already meet: :func:`probe_permission` accepts only the one-word
    stubs of ``PROBE_PERMISSIONS``, and each probes one file permission.
    """
    permission = probe_permission(command_stub)
    return Challenge.unchecked(
        scontext=subject,
        stub=command_stub,
        target_path=resource_path,
        expected=check_access(ruleset, PermissionClass.FILE, permission),
        expected_permissions=frozenset({permission}),
        expected_tcontext=tcontext,
    )


@frozen_record
class VerifyResult:
    passed: bool
    reason: str


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
    """Challenge file format: the wire line, then the expectations.
    ``parse_challenge`` inverts it exactly unless ``target_path`` is
    empty, starts or ends with whitespace, or holds a line break.  The
    path is left unchecked: the engine builds it from resource paths,
    which a policy may write that way."""
    perms = ",".join(sorted(challenge.expected_permissions))
    return (
        f"{challenge.command}\n"
        f"expect={challenge.expected.value}\n"
        f"permissions={perms}\n"
        f"tcontext={challenge.expected_tcontext.render()}\n"
    )


def parse_challenge(text: str) -> Challenge:
    """Inverse of :func:`render_challenge`.  Each key is given once, and
    ``permissions`` is a comma-separated list of file permissions."""
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
    keys: dict[str, str] = {}
    for line in lines[1:]:
        key, sep, value = line.strip().partition("=")
        if not sep or key not in ("expect", "permissions", "tcontext"):
            raise ChallengeError(f"bad challenge line {line.strip()!r}")
        if key in keys:
            raise ChallengeError(f"challenge file repeats {key!r}")
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
    # A list, so that the challenge names the first bad entry in the file.
    return Challenge(
        scontext=scontext,
        stub=parts[1],
        target_path=parts[2],
        expected=Decision(keys["expect"]),
        expected_permissions=(keys["permissions"].split(",")
                              if keys["permissions"] else ()),
        expected_tcontext=tcontext,
    )
