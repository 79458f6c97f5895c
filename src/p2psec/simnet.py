"""Deterministic multi-peer simulation of policy negotiation.

Peers run under a single-threaded logical clock; every message delivery
advances one tick and messages between a pair of peers stay ordered.
Behaviour models cover an honest client, two kinds of policy liars, and
a history forger.  Scenarios come from a flat one-statement-per-line
file; the same scenario and seed always reproduce a byte-identical run
report.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional, TypeVar, Union

from .errors import (
    DuplicateDomainError,
    DuplicateResourceError,
    PolicyError,
    PolicyValidationError,
    PrivacyViolationError,
    PropertyConflictError,
    PublicationForbiddenError,
    ScenarioError,
    TrustError,
    UnknownDomainError,
    UnknownResourceError,
    UnknownScopeError,
)
from .mac import (
    AvcRecord,
    Challenge,
    DEFAULT_RULESET,
    PROBE_STUBS,
    PermissionClass,
    SecurityContext,
    build_challenge,
    check_access,
    kind_ruleset,
    object_context,
    probe_permission,
    verify_challenge,
)
from .negotiation import (
    NegotiationSession,
    Outcome,
    PolicySlice,
    apply_transfer,
    decide,
    eval_property,
    open_session,
)
from .policy import (
    KIND_CONFLICTS,
    KIND_ORDER,
    Domain,
    PeerPolicy,
    PolicyBuilder,
    PropertyKind,
    SecurityProperty,
    conflicts,
    render_properties,
    sort_properties,
)
from .trust import (
    Band,
    HistoryRecord,
    TrustComputation,
    TrustConfig,
    TrustLedger,
    band,
    eval_hist_norm,
    eval_history,
    run_challenges,
    trust_value,
    update_reputation,
)


class BehaviorModel(Enum):
    HONEST = "honest"
    BLIND_LIAR = "blind-liar"
    INFORMED_LIAR = "informed-liar"
    LOG_FORGER = "log-forger"
    __hash__ = object.__hash__  # identity, as PropertyKind's


#: Subject context used by delegated access challenges.
CHALLENGE_SUBJECT = SecurityContext("user_u", "user_r", "user_t")


#: Kind -> the kind a conflicting-transfer probe for it imposes: the first
#: in ``KIND_ORDER`` that conflicts with it, or None when none does.
PROBE_KINDS: dict[PropertyKind, Optional[PropertyKind]] = {
    kind: next((k for k in KIND_ORDER if conflicts(k, kind)), None)
    for kind in KIND_ORDER}


def fmt(value: float) -> str:
    """Stable transcript rendering for real values."""
    return str(float(value))


# ---------------------------------------------------------------------------
# Scenario declarations and actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeerDecl:
    """A declared peer; ``policy`` is its initial local policy."""

    uid: str
    display_name: str
    policy: PeerPolicy
    behavior: BehaviorModel = BehaviorModel.HONEST
    knows: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class AskAction:
    requester: str
    owner: str
    resource_name: str
    target_domain: str


@dataclass(frozen=True)
class EditAction:
    """An owner's policy edit at run time: the ``PeerPolicy`` edit
    ``method`` (``publish``, ``add_property``, ``create_domain`` or
    ``delete_domain``) called with ``args``."""

    peer: str
    method: str
    args: tuple


@dataclass(frozen=True)
class ShowAction:
    peer: str


Action = Union[AskAction, EditAction, ShowAction]


@dataclass(frozen=True)
class Scenario:
    """A run to simulate.  Building one checks it as the parser does, but
    with no line: a uid is declared once, a peer knows each subject once
    with a trust in [0, 1], every uid a ``knows`` pair or an action
    names is declared, and an edit's method is one the engine applies
    (``ScenarioError`` otherwise)."""

    seed: int = 0
    peers: tuple[PeerDecl, ...] = ()
    actions: tuple[Action, ...] = ()
    config: TrustConfig = TrustConfig()

    def __post_init__(self):
        declared: set[str] = set()
        for decl in self.peers:
            if decl.uid in declared:
                raise ScenarioError(f"peer {decl.uid!r} declared twice")
            declared.add(decl.uid)
            known: set[str] = set()
            for subject, trust in decl.knows:
                if subject in known:
                    raise ScenarioError(
                        f"peer {decl.uid!r} knows {subject!r} twice")
                known.add(subject)
                if not 0.0 <= trust <= 1.0:
                    raise ScenarioError(
                        f"peer {decl.uid!r} knows {subject!r} with trust "
                        f"{trust!r}, outside [0, 1]")
        named = [subject for decl in self.peers for subject, _ in decl.knows]
        for action in self.actions:
            if isinstance(action, AskAction):
                named += (action.requester, action.owner)
            elif isinstance(action, (EditAction, ShowAction)):
                named.append(action.peer)
            else:
                raise ScenarioError(f"unsupported action {action!r}")
            if (isinstance(action, EditAction)
                    and action.method not in _EDIT_WORDING):
                raise ScenarioError(
                    f"unknown edit method {action.method!r}")
        for uid in named:
            if uid not in declared:
                raise ScenarioError(f"peer {uid!r} is not declared")


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {f.name for f in fields(TrustConfig)}

_NUMBER_CHARS = frozenset("0123456789.+-eE")
_N = TypeVar("_N", int, float)


def ascii_number(convert: Callable[[str], _N], text: str) -> _N:
    """``convert(text)`` for a number written in ASCII, the rule for
    scenario numbers and CLI number flags: Python's own conversions also
    read ``_`` separators and non-ASCII digits."""
    value = convert(text)
    if not _NUMBER_CHARS.issuperset(text):
        raise ValueError(f"number {text!r} may hold only ASCII digits, "
                         f"'.', '+', '-', 'e' and 'E'")
    return value


def _parse_property(tokens: list[str], lineno: int) -> SecurityProperty:
    try:
        kind = PropertyKind(tokens[0])
    except ValueError:
        raise ScenarioError(f"unknown property kind {tokens[0]!r}",
                            line=lineno) from None
    try:
        return SecurityProperty(kind, frozenset(tokens[1:]))
    except PolicyError as exc:
        raise ScenarioError(str(exc), line=lineno) from exc


class _ScenarioBuilder:
    """Parse state.  Declarations edit the peer's policy builder as they
    are read, so its checks (conflicts, nopublication on files) reject a
    bad statement on its line; each policy is frozen once, in
    ``build``."""

    def __init__(self):
        self.seed = 0
        self.config_overrides: dict[str, object] = {}
        self.config_line: Optional[int] = None
        # uid -> (display name, behavior, trust by known subject,
        # policy builder)
        self.peers: dict[str, tuple[str, BehaviorModel, dict,
                                    PolicyBuilder]] = {}
        self.actions: list[Action] = []

    def declared(self, uid: str, lineno: int) -> str:
        if uid not in self.peers:
            raise ScenarioError(f"peer {uid!r} is not declared", line=lineno)
        return uid

    def peer(self, uid: str, lineno: int) -> PolicyBuilder:
        return self.peers[self.declared(uid, lineno)][3]

    def build(self) -> Scenario:
        # Cross-field rules (refuse < full trust, weights summing to 1)
        # hold only for the final set, so they are checked once here.
        try:
            config = TrustConfig(**self.config_overrides)
        except TrustError as exc:
            raise ScenarioError(str(exc), line=self.config_line) from exc
        peers = tuple(
            PeerDecl(uid, display, policy.freeze(), behavior,
                     tuple(knows.items()))
            for uid, (display, behavior, knows, policy) in self.peers.items())
        return Scenario(seed=self.seed, peers=peers,
                        actions=tuple(self.actions), config=config)


def parse_scenario(text: str) -> Scenario:
    """Parse the flat scenario dialect; see the package README for the
    statement grammar."""
    builder = _ScenarioBuilder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        stmt, args = tokens[0], tokens[1:]
        try:
            _parse_statement(builder, stmt, args, lineno)
        except ScenarioError:
            raise
        except (PolicyError, ValueError) as exc:
            raise ScenarioError(str(exc), line=lineno) from exc
    return builder.build()


#: Statement -> (fewest arguments, most arguments or None for no limit,
#: message when the count is wrong; ``{}`` receives the arguments).
_ARITY: dict[str, tuple[int, Optional[int], str]] = {
    "seed": (1, 1, "seed takes one integer"),
    "config": (2, 2, "bad config statement {!r}"),
    "peer": (1, None, "peer takes a uid"),
    "knows": (3, 3, "knows takes peer, peer, trust"),
    "domain": (2, 2, "domain takes peer and name"),
    "resource": (3, 3, "resource takes peer, path, domain"),
    "property": (3, None, "property takes peer, scope, kind"),
    "ask": (4, 4, "ask takes requester, owner, resource, domain"),
    "publish": (3, None, "publish takes peer, path, domain"),
    "add-property": (3, None, "add-property takes peer, scope, kind"),
    "create-domain": (2, 2, "create-domain takes peer and name"),
    "delete-domain": (2, 2, "delete-domain takes peer and name"),
    "show": (1, 1, "show takes a peer"),
}


def _parse_statement(builder: _ScenarioBuilder, stmt: str, args: list[str],
                     lineno: int) -> None:
    if stmt not in _ARITY:
        raise ScenarioError(f"unknown statement {stmt!r}", line=lineno)
    fewest, most, message = _ARITY[stmt]
    if len(args) < fewest or (most is not None and len(args) > most):
        raise ScenarioError(message.format(args), line=lineno)
    if stmt == "seed":
        builder.seed = ascii_number(int, args[0])
    elif stmt == "config":
        key, value = args
        if key not in _CONFIG_FIELDS:
            raise ScenarioError(message.format(args), line=lineno)
        builder.config_line = lineno
        if key == "history_window":
            builder.config_overrides[key] = ascii_number(int, value)
        elif key == "strict_conflicts":
            if value.lower() not in ("true", "false"):
                raise ScenarioError(f"strict_conflicts takes true or false, "
                                    f"not {value!r}", line=lineno)
            builder.config_overrides[key] = value.lower() == "true"
        else:
            builder.config_overrides[key] = ascii_number(float, value)
    elif stmt == "peer":
        uid = args[0]
        if uid in builder.peers:
            raise ScenarioError(f"peer {uid!r} declared twice", line=lineno)
        display, behavior = uid, BehaviorModel.HONEST
        seen: set[str] = set()
        for extra in args[1:]:
            key, sep, value = extra.partition("=")
            if key not in ("name", "behavior") or not sep:
                raise ScenarioError(f"bad peer option {extra!r}", line=lineno)
            if key in seen:
                raise ScenarioError(f"peer option {key!r} given twice",
                                    line=lineno)
            seen.add(key)
            if key == "name":
                if not value:
                    raise ScenarioError("peer name must be non-empty",
                                        line=lineno)
                display = value
            else:
                try:
                    behavior = BehaviorModel(value)
                except ValueError:
                    raise ScenarioError(f"unknown behavior {value!r}",
                                        line=lineno) from None
        builder.peers[uid] = (display, behavior, {}, PolicyBuilder())
    elif stmt == "knows":
        holder = builder.declared(args[0], lineno)
        subject = builder.declared(args[1], lineno)
        trust = ascii_number(float, args[2])
        if not 0.0 <= trust <= 1.0:
            raise ScenarioError(f"knows trust must lie in [0, 1], not "
                                f"{args[2]!r}", line=lineno)
        knows = builder.peers[holder][2]
        if subject in knows:
            raise ScenarioError(f"peer {holder!r} knows {subject!r} twice",
                                line=lineno)
        knows[subject] = trust
    elif stmt == "domain":
        try:
            builder.peer(args[0], lineno).create_domain(args[1])
        except DuplicateDomainError:
            raise ScenarioError(f"domain {args[1]!r} declared twice",
                                line=lineno) from None
    elif stmt == "resource":
        try:
            builder.peer(args[0], lineno).add_resource(args[1], args[2])
        except UnknownDomainError:
            raise ScenarioError(f"resource domain {args[2]!r} is not "
                                f"declared", line=lineno) from None
        except DuplicateResourceError:
            raise ScenarioError(f"resource {args[1]!r} declared twice",
                                line=lineno) from None
    elif stmt == "property":
        policy = builder.peer(args[0], lineno)
        prop = _parse_property(args[2:], lineno)
        try:
            policy.add_property(args[1], prop)
        except UnknownScopeError:
            raise ScenarioError(f"scope {args[1]!r} is not declared",
                                line=lineno) from None
    elif stmt == "ask":
        builder.actions.append(AskAction(
            requester=builder.declared(args[0], lineno),
            owner=builder.declared(args[1], lineno),
            resource_name=args[2], target_domain=args[3]))
    elif stmt == "publish":
        props = tuple(_parse_property([k], lineno) for k in args[3:])
        if any(p.kind is PropertyKind.NOPUBLICATION for p in props):
            raise ScenarioError("nopublication applies to domains, not "
                                "resources", line=lineno)
        builder.actions.append(EditAction(
            builder.declared(args[0], lineno), "publish",
            (props, *args[1:3])))
    elif stmt == "add-property":
        peer = builder.declared(args[0], lineno)
        builder.actions.append(EditAction(peer, "add_property", (
            args[1], _parse_property(args[2:], lineno))))
    elif stmt in ("create-domain", "delete-domain"):
        builder.actions.append(EditAction(
            builder.declared(args[0], lineno), stmt.replace("-", "_"),
            (args[1],)))
    elif stmt == "show":
        builder.actions.append(
            ShowAction(peer=builder.declared(args[0], lineno)))


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

class PeerAgent:
    """One simulated peer: uid, policy, ledger, behaviour."""

    def __init__(self, uid: str, policy: PeerPolicy,
                 behavior: BehaviorModel = BehaviorModel.HONEST,
                 ledger: Optional[TrustLedger] = None):
        self.uid = uid
        self.behavior = behavior
        self.ledger = ledger if ledger is not None else TrustLedger()
        self.policy: PeerPolicy = policy
        self._forged_serial = 0

    def apply_policy(self, policy: PeerPolicy) -> None:
        """Install a new policy, which checked itself when it was built."""
        self.policy = policy

    def _domain(self, domain_name: str) -> Domain:
        """The named domain, or an empty one if the policy lacks it."""
        if self.policy.has_domain(domain_name):
            return self.policy.domain(domain_name)
        return Domain(0, domain_name)

    def slice_for(self, domain_name: str,
                  required: tuple[SecurityProperty, ...],
                  rng: random.Random) -> PolicySlice:
        """The slice this peer claims for one domain.

        Honest peers and log forgers answer truthfully.  A blind liar
        invents a claim without knowing what is required; an informed
        liar echoes the required properties back.
        """
        if self.behavior in (BehaviorModel.HONEST, BehaviorModel.LOG_FORGER):
            return PolicySlice(domain_name,
                               self._domain(domain_name).properties)
        if self.behavior is BehaviorModel.BLIND_LIAR:
            if rng.random() < 0.5:
                return PolicySlice(domain_name)
            kind = rng.choice(KIND_ORDER)
            return PolicySlice(domain_name,
                               frozenset({SecurityProperty(kind)}))
        return PolicySlice(domain_name, frozenset(required))

    def respond_conflicting_request(self, domain_name: str,
                                    probe_kind: PropertyKind) -> bool:
        """Accept or refuse a transfer that would impose ``probe_kind``.

        A fair peer refuses whenever the kind conflicts with what its
        domain actually enforces; liars accept anything.
        """
        if self.behavior in (BehaviorModel.HONEST, BehaviorModel.LOG_FORGER):
            return KIND_CONFLICTS[probe_kind].isdisjoint(
                self._domain(domain_name).kinds)
        return True

    def respond_mac_challenge(self, challenge: Challenge, domain_name: str,
                              timestamp: str, serial: str) -> AvcRecord:
        """Synthesize the AVC line this peer's kernel would produce.

        Honest peers (and log forgers, who lie only about history)
        enforce their domain's kind ruleset; policy liars enforce
        nothing, so their kernel grants the access.
        """
        stub = challenge.command.split()[1]
        permission = probe_permission(stub)
        if self.behavior in (BehaviorModel.HONEST, BehaviorModel.LOG_FORGER):
            ruleset = kind_ruleset(self._domain(domain_name).kinds)
            tcontext = object_context(domain_name)
        else:
            ruleset = DEFAULT_RULESET
            tcontext = challenge.expected_tcontext
        decision = check_access(ruleset, PermissionClass.FILE, permission)
        return AvcRecord(
            timestamp=timestamp, serial=serial, decision=decision,
            permissions=frozenset({permission}), pid=4000 + int(serial),
            comm=stub, name=challenge.target_name, dev="sda3",
            ino=170000 + int(serial), scontext=challenge.scontext,
            tcontext=tcontext, tclass="file")

    def present_history(self, kinds: Iterable[PropertyKind],
                        now: int) -> tuple[list[HistoryRecord], int]:
        """Records of this peer's own past operations for the requested
        kinds, plus how many of them were fabricated."""
        kinds = tuple(kinds)
        own = [r for r in self.ledger.records_by(self.uid)
               if r.property_kind in kinds]
        if self.behavior is not BehaviorModel.LOG_FORGER:
            return own, 0
        forged = []
        for kind in kinds:
            self._forged_serial += 1
            forged.append(HistoryRecord(
                timestamp=max(now - 1, 0),
                actor=self.uid,
                property_kind=kind,
                action="shared resource without incident",
                violation=False,
                counterparty=f"ghost{self._forged_serial}-{self.uid}",
            ))
        return own + forged, len(forged)


def cross_reference_history(
    presented: Iterable[HistoryRecord],
    agents_by_uid: dict[str, PeerAgent],
    target: str,
) -> list[tuple[HistoryRecord, bool]]:
    """Validate presented records against their counterparties' ledgers.

    A record is verified when its named counterparty exists and holds a
    matching entry (same actor, timestamp, and property kind), looked
    up in that ledger's index.  Records naming nobody are left alone.
    """
    checked = []
    for record in presented:
        if record.counterparty is None:
            checked.append((record, True))
            continue
        other = agents_by_uid.get(record.counterparty)
        if other is None:
            checked.append((record, False))
            continue
        checked.append((record, other.ledger.has_record(
            target, record.timestamp, record.property_kind)))
    return checked


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegotiationRecord:
    """One ask; ``per_property`` follows the required properties.  The
    fields past ``found`` stay empty when the resource was not found."""

    requester: str
    owner: str
    resource_name: str
    target_domain: str
    outcome: Outcome
    requester_behavior: BehaviorModel
    per_property: tuple[tuple[SecurityProperty, TrustComputation], ...] = ()
    flagged_records: int = 0
    forged_records: int = 0
    found: bool = True
    source_domain: str = ""
    offered: PolicySlice = PolicySlice("")
    delegates: int = 0      # how many challenged each property


@dataclass(frozen=True)
class EditRecord:
    peer: str
    method: str
    shown: tuple                    # the arguments as the transcript shows
    refusal: Optional[str] = None   # the refusing error's wording, if any


@dataclass(frozen=True)
class ShowRecord:
    peer: str
    policy: PeerPolicy


RunRecord = Union[NegotiationRecord, EditRecord, ShowRecord]


@dataclass(frozen=True)
class RunReport:
    """A run's records, one per action, and its final reputations; the
    transcript, asks and metrics are derived from them when first read."""

    seed: int
    records: tuple[RunRecord, ...]
    final_reputations: tuple[tuple[str, str, float], ...]
    names: dict[str, str]       # peer uid -> display name
    config: TrustConfig

    @cached_property
    def transcript(self) -> tuple[str, ...]:
        return render_transcript(self.records, self.names, self.config)

    @cached_property
    def negotiations(self) -> tuple[NegotiationRecord, ...]:
        return tuple(r for r in self.records
                     if isinstance(r, NegotiationRecord))

    @cached_property
    def metrics(self) -> tuple[tuple[str, float], ...]:
        asks = self.negotiations
        accepted = sum(1 for n in asks if n.outcome is Outcome.ACCEPTED)
        liars = [n for n in asks
                 if n.requester_behavior is not BehaviorModel.HONEST]
        honest = [n for n in asks
                  if n.requester_behavior is BehaviorModel.HONEST]
        liar_refused = sum(1 for n in liars if n.outcome is Outcome.REFUSED)
        honest_refused = sum(1 for n in honest
                             if n.outcome is Outcome.REFUSED)
        return (
            ("negotiations", float(len(asks))),
            ("accepted", float(accepted)),
            ("acceptance_rate", accepted / len(asks) if asks else 0.0),
            ("liar_negotiations", float(len(liars))),
            ("liar_detection_rate",
             liar_refused / len(liars) if liars else 0.0),
            ("honest_negotiations", float(len(honest))),
            ("false_refusal_rate",
             honest_refused / len(honest) if honest else 0.0),
            ("forged_records", float(sum(n.forged_records for n in asks))),
            ("flagged_records", float(sum(n.flagged_records for n in asks))),
        )


def render_transcript(records: Iterable[RunRecord], names: dict[str, str],
                      config: TrustConfig) -> tuple[str, ...]:
    """The transcript lines of a run, rendered from its records."""
    lines: list[str] = []
    say = lines.append
    for rec in records:
        if isinstance(rec, NegotiationRecord):
            _render_ask(lines, rec, names, config)
            continue
        name = names[rec.peer]
        if isinstance(rec, EditRecord):
            if rec.method == "publish":
                say(f"{name}: publishing file {rec.shown[1]} in domain "
                    f"{rec.shown[2]}")
            applied = _EDIT_WORDING[rec.method][0].format(*rec.shown)
            say(f"{name}: {rec.refusal or applied}")
            continue
        for dom in rec.policy.domains:
            if dom.properties:
                say(f"[Display {name}] <domain> {dom.name} secured by "
                    f"{render_properties(dom.properties)}")
        for res in rec.policy.resources:
            dom = rec.policy.domain_by_id(res.domain_id)
            effective = rec.policy.effective_properties(res.path)
            say(f"[Display {name}] <file> {res.path} in {dom.name} under "
                f"{render_properties(effective)}")
    return tuple(lines)


def _render_ask(lines: list[str], rec: NegotiationRecord,
                names: dict[str, str], config: TrustConfig) -> None:
    say = lines.append
    req, own = names[rec.requester], names[rec.owner]
    path, to = rec.resource_name, rec.target_domain
    say(f"{req}: I asks to peer {own} the file {path} to be put in {to}")
    say(f"{own}: Peer {req} asking file {path}")
    say(f"{own}: Peer {req} will put the file in domain {to}")
    if not rec.found:
        say(f"{own}: File {path} not found.")
        say(f"{req}: peer {own} REFUSED to send the file.")
        return
    say(f"{own}: File {path} found.")
    say(f"{own}: File is in domain {rec.source_domain}")
    required = render_properties(prop for prop, _ in rec.per_property)
    say(f"{own}: Security properties {required}")
    say(f"{req}: someone asking policy for domain {to}")
    say(f"{req}: returning policy {render_properties(rec.offered.properties)}")
    if rec.flagged_records:
        say(f"{own}: {rec.flagged_records} history record(s) could not be "
            f"verified")
    offered = [f"(Eval) {own} Target domain has property {p.render()}"
               for p in sort_properties(rec.offered.properties)]
    refuse = fmt(config.refuse_threshold)
    full = fmt(config.full_trust_threshold)
    for prop, c in rec.per_property:
        kind = prop.kind.value
        say(f"(Eval) {own} Computation of Eval({req},{kind})")
        lines += offered
        if c.eval_score == -1:
            say(f"(Eval) {own} the properties of {req}'s {to} domain hurts "
                f"the required property {kind}")
        say(f"(Eval) Eval({req},{kind})={c.eval_score}")
        say(f"(Eval) Hist({req},{kind})={c.hist.render()}")
        if not rec.delegates:
            say(f"(Eval) {own} no trusted delegates for challenges")
        say(f"(Eval) Chal({kind},{req})={fmt(c.chal)}")
        say(f"(Eval) EvalHist({kind},{req})={fmt(c.eval_hist)}")
        tv = fmt(c.tv)
        say(f"(Eval) Tv({kind},{req})={tv}")
        if c.band is Band.REFUSED:
            say(f"(Eval) Peer refused ({tv}<{refuse}) for {kind} trust "
                f"decreased to {fmt(c.reputation_after)}")
        elif c.band is Band.PARTIAL:
            say(f"(Eval) Peer not fully trusted ({refuse}<{tv}<{full}) for "
                f"{kind} trust decreased to {fmt(c.reputation_after)}")
        else:
            say(f"(Eval) Peer fully trusted ({tv}>={full}) for {kind}")
    if rec.outcome is Outcome.REFUSED:
        say(f"{own}: one of the property is refused: refusing request.")
        say(f"{req}: peer {own} REFUSED to send the file.")
    else:
        say(f"{own}: request accepted.")
        say(f"{req}: peer {own} accepted to send the file.")
        say(f"{req}: file {path} placed in domain {to}")


def render_report(report: RunReport) -> str:
    lines = [f"seed={report.seed}", "", "# transcript", *report.transcript,
             "", "# negotiations"]
    for rec in report.negotiations:
        lines.append(
            f"ask requester={rec.requester} owner={rec.owner} "
            f"resource={rec.resource_name} domain={rec.target_domain} "
            f"outcome={rec.outcome.value}")
    lines += ["", "# reputations"]
    for holder, subject, value in report.final_reputations:
        lines.append(f"{holder} about {subject} = {fmt(value)}")
    lines += ["", "# metrics"]
    for name, value in report.metrics:
        lines.append(f"{name}={fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

#: What the transcript says after an owner edit, by method: the wording
#: when it applies, then the wording for each error that refuses it (no
#: other error is caught).  ``{0}``, ``{1}``... are the edit's
#: arguments, properties rendered, and ``{exc}`` is the error.
_EDIT_WORDING: dict[str, tuple[str, dict[type, str]]] = {
    "publish": ("publication accepted.", {
        PublicationForbiddenError:
            "publication refused: domain {2} forbids publication",
        PropertyConflictError:
            "publication refused: properties conflict in domain {2}",
        UnknownDomainError: "publication refused: unknown domain {2}",
        DuplicateResourceError: "publication refused: file {1} already exists",
    }),
    "add_property": ("property {1} added to {0}", {
        PropertyConflictError:
            "property {1} refused on {0}: conflicting properties",
        PolicyValidationError: "property {1} refused on {0}: {exc}",
        UnknownScopeError: "no domain or resource named {0}",
    }),
    "create_domain": ("domain {0} created",
                      {PolicyError: "create domain failed: {exc}"}),
    "delete_domain": ("domain {0} deleted",
                      {PolicyError: "delete domain failed: {exc}"}),
}


class SimulationEngine:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.config = scenario.config
        self.rng = random.Random(scenario.seed)
        self.now = 0
        self._serial = 0
        self.records: list[RunRecord] = []
        self.agents = {
            decl.uid: PeerAgent(decl.uid, decl.policy, decl.behavior,
                                TrustLedger(reputations=dict(decl.knows)))
            for decl in scenario.peers}
        # Owner uid -> its eligible delegates; see _eligible_delegates.
        self._delegates: dict[str, list[tuple[str, float]]] = {
            uid: self._eligible_delegates(agent)
            for uid, agent in self.agents.items()}

    # -- clock and serials ---------------------------------------------

    def _tick(self) -> None:
        self.now += 1

    # -- actions ---------------------------------------------------------

    def run(self) -> RunReport:
        for action in self.scenario.actions:
            self._dispatch(action)
        return self._report()

    def _dispatch(self, action: Action) -> None:
        if isinstance(action, AskAction):
            self._negotiate(action)
        elif isinstance(action, EditAction):
            self._edit(action)
        else:
            self._show(action)

    def _edit(self, action: EditAction) -> None:
        agent = self.agents[action.peer]
        refusals = _EDIT_WORDING[action.method][1]
        shown = tuple(arg.render() if isinstance(arg, SecurityProperty)
                      else arg for arg in action.args)
        self._tick()
        refusal = None
        try:
            agent.apply_policy(getattr(agent.policy, action.method)(
                *action.args))
        except tuple(refusals) as exc:
            refusal = next(wording for error, wording in refusals.items()
                           if isinstance(exc, error)).format(*shown, exc=exc)
        self.records.append(
            EditRecord(action.peer, action.method, shown, refusal))

    def _show(self, action: ShowAction) -> None:
        self.records.append(
            ShowRecord(action.peer, self.agents[action.peer].policy))

    # -- negotiation -----------------------------------------------------

    def _negotiate(self, action: AskAction) -> None:
        requester = self.agents[action.requester]
        owner = self.agents[action.owner]
        target_domain = action.target_domain

        self._tick()
        try:
            session = open_session(owner.policy, action.resource_name,
                                   target_domain)
        except UnknownResourceError:
            self.records.append(NegotiationRecord(
                requester=requester.uid, owner=owner.uid,
                resource_name=action.resource_name,
                target_domain=target_domain, outcome=Outcome.REFUSED,
                requester_behavior=requester.behavior, found=False))
            return

        # Slice phase: the owner learns exactly one domain's policy.
        self._tick()
        offered = requester.slice_for(target_domain, session.required,
                                      self.rng)
        self._tick()
        if offered.domain_name != target_domain:
            raise PrivacyViolationError(
                f"slice for {offered.domain_name!r} leaked during a "
                f"negotiation about {target_domain!r}")

        # History phase.
        kinds = tuple(dict.fromkeys(p.kind for p in session.required))
        self._tick()
        presented, forged = requester.present_history(kinds, self.now)
        checked = cross_reference_history(presented, self.agents,
                                          requester.uid)
        flagged = sum(1 for _, ok in checked if not ok)
        # The requester's records: the owner's own plus those presented,
        # each one that failed cross-referencing marked as a violation.
        history = (list(owner.ledger.records_by(requester.uid))
                   + [replace(r, violation=True) if not ok else r
                      for r, ok in checked if r.actor == requester.uid])

        # Evaluating a property changes only the requester's reputation,
        # and the requester is never a delegate, so one list serves all.
        delegates = self._delegates_for(owner, requester)
        computations = {
            prop: self._evaluate_property(session, offered, prop, owner,
                                          requester, history, delegates)
            for prop in session.required}

        outcome = decide(computations.values(), self.config)
        self._tick()
        if outcome is Outcome.ACCEPTED:
            self._transfer(session, owner, requester)

        self.records.append(NegotiationRecord(
            requester=requester.uid, owner=owner.uid,
            resource_name=action.resource_name, target_domain=target_domain,
            outcome=outcome, requester_behavior=requester.behavior,
            per_property=tuple(computations.items()),
            flagged_records=flagged, forged_records=forged,
            source_domain=session.source_domain, offered=offered,
            delegates=len(delegates)))

    def _evaluate_property(self, session: NegotiationSession,
                           offered: PolicySlice,
                           prop: SecurityProperty, owner: PeerAgent,
                           requester: PeerAgent,
                           history: list[HistoryRecord],
                           delegates: list[tuple[str, float]]
                           ) -> TrustComputation:
        eval_score = eval_property(prop, offered)
        hist = eval_history(history, prop.kind, now=self.now,
                            window=self.config.history_window)
        if delegates:
            chal = run_challenges(
                delegates, requester.uid, prop.kind,
                self._probe_harness(session, offered, requester, prop.kind))
        else:
            chal = 0.0
        eval_hist = eval_hist_norm(hist, eval_score)
        tv = trust_value(eval_score, eval_hist, chal, self.config)
        verdict = band(tv, self.config)
        reputation = self._update_reputation(owner, requester.uid, verdict)
        return TrustComputation(eval_score=eval_score, hist=hist, chal=chal,
                                eval_hist=eval_hist, tv=tv, band=verdict,
                                reputation_after=reputation)

    def _eligible_delegates(self, owner: PeerAgent
                            ) -> list[tuple[str, float]]:
        """The peers the owner trusts strictly above the full-trust
        threshold, with their reputations, sorted by uid; never the
        owner itself.  A requester judged FULL keeps the initial
        reputation, which by default equals the threshold, so it does
        not become a delegate by being accepted."""
        threshold = self.config.full_trust_threshold
        return sorted(
            (peer, value) for peer, value in owner.ledger.reputations.items()
            if value > threshold and peer != owner.uid)

    def _update_reputation(self, owner: PeerAgent, peer: str,
                           verdict: Band) -> float:
        """Write ``peer``'s reputation in the owner's ledger and keep the
        owner's delegate list in step with it.  Only an entry above the
        threshold before or after the write can change the list."""
        before = owner.ledger.reputations.get(peer, 0.0)
        after = update_reputation(owner.ledger, peer, verdict, self.config)
        if max(before, after) > self.config.full_trust_threshold:
            self._delegates[owner.uid] = self._eligible_delegates(owner)
        return after

    def _delegates_for(self, owner: PeerAgent,
                       requester: PeerAgent) -> list[tuple[str, float]]:
        return [item for item in self._delegates[owner.uid]
                if item[0] != requester.uid]

    def _probe_harness(self, session: NegotiationSession,
                       offered: PolicySlice, requester: PeerAgent,
                       kind: PropertyKind):
        """Challenge harness for one property evaluation.

        The requester's answers depend only on its behaviour, the target
        domain and ``kind``, never on which delegate asks, so the probe
        kind, the challenge and both answers are derived once here.  The
        returned closure does each delegate's own part: it advances the
        clock by the probes' message ticks, takes the delegate's audit
        serial, and records a failed probe in that delegate's ledger at
        the tick it would have been answered.
        """
        target_domain = session.target_domain_name
        probe_kind = PROBE_KINDS[kind]
        conflict_passed = False
        if probe_kind is not None:
            accepted = requester.respond_conflicting_request(
                target_domain, probe_kind)
            expect_refusal = not KIND_CONFLICTS[probe_kind].isdisjoint(
                offered.kinds)
            conflict_passed = (not accepted) == expect_refusal
        challenge = build_challenge(
            session.resource.path, CHALLENGE_SUBJECT, PROBE_STUBS[kind],
            kind_ruleset(offered.kinds), object_context(target_domain))
        # Stamped with the serial the first delegate takes; the verdict
        # reads neither stamp.
        response = requester.respond_mac_challenge(
            challenge, target_domain,
            timestamp=f"{self.now}.000", serial=str(self._serial + 1))
        mac_passed = verify_challenge(challenge, [response]).passed

        def harness(delegate: str, target: str,
                    _: PropertyKind) -> list[float]:
            ledger = self.agents[delegate].ledger
            scores = []
            if probe_kind is not None:
                self._tick()
                self._tick()
                scores.append(1.0 if conflict_passed else 0.0)
                if not conflict_passed:
                    ledger.record(HistoryRecord(
                        timestamp=self.now, actor=target,
                        property_kind=kind,
                        action="accepted a conflicting transfer",
                        violation=True, counterparty=delegate))
            self._tick()
            self._serial += 1
            self._tick()
            scores.append(1.0 if mac_passed else 0.0)
            if not mac_passed:
                ledger.record(HistoryRecord(
                    timestamp=self.now, actor=target, property_kind=kind,
                    action="failed an access challenge",
                    violation=True, counterparty=delegate))
            return scores

        return harness

    def _transfer(self, session: NegotiationSession, owner: PeerAgent,
                  requester: PeerAgent) -> None:
        target_domain = session.target_domain_name
        self._tick()
        policy = requester.policy
        if not policy.has_domain(target_domain):
            policy = policy.create_domain(target_domain)
        policy = apply_transfer(policy, session.resource, target_domain)
        # A file already held in the target domain leaves the policy as
        # it is, so there is nothing new to validate or install.
        if policy is not requester.policy:
            requester.apply_policy(policy)
        for prop in session.required:
            record = HistoryRecord(
                timestamp=self.now, actor=requester.uid,
                property_kind=prop.kind,
                action=f"received {session.resource.path}",
                violation=False, counterparty=owner.uid)
            owner.ledger.record(record)
            requester.ledger.record(record)

    # -- reporting -------------------------------------------------------

    def _report(self) -> RunReport:
        reputations = tuple(
            (uid, peer, value) for uid, agent in self.agents.items()
            for peer, value in sorted(agent.ledger.reputations.items()))
        return RunReport(
            seed=self.scenario.seed, records=tuple(self.records),
            final_reputations=reputations, config=self.config,
            names={decl.uid: decl.display_name
                   for decl in self.scenario.peers})


def run_scenario(scenario: Scenario) -> RunReport:
    """Execute a scenario; equal scenarios and seeds give equal reports."""
    return SimulationEngine(scenario).run()


# ---------------------------------------------------------------------------
# Adversary detection experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationParams:
    """Shape of each generated run in the detection experiment."""

    seed: int = 0
    delegates: int = 2
    honest_requesters: int = 1
    blind_liars: int = 1
    informed_liars: int = 1
    log_forgers: int = 1

    def __post_init__(self):
        if self.delegates < 1:
            raise ValueError("need at least one delegate")
        if min(self.honest_requesters, self.blind_liars,
               self.informed_liars, self.log_forgers) < 0:
            raise ValueError("population counts must be non-negative")


@dataclass(frozen=True)
class BehaviorStats:
    negotiations: int = 0
    accepted: int = 0
    refused: int = 0


@dataclass(frozen=True)
class ExperimentReport:
    runs: int
    stats: tuple[tuple[BehaviorModel, BehaviorStats], ...]
    forged_records: int
    flagged_records: int

    def stat(self, behavior: BehaviorModel) -> BehaviorStats:
        for model, stats in self.stats:
            if model is behavior:
                return stats
        return BehaviorStats()


#: Property mixes for generated owner domains.  Every mix carries at
#: least one prohibition kind, so a peer that enforces nothing always
#: has something to fail.
_REQUIRED_MIXES: tuple[tuple[SecurityProperty, ...], ...] = (
    (SecurityProperty(PropertyKind.CONFIDENTIALITY),),
    (SecurityProperty(PropertyKind.INTEGRITY),),
    (SecurityProperty(PropertyKind.NOSHARE),),
    (SecurityProperty(PropertyKind.CONFIDENTIALITY),
     SecurityProperty(PropertyKind.INTEGRITY)),
    (SecurityProperty(PropertyKind.NOSHARE),
     SecurityProperty(PropertyKind.INTEGRITY)),
    (SecurityProperty(PropertyKind.INTEGRITY),
     SecurityProperty(PropertyKind.COOPERATION)),
)


def _domain_policy(domain: str, props: Iterable[SecurityProperty],
                   *paths: str) -> PeerPolicy:
    policy = PolicyBuilder().create_domain(domain)
    for prop in props:
        policy.add_property(domain, prop)
    for path in paths:
        policy.add_resource(path, domain)
    return policy.freeze()


def _experiment_scenario(params: PopulationParams, run_index: int) -> Scenario:
    rng = random.Random(f"{params.seed}:{run_index}")
    required = rng.choice(_REQUIRED_MIXES)
    peers = [PeerDecl(
        uid="owner", display_name="owner",
        policy=_domain_policy("vault", required, "asset"),
        knows=tuple((f"c{i}", 0.6 + 0.1 * (i % 4))
                    for i in range(params.delegates)),
    )]
    peers.extend(PeerDecl(uid=f"c{i}", display_name="C",
                          policy=PeerPolicy())
                 for i in range(params.delegates))
    actions: list[Action] = []

    def requester(uid: str, behavior: BehaviorModel,
                  matching: bool) -> None:
        props = required if matching else ()
        peers.append(PeerDecl(uid=uid, display_name=uid,
                              policy=_domain_policy("drop", props),
                              behavior=behavior))

    for i in range(params.honest_requesters):
        requester(f"h{i}", BehaviorModel.HONEST, matching=True)
        actions.append(AskAction(f"h{i}", "owner", "asset", "drop"))
        actions.append(AskAction(f"h{i}", "owner", "asset", "drop"))
    for i in range(params.blind_liars):
        requester(f"b{i}", BehaviorModel.BLIND_LIAR, matching=False)
        actions.append(AskAction(f"b{i}", "owner", "asset", "drop"))
    for i in range(params.informed_liars):
        requester(f"m{i}", BehaviorModel.INFORMED_LIAR, matching=False)
        actions.append(AskAction(f"m{i}", "owner", "asset", "drop"))
    for i in range(params.log_forgers):
        requester(f"f{i}", BehaviorModel.LOG_FORGER, matching=True)
        actions.append(AskAction(f"f{i}", "owner", "asset", "drop"))

    return Scenario(seed=run_index, peers=tuple(peers),
                    actions=tuple(actions), config=TrustConfig())


def detection_experiment(params: PopulationParams,
                         runs: int) -> ExperimentReport:
    """Generate ``runs`` seeded scenarios and tally outcomes per
    behaviour model."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    tally: Counter[tuple[BehaviorModel, Outcome]] = Counter()
    forged = 0
    flagged = 0
    for index in range(runs):
        report = run_scenario(_experiment_scenario(params, index))
        for record in report.negotiations:
            tally[record.requester_behavior, record.outcome] += 1
        forged += sum(n.forged_records for n in report.negotiations)
        flagged += sum(n.flagged_records for n in report.negotiations)
    stats = tuple(
        (model, BehaviorStats(
            negotiations=tally[model, Outcome.ACCEPTED]
            + tally[model, Outcome.REFUSED],
            accepted=tally[model, Outcome.ACCEPTED],
            refused=tally[model, Outcome.REFUSED]))
        for model in BehaviorModel)
    return ExperimentReport(runs=runs, stats=stats, forged_records=forged,
                            flagged_records=flagged)


def render_experiment(report: ExperimentReport) -> str:
    lines = [f"runs={report.runs}"]
    for model, stats in report.stats:
        if not stats.negotiations:
            continue
        rate = stats.refused / stats.negotiations
        label = ("false_refusal_rate"
                 if model is BehaviorModel.HONEST else "detection_rate")
        lines.append(
            f"behavior={model.value} negotiations={stats.negotiations} "
            f"accepted={stats.accepted} refused={stats.refused} "
            f"{label}={fmt(rate)}")
    lines.append(f"forged_records={report.forged_records}")
    lines.append(f"flagged_records={report.flagged_records}")
    return "\n".join(lines) + "\n"
