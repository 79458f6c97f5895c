"""Deterministic multi-peer simulation of policy negotiation.

Peers run under a single-threaded logical clock; every message delivery
advances one tick and messages between a pair of peers stay ordered.
Behaviour models cover an honest client, two kinds of policy liars, and
a history forger.  Scenarios come from a flat one-statement-per-line
file, whose ``config`` lines set ``TrustConfig``'s numeric fields; the
same scenario and seed always reproduce a byte-identical run report.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields, replace
from enum import Enum
from functools import cached_property
from typing import (Callable, Iterable, NamedTuple, Optional, Sequence,
                    TypeVar, Union)

from .errors import (
    AvcParseError,
    DuplicateDomainError,
    DuplicateResourceError,
    P2PSecError,
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
    too_long_to_write,
    written,
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
    frozen_record,
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
    """How a simulated peer behaves.  ``enforces`` says whether its
    kernel enforces its policy and its claims are true: an honest peer
    and a log forger, who lies only about history, do; the two policy
    liars do not."""

    HONEST = "honest", True
    BLIND_LIAR = "blind-liar", False
    INFORMED_LIAR = "informed-liar", False
    LOG_FORGER = "log-forger", True
    __hash__ = object.__hash__  # identity, as PropertyKind's

    def __new__(cls, value: str, enforces: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.enforces = enforces
        return member


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

@frozen_record
class PeerDecl:
    """A declared peer; ``policy`` is its initial local policy."""

    uid: str
    display_name: str
    policy: PeerPolicy
    behavior: BehaviorModel = BehaviorModel.HONEST
    knows: tuple[tuple[str, float], ...] = ()


@frozen_record
class AskAction:
    requester: str
    owner: str
    resource_name: str
    target_domain: str


@frozen_record
class EditAction:
    """An owner's policy edit at run time: the ``PeerPolicy`` edit
    ``method`` (``publish``, ``add_property``, ``create_domain`` or
    ``delete_domain``) called with ``args``."""

    peer: str
    method: str
    args: tuple


@frozen_record
class ShowAction:
    peer: str


Action = Union[AskAction, EditAction, ShowAction]


class _Roster:
    """The rules that span a scenario's statements, checked step by step
    by the parser and all at once by ``Scenario``, each raising
    ``ScenarioError``: a uid is declared once, with a non-empty display
    name, and before it is named; a peer knows each other peer at most
    once, never itself, with a trust that is a number (not a bool) in
    [0, 1]; a peer never asks itself, and an ask names its target
    domain; an edit is one the engine applies, with arguments of the
    types it takes, non-empty names, and no nopublication on a published
    file.  ``knows`` maps each declared uid to the trust it gives each
    subject it knows."""

    def __init__(self):
        self.knows: dict[str, dict[str, float]] = {}

    def declare(self, uid: str, display_name: str) -> None:
        if uid in self.knows:
            raise ScenarioError(f"peer {uid!r} declared twice")
        if not display_name:
            raise ScenarioError("peer name must be non-empty")
        self.knows[uid] = {}

    def named(self, uid: str) -> str:
        if uid not in self.knows:
            raise ScenarioError(f"peer {uid!r} is not declared")
        return uid

    def know(self, holder: str, subject: str, trust: float) -> None:
        known = self.knows[self.named(holder)]
        if self.named(subject) == holder:
            raise ScenarioError(f"peer {holder!r} knows itself")
        if subject in known:
            raise ScenarioError(f"peer {holder!r} knows {subject!r} twice")
        if type(trust) not in (int, float):  # a bool is not a number
            raise ScenarioError(f"peer {holder!r} knows {subject!r} with "
                                f"trust {trust!r}, not a number")
        if not 0.0 <= trust <= 1.0:
            raise ScenarioError(f"peer {holder!r} knows {subject!r} with "
                                f"trust {written(trust)}, outside [0, 1]")
        known[subject] = trust

    def act(self, action: Action) -> None:
        if isinstance(action, AskAction):
            if self.named(action.requester) == self.named(action.owner):
                raise ScenarioError(f"peer {action.requester!r} asks itself")
            if not action.target_domain:
                raise ScenarioError("ask target domain must be non-empty")
        elif isinstance(action, ShowAction):
            self.named(action.peer)
        elif isinstance(action, EditAction):
            self.named(action.peer)
            self._edit(action.method, action.args)
        else:
            raise ScenarioError(f"unsupported action {action!r}")

    @staticmethod
    def _edit(method: str, args: tuple) -> None:
        if method not in _EDITS:
            raise ScenarioError(f"unknown edit method {method!r}")
        types = _EDITS[method][0]
        if len(args) != len(types) or not all(map(isinstance, args, types)):
            raise ScenarioError(
                f"{method} takes {', '.join(t.__name__ for t in types)}, "
                f"not {args!r}")
        if "" in args:
            raise ScenarioError(f"{method} takes non-empty names, "
                                f"not {args!r}")
        for prop in args[0] if method == "publish" else ():
            if not isinstance(prop, SecurityProperty):
                raise ScenarioError(f"publish takes properties, not {prop!r}")
            if prop.kind is PropertyKind.NOPUBLICATION:
                raise ScenarioError(
                    "nopublication applies to domains, not resources")


@frozen_record
class Scenario:
    """A run to simulate.  Building one checks it against the rules of
    ``_Roster``, as the parser does statement by statement but with no
    line."""

    seed: int = 0
    peers: tuple[PeerDecl, ...] = ()
    actions: tuple[Action, ...] = ()
    config: TrustConfig = TrustConfig()

    def __post_init__(self):
        roster = _Roster()
        for decl in self.peers:
            roster.declare(decl.uid, decl.display_name)
        for decl in self.peers:
            for subject, trust in decl.knows:
                roster.know(decl.uid, subject, trust)
        for action in self.actions:
            roster.act(action)


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f.type for f in fields(TrustConfig)}

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


class _ScenarioBuilder:
    """Parse state.  Declarations edit the peer's policy builder as they
    are read, so its checks (conflicts, nopublication on files) reject a
    bad statement on its line; each policy is frozen once, in
    ``build``.  Each distinct property token list is made a
    ``SecurityProperty`` once per parse.  Every statement meets
    ``_Roster`` on its line, so ``build`` makes the ``Scenario``
    unchecked."""

    def __init__(self):
        self.seed = 0
        self.config_overrides: dict[str, object] = {}
        self.config_line: Optional[int] = None
        self.roster = _Roster()
        # uid -> (display name, behavior, policy builder)
        self.peers: dict[str, tuple[str, BehaviorModel, PolicyBuilder]] = {}
        self.actions: list[Action] = []
        self._properties: dict[tuple[str, ...], SecurityProperty] = {}

    def peer(self, uid: str) -> PolicyBuilder:
        return self.peers[self.roster.named(uid)][2]

    def property(self, tokens: Sequence[str]) -> SecurityProperty:
        """The property ``tokens`` write: a kind, then its targets."""
        key = tuple(tokens)
        prop = self._properties.get(key)
        if prop is None:
            try:
                kind = PropertyKind(key[0])
            except ValueError:
                raise ScenarioError(
                    f"unknown property kind {key[0]!r}") from None
            prop = self._properties[key] = SecurityProperty(
                kind, frozenset(key[1:]))
        return prop

    def build(self) -> Scenario:
        # refuse_threshold < full_trust_threshold holds only for the
        # final set, so the config is checked once here.
        try:
            config = TrustConfig(**self.config_overrides)
        except TrustError as exc:
            raise ScenarioError(str(exc), line=self.config_line) from exc
        peers = tuple(
            PeerDecl(uid, display, policy.freeze(), behavior,
                     tuple(self.roster.knows[uid].items()))
            for uid, (display, behavior, policy) in self.peers.items())
        return Scenario.unchecked(self.seed, peers, tuple(self.actions),
                                  config)


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
        except (P2PSecError, ValueError) as exc:
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


#: Declaration statement -> (its ``PolicyBuilder`` step, called with the
#: peer's builder and the other arguments, a ``property``'s kind and
#: targets made one property, then the wording for each error that
#: refuses it, in which ``{0}``, ``{1}``... are the arguments).
_DECLARATIONS: dict[str, tuple[Callable[..., object], dict[type, str]]] = {
    "domain": (PolicyBuilder.create_domain,
               {DuplicateDomainError: "domain {1!r} declared twice"}),
    "resource": (PolicyBuilder.add_resource, {
        UnknownDomainError: "resource domain {2!r} is not declared",
        DuplicateResourceError: "resource {1!r} declared twice",
    }),
    "property": (PolicyBuilder.add_property,
                 {UnknownScopeError: "scope {1!r} is not declared"}),
}

#: The owner edits the engine applies, by method: the types of the
#: arguments, what the transcript says when the edit applies, then the
#: wording for each error that refuses it.  In a wording ``{0}``,
#: ``{1}``... are the edit's arguments, properties rendered, and ``{exc}``
#: is the error.
_EDITS: dict[str, tuple[tuple[type, ...], str, dict[type, str]]] = {
    "publish": ((tuple, str, str), "publication accepted.", {
        PublicationForbiddenError:
            "publication refused: domain {2} forbids publication",
        PropertyConflictError:
            "publication refused: properties conflict in domain {2}",
        UnknownDomainError: "publication refused: unknown domain {2}",
        DuplicateResourceError: "publication refused: file {1} already exists",
    }),
    "add_property": ((str, SecurityProperty), "property {1} added to {0}", {
        PropertyConflictError:
            "property {1} refused on {0}: conflicting properties",
        PolicyValidationError: "property {1} refused on {0}: {exc}",
        UnknownScopeError: "no domain or resource named {0}",
    }),
    "create_domain": ((str,), "domain {0} created",
                      {PolicyError: "create domain failed: {exc}"}),
    "delete_domain": ((str,), "domain {0} deleted",
                      {PolicyError: "delete domain failed: {exc}"}),
}


def _refusal(refusals: dict[type, str], exc: Exception,
             args: Iterable[object]) -> str:
    """The wording for the first error in ``refusals`` that ``exc`` is
    (no other error is caught), formatted with ``args`` and ``exc``."""
    return next(wording for error, wording in refusals.items()
                if isinstance(exc, error)).format(*args, exc=exc)


def _shown(args: tuple) -> tuple:
    """An edit's arguments as its wordings show them."""
    return tuple(arg.render() if isinstance(arg, SecurityProperty) else arg
                 for arg in args)


def _parse_statement(builder: _ScenarioBuilder, stmt: str, args: list[str],
                     lineno: int) -> None:
    if stmt not in _ARITY:
        raise ScenarioError(f"unknown statement {stmt!r}")
    fewest, most, message = _ARITY[stmt]
    if len(args) < fewest or (most is not None and len(args) > most):
        raise ScenarioError(message.format(args))
    if stmt == "seed":
        builder.seed = ascii_number(int, args[0])
    elif stmt == "config":
        key, value = args
        if key not in _CONFIG_FIELDS:
            raise ScenarioError(message.format(args))
        builder.config_line = lineno
        builder.config_overrides[key] = ascii_number(
            int if _CONFIG_FIELDS[key] == "int" else float, value)
    elif stmt == "peer":
        uid = args[0]
        display, behavior = uid, BehaviorModel.HONEST
        seen: set[str] = set()
        for extra in args[1:]:
            key, sep, value = extra.partition("=")
            if key not in ("name", "behavior") or not sep:
                raise ScenarioError(f"bad peer option {extra!r}")
            if key in seen:
                raise ScenarioError(f"peer option {key!r} given twice")
            seen.add(key)
            if key == "name":
                display = value
            else:
                try:
                    behavior = BehaviorModel(value)
                except ValueError:
                    raise ScenarioError(
                        f"unknown behavior {value!r}") from None
        builder.roster.declare(uid, display)
        builder.peers[uid] = (display, behavior, PolicyBuilder())
    elif stmt == "knows":
        builder.roster.know(args[0], args[1], ascii_number(float, args[2]))
    elif stmt in _DECLARATIONS:
        step, refusals = _DECLARATIONS[stmt]
        policy = builder.peer(args[0])
        values = ((args[1], builder.property(args[2:])) if stmt == "property"
                  else args[1:])
        try:
            step(policy, *values)
        except tuple(refusals) as exc:
            raise ScenarioError(_refusal(refusals, exc, args)) from None
    else:
        action = _parse_action(builder, stmt, args)
        builder.roster.act(action)
        builder.actions.append(action)


def _parse_action(builder: _ScenarioBuilder, stmt: str,
                  args: list[str]) -> Action:
    if stmt == "ask":
        return AskAction(*args)
    if stmt == "publish":
        props = tuple(builder.property([k]) for k in args[3:])
        return EditAction(args[0], "publish", (props, *args[1:3]))
    if stmt == "add-property":
        return EditAction(args[0], "add_property",
                          (args[1], builder.property(args[2:])))
    if stmt == "show":
        return ShowAction(args[0])
    return EditAction(args[0], stmt.replace("-", "_"), (args[1],))


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
        """Install a new policy without checking it: a policy built
        directly was validated, and one frozen from a builder was checked
        step by step, so an install costs nothing beyond the edit."""
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

        Honest peers and log forgers answer truthfully, offering exactly
        their domain's properties and so its kinds, which the slice takes
        from the ``Domain`` as they are.  A blind liar invents a claim
        without knowing what is required; an informed liar echoes the
        required properties back.
        """
        if self.behavior.enforces:
            dom = self._domain(domain_name)
            return PolicySlice.unchecked(domain_name, dom.properties,
                                         dom.kinds)
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
        if self.behavior.enforces:
            return KIND_CONFLICTS[probe_kind].isdisjoint(
                self._domain(domain_name).kinds)
        return True

    def respond_mac_challenge(self, challenge: Challenge, domain_name: str,
                              tick: int) -> AvcRecord:
        """Synthesize the AVC line this peer's kernel would produce at
        clock ``tick``, a non-negative int that leaves every number of the
        record writable.

        Honest peers (and log forgers, who lie only about history)
        enforce their domain's kind ruleset; policy liars enforce
        nothing, so their kernel grants the access.  The record is built
        without ``AvcRecord``'s checks, which its parts already meet:
        constants, a known stub and its permission, and the tick's
        digits.
        """
        if type(tick) is not int or tick < 0:  # a bool is not an int
            raise AvcParseError(f"AVC tick must be a non-negative int, "
                                f"not {written(tick)}")
        if too_long_to_write(170000 + tick):  # ino, the largest number
            raise AvcParseError("AVC tick has too many digits")
        permission = probe_permission(challenge.stub)
        if self.behavior.enforces:
            ruleset = kind_ruleset(self._domain(domain_name).kinds)
            tcontext = object_context(domain_name)
        else:
            ruleset = DEFAULT_RULESET
            tcontext = challenge.expected_tcontext
        decision = check_access(ruleset, PermissionClass.FILE, permission)
        return AvcRecord.unchecked(
            timestamp=f"{tick}.000", serial=str(tick), decision=decision,
            permissions=frozenset({permission}), pid=4000 + tick,
            comm=challenge.stub, name=challenge.target_name, dev="sda3",
            ino=170000 + tick, scontext=challenge.scontext,
            tcontext=tcontext, tclass="file")

    def present_history(self, kinds: Iterable[PropertyKind],
                        now: int) -> tuple[list[HistoryRecord], int]:
        """Records of this peer's own past operations for the requested
        kinds, plus how many of them were fabricated.  Every record's
        actor is this peer, forged ones included."""
        kinds = tuple(kinds)
        own = [r for r in self.ledger.records_by(self.uid)
               if r.property_kind in kinds]
        if self.behavior is not BehaviorModel.LOG_FORGER:
            return own, 0
        forged = []
        for kind in kinds:
            self._forged_serial += 1
            forged.append(HistoryRecord(
                timestamp=max(now - 1, 0), actor=self.uid,
                property_kind=kind, violation=False,
                counterparty=f"ghost{self._forged_serial}-{self.uid}"))
        return own + forged, len(forged)


def cross_reference_history(
    presented: Iterable[HistoryRecord],
    agents_by_uid: dict[str, PeerAgent],
    target: str,
) -> list[tuple[HistoryRecord, bool]]:
    """Validate presented records against their counterparties' ledgers.

    A record is verified when its named counterparty exists and holds a
    matching entry (same actor, timestamp, and property kind), looked
    up in that ledger's index.  A record naming no peer, or none at
    all, cannot be verified and is flagged.
    """
    checked = []
    for record in presented:
        other = agents_by_uid.get(record.counterparty)
        verified = other is not None and other.ledger.has_record(
            target, record.timestamp, record.property_kind)
        checked.append((record, verified))
    return checked


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@frozen_record
class NegotiationRecord:
    """The outcome of ``ask``; ``per_property`` follows the required
    properties.  A not-found ask is refused with the fields past
    ``requester_behavior`` empty; only its ``source_domain`` is empty."""

    ask: AskAction
    outcome: Outcome
    requester_behavior: BehaviorModel
    per_property: tuple[tuple[SecurityProperty, TrustComputation], ...] = ()
    flagged_records: int = 0
    forged_records: int = 0
    source_domain: str = ""
    offered: PolicySlice = PolicySlice("")
    delegates: int = 0      # how many challenged each property


@frozen_record
class EditRecord:
    action: EditAction
    refusal: Optional[str] = None   # the refusing error's wording, if any


@frozen_record
class ShowRecord:
    peer: str
    policy: PeerPolicy


RunRecord = Union[NegotiationRecord, EditRecord, ShowRecord]


@frozen_record
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
        if isinstance(rec, EditRecord):
            edit, name = rec.action, names[rec.action.peer]
            if edit.method == "publish":
                say(f"{name}: publishing file {edit.args[1]} in domain "
                    f"{edit.args[2]}")
            applied = _EDITS[edit.method][1].format(*_shown(edit.args))
            say(f"{name}: {rec.refusal or applied}")
            continue
        name = names[rec.peer]
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
    req, own = names[rec.ask.requester], names[rec.ask.owner]
    path, to = rec.ask.resource_name, rec.ask.target_domain
    say(f"{req}: I asks to peer {own} the file {path} to be put in {to}")
    say(f"{own}: Peer {req} asking file {path}")
    say(f"{own}: Peer {req} will put the file in domain {to}")
    if not rec.source_domain:
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
        ask = rec.ask
        lines.append(
            f"ask requester={ask.requester} owner={ask.owner} "
            f"resource={ask.resource_name} domain={ask.target_domain} "
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

#: Probe verdicts by question; see ``SimulationEngine._probe_harness``.
_Verdicts = dict[tuple, tuple[bool, ...]]


class SimulationEngine:
    def __init__(self, scenario: Scenario,
                 verdicts: Optional[_Verdicts] = None):
        self.scenario = scenario
        self.config = scenario.config
        self.rng = random.Random(scenario.seed)
        self.now = 0
        self.records: list[RunRecord] = []
        self.agents: dict[str, PeerAgent] = {}
        for decl in scenario.peers:
            # The scenario held each trust to the ledger's rule, so the
            # ledger is filled after its check, which finds it empty.
            ledger = TrustLedger()
            ledger.reputations.update(decl.knows)
            self.agents[decl.uid] = PeerAgent(decl.uid, decl.policy,
                                              decl.behavior, ledger)
        # Owner uid -> its eligible delegates; see _eligible_delegates.
        self._delegates: dict[str, list[tuple[str, float]]] = {
            uid: self._eligible_delegates(agent)
            for uid, agent in self.agents.items()}
        # Probe verdicts by question: this run's own, or a table the
        # caller shares across runs; see _probe_harness.
        self._verdicts: _Verdicts = {} if verdicts is None else verdicts

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
        refusals = _EDITS[action.method][2]
        self.now += 1
        refusal = None
        try:
            agent.apply_policy(getattr(agent.policy, action.method)(
                *action.args))
        except tuple(refusals) as exc:
            refusal = _refusal(refusals, exc, _shown(action.args))
        self.records.append(EditRecord(action, refusal))

    def _show(self, action: ShowAction) -> None:
        self.records.append(
            ShowRecord(action.peer, self.agents[action.peer].policy))

    # -- negotiation -----------------------------------------------------

    def _negotiate(self, action: AskAction) -> None:
        requester = self.agents[action.requester]
        owner = self.agents[action.owner]
        target_domain = action.target_domain

        self.now += 1
        try:
            session = open_session(owner.policy, action.resource_name)
        except UnknownResourceError:
            self.records.append(NegotiationRecord(
                action, Outcome.REFUSED, requester.behavior))
            return

        # Slice phase: the owner learns exactly one domain's policy.
        self.now += 1
        offered = requester.slice_for(target_domain, session.required,
                                      self.rng)
        self.now += 1
        if offered.domain_name != target_domain:
            raise PrivacyViolationError(
                f"slice for {offered.domain_name!r} leaked during a "
                f"negotiation about {target_domain!r}")

        # History phase.
        kinds = tuple(dict.fromkeys(p.kind for p in session.required))
        self.now += 1
        presented, forged = requester.present_history(kinds, self.now)
        checked = cross_reference_history(presented, self.agents,
                                          requester.uid)
        flagged = sum(1 for _, ok in checked if not ok)
        # The requester's records: the owner's own plus those presented,
        # each one that failed cross-referencing marked as a violation.
        history = (list(owner.ledger.records_by(requester.uid))
                   + [replace(r, violation=True) if not ok else r
                      for r, ok in checked])

        # Evaluating a property changes only the requester's reputation,
        # and the requester is never a delegate, so one list serves all.
        delegates = self._delegates_for(owner, requester)
        per_property = tuple(
            (prop, self._evaluate_property(session, offered, prop, owner,
                                           requester, history, delegates))
            for prop in session.required)

        outcome = decide((c for _, c in per_property), self.config)
        self.now += 1
        if outcome is Outcome.ACCEPTED:
            self._transfer(session, target_domain, owner, requester)

        self.records.append(NegotiationRecord(
            action, outcome, requester.behavior, per_property=per_property,
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
        threshold, with their reputations, sorted by uid.  A requester
        judged FULL keeps the initial reputation, which by default
        equals the threshold, so it does not become a delegate by being
        accepted."""
        threshold = self.config.full_trust_threshold
        return sorted(
            (peer, value) for peer, value in owner.ledger.reputations.items()
            if value > threshold)

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

        The requester's answers never depend on which delegate asks, so
        the probes are run once, each to a pass/fail bool, and their
        verdicts are kept in the engine's table under the question's
        key: whether the requester enforces its policy
        (``BehaviorModel.enforces``), the offered kinds and ``kind``.
        The key holds everything the verdicts read.  Peers that agree on
        ``enforces`` answer alike: an enforcing peer refuses and decides
        by its target domain's kinds, a peer that enforces nothing
        accepts and grants, reading no domain.  And the one other input,
        the kinds of the requester's target domain (the one ``offered``
        names, which ``_negotiate`` has matched to the ask's), is fixed
        by the rest, on this invariant: an enforcing peer offers exactly
        its domain's kinds.  The response echoes the challenge's target
        name, an enforcing peer labels the same domain name the
        challenge expects, and no check reads the timestamp or serial
        stamps, so the resource path, the domain name and the tick stay
        out of it.  Nor does a
        verdict read the scenario, the config, the ledgers or the clock,
        so a table is sound for any number of runs: whoever builds the
        engine owns it.  ``run_scenario`` gives each run a fresh table
        unless handed one, and ``detection_experiment`` hands all its
        runs one table, so each question is asked once per experiment.
        The returned closure does each delegate's own part: for each
        probe it advances the clock by the probe's two message ticks and
        records a failed probe in that delegate's ledger at the tick it
        would have been answered.
        """
        key = (requester.behavior.enforces, offered.kinds, kind)
        probes = self._verdicts.get(key)
        if probes is None:
            probes = self._verdicts[key] = self._probe_round(
                session.resource.path, offered, requester, kind)

        def harness(delegate: str, target: str,
                    _: PropertyKind) -> list[float]:
            ledger = self.agents[delegate].ledger
            scores = []
            for passed in probes:
                self.now += 2
                scores.append(1.0 if passed else 0.0)
                if not passed:
                    ledger.record(HistoryRecord(
                        timestamp=self.now, actor=target,
                        property_kind=kind, violation=True,
                        counterparty=delegate))
            return scores

        return harness

    def _probe_round(self, resource_path: str, offered: PolicySlice,
                     requester: PeerAgent, kind: PropertyKind
                     ) -> tuple[bool, ...]:
        """One challenge round, each probe to a pass/fail bool: the
        conflicting-transfer probe first, when ``kind`` has a
        conflicting kind, then the MAC challenge."""
        target_domain = offered.domain_name
        probes: list[bool] = []
        probe_kind = PROBE_KINDS[kind]
        if probe_kind is not None:
            accepted = requester.respond_conflicting_request(
                target_domain, probe_kind)
            expect_refusal = not KIND_CONFLICTS[probe_kind].isdisjoint(
                offered.kinds)
            probes.append((not accepted) == expect_refusal)
        challenge = build_challenge(
            resource_path, CHALLENGE_SUBJECT, PROBE_STUBS[kind],
            kind_ruleset(offered.kinds), object_context(target_domain))
        # Stamped with the current tick; the verdict reads no stamp.
        response = requester.respond_mac_challenge(challenge, target_domain,
                                                   self.now)
        probes.append(verify_challenge(challenge, [response]).passed)
        return tuple(probes)

    def _transfer(self, session: NegotiationSession, target_domain: str,
                  owner: PeerAgent, requester: PeerAgent) -> None:
        self.now += 1
        policy = apply_transfer(requester.policy, session.resource,
                                target_domain)
        # A file already held in the target domain leaves the policy as
        # it is, so there is nothing new to install.
        if policy is not requester.policy:
            requester.apply_policy(policy)
        for prop in session.required:
            record = HistoryRecord(
                timestamp=self.now, actor=requester.uid,
                property_kind=prop.kind, violation=False,
                counterparty=owner.uid)
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


def run_scenario(scenario: Scenario,
                 verdicts: Optional[_Verdicts] = None) -> RunReport:
    """Execute a scenario; equal scenarios and seeds give equal reports.
    ``verdicts`` is the probe-verdict table to read and fill (see
    ``SimulationEngine._probe_harness``), a fresh one when not given; a
    shared table changes no report, only which rounds are run."""
    return SimulationEngine(scenario, verdicts).run()


# ---------------------------------------------------------------------------
# Adversary detection experiment
# ---------------------------------------------------------------------------

@frozen_record
class PopulationParams:
    """Shape of each generated run in the detection experiment."""

    seed: int = 0
    delegates: int = 2
    honest_requesters: int = 1
    blind_liars: int = 1
    informed_liars: int = 1
    log_forgers: int = 1

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{field.name} must be an int, "
                                 f"not {value!r}")
        if self.delegates < 1:
            raise ValueError("need at least one delegate")
        if min(self.honest_requesters, self.blind_liars,
               self.informed_liars, self.log_forgers) < 0:
            raise ValueError("population counts must be non-negative")


#: The requesters of each generated run, in order: behaviour, the
#: ``PopulationParams`` field counting them, uid prefix, whether their
#: policy holds the owner's required properties, and asks per requester.
_POPULATION: tuple[tuple[BehaviorModel, str, str, bool, int], ...] = (
    (BehaviorModel.HONEST, "honest_requesters", "h", True, 2),
    (BehaviorModel.BLIND_LIAR, "blind_liars", "b", False, 1),
    (BehaviorModel.INFORMED_LIAR, "informed_liars", "m", False, 1),
    (BehaviorModel.LOG_FORGER, "log_forgers", "f", True, 1),
)


@frozen_record
class BehaviorStats:
    accepted: int = 0
    refused: int = 0

    @property
    def negotiations(self) -> int:
        return self.accepted + self.refused


@frozen_record
class ExperimentReport:
    """Outcomes over ``runs`` generated runs; ``stats`` maps every
    behaviour model, in declaration order, to its tally."""

    runs: int
    stats: dict[BehaviorModel, BehaviorStats]
    forged_records: int
    flagged_records: int

    def stat(self, behavior: BehaviorModel) -> BehaviorStats:
        return self.stats.get(behavior, BehaviorStats())


def _domain_policy(domain: str, props: Iterable[SecurityProperty],
                   *paths: str) -> PeerPolicy:
    policy = PolicyBuilder().create_domain(domain)
    for prop in props:
        policy.add_property(domain, prop)
    for path in paths:
        policy.add_resource(path, domain)
    return policy.freeze()


class _Mix(NamedTuple):
    """A property mix for generated owner domains, with the two policies
    that depend on it: the owner's, holding ``asset`` in a ``vault``
    domain under the mix, and the ``drop`` domain of the requesters whose
    policy holds the mix."""

    required: tuple[SecurityProperty, ...]
    owner: PeerPolicy
    matching_drop: PeerPolicy


def _mix(*required: SecurityProperty) -> _Mix:
    return _Mix(required, _domain_policy("vault", required, "asset"),
                _domain_policy("drop", required))


#: The mixes each generated run draws from.  Every mix carries at least
#: one prohibition kind, so a peer that enforces nothing always has
#: something to fail.  A ``PeerPolicy`` is immutable, so each policy is
#: built here once and shared by every run that draws its mix, as are
#: the bare ``drop`` policy of the requesters whose policy does not hold
#: the mix and the delegates' empty policy.
_REQUIRED_MIXES: tuple[_Mix, ...] = (
    _mix(SecurityProperty(PropertyKind.CONFIDENTIALITY)),
    _mix(SecurityProperty(PropertyKind.INTEGRITY)),
    _mix(SecurityProperty(PropertyKind.NOSHARE)),
    _mix(SecurityProperty(PropertyKind.CONFIDENTIALITY),
         SecurityProperty(PropertyKind.INTEGRITY)),
    _mix(SecurityProperty(PropertyKind.NOSHARE),
         SecurityProperty(PropertyKind.INTEGRITY)),
    _mix(SecurityProperty(PropertyKind.INTEGRITY),
         SecurityProperty(PropertyKind.COOPERATION)),
)
_BARE_DROP = _domain_policy("drop", ())
_EMPTY_POLICY = PeerPolicy()


def _experiment_scenario(params: PopulationParams, run_index: int,
                         shared: dict[int, Scenario]) -> Scenario:
    """Run ``run_index`` of a detection experiment: a seeded draw of one
    of ``_REQUIRED_MIXES``, then the owner, delegates and requesters
    ``params`` count.  Only the seed and the drawn mix differ between the
    runs of one ``params``, so ``shared`` maps each drawn mix's index to
    the scenario that first drew it, and a later run that draws the mix
    takes that scenario's checked peers and actions with its own seed,
    built unchecked.  The scenario equals the one built with an empty
    ``shared``.  The key is the index, so no lookup hashes a policy."""
    rng = random.Random(f"{params.seed}:{run_index}")
    # The same draw as rng.choice(_REQUIRED_MIXES).
    index = rng.randrange(len(_REQUIRED_MIXES))
    if index in shared:
        first = shared[index]
        return Scenario.unchecked(run_index, first.peers, first.actions,
                                  first.config)
    mix = _REQUIRED_MIXES[index]
    peers = [PeerDecl(
        uid="owner", display_name="owner", policy=mix.owner,
        knows=tuple((f"c{i}", 0.6 + 0.1 * (i % 4))
                    for i in range(params.delegates)),
    )]
    peers.extend(PeerDecl(uid=f"c{i}", display_name="C",
                          policy=_EMPTY_POLICY)
                 for i in range(params.delegates))
    actions: list[Action] = []
    for behavior, count, prefix, matching, asks in _POPULATION:
        drop = mix.matching_drop if matching else _BARE_DROP
        for i in range(getattr(params, count)):
            uid = f"{prefix}{i}"
            peers.append(PeerDecl(uid=uid, display_name=uid, policy=drop,
                                  behavior=behavior))
            actions += [AskAction(uid, "owner", "asset", "drop")] * asks
    scenario = shared[index] = Scenario(seed=run_index, peers=tuple(peers),
                                        actions=tuple(actions))
    return scenario


def detection_experiment(params: PopulationParams,
                         runs: int) -> ExperimentReport:
    """Generate ``runs`` seeded scenarios and tally outcomes per
    behaviour model.  The runs share what does not differ between them,
    which changes no outcome: one probe-verdict table (see
    ``SimulationEngine._probe_harness``), and each drawn property mix's
    peers and actions, built and checked once per call (see
    ``_experiment_scenario``)."""
    if isinstance(runs, bool) or not isinstance(runs, int):
        raise ValueError(f"runs must be an int, not {runs!r}")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    tally: Counter[tuple[BehaviorModel, Outcome]] = Counter()
    forged = 0
    flagged = 0
    verdicts: _Verdicts = {}
    scenarios: dict[int, Scenario] = {}
    for index in range(runs):
        report = run_scenario(_experiment_scenario(params, index, scenarios),
                              verdicts)
        for record in report.negotiations:
            tally[record.requester_behavior, record.outcome] += 1
        forged += sum(n.forged_records for n in report.negotiations)
        flagged += sum(n.flagged_records for n in report.negotiations)
    stats = {model: BehaviorStats(accepted=tally[model, Outcome.ACCEPTED],
                                  refused=tally[model, Outcome.REFUSED])
             for model in BehaviorModel}
    return ExperimentReport(runs=runs, stats=stats, forged_records=forged,
                            flagged_records=flagged)


def render_experiment(report: ExperimentReport) -> str:
    lines = [f"runs={report.runs}"]
    for model, stats in report.stats.items():
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
