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
from typing import Iterable, Optional, Union

from .errors import (
    DuplicateDomainError,
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
    CompiledPolicy,
    DEFAULT_RULESET,
    FILE_PERMISSIONS,
    PROBE_PERMISSIONS,
    PermissionClass,
    SecurityContext,
    build_challenge,
    check_access,
    compile_policy,
    kind_ruleset,
    object_context,
    verify_challenge,
)
from .negotiation import (
    NegotiationSession,
    Outcome,
    PolicySlice,
    ResourceRequest,
    apply_transfer,
    decide,
    eval_property,
    open_session,
)
from .policy import (
    KIND_ORDER,
    PeerPolicy,
    PropertyKind,
    SecurityProperty,
    conflicts,
    render_properties,
    sort_properties,
)
from .trust import (
    Band,
    ChallengeKind,
    ChallengeResult,
    HistoryRecord,
    PeerId,
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


#: Subject context used by delegated access challenges.
CHALLENGE_SUBJECT = SecurityContext("user_u", "user_r", "user_t")


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
class PublishAction:
    peer: str
    path: str
    domain_name: str
    properties: tuple[SecurityProperty, ...] = ()


@dataclass(frozen=True)
class AddPropertyAction:
    peer: str
    scope: str
    prop: SecurityProperty


@dataclass(frozen=True)
class CreateDomainAction:
    peer: str
    name: str


@dataclass(frozen=True)
class DeleteDomainAction:
    peer: str
    name: str


@dataclass(frozen=True)
class ShowAction:
    peer: str


Action = Union[AskAction, PublishAction, AddPropertyAction,
               CreateDomainAction, DeleteDomainAction, ShowAction]


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    peers: tuple[PeerDecl, ...] = ()
    actions: tuple[Action, ...] = ()
    config: TrustConfig = TrustConfig()


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {f.name: f.type for f in fields(TrustConfig)}


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
    """Parse state.  Declarations edit the peer's policy as they are
    read, so the policy's own checks (conflicts, nopublication on files)
    reject a bad statement on its line."""

    def __init__(self):
        self.seed = 0
        self.config_overrides: dict[str, object] = {}
        self.config_line: Optional[int] = None
        self.peers: dict[str, PeerDecl] = {}
        self.actions: list[Action] = []

    def peer(self, uid: str, lineno: int) -> PeerDecl:
        if uid not in self.peers:
            raise ScenarioError(f"peer {uid!r} is not declared", line=lineno)
        return self.peers[uid]

    def update(self, decl: PeerDecl, **changes) -> None:
        self.peers[decl.uid] = replace(decl, **changes)

    def build(self) -> Scenario:
        # Cross-field rules (refuse < full trust, weights summing to 1)
        # hold only for the final set, so they are checked once here.
        try:
            config = TrustConfig(**self.config_overrides)
        except TrustError as exc:
            raise ScenarioError(str(exc), line=self.config_line) from exc
        return Scenario(seed=self.seed, peers=tuple(self.peers.values()),
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
        builder.seed = int(args[0])
    elif stmt == "config":
        key, value = args
        if key not in _CONFIG_FIELDS:
            raise ScenarioError(message.format(args), line=lineno)
        builder.config_line = lineno
        if key == "history_window":
            builder.config_overrides[key] = int(value)
        elif key == "strict_conflicts":
            if value.lower() not in ("true", "false"):
                raise ScenarioError(f"strict_conflicts takes true or false, "
                                    f"not {value!r}", line=lineno)
            builder.config_overrides[key] = value.lower() == "true"
        else:
            builder.config_overrides[key] = float(value)
    elif stmt == "peer":
        uid = args[0]
        if uid in builder.peers:
            raise ScenarioError(f"peer {uid!r} declared twice", line=lineno)
        display, behavior = uid, BehaviorModel.HONEST
        for extra in args[1:]:
            key, sep, value = extra.partition("=")
            if key == "name" and sep:
                display = value
            elif key == "behavior" and sep:
                try:
                    behavior = BehaviorModel(value)
                except ValueError:
                    raise ScenarioError(f"unknown behavior {value!r}",
                                        line=lineno) from None
            else:
                raise ScenarioError(f"bad peer option {extra!r}", line=lineno)
        builder.peers[uid] = PeerDecl(uid, display, PeerPolicy(peer_id=uid),
                                      behavior)
    elif stmt == "knows":
        holder = builder.peer(args[0], lineno)
        subject = builder.peer(args[1], lineno).uid
        trust = float(args[2])
        if not 0.0 <= trust <= 1.0:
            raise ScenarioError(f"knows trust must lie in [0, 1], not "
                                f"{args[2]!r}", line=lineno)
        builder.update(holder, knows=holder.knows + ((subject, trust),))
    elif stmt == "domain":
        decl = builder.peer(args[0], lineno)
        try:
            policy = decl.policy.create_domain(args[1])
        except DuplicateDomainError:
            raise ScenarioError(f"domain {args[1]!r} declared twice",
                                line=lineno) from None
        builder.update(decl, policy=policy)
    elif stmt == "resource":
        decl = builder.peer(args[0], lineno)
        try:
            policy = decl.policy.add_resource(args[1], args[2])
        except UnknownDomainError:
            raise ScenarioError(f"resource domain {args[2]!r} is not "
                                f"declared", line=lineno) from None
        if decl.policy.has_resource(args[1]):
            raise ScenarioError(f"resource {args[1]!r} declared twice",
                                line=lineno)
        builder.update(decl, policy=policy)
    elif stmt == "property":
        decl = builder.peer(args[0], lineno)
        prop = _parse_property(args[2:], lineno)
        try:
            policy = decl.policy.add_property(args[1], prop)
        except UnknownScopeError:
            raise ScenarioError(f"scope {args[1]!r} is not declared",
                                line=lineno) from None
        builder.update(decl, policy=policy)
    elif stmt == "ask":
        builder.actions.append(AskAction(
            requester=builder.peer(args[0], lineno).uid,
            owner=builder.peer(args[1], lineno).uid,
            resource_name=args[2], target_domain=args[3]))
    elif stmt == "publish":
        props = tuple(_parse_property([k], lineno) for k in args[3:])
        if any(p.kind is PropertyKind.NOPUBLICATION for p in props):
            raise ScenarioError("nopublication applies to domains, not "
                                "resources", line=lineno)
        builder.actions.append(PublishAction(
            peer=builder.peer(args[0], lineno).uid, path=args[1],
            domain_name=args[2], properties=props))
    elif stmt == "add-property":
        builder.actions.append(AddPropertyAction(
            peer=builder.peer(args[0], lineno).uid, scope=args[1],
            prop=_parse_property(args[2:], lineno)))
    elif stmt == "create-domain":
        builder.actions.append(CreateDomainAction(
            peer=builder.peer(args[0], lineno).uid, name=args[1]))
    elif stmt == "delete-domain":
        builder.actions.append(DeleteDomainAction(
            peer=builder.peer(args[0], lineno).uid, name=args[1]))
    elif stmt == "show":
        builder.actions.append(
            ShowAction(peer=builder.peer(args[0], lineno).uid))


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

class PeerAgent:
    """One simulated peer: identity, policy, ledger, behaviour."""

    def __init__(self, peer_id: PeerId, policy: PeerPolicy,
                 behavior: BehaviorModel = BehaviorModel.HONEST,
                 ledger: Optional[TrustLedger] = None):
        self.id = peer_id
        self.behavior = behavior
        self.ledger = ledger if ledger is not None else TrustLedger()
        self.policy: PeerPolicy = policy
        self.compiled: CompiledPolicy = compile_policy(policy)
        self._forged_serial = 0

    def apply_policy(self, policy: PeerPolicy) -> None:
        """Install a new policy; the MAC projection follows immediately."""
        self.policy = policy
        self.compiled = compile_policy(policy)

    def _domain_properties(self, domain_name: str) -> frozenset[SecurityProperty]:
        if self.policy.has_domain(domain_name):
            return self.policy.domain(domain_name).properties
        return frozenset()

    def slice_for(self, domain_name: str,
                  required: tuple[SecurityProperty, ...],
                  rng: random.Random) -> PolicySlice:
        """The slice this peer claims for one domain.

        Honest peers and log forgers answer truthfully.  A blind liar
        invents a claim without knowing what is required; an informed
        liar echoes the required properties back.
        """
        if self.behavior in (BehaviorModel.HONEST, BehaviorModel.LOG_FORGER):
            return PolicySlice(domain_name, self._domain_properties(domain_name))
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
            actual = self._domain_properties(domain_name)
            return not any(conflicts(probe_kind, p.kind) for p in actual)
        return True

    def respond_mac_challenge(self, challenge: Challenge, domain_name: str,
                              permission: str, timestamp: str,
                              serial: str) -> AvcRecord:
        """Synthesize the AVC line this peer's kernel would produce.

        Honest peers (and log forgers, who lie only about history)
        answer from their own compiled ruleset; policy liars enforce
        nothing, so their kernel grants the access.
        """
        if self.behavior in (BehaviorModel.HONEST, BehaviorModel.LOG_FORGER):
            ruleset = self.compiled.domain_rules.get(domain_name,
                                                     DEFAULT_RULESET)
            decision = check_access(ruleset, PermissionClass.FILE, permission)
            tcontext = object_context(domain_name)
        else:
            decision = check_access(DEFAULT_RULESET, PermissionClass.FILE,
                                    permission)
            tcontext = challenge.expected_tcontext
        stub = challenge.command.split()[1]
        return AvcRecord(
            timestamp=timestamp,
            serial=serial,
            decision=decision,
            permissions=frozenset({permission}),
            pid=4000 + int(serial),
            comm=stub,
            name=challenge.target_name,
            dev="sda3",
            ino=170000 + int(serial),
            scontext=challenge.scontext,
            tcontext=tcontext,
            tclass="file",
        )

    def present_history(self, kinds: Iterable[PropertyKind],
                        now: int) -> tuple[list[HistoryRecord], int]:
        """Records of this peer's own past operations for the requested
        kinds, plus how many of them were fabricated."""
        kinds = tuple(kinds)
        own = [r for r in self.ledger.history
               if r.actor == self.id and r.property_kind in kinds]
        if self.behavior is not BehaviorModel.LOG_FORGER:
            return own, 0
        forged = []
        for kind in kinds:
            self._forged_serial += 1
            ghost = PeerId(f"ghost{self._forged_serial}-{self.id.uid}",
                           "ghost")
            forged.append(HistoryRecord(
                timestamp=max(now - 1, 0),
                actor=self.id,
                property_kind=kind,
                action="shared resource without incident",
                violation=False,
                counterparty=ghost,
            ))
        return own + forged, len(forged)


def cross_reference_history(
    presented: Iterable[HistoryRecord],
    agents_by_uid: dict[str, PeerAgent],
    target: PeerId,
) -> list[tuple[HistoryRecord, bool]]:
    """Validate presented records against their counterparties' ledgers.

    A record is verified when its named counterparty exists and holds a
    matching entry (same actor, timestamp, and property kind).  Records
    naming nobody are left alone.
    """
    checked = []
    for record in presented:
        if record.counterparty is None:
            checked.append((record, True))
            continue
        other = agents_by_uid.get(record.counterparty.uid)
        if other is None:
            checked.append((record, False))
            continue
        matched = any(
            r.actor == target
            and r.timestamp == record.timestamp
            and r.property_kind is record.property_kind
            for r in other.ledger.history)
        checked.append((record, matched))
    return checked


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegotiationRecord:
    requester: str
    owner: str
    resource_name: str
    target_domain: str
    outcome: Outcome
    requester_behavior: BehaviorModel
    per_property: tuple[tuple[SecurityProperty, TrustComputation], ...] = ()
    flagged_records: int = 0
    forged_records: int = 0


@dataclass(frozen=True)
class RunReport:
    seed: int
    transcript: tuple[str, ...]
    negotiations: tuple[NegotiationRecord, ...]
    final_reputations: tuple[tuple[str, str, float], ...]
    metrics: tuple[tuple[str, float], ...]


def render_report(report: RunReport) -> str:
    lines = [f"seed={report.seed}", "", "# transcript"]
    lines.extend(report.transcript)
    lines.append("")
    lines.append("# negotiations")
    for rec in report.negotiations:
        lines.append(
            f"ask requester={rec.requester} owner={rec.owner} "
            f"resource={rec.resource_name} domain={rec.target_domain} "
            f"outcome={rec.outcome.value}")
    lines.append("")
    lines.append("# reputations")
    for holder, subject, value in report.final_reputations:
        lines.append(f"{holder} about {subject} = {fmt(value)}")
    lines.append("")
    lines.append("# metrics")
    for name, value in report.metrics:
        lines.append(f"{name}={fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class SimulationEngine:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.config = scenario.config
        self.rng = random.Random(scenario.seed)
        self.now = 0
        self._serial = 0
        self.transcript: list[str] = []
        self.slice_log: list[tuple[str, PolicySlice]] = []
        self.negotiations: list[NegotiationRecord] = []
        self.agents: dict[str, PeerAgent] = {}
        self.peer_ids: dict[str, PeerId] = {}
        for decl in scenario.peers:
            self.peer_ids[decl.uid] = PeerId(decl.uid, decl.display_name)
        for decl in scenario.peers:
            self.agents[decl.uid] = self._build_agent(decl)

    def _build_agent(self, decl: PeerDecl) -> PeerAgent:
        ledger = TrustLedger()
        for subject, trust in decl.knows:
            ledger.reputations[self.peer_ids[subject]] = trust
        return PeerAgent(self.peer_ids[decl.uid], decl.policy, decl.behavior,
                         ledger)

    # -- clock and serials ---------------------------------------------

    def _tick(self) -> None:
        self.now += 1

    def _next_serial(self) -> str:
        self._serial += 1
        return str(self._serial)

    def _say(self, line: str) -> None:
        self.transcript.append(line)

    # -- actions ---------------------------------------------------------

    def run(self) -> RunReport:
        for action in self.scenario.actions:
            self._dispatch(action)
        return self._report()

    def _dispatch(self, action: Action) -> None:
        if isinstance(action, AskAction):
            self._negotiate(action)
        elif isinstance(action, PublishAction):
            self._publish(action)
        elif isinstance(action, AddPropertyAction):
            self._add_property(action)
        elif isinstance(action, CreateDomainAction):
            self._create_domain(action)
        elif isinstance(action, DeleteDomainAction):
            self._delete_domain(action)
        elif isinstance(action, ShowAction):
            self._show(action)
        else:
            raise ScenarioError(f"unsupported action {action!r}")

    def _publish(self, action: PublishAction) -> None:
        agent = self.agents[action.peer]
        name = agent.id.name
        self._tick()
        self._say(f"{name}: publishing file {action.path} in domain "
                  f"{action.domain_name}")
        try:
            agent.apply_policy(agent.policy.publish(
                action.properties, action.path, action.domain_name))
            self._say(f"{name}: publication accepted.")
        except PublicationForbiddenError:
            self._say(f"{name}: publication refused: domain "
                      f"{action.domain_name} forbids publication")
        except PropertyConflictError:
            self._say(f"{name}: publication refused: properties conflict "
                      f"in domain {action.domain_name}")
        except UnknownDomainError:
            self._say(f"{name}: publication refused: unknown domain "
                      f"{action.domain_name}")

    def _add_property(self, action: AddPropertyAction) -> None:
        agent = self.agents[action.peer]
        name = agent.id.name
        self._tick()
        try:
            agent.apply_policy(agent.policy.add_property(action.scope,
                                                         action.prop))
            self._say(f"{name}: property {action.prop.render()} added to "
                      f"{action.scope}")
        except PropertyConflictError:
            self._say(f"{name}: property {action.prop.render()} refused on "
                      f"{action.scope}: conflicting properties")
        except PolicyValidationError as exc:
            self._say(f"{name}: property {action.prop.render()} refused on "
                      f"{action.scope}: {exc}")
        except UnknownScopeError:
            self._say(f"{name}: no domain or resource named {action.scope}")

    def _create_domain(self, action: CreateDomainAction) -> None:
        agent = self.agents[action.peer]
        self._tick()
        try:
            agent.apply_policy(agent.policy.create_domain(action.name))
            self._say(f"{agent.id.name}: domain {action.name} created")
        except PolicyError as exc:
            self._say(f"{agent.id.name}: create domain failed: {exc}")

    def _delete_domain(self, action: DeleteDomainAction) -> None:
        agent = self.agents[action.peer]
        self._tick()
        try:
            agent.apply_policy(agent.policy.delete_domain(action.name))
            self._say(f"{agent.id.name}: domain {action.name} deleted")
        except PolicyError as exc:
            self._say(f"{agent.id.name}: delete domain failed: {exc}")

    def _show(self, action: ShowAction) -> None:
        agent = self.agents[action.peer]
        name = agent.id.name
        for dom in agent.policy.domains:
            if not dom.properties:
                continue
            self._say(f"[Display {name}] <domain> {dom.name} secured by "
                      f"{render_properties(dom.properties)}")
        for res in agent.policy.resources:
            dom = agent.policy.domain_by_id(res.domain_id)
            effective = agent.policy.effective_properties(res.path)
            self._say(f"[Display {name}] <file> {res.path} in {dom.name} "
                      f"under {render_properties(effective)}")

    # -- negotiation -----------------------------------------------------

    def _negotiate(self, action: AskAction) -> None:
        requester = self.agents[action.requester]
        owner = self.agents[action.owner]
        req_name = requester.id.name
        own_name = owner.id.name
        target_domain = action.target_domain

        request = ResourceRequest(requester=requester.id,
                                  resource_name=action.resource_name,
                                  target_domain_name=target_domain)
        self._tick()
        self._say(f"{req_name}: I asks to peer {own_name} the file "
                  f"{action.resource_name} to be put in {target_domain}")
        self._say(f"{own_name}: Peer {req_name} asking file "
                  f"{action.resource_name}")
        self._say(f"{own_name}: Peer {req_name} will put the file in "
                  f"domain {target_domain}")

        try:
            session = open_session(owner.policy, owner.id, request)
        except UnknownResourceError:
            self._say(f"{own_name}: File {action.resource_name} not found.")
            self._say(f"{req_name}: peer {own_name} REFUSED to send the "
                      f"file.")
            self.negotiations.append(NegotiationRecord(
                requester=requester.id.uid, owner=owner.id.uid,
                resource_name=action.resource_name,
                target_domain=target_domain, outcome=Outcome.REFUSED,
                requester_behavior=requester.behavior))
            return
        self._say(f"{own_name}: File {action.resource_name} found.")
        self._say(f"{own_name}: File is in domain {session.source_domain}")
        self._say(f"{own_name}: Security properties "
                  f"{render_properties(session.required)}")

        # Slice phase: the owner learns exactly one domain's policy.
        self._tick()
        self._say(f"{req_name}: someone asking policy for domain "
                  f"{target_domain}")
        offered = requester.slice_for(target_domain, session.required,
                                      self.rng)
        self._tick()
        if offered.domain_name != target_domain:
            raise PrivacyViolationError(
                f"slice for {offered.domain_name!r} leaked during a "
                f"negotiation about {target_domain!r}")
        self.slice_log.append((requester.id.uid, offered))
        session.offered_slice = offered
        self._say(f"{req_name}: returning policy "
                  f"{render_properties(offered.properties)}")

        # History phase.
        kinds = tuple(dict.fromkeys(p.kind for p in session.required))
        self._tick()
        presented, forged = requester.present_history(kinds, self.now)
        checked = cross_reference_history(presented, self.agents,
                                          requester.id)
        flagged = sum(1 for _, ok in checked if not ok)
        if flagged:
            self._say(f"{own_name}: {flagged} history record(s) could not "
                      f"be verified")
        hist_ledger = TrustLedger(history=(
            [r for r in owner.ledger.history if r.actor == requester.id]
            + [replace(r, violation=True) if not ok else r
               for r, ok in checked if r.actor == requester.id]))

        computations: dict[SecurityProperty, TrustComputation] = {}
        for prop in session.required:
            computation = self._evaluate_property(
                session, prop, owner, requester, hist_ledger)
            session.per_property_eval[prop] = computation.eval_score
            computations[prop] = computation

        outcome = decide(session, {p: c.tv for p, c in computations.items()},
                         self.config)
        self._tick()
        if outcome is Outcome.REFUSED:
            self._say(f"{own_name}: one of the property is refused: "
                      f"refusing request.")
            self._say(f"{req_name}: peer {own_name} REFUSED to send the "
                      f"file.")
        else:
            self._say(f"{own_name}: request accepted.")
            self._say(f"{req_name}: peer {own_name} accepted to send the "
                      f"file.")
            self._transfer(session, owner, requester)

        self.negotiations.append(NegotiationRecord(
            requester=requester.id.uid, owner=owner.id.uid,
            resource_name=action.resource_name, target_domain=target_domain,
            outcome=outcome, requester_behavior=requester.behavior,
            per_property=tuple(computations.items()),
            flagged_records=flagged, forged_records=forged))

    def _evaluate_property(self, session: NegotiationSession,
                           prop: SecurityProperty, owner: PeerAgent,
                           requester: PeerAgent,
                           hist_ledger: TrustLedger) -> TrustComputation:
        own_name = owner.id.name
        req_name = requester.id.name
        kind_name = prop.kind.value
        offered = session.offered_slice
        assert offered is not None

        self._say(f"(Eval) {own_name} Computation of "
                  f"Eval({req_name},{kind_name})")
        for off in sort_properties(offered.properties):
            self._say(f"(Eval) {own_name} Target domain has property "
                      f"{off.render()}")
        eval_score = eval_property(prop, offered)
        if eval_score == -1:
            self._say(f"(Eval) {own_name} the properties of {req_name}'s "
                      f"{session.target_domain_name} domain hurts the "
                      f"required property {kind_name}")
        self._say(f"(Eval) Eval({req_name},{kind_name})={eval_score}")

        hist = eval_history(hist_ledger, requester.id, prop.kind,
                            now=self.now, window=self.config.history_window)
        self._say(f"(Eval) Hist({req_name},{kind_name})={hist.render()}")

        delegates = self._delegates_for(owner, requester)
        if delegates:
            chal = run_challenges(
                delegates, requester.id, prop.kind,
                self._probe_harness(session, requester))
        else:
            chal = 0.0
            self._say(f"(Eval) {own_name} no trusted delegates for "
                      f"challenges")
        self._say(f"(Eval) Chal({kind_name},{req_name})={fmt(chal)}")

        eval_hist = eval_hist_norm(hist, eval_score)
        self._say(f"(Eval) EvalHist({kind_name},{req_name})="
                  f"{fmt(eval_hist)}")
        tv = trust_value(eval_score, eval_hist, chal, self.config)
        self._say(f"(Eval) Tv({kind_name},{req_name})={fmt(tv)}")

        verdict = band(tv, self.config)
        owner.ledger = update_reputation(owner.ledger, requester.id,
                                         verdict, self.config)
        reputation = owner.ledger.reputation(requester.id, self.config)
        if verdict is Band.REFUSED:
            self._say(f"(Eval) Peer refused ({fmt(tv)}<"
                      f"{fmt(self.config.refuse_threshold)}) for "
                      f"{kind_name} trust decreased to {fmt(reputation)}")
        elif verdict is Band.PARTIAL:
            self._say(f"(Eval) Peer not fully trusted "
                      f"({fmt(self.config.refuse_threshold)}<{fmt(tv)}<"
                      f"{fmt(self.config.full_trust_threshold)}) for "
                      f"{kind_name} trust decreased to {fmt(reputation)}")
        else:
            self._say(f"(Eval) Peer fully trusted ({fmt(tv)}>="
                      f"{fmt(self.config.full_trust_threshold)}) for "
                      f"{kind_name}")
        return TrustComputation(eval_score=eval_score, hist=hist, chal=chal,
                                eval_hist=eval_hist, tv=tv, band=verdict,
                                reputation_after=reputation)

    def _delegates_for(self, owner: PeerAgent,
                       requester: PeerAgent) -> list[tuple[PeerId, float]]:
        chosen = []
        for peer, reputation in sorted(owner.ledger.reputations.items(),
                                       key=lambda item: item[0].uid):
            if peer == requester.id or peer == owner.id:
                continue
            if reputation >= self.config.full_trust_threshold:
                chosen.append((peer, reputation))
        return chosen

    def _probe_harness(self, session: NegotiationSession,
                       requester: PeerAgent):
        offered = session.offered_slice
        assert offered is not None
        claimed_kinds = offered.kinds
        target_domain = session.target_domain_name
        resource_path = session.resource.path

        def harness(delegate: PeerId, target: PeerId,
                    kind: PropertyKind) -> list[ChallengeResult]:
            results = []
            probe_kind = next(
                (k for k in KIND_ORDER if conflicts(k, kind)), None)
            if probe_kind is not None:
                self._tick()
                accepted = requester.respond_conflicting_request(
                    target_domain, probe_kind)
                self._tick()
                expect_refusal = any(conflicts(probe_kind, c)
                                     for c in claimed_kinds)
                passed = (not accepted) == expect_refusal
                results.append(ChallengeResult(
                    delegate=delegate, target=target, property_kind=kind,
                    kind=ChallengeKind.CONFLICTING_REQUEST,
                    score=1.0 if passed else 0.0))
                if not passed:
                    self.agents[delegate.uid].ledger.history.append(
                        HistoryRecord(
                            timestamp=self.now, actor=target,
                            property_kind=kind,
                            action="accepted a conflicting transfer",
                            violation=True, counterparty=delegate))
            probe_perm = next(
                (name for name in FILE_PERMISSIONS
                 if any(p.name == name and p.cls is PermissionClass.FILE
                        for p in kind_ruleset({kind}).neverallow)),
                "read")
            stub = next(s for s, perm in PROBE_PERMISSIONS.items()
                        if perm == probe_perm)
            challenge = build_challenge(
                resource_path, CHALLENGE_SUBJECT, stub,
                kind_ruleset(claimed_kinds), object_context(target_domain))
            self._tick()
            response = requester.respond_mac_challenge(
                challenge, target_domain, probe_perm,
                timestamp=f"{self.now}.000", serial=self._next_serial())
            self._tick()
            verdict = verify_challenge(challenge, [response])
            results.append(ChallengeResult(
                delegate=delegate, target=target, property_kind=kind,
                kind=ChallengeKind.MAC_CHALLENGE,
                score=1.0 if verdict.passed else 0.0))
            if not verdict.passed:
                self.agents[delegate.uid].ledger.history.append(
                    HistoryRecord(
                        timestamp=self.now, actor=target,
                        property_kind=kind,
                        action="failed an access challenge",
                        violation=True, counterparty=delegate))
            return results

        return harness

    def _transfer(self, session: NegotiationSession, owner: PeerAgent,
                  requester: PeerAgent) -> None:
        target_domain = session.target_domain_name
        self._tick()
        policy = requester.policy
        if not policy.has_domain(target_domain):
            policy = policy.create_domain(target_domain)
        requester.apply_policy(apply_transfer(policy, session.resource,
                                              target_domain))
        self._say(f"{requester.id.name}: file {session.resource.path} "
                  f"placed in domain {target_domain}")
        for prop in session.required:
            record = HistoryRecord(
                timestamp=self.now, actor=requester.id,
                property_kind=prop.kind,
                action=f"received {session.resource.path}",
                violation=False, counterparty=owner.id)
            owner.ledger.history.append(record)
            requester.ledger.history.append(record)

    # -- reporting -------------------------------------------------------

    def _report(self) -> RunReport:
        reputations = []
        for uid, agent in self.agents.items():
            for peer, value in sorted(agent.ledger.reputations.items(),
                                      key=lambda item: item[0].uid):
                reputations.append((uid, peer.uid, value))
        total = len(self.negotiations)
        accepted = sum(1 for n in self.negotiations
                       if n.outcome is Outcome.ACCEPTED)
        liars = [n for n in self.negotiations
                 if n.requester_behavior is not BehaviorModel.HONEST]
        honest = [n for n in self.negotiations
                  if n.requester_behavior is BehaviorModel.HONEST]
        liar_refused = sum(1 for n in liars if n.outcome is Outcome.REFUSED)
        honest_refused = sum(1 for n in honest
                             if n.outcome is Outcome.REFUSED)
        forged = sum(n.forged_records for n in self.negotiations)
        flagged = sum(n.flagged_records for n in self.negotiations)
        metrics = (
            ("negotiations", float(total)),
            ("accepted", float(accepted)),
            ("acceptance_rate", accepted / total if total else 0.0),
            ("liar_negotiations", float(len(liars))),
            ("liar_detection_rate",
             liar_refused / len(liars) if liars else 0.0),
            ("honest_negotiations", float(len(honest))),
            ("false_refusal_rate",
             honest_refused / len(honest) if honest else 0.0),
            ("forged_records", float(forged)),
            ("flagged_records", float(flagged)),
        )
        return RunReport(
            seed=self.scenario.seed,
            transcript=tuple(self.transcript),
            negotiations=tuple(self.negotiations),
            final_reputations=tuple(reputations),
            metrics=metrics,
        )


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


def _domain_policy(uid: str, domain: str,
                   props: Iterable[SecurityProperty]) -> PeerPolicy:
    policy = PeerPolicy(peer_id=uid).create_domain(domain)
    for prop in props:
        policy = policy.add_property(domain, prop)
    return policy


def _experiment_scenario(params: PopulationParams, run_index: int) -> Scenario:
    rng = random.Random(f"{params.seed}:{run_index}")
    required = rng.choice(_REQUIRED_MIXES)
    peers = [PeerDecl(
        uid="owner", display_name="owner",
        policy=_domain_policy("owner", "vault", required).add_resource(
            "asset", "vault"),
        knows=tuple((f"c{i}", 0.6 + 0.1 * (i % 4))
                    for i in range(params.delegates)),
    )]
    peers.extend(PeerDecl(uid=f"c{i}", display_name="C",
                          policy=PeerPolicy(peer_id=f"c{i}"))
                 for i in range(params.delegates))
    actions: list[Action] = []

    def requester(uid: str, behavior: BehaviorModel,
                  matching: bool) -> None:
        props = required if matching else ()
        peers.append(PeerDecl(uid=uid, display_name=uid,
                              policy=_domain_policy(uid, "drop", props),
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
