"""Generated-input properties for the core invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from p2psec import (
    AvcRecord,
    Band,
    Decision,
    FILE_PERMISSIONS,
    Outcome,
    PeerId,
    PeerPolicy,
    PolicyError,
    PolicySlice,
    PropertyKind,
    ResourceRequest,
    SecurityContext,
    SecurityProperty,
    TARGETED_KINDS,
    TrustConfig,
    TrustLedger,
    confidentiality,
    conflicts,
    cooperation,
    decide,
    eval_property,
    kind_ruleset,
    open_session,
    parse_avc,
    parse_policy,
    property_set_conflicts,
    render_avc,
    serialize_policy,
    to_peer_policy,
    from_peer_policy,
    trust_value,
    update_reputation,
)
from p2psec.simnet import (
    AskAction,
    BehaviorModel,
    PeerDecl,
    Scenario,
    SimulationEngine,
)

EXAMPLES = settings(max_examples=1000, deadline=None)

# Kind families with no internal conflicts; property sets drawn from a
# single family are always locally consistent.
PROHIBITION_FAMILY = (PropertyKind.CONFIDENTIALITY, PropertyKind.INTEGRITY,
                      PropertyKind.NOSHARE, PropertyKind.NOPUBLICATION)
PERMISSION_FAMILY = (PropertyKind.COOPERATION, PropertyKind.SPREAD,
                     PropertyKind.INTEGRITY, PropertyKind.NOPUBLICATION)

kinds_strategy = st.sampled_from(list(PropertyKind))

safe_kind_sets = st.one_of(
    st.frozensets(st.sampled_from(PROHIBITION_FAMILY), max_size=4),
    st.frozensets(st.sampled_from(PERMISSION_FAMILY), max_size=4),
)

name_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    min_size=1, max_size=12)


def _props(kinds):
    return tuple(SecurityProperty(kind) for kind in sorted(
        kinds, key=lambda k: k.value))


@st.composite
def generated_policies(draw):
    domain_names = draw(st.lists(name_text, min_size=1, max_size=4,
                                 unique=True))
    policy = PeerPolicy(peer_id="gen")
    for name in domain_names:
        policy = policy.create_domain(name)
    for name in domain_names:
        for kind in draw(safe_kind_sets):
            targets = frozenset()
            if kind in TARGETED_KINDS and draw(st.booleans()):
                targets = frozenset({draw(st.sampled_from(
                    domain_names + ["ext:999"]))})
            policy = policy.add_property(
                name, SecurityProperty(kind, targets))
    paths = draw(st.lists(name_text, min_size=0, max_size=3, unique=True))
    for path in paths:
        home = draw(st.sampled_from(domain_names))
        props = ((SecurityProperty(PropertyKind.INTEGRITY),)
                 if draw(st.booleans()) else ())
        policy = policy.add_resource(path, home, props)
    return policy


# Names double as domain names and resource paths, so calls collide.
# Edits are drawn from enumerated lists: far cheaper than composing
# strategies, which keeps 1000 examples to a few seconds.
_NAMES = ("d", "e", "f")
_PROPERTIES = ([SecurityProperty(kind) for kind in PropertyKind]
               + [confidentiality("partner"), cooperation("partner")])
_PROPERTY_SETS = [frozenset(combo) for size in range(3)
                  for combo in itertools.combinations(_PROPERTIES, size)]
policy_edits = st.lists(st.one_of(
    st.sampled_from([("create_domain", name) for name in _NAMES]),
    st.sampled_from([("add_property", scope, prop)
                     for scope in _NAMES for prop in _PROPERTIES]),
    st.sampled_from([("add_resource", path, domain, props)
                     for path in _NAMES for domain in _NAMES
                     for props in _PROPERTY_SETS]),
    st.sampled_from([("publish", props, path, domain)
                     for path in _NAMES for domain in _NAMES
                     for props in _PROPERTY_SETS]),
), max_size=12)


@EXAMPLES
@given(policy_edits)
def test_accepted_edits_never_leave_a_conflict(edits):
    policy = PeerPolicy(peer_id="gen")
    for method, *args in edits:
        try:
            policy = getattr(policy, method)(*args)
        except PolicyError:
            continue
    assert policy.conflict_report() == ()


def _shape(policy):
    domains = {d.name: d.properties for d in policy.domains}
    resources = {
        r.path: (policy.domain_by_id(r.domain_id).name, r.properties)
        for r in policy.resources}
    return domains, resources


@EXAMPLES
@given(generated_policies())
def test_xml_round_trip_preserves_structure(policy):
    data = serialize_policy(from_peer_policy(policy))
    again = to_peer_policy(parse_policy(data), peer_id=policy.peer_id)
    assert _shape(again) == _shape(policy)
    # canonical form is a fixed point
    assert serialize_policy(from_peer_policy(again)) == data


@EXAMPLES
@given(a=kinds_strategy, b=kinds_strategy)
def test_conflicts_symmetric(a, b):
    assert conflicts(a, b) == conflicts(b, a)
    if a is b:
        assert not conflicts(a, b)


@EXAMPLES
@given(first=st.frozensets(kinds_strategy, max_size=6),
       second=st.frozensets(kinds_strategy, max_size=6))
def test_kind_ruleset_union_compositional(first, second):
    combined = kind_ruleset(first | second)
    assert combined.neverallow == (kind_ruleset(first).neverallow
                                   | kind_ruleset(second).neverallow)


@EXAMPLES
@given(eval_score=st.sampled_from([-1, 0, 1]),
       eval_hist=st.floats(0, 1),
       low=st.floats(0, 1), high=st.floats(0, 1))
def test_trust_value_monotone_in_chal(eval_score, eval_hist, low, high):
    config = TrustConfig()
    if low > high:
        low, high = high, low
    assert trust_value(eval_score, eval_hist, low, config) <= \
        trust_value(eval_score, eval_hist, high, config)
    assert 0.0 <= trust_value(eval_score, eval_hist, high, config) <= 1.0


@EXAMPLES
@given(eval_score=st.sampled_from([-1, 0, 1]),
       chal=st.floats(0, 1),
       low=st.floats(0, 1), high=st.floats(0, 1))
def test_trust_value_monotone_in_eval_hist(eval_score, chal, low, high):
    config = TrustConfig()
    if low > high:
        low, high = high, low
    assert trust_value(eval_score, low, chal, config) <= \
        trust_value(eval_score, high, chal, config)


OWNER = PeerId("o")
ASKER = PeerId("r")


def _session():
    policy = PeerPolicy(peer_id="o").create_domain("src")
    policy = policy.add_property(
        "src", SecurityProperty(PropertyKind.CONFIDENTIALITY))
    policy = policy.add_property(
        "src", SecurityProperty(PropertyKind.INTEGRITY))
    policy = policy.add_resource("res", "src")
    request = ResourceRequest(requester=ASKER, resource_name="res",
                              target_domain_name="dst")
    return open_session(policy, OWNER, request)


@EXAMPLES
@given(base=st.lists(st.floats(0, 1), min_size=2, max_size=2),
       bumps=st.lists(st.floats(0, 1), min_size=2, max_size=2))
def test_decide_monotone_in_trust(base, bumps):
    config = TrustConfig()
    session = _session()
    lower = dict(zip(session.required, base))
    higher = {prop: min(1.0, value + bump) for (prop, value), bump
              in zip(lower.items(), bumps)}
    if decide(session, lower, config) is Outcome.ACCEPTED:
        assert decide(session, higher, config) is Outcome.ACCEPTED


@EXAMPLES
@given(initial=st.floats(0, 1),
       bands=st.lists(st.sampled_from(list(Band)), max_size=80))
def test_reputation_stays_clamped(initial, bands):
    config = TrustConfig()
    peer = PeerId("p")
    ledger = TrustLedger(reputations={peer: initial})
    for verdict in bands:
        ledger = update_reputation(ledger, peer, verdict, config)
        assert 0.0 <= ledger.reputation(peer, config) <= 1.0


@st.composite
def claimed_properties(draw):
    props = set()
    for kind in draw(st.frozensets(kinds_strategy, max_size=4)):
        targets = frozenset()
        if kind in TARGETED_KINDS and draw(st.booleans()):
            targets = frozenset(draw(st.lists(name_text, min_size=1,
                                              max_size=2)))
        props.add(SecurityProperty(kind, targets))
    return frozenset(props)


@EXAMPLES
@given(kind=kinds_strategy, offered=claimed_properties())
def test_eval_conflict_agrees_with_kind_matrix(kind, offered):
    required = SecurityProperty(kind)
    score = eval_property(required, PolicySlice("dst", offered))
    pairs = property_set_conflicts((required,), offered,
                                   scoped_exception=False)
    assert (score == -1) == bool(pairs)


ctx_part = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_",
                   min_size=1, max_size=10)
token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-",
                min_size=1, max_size=12)

avc_records = st.builds(
    AvcRecord,
    timestamp=st.from_regex(r"[0-9]{1,10}\.[0-9]{3}", fullmatch=True),
    serial=st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    decision=st.sampled_from(list(Decision)),
    permissions=st.frozensets(st.sampled_from(FILE_PERMISSIONS),
                              min_size=1, max_size=4),
    pid=st.integers(1, 4194304),
    comm=token,
    name=token,
    dev=token,
    ino=st.integers(1, 2**32),
    scontext=st.builds(SecurityContext, ctx_part, ctx_part, ctx_part),
    tcontext=st.builds(SecurityContext, ctx_part, ctx_part, ctx_part),
    tclass=st.sampled_from(["file", "dir"]),
)


@EXAMPLES
@given(avc_records)
def test_avc_render_parse_identity(record):
    assert parse_avc(render_avc(record)) == record


@st.composite
def ask_scenarios(draw):
    owner_kinds = draw(safe_kind_sets)
    asker_kinds = draw(safe_kind_sets)
    behavior = draw(st.sampled_from(list(BehaviorModel)))
    seed = draw(st.integers(0, 2**16))
    owner = PeerPolicy(peer_id="o").create_domain("src")
    for prop in _props(owner_kinds):
        owner = owner.add_property("src", prop)
    asker = PeerPolicy(peer_id="r").create_domain("dst")
    for prop in _props(asker_kinds):
        asker = asker.add_property("dst", prop)
    peers = (
        PeerDecl(uid="o", display_name="O",
                 policy=owner.add_resource("res", "src"),
                 knows=(("c0", 0.8),)),
        PeerDecl(uid="c0", display_name="C", policy=PeerPolicy(peer_id="c0")),
        PeerDecl(uid="r", display_name="R", policy=asker, behavior=behavior),
    )
    return Scenario(seed=seed, peers=peers,
                    actions=(AskAction("r", "o", "res", "dst"),))


@EXAMPLES
@given(ask_scenarios())
def test_no_slice_beyond_negotiated_domain(scenario):
    engine = SimulationEngine(scenario)
    report = engine.run()
    # every transmitted slice names exactly the negotiated domain
    assert engine.slice_log
    assert all(offered.domain_name == "dst"
               for _, offered in engine.slice_log)
    assert report.negotiations[0].outcome in (Outcome.ACCEPTED,
                                              Outcome.REFUSED)
