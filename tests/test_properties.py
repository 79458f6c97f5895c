"""Generated-input properties for the core invariants."""

import itertools
import random
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from xml.sax.saxutils import quoteattr

from hypothesis import given, settings, strategies as st

from p2psec import (
    AvcParseError,
    AvcRecord,
    Band,
    Challenge,
    ChallengeError,
    DIR_PERMISSIONS,
    Decision,
    DocDomain,
    DocFile,
    DocProperty,
    Domain,
    FILE_PERMISSIONS,
    HistoryRecord,
    HistoryScore,
    KIND_NEVERALLOW,
    KIND_ORDER,
    MacRuleSet,
    Outcome,
    P2PSecError,
    PeerPolicy,
    Permission,
    PermissionClass,
    PolicyBuilder,
    PolicyDocument,
    PolicyError,
    PolicySlice,
    PropertyKind,
    Resource,
    ScenarioError,
    SecurityContext,
    SecurityProperty,
    TARGETED_KINDS,
    TrustComputation,
    TrustConfig,
    TrustLedger,
    compile_policy,
    confidentiality,
    conflicts,
    cooperation,
    decide,
    emit_rules,
    eval_property,
    kind_ruleset,
    object_context,
    parse_avc,
    parse_challenge,
    parse_policy,
    parse_scenario,
    property_set_conflicts,
    render_avc,
    render_challenge,
    render_contexts,
    run_scenario,
    sanitize_label,
    serialize_policy,
    sort_properties,
    synthetic_policy,
    to_peer_policy,
    from_peer_policy,
    trust_value,
    update_reputation,
    XmlSyntaxError,
    XmlValidationError,
)
from p2psec.mac import PROBE_PERMISSIONS, build_challenge
from p2psec.policy import _kinds_clash
from p2psec.policy_xml import _q
from p2psec.simnet import (
    CHALLENGE_SUBJECT,
    _ARITY,
    _BARE_DROP,
    _EMPTY_POLICY,
    _REQUIRED_MIXES,
    _domain_policy,
    _experiment_scenario,
    AskAction,
    BehaviorModel,
    BehaviorStats,
    EditAction,
    ExperimentReport,
    PeerAgent,
    PeerDecl,
    PopulationParams,
    Scenario,
    ShowAction,
    SimulationEngine,
    detection_experiment,
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
    policy = PeerPolicy()
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
    policy = PeerPolicy()
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
    again = to_peer_policy(parse_policy(data))
    assert _shape(again) == _shape(policy)
    # canonical form is a fixed point
    assert serialize_policy(from_peer_policy(again)) == data


@EXAMPLES
@given(st.text("ab&<>\"'\n\r\t \u00e9]") | st.text())
def test_attribute_quoting_is_quoteattr(text):
    """``policy_xml`` quotes attributes itself, so as not to import
    ``xml.sax``; the output is the standard library's."""
    assert _q(text) == quoteattr(text)


_SAMPLE_DOMAINS = (
    DocDomain(1, "a", (DocProperty("confidentiality", (2, 9)),
                       DocProperty("integrity"))),
    DocDomain(2, "b&<c>", (DocProperty("spread"),)),
)
_SAMPLE_FILES = (
    DocFile(3, "f", 1),
    DocFile(4, "/srv/g", 2, (DocProperty("cooperation", (1,)),)),
)
_CANONICAL_DOCS = (
    serialize_policy(PolicyDocument(_SAMPLE_DOMAINS)),
    serialize_policy(PolicyDocument(_SAMPLE_DOMAINS, _SAMPLE_FILES)),
)

# Fragments that reach the checks past well-formedness: targets on any
# kind, nopublication on a file, repeated ids, names and paths, DOCTYPE,
# entities, encodings and characters outside ASCII.
_FRAGMENTS = (b"", b"<", b">", b"/", b'"', b"=", b"&", b";", b" ", b"1",
              b"-", b"x", b"\xff", b"\xc3\xa9", b'id="1"', b'name="a"',
              b'path="f"', b'domainid="2"', b'<target domainid="1"/>',
              b'<property type="nopublication"/>',
              b'<property type="integrity"><target domainid="1"/>'
              b'</property>',
              b'<domain id="7" name="a"/>',
              b'<file id="8" path="f" domainid="1"/>',
              b"<!DOCTYPE policy>", b"&amp;", b"&#0;", b"&#x110000;",
              b'<?xml version="1.0" encoding="foo"?>',
              b'<?xml version="1.0" encoding="utf-16"?>', b"<!-- c -->")
# A canonical document with data[at:at + cut] replaced by a fragment:
# an insertion when ``cut`` is 0, a deletion when the fragment is empty.
mutated_documents = st.builds(
    lambda data, at, cut, fragment: data[:at] + fragment + data[at + cut:],
    st.sampled_from(_CANONICAL_DOCS), st.integers(0, 400),
    st.integers(0, 16), st.sampled_from(_FRAGMENTS))


@EXAMPLES
@given(st.one_of(st.binary(max_size=200), mutated_documents))
def test_only_package_errors_escape_the_compile_path(data):
    try:
        emit_rules(compile_policy(to_peer_policy(parse_policy(data))))
    except P2PSecError:
        pass


@EXAMPLES
@given(mutated_documents)
def test_every_fault_found_during_the_parse_has_a_line(data):
    try:
        parse_policy(data)
    except XmlValidationError as exc:
        assert exc.line is not None and 1 <= exc.line
    except XmlSyntaxError:
        pass


@EXAMPLES
@given(mutated_documents)
def test_a_parsed_document_passes_the_full_check(data):
    """The parse builds its result without ``PolicyDocument``'s check,
    so it must never accept a document that check would refuse."""
    try:
        doc = parse_policy(data)
    except P2PSecError:
        return
    assert PolicyDocument(doc.domains, doc.files) == doc


def _fault_rows(domains, files):
    """The documented check order, written out as (failed, message)
    rows: domains then files; each a tuple of entries; and each entry's
    type rules before its value rules.  The type rules: for a domain a
    ``DocDomain``, an int id, a str name; for a file a ``DocFile``, an
    int id, a str path, an int owner; then a tuple of properties, each
    a ``DocProperty`` with a str type and a tuple of int targets; every
    int one that ``str`` can write.  The value rules: a new id, a
    non-empty name or path, for a file a declared owner, each
    property's known type, targets only if its kind takes them, not
    ``nopublication`` on a file, and a new name or path.  Rows are made
    lazily, so none reads past a failed one."""
    kinds = {kind.value for kind in PropertyKind}
    targeted = {kind.value for kind in TARGETED_KINDS}

    def wrong(value, cls, what):
        return (type(value) is not cls, f"{what} must be a {cls.__name__}, "
                f"not {type(value).__name__}")

    def integer(value, attr, tag):
        # An int that str cannot write has no message that shows it.
        if type(value) is not int:
            yield True, (f"attribute {attr}={value!r} on <{tag}> is not an "
                         f"integer")
        try:
            str(value)
        except ValueError:
            yield True, f"attribute {attr} on <{tag}> has too many digits"

    def type_rows(tag, key, element):
        yield from integer(element.id, "id", tag)
        name = getattr(element, key)
        yield (type(name) is not str,
               f"attribute {key}={name!r} on <{tag}> is not a string")
        if tag == "file":
            yield from integer(element.domainid, "domainid", tag)
        where = f"on {tag} {name!r}"
        yield wrong(element.properties, tuple, f"properties {where}")
        for p in element.properties:
            yield wrong(p, DocProperty, f"property {where}")
            yield wrong(p.type, str, f"property type {where}")
            yield wrong(p.targets, tuple,
                        f"targets of property {p.type!r} {where}")
            for target in p.targets:
                yield from integer(target, "domainid", "target")

    def value_rows(tag, key, element, earlier, ids):
        name = getattr(element, key)
        yield (element.id in ids, f"duplicate id {element.id}")
        yield (name == "", f"{tag} {key} must be non-empty")
        if tag == "file":
            yield (element.domainid not in [d.id for d in domains],
                   f"file {name!r} references undeclared domain id "
                   f"{element.domainid}")
        where = f"on {tag} {name!r}"
        for p in element.properties:
            yield (p.type not in kinds, f"unknown property type {p.type!r} "
                   f"{where}")
            yield (bool(p.targets) and p.type not in targeted,
                   f"{p.type} does not take target domains {where}")
            yield (tag == "file" and p.type == "nopublication",
                   "nopublication applies to domains, not resources")
        yield (name in [getattr(e, key) for e in earlier],
               f"duplicate {tag} {key} {name!r}")

    for name, tag, key, cls, elements in (
            ("domains", "domain", "name", DocDomain, domains),
            ("files", "file", "path", DocFile, files)):
        yield wrong(elements, tuple, name)
        for i, element in enumerate(elements):
            earlier = elements[:i]
            ids = [e.id for e in (domains if tag == "file" else ())
                   + earlier]
            yield wrong(element, cls, f"{tag} entry")
            yield from type_rows(tag, key, element)
            yield from value_rows(tag, key, element, earlier, ids)


def _first_fault(domains, files):
    return next(((XmlValidationError, message)
                 for failed, message in _fault_rows(domains, files)
                 if failed), None)


#: An int that ``str`` cannot write.
_TOO_LONG = 10 ** 5000

# Pools so small that every document rule fires, often several at once:
# mostly tuples of the right entries, with a list, a wrong entry or a
# wrong property now and then.
_POOL_PROPERTIES = st.lists(st.sampled_from((
    DocProperty("integrity"), DocProperty("secrecy"),
    DocProperty("cooperation", (1,)), DocProperty("cooperation", [1]),
    DocProperty("cooperation", ("1",)), DocProperty("spread", (_TOO_LONG,)),
    DocProperty("integrity", (1,)), DocProperty("nopublication"),
    DocProperty(["integrity"]), "integrity")), max_size=2).flatmap(
        lambda props: st.sampled_from((tuple(props),) * 4 + (props,)))
_POOL_IDS = st.sampled_from((1, 2, 3, "1"))
_WRONG_ENTRIES = st.sampled_from(("x", DocFile(4, "h", 1), DocDomain(4, "c")))
pool_domains = st.builds(DocDomain, _POOL_IDS,
                         st.sampled_from(("", "a", "b", 5)), _POOL_PROPERTIES)
pool_files = st.builds(DocFile, st.sampled_from((2, 3, 4, "1")),
                       st.sampled_from(("", "f", "g", 5)),
                       st.sampled_from((1, 2, 9, True)), _POOL_PROPERTIES)


def _pool_container(entries):
    """Up to three entries, one in ten of them wrong, in a tuple or now
    and then a list."""
    entry = st.integers(0, 9).flatmap(
        lambda i: _WRONG_ENTRIES if i == 9 else entries)
    return st.lists(entry, max_size=3).flatmap(
        lambda xs: st.sampled_from((tuple(xs),) * 7 + (xs,)))


def _value_properties(*props):
    """A tuple of up to two of ``props``."""
    return st.lists(st.sampled_from(props), max_size=2).map(tuple)


#: Domains and files of sound types whose values may break a rule: a
#: repeated id, an empty or repeated name or path, an undeclared owner,
#: an unknown type, a target on a kind that takes none, or
#: ``nopublication`` on a file.  File ids count up from 3 or 2, so two
#: files never share one, and a repeated file is a repeated path.
_VALUE_DOMAINS = st.lists(st.builds(
    DocDomain, st.sampled_from((1, 2, 3)), st.sampled_from(("a", "b", "")),
    _value_properties(
        DocProperty("integrity"), DocProperty("secrecy"),
        DocProperty("cooperation", (9,)), DocProperty("integrity", (1,)))),
    max_size=3).map(tuple)
_VALUE_FILES = st.tuples(st.sampled_from((3, 3, 2)), st.lists(st.tuples(
    st.sampled_from(("f", "g", "f", "")), st.sampled_from((1, 2, 1, 9)),
    _value_properties(
        DocProperty("nopublication"), DocProperty("integrity"),
        DocProperty("cooperation", (1,)), DocProperty("secrecy"),
        DocProperty("integrity", (1,)))), max_size=3)).map(
    lambda drawn: tuple(DocFile(drawn[0] + i, *row)
                        for i, row in enumerate(drawn[1])))
_SOUND_DOMAINS = (DocDomain(1, "a"),
                  DocDomain(2, "b", (DocProperty("nopublication"),)))

#: Documents of four sorts: two draws in five, domains and files from
#: the pools; else sound domains with files from the pool, or domains,
#: sound or of sound types, with files of sound types, so that each
#: value rule, down to the last one, is reached often.
_POOL_DOCUMENTS = st.integers(0, 4).flatmap(lambda i: (
    st.tuples(_pool_container(pool_domains), _pool_container(pool_files)),
    st.tuples(_pool_container(pool_domains), _pool_container(pool_files)),
    st.tuples(st.just(_SOUND_DOMAINS), _pool_container(pool_files)),
    st.tuples(_VALUE_DOMAINS, _VALUE_FILES),
    st.tuples(st.just(_SOUND_DOMAINS), _VALUE_FILES))[i])


@EXAMPLES
@given(_POOL_DOCUMENTS)
def test_a_document_reports_its_first_fault(document):
    domains, files = document
    try:
        PolicyDocument(domains, files)
    except P2PSecError as exc:
        assert (type(exc), str(exc)) == _first_fault(domains, files)
    else:
        assert _first_fault(domains, files) is None


# Property lists of up to two entries, drawn whole: one draw apiece
# keeps 1000 examples cheap.  Targets are local (1) or undeclared
# (-1, 9); one entry puts a target on a kind that takes none.
_DOC_PROPERTIES = ([DocProperty(kind.value) for kind in PropertyKind]
                   + [DocProperty(kind.value, targets)
                      for kind in sorted(TARGETED_KINDS, key=KIND_ORDER.index)
                      for targets in ((1,), (-1, 9))]
                   + [DocProperty("integrity", (1,))])
_PROPERTY_LISTS = [combo for size in range(3)
                   for combo in itertools.combinations(_DOC_PROPERTIES, size)]


# A file is a path, the index of its owner among the declared domains
# (an index past them names an undeclared one) and its properties.
_DOC_FILE_SPECS = list(itertools.product(
    ("f", "g", "/h", "/i"), range(4), _PROPERTY_LISTS))


@st.composite
def documents(draw):
    """Unique ids; file paths may repeat and owners may be undeclared."""
    first = draw(st.integers(-2, 2))
    ndomains = draw(st.integers(1, 3))
    nfiles = draw(st.integers(0, 3))
    domain_ids = list(range(first, first + ndomains))
    domains = tuple(
        DocDomain(id, f"d{id}", draw(st.sampled_from(_PROPERTY_LISTS)))
        for id in domain_ids)
    owners = domain_ids + [9] * (4 - ndomains)
    files = []
    for id in range(first + ndomains, first + ndomains + nfiles):
        path, owner, props = draw(st.sampled_from(_DOC_FILE_SPECS))
        files.append(DocFile(id, path, owners[owner], props))
    return domains, tuple(files)


@EXAMPLES
@given(documents())
def test_every_document_that_lifts_is_a_valid_policy(parts):
    """Every document that builds lifts, without checks, to the policy
    the checked constructors build from the same values: equal fields,
    index dicts and domain kinds, the lifted policy's index built on its
    first read; and that policy is valid."""
    try:
        doc = PolicyDocument(*parts)
    except XmlValidationError:
        return
    names = {dom.id: dom.name for dom in doc.domains}

    def lifted(properties):
        return {SecurityProperty(PropertyKind(prop.type),
                                 {names.get(t, f"ext:{t}")
                                  for t in prop.targets})
                for prop in properties}

    rebuilt = PeerPolicy(
        domains=tuple(Domain(dom.id, dom.name, lifted(dom.properties))
                      for dom in doc.domains),
        resources=tuple(Resource(file.id, file.path, file.domainid,
                                 lifted(file.properties))
                        for file in doc.files),
        next_id=max((element.id for element in doc.domains + doc.files),
                    default=0) + 1)
    policy = to_peer_policy(doc)
    assert policy == rebuilt
    assert vars(policy._index) == vars(rebuilt._index)
    assert ([dom.kinds for dom in policy.domains]
            == [dom.kinds for dom in rebuilt.domains])
    policy.validate()


@EXAMPLES
@given(st.text())
def test_an_object_context_is_the_checked_context(name):
    """``object_context`` builds unchecked what the checked constructor
    builds, and its rendering is one token."""
    context = object_context(name)
    assert context == SecurityContext("system_u", "object_r",
                                      sanitize_label(name))
    assert context.render().split() == [context.render()]


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


def _checked(value):
    """``value`` built again by its checked constructor from its fields."""
    return type(value)(**{f.name: getattr(value, f.name)
                          for f in fields(value) if f.init})


@EXAMPLES
@given(policy_edits)
def test_builder_steps_build_the_checked_values(edits):
    """A builder step builds its ``Domain`` or ``Resource`` unchecked;
    after every step the checked constructors accept each value's fields
    and give an equal value, with equal kinds."""
    builder = PolicyBuilder()
    for method, *args in edits:
        try:
            getattr(builder, method)(*args)
        except PolicyError:
            continue
        policy = builder.freeze()
        for dom in policy.domains:
            checked = _checked(dom)
            assert checked == dom and checked.kinds == dom.kinds
        for res in policy.resources:
            assert _checked(res) == res


ctx_part = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_",
                   min_size=1, max_size=10)
contexts = st.builds(SecurityContext, ctx_part, ctx_part, ctx_part)
probe_stubs = st.sampled_from(sorted(PROBE_PERMISSIONS))


@EXAMPLES
@given(path=st.text(), subject=contexts, stub=probe_stubs,
       kinds=st.frozensets(kinds_strategy), tcontext=contexts)
def test_a_built_challenge_is_the_checked_challenge(path, subject, stub,
                                                    kinds, tcontext):
    """``build_challenge`` builds unchecked what the checked constructor
    builds from the same fields, which ``parse_challenge`` reads back
    whenever ``render_challenge`` can write the path."""
    challenge = build_challenge(path, subject, stub, kind_ruleset(kinds),
                                tcontext)
    assert _checked(challenge) == challenge
    if path and path == path.strip() and path.splitlines() == [path]:
        assert parse_challenge(render_challenge(challenge)) == challenge


@EXAMPLES
@given(behavior=st.sampled_from(list(BehaviorModel)),
       domain_kinds=st.none() | safe_kind_sets, domain=name_text,
       path=st.text(st.characters(blacklist_characters='"')),
       stub=probe_stubs, offered_kinds=st.frozensets(kinds_strategy),
       tick=st.integers(0, 10**30))
def test_a_probe_response_is_the_checked_record(behavior, domain_kinds,
                                                domain, path, stub,
                                                offered_kinds, tick):
    """A requester builds its probe response unchecked; the checked
    constructor accepts the same fields and gives an equal record, and
    ``parse_avc`` reads its rendering back."""
    policy = PeerPolicy()
    if domain_kinds is not None:
        policy = PeerPolicy((Domain(1, domain, _props(domain_kinds)),), (), 2)
    challenge = build_challenge(path, CHALLENGE_SUBJECT, stub,
                                kind_ruleset(offered_kinds),
                                object_context(domain))
    record = PeerAgent("r", policy, behavior).respond_mac_challenge(
        challenge, domain, tick)
    assert _checked(record) == record
    assert parse_avc(render_avc(record)) == record


ENFORCING = (BehaviorModel.HONEST, BehaviorModel.LOG_FORGER)


def _agent(behavior, props, held):
    """A requester whose domain ``dst`` holds ``props``, or which holds
    no ``dst`` unless ``held``."""
    domains = (Domain(1, "dst", props),) if held else ()
    return PeerAgent("r", PeerPolicy(domains, (), 2), behavior)


@EXAMPLES
@given(behavior=st.sampled_from(list(BehaviorModel)),
       props=claimed_properties(), held=st.booleans(),
       required=claimed_properties(), seed=st.integers(0, 2**16))
def test_an_offered_slice_is_the_checked_slice(behavior, props, held,
                                               required, seed):
    """An enforcing requester builds its slice unchecked from its
    ``Domain``; every slice equals the checked one built from its domain
    name and properties, with equal kinds."""
    offered = _agent(behavior, props, held).slice_for(
        "dst", sort_properties(required), random.Random(seed))
    checked = _checked(offered)
    assert checked == offered and checked.kinds == offered.kinds


@EXAMPLES
@given(behavior=st.sampled_from(ENFORCING), props=claimed_properties(),
       held=st.booleans(), required=claimed_properties(),
       seed=st.integers(0, 2**16))
def test_an_enforcing_peer_offers_exactly_its_domains_kinds(
        behavior, props, held, required, seed):
    """The invariant that keeps the target domain's kinds out of the
    engine's verdict key: an honest peer or a log forger offers its
    domain's properties, and so exactly its kinds."""
    agent = _agent(behavior, props, held)
    offered = agent.slice_for("dst", sort_properties(required),
                              random.Random(seed))
    assert offered.properties == agent._domain("dst").properties
    assert offered.kinds == agent._domain("dst").kinds


@EXAMPLES
@given(domains=st.integers(0, 60), per_domain=st.integers(0, 3))
def test_synthetic_policies_are_valid(domains, per_domain):
    synthetic_policy(domains, per_domain).validate()


def _reference_projection(policy):
    """Rules text, context text and per-path rulesets, projected file by
    file straight from ``KIND_NEVERALLOW``."""
    vocabularies = ((PermissionClass.FILE, FILE_PERMISSIONS),
                    (PermissionClass.DIR, DIR_PERMISSIONS))

    def neverallow(props):
        return frozenset().union(*(KIND_NEVERALLOW[p.kind] for p in props))

    def stanza(name, denied):
        lines = [f"{name}:"]
        lines += [f"allow {cls.value} {{{' '.join(vocab)}}}"
                  for cls, vocab in vocabularies]
        for cls, vocab in vocabularies:
            names = [n for n in vocab if Permission(cls, n) in denied]
            if names:
                lines.append(f"neverallow {cls.value} {{{' '.join(names)}}}")
        return "\n".join(lines)

    owners = {dom.id: dom for dom in policy.domains}
    stanzas = [stanza(dom.name, neverallow(dom.properties))
               for dom in policy.domains]
    contexts = []
    rules = {}
    for res in policy.resources:
        dom = owners[res.domain_id]
        denied = neverallow(dom.properties | res.properties)
        rules[res.path] = MacRuleSet(neverallow=denied)
        if denied != neverallow(dom.properties):
            stanzas.append(stanza(res.path, denied))
        label = "".join(c if c.isascii() and c.isalnum() else "_"
                        for c in dom.name)
        contexts.append(f"{res.path} system_u:object_r:{label}_t\n")
    return "\n\n".join(stanzas) + "\n", "".join(contexts), rules


@EXAMPLES
@given(generated_policies())
def test_compile_matches_per_file_reference_projection(policy):
    compiled = compile_policy(policy)
    rules, contexts, resource_rules = _reference_projection(policy)
    assert emit_rules(compiled) == rules
    assert render_contexts(compiled) == contexts
    assert list(compiled.resource_rules.items()) == list(
        resource_rules.items())


@EXAMPLES
@given(a=kinds_strategy, b=kinds_strategy)
def test_conflicts_symmetric(a, b):
    assert conflicts(a, b) == conflicts(b, a)
    if a is b:
        assert not conflicts(a, b)


# Every kind bare, and each targeted kind with one or two partners.
property_sets = st.frozensets(st.sampled_from(
    [SecurityProperty(kind) for kind in PropertyKind]
    + [SecurityProperty(kind, targets) for kind in TARGETED_KINDS
       for targets in ({"p"}, {"q"}, {"p", "q"})]), max_size=5)


@EXAMPLES
@given(a=property_sets, b=property_sets)
def test_property_set_conflicts_is_the_all_pairs_reference(a, b):
    assert property_set_conflicts(a, b) == [
        (r, o) for r in sort_properties(a) for o in sort_properties(b)
        if conflicts(r.kind, o.kind) and not (r.targets or o.targets)]


@EXAMPLES
@given(a=property_sets, b=property_sets)
def test_the_builder_kind_test_finds_what_the_reference_pairs(a, b):
    """The builder refuses through one kind test where the all-pairs
    reference lists a pair: between new and present properties, and,
    as ``add_resource`` asks, among the new ones too."""
    assert _kinds_clash(a, (b,)) == bool(property_set_conflicts(a, b))
    assert _kinds_clash(a, (b, a)) == bool(
        property_set_conflicts(a, b) + property_set_conflicts(a, a))


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


def _computation(tv):
    return TrustComputation(eval_score=0, hist=HistoryScore.NO_DATA,
                            chal=0.0, eval_hist=0.5, tv=tv, band=Band.FULL,
                            reputation_after=0.5)


@EXAMPLES
@given(base=st.lists(st.floats(0, 1), min_size=2, max_size=2),
       bumps=st.lists(st.floats(0, 1), min_size=2, max_size=2))
def test_decide_monotone_in_trust(base, bumps):
    config = TrustConfig()
    lower = [_computation(value) for value in base]
    higher = [_computation(min(1.0, value + bump))
              for value, bump in zip(base, bumps)]
    if decide(lower, config) is Outcome.ACCEPTED:
        assert decide(higher, config) is Outcome.ACCEPTED


@EXAMPLES
@given(initial=st.floats(0, 1),
       bands=st.lists(st.sampled_from(list(Band)), max_size=80))
def test_reputation_stays_clamped(initial, bands):
    config = TrustConfig()
    peer = "p"
    ledger = TrustLedger(reputations={peer: initial})
    for verdict in bands:
        value = update_reputation(ledger, peer, verdict, config)
        assert 0.0 <= value <= 1.0
        assert ledger.reputation(peer, config) == value


LEDGER_ACTORS = ["a", "b", "c"]
history_records = st.builds(
    HistoryRecord, timestamp=st.integers(0, 5),
    actor=st.sampled_from(LEDGER_ACTORS), property_kind=kinds_strategy,
    violation=st.booleans(),
    counterparty=st.sampled_from([None, *LEDGER_ACTORS]))


@EXAMPLES
@given(records=st.lists(history_records, max_size=30),
       queries=st.lists(st.tuples(st.sampled_from(LEDGER_ACTORS + ["d"]),
                                  st.integers(0, 5), kinds_strategy),
                        max_size=10))
def test_ledger_lookups_agree_with_a_scan_of_a_plain_list(records, queries):
    ledger = TrustLedger()
    for record in records:
        ledger.record(record)
    for actor in LEDGER_ACTORS + ["d"]:
        assert ledger.records_by(actor) == tuple(
            r for r in records if r.actor == actor)
    keys = [(r.actor, r.timestamp, r.property_kind) for r in records]
    for key in queries + keys:
        assert ledger.has_record(*key) == (key in keys)
    # Equality covers the records.
    same, fewer = TrustLedger(), TrustLedger()
    for record in records:
        same.record(record)
    for record in records[:-1]:
        fewer.record(record)
    assert same == ledger
    assert (fewer == ledger) == (not records)


@EXAMPLES
@given(kind=kinds_strategy, offered=claimed_properties())
def test_eval_conflict_agrees_with_kind_matrix(kind, offered):
    required = SecurityProperty(kind)
    score = eval_property(required, PolicySlice("dst", offered))
    conflicting = [off for off in offered if conflicts(kind, off.kind)]
    assert (score == -1) == bool(conflicting)


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
    scontext=contexts,
    tcontext=contexts,
    tclass=st.sampled_from(["file", "dir"]),
)


@EXAMPLES
@given(avc_records)
def test_avc_render_parse_identity(record):
    assert parse_avc(render_avc(record)) == record


_CONTEXTS = (SecurityContext("user_u", "user_r", "user_t"),
             SecurityContext("system_u", "object_r", "a_t"))
_NUMBERS = ((0, 4001), (-1, True, 2.0, "5", 10**5000))
_WORDS = (("file", 'a"b'), ("", "a b", "\n", 7))
#: Field -> (valid values, invalid values) for an ``AvcRecord`` built in
#: code.  ``name`` is unchecked, so it takes valid values only.
_AVC_FIELDS = {
    "timestamp": (("1.0", "12.345"),
                  ("...", "1", "1.2.3", ".5", "\u0661.\u0662", 1.5)),
    "serial": (("7", "0042"), ("x", "-1", "", "\u0663", 7)),
    "decision": (tuple(Decision), ()),
    "permissions": ((frozenset({"read"}), frozenset({"write", "x_y", 'q"'})),
                    (frozenset(), frozenset({"read", ""}),
                     frozenset({"a b"}), frozenset({"{"}),
                     frozenset({"}", "read"}), frozenset({"a\tb"}),
                     frozenset({5}))),
    "pid": _NUMBERS,
    "comm": (("vim", "", "a b", "x'y"), ('a"b', 5)),
    "name": (("f", "my file", ""), ()),
    "dev": _WORDS,
    "ino": _NUMBERS,
    "scontext": (_CONTEXTS, ()),
    "tcontext": (_CONTEXTS, ()),
    "tclass": _WORDS,
}
#: The same for a ``Challenge``; ``target_path`` is unchecked.
_CHALLENGE_FIELDS = {
    "scontext": (_CONTEXTS, ()),
    "stub": (("vim", "x-y", "wget", 'a"b'), ("", "a b", " vim", "\t", 3)),
    "target_path": (("f", "/a/b c", "dir/f"), ()),
    "expected": (tuple(Decision), ()),
    "expected_permissions": (
        (frozenset(), frozenset({"read"}), frozenset({"write", "create"})),
        (frozenset({"reed"}), frozenset({"read", ""}),
         frozenset({"search"}), frozenset({1}))),
    "expected_tcontext": (_CONTEXTS, ()),
}


@st.composite
def field_values(draw, table):
    """Keyword arguments of valid values from ``table``, up to two of
    them replaced by an invalid value."""
    values = {name: draw(st.sampled_from(valid))
              for name, (valid, _) in table.items()}
    breakable = [name for name, (_, invalid) in table.items() if invalid]
    for name in draw(st.sets(st.sampled_from(breakable), max_size=2)):
        values[name] = draw(st.sampled_from(table[name][1]))
    return values


#: Text drawn from what an AVC line's grammar turns on: digits, the
#: dot, quotes, whitespace, braces and the field separators.
avc_texts = st.text(alphabet=' \t\n0123456789."{}:=()ab\u0661',
                    max_size=8)


@st.composite
def unchecked_avc_fields(draw):
    """Fields for ``AvcRecord.unchecked``: each text field from
    ``_AVC_FIELDS`` or ``avc_texts``, the numbers also from a range
    that holds negatives, and a ``name`` free of ``"``."""
    values = draw(field_values(_AVC_FIELDS))
    for label in ("timestamp", "serial", "comm", "dev", "tclass"):
        values[label] = draw(st.one_of(st.just(values[label]), avc_texts))
    for label in ("pid", "ino"):
        values[label] = draw(st.one_of(st.just(values[label]),
                                       st.integers(-3, 10**6)))
    values["permissions"] = draw(st.one_of(
        st.just(values["permissions"]),
        st.frozensets(st.one_of(st.sampled_from(FILE_PERMISSIONS),
                                avc_texts), max_size=3)))
    values["name"] = draw(st.one_of(st.just(values["name"]),
                                    avc_texts.filter(lambda t: '"' not in t)))
    return values


@EXAMPLES
@given(unchecked_avc_fields())
def test_an_unchecked_avc_record_round_trips_exactly_when_checked_builds_it(
        avc_fields):
    """``parse_avc`` builds its records unchecked, on the strength of
    its line steps, so the steps and ``AvcRecord``'s rules must agree:
    a record whose ``name`` holds no ``"`` renders to a line that parses
    back to it exactly when building it checked succeeds."""
    record = AvcRecord.unchecked(**avc_fields)
    try:
        AvcRecord(**avc_fields)
    except AvcParseError:
        accepted = False
    else:
        accepted = True
    try:
        round_trips = parse_avc(render_avc(record)) == record
    except (AvcParseError, TypeError, ValueError):
        # A field ``render_avc`` cannot write, or a line it refuses.
        round_trips = False
    assert round_trips == accepted, avc_fields


@EXAMPLES
@given(field_values(_AVC_FIELDS), field_values(_CHALLENGE_FIELDS))
def test_a_code_built_avc_record_or_challenge_is_refused_or_round_trips(
        avc_fields, challenge_fields):
    """What a record or challenge built in code holds, its parser reads
    back from its rendering, or building it is refused."""
    try:
        record = AvcRecord(**avc_fields)
    except AvcParseError:
        pass
    else:
        assert parse_avc(render_avc(record)) == record
    try:
        challenge = Challenge(**challenge_fields)
    except ChallengeError:
        pass
    else:
        assert parse_challenge(render_challenge(challenge)) == challenge


_DOC_IDS = ((1, -3), ("1", True, 1.5, 10**5000, -10**5000, None))
_DOC_TEXTS = (("a", "a b", "q\"'&<>", "\t\n\r", "\u00e9\U0001f600"),
              ("", "a\x01b", "\ud800", "\ufffe", 5, b"a", None))
_DOC_PROPERTY_LISTS = (
    ((), (DocProperty("integrity"),), (DocProperty("cooperation", (1, -2)),)),
    ((DocProperty("secrecy"),), (DocProperty("cooperation", ("1",)),),
     (DocProperty("cooperation", (False,)),),
     (DocProperty("confidentiality", (10**5000,)),),
     [DocProperty("integrity")], (DocProperty(["integrity"]),),
     (DocProperty("cooperation", [1]),), ("integrity",)))
#: Field -> (valid values, invalid values) for a ``DocDomain`` and a
#: ``DocFile`` built in code; a valid file owner may still name no
#: declared domain.
_DOC_DOMAIN_FIELDS = {"id": _DOC_IDS, "name": _DOC_TEXTS,
                      "properties": _DOC_PROPERTY_LISTS}
_DOC_FILE_FIELDS = {"id": ((2, 0), _DOC_IDS[1]), "path": _DOC_TEXTS,
                    "domainid": _DOC_IDS, "properties": _DOC_PROPERTY_LISTS}


@EXAMPLES
@given(field_values(_DOC_DOMAIN_FIELDS), field_values(_DOC_FILE_FIELDS))
def test_a_code_built_document_is_refused_or_round_trips(domain_fields,
                                                         file_fields):
    """A document built in code is refused when built, or refused by the
    serializer, or its parser reads its serialization back as it is."""
    try:
        doc = PolicyDocument((DocDomain(**domain_fields),),
                             (DocFile(**file_fields),))
        data = serialize_policy(doc)
    except XmlValidationError:
        return
    assert parse_policy(data) == doc


def ask_scenario(owner_kinds, asker_kinds, behavior, seed):
    """One ask by a requester with ``behavior`` into a domain of
    ``asker_kinds``, for a resource the owner holds under
    ``owner_kinds``, with one delegate."""
    owner = PeerPolicy().create_domain("src")
    for prop in _props(owner_kinds):
        owner = owner.add_property("src", prop)
    asker = PeerPolicy().create_domain("dst")
    for prop in _props(asker_kinds):
        asker = asker.add_property("dst", prop)
    peers = (
        PeerDecl(uid="o", display_name="O",
                 policy=owner.add_resource("res", "src"),
                 knows=(("c0", 0.8),)),
        PeerDecl(uid="c0", display_name="C", policy=PeerPolicy()),
        PeerDecl(uid="r", display_name="R", policy=asker, behavior=behavior),
    )
    return Scenario(seed=seed, peers=peers,
                    actions=(AskAction("r", "o", "res", "dst"),))


ask_scenarios = st.builds(ask_scenario, safe_kind_sets, safe_kind_sets,
                          st.sampled_from(list(BehaviorModel)),
                          st.integers(0, 2**16))


@EXAMPLES
@given(ask_scenarios)
def test_no_slice_beyond_negotiated_domain(scenario):
    engine = SimulationEngine(scenario)
    slices = []
    for agent in engine.agents.values():
        def slice_for(*args, _original=agent.slice_for, _uid=agent.uid):
            offered = _original(*args)
            slices.append((_uid, offered))
            return offered
        agent.slice_for = slice_for
    report = engine.run()
    # every transmitted slice names exactly the negotiated domain
    assert slices
    assert all(offered.domain_name == "dst" for _, offered in slices)
    assert report.negotiations[0].outcome in (Outcome.ACCEPTED,
                                              Outcome.REFUSED)


@EXAMPLES
@given(behavior=st.sampled_from(list(BehaviorModel)),
       domain_kinds=safe_kind_sets,
       offered_kinds=st.frozensets(kinds_strategy, max_size=4),
       kind=kinds_strategy,
       stamps=st.lists(st.tuples(name_text, st.text(), st.integers(0, 10**9)),
                       min_size=2, max_size=2))
def test_a_challenge_round_reads_nothing_outside_its_key(
        behavior, domain_kinds, offered_kinds, kind, stamps):
    """A round's verdicts depend on the requester's behaviour, its target
    domain's kinds, the offered kinds and the kind alone: two rounds with
    a different domain name, resource path and tick give the same
    pass/fail bools.  The engine's key, (enforces, offered kinds, kind),
    leaves the domain's kinds out, which
    ``test_an_enforcing_peer_offers_exactly_its_domains_kinds`` and
    ``test_a_liars_round_reads_no_domain`` show sound, and keeps of the
    behaviour only whether it enforces, which
    ``test_every_verdict_key_has_one_verdict`` shows sound."""
    verdicts = []
    for domain_name, path, tick in stamps:
        policy = PeerPolicy().create_domain(domain_name)
        for prop in _props(domain_kinds):
            policy = policy.add_property(domain_name, prop)
        engine = SimulationEngine(Scenario())
        engine.now = tick
        verdicts.append(engine._probe_round(
            path, PolicySlice(domain_name, frozenset(_props(offered_kinds))),
            PeerAgent("r", policy, behavior), kind))
    assert verdicts[0] == verdicts[1]


@EXAMPLES
@given(behavior=st.sampled_from([model for model in BehaviorModel
                                 if model not in ENFORCING]),
       domain_kinds=st.lists(st.none() | safe_kind_sets, min_size=2,
                             max_size=2),
       offered_kinds=st.frozensets(kinds_strategy, max_size=4),
       kind=kinds_strategy)
def test_a_liars_round_reads_no_domain(behavior, domain_kinds,
                                       offered_kinds, kind):
    """A requester that enforces nothing gives the same verdicts whatever
    kinds its target domain holds, or if it holds no such domain."""
    offered = PolicySlice("dst", frozenset(_props(offered_kinds)))
    verdicts = [SimulationEngine(Scenario())._probe_round(
        "res", offered, _agent(behavior, _props(kinds or ()),
                               kinds is not None), kind)
        for kinds in domain_kinds]
    assert verdicts[0] == verdicts[1]


population_counts = st.integers(0, 2)


@EXAMPLES
@given(params=st.builds(PopulationParams, seed=st.integers(0, 10**6),
                        delegates=st.integers(1, 4),
                        honest_requesters=population_counts,
                        blind_liars=population_counts,
                        informed_liars=population_counts,
                        log_forgers=population_counts),
       runs=st.integers(1, 6))
def test_sharing_verdicts_across_runs_changes_no_outcome(params, runs):
    """An experiment's runs share one verdict table; each run, and the
    tally over them, is what runs with a fresh table each give."""
    tally = Counter()
    forged = flagged = 0
    shared = {}
    for index in range(runs):
        scenario = _experiment_scenario(params, index, {})
        report = run_scenario(scenario)
        assert run_scenario(scenario, shared) == report
        for record in report.negotiations:
            tally[record.requester_behavior, record.outcome] += 1
            forged += record.forged_records
            flagged += record.flagged_records
    stats = {model: BehaviorStats(accepted=tally[model, Outcome.ACCEPTED],
                                  refused=tally[model, Outcome.REFUSED])
             for model in BehaviorModel}
    assert detection_experiment(params, runs) == ExperimentReport(
        runs=runs, stats=stats, forged_records=forged,
        flagged_records=flagged)


@EXAMPLES
@given(owner_kinds=safe_kind_sets, asker_kinds=safe_kind_sets,
       echo=st.booleans(),
       behaviors=st.lists(st.sampled_from(list(BehaviorModel)),
                          min_size=2, max_size=4),
       seed=st.integers(0, 2**16))
def test_a_shared_verdict_table_changes_no_run(owner_kinds, asker_kinds,
                                               echo, behaviors, seed):
    """Runs that share one verdict table each give the report they give
    with a fresh table.  The runs differ only in the requester's
    behaviour, so only ``enforces`` in the key tells their questions
    apart; with ``echo`` the requester's domain holds the required
    kinds, so an honest peer and an informed liar make the same offer."""
    shared = {}
    for behavior in behaviors:
        scenario = ask_scenario(owner_kinds,
                                owner_kinds if echo else asker_kinds,
                                behavior, seed)
        assert run_scenario(scenario, shared) == run_scenario(scenario)


def test_each_mix_shares_the_policies_a_fresh_build_gives():
    for mix in _REQUIRED_MIXES:
        assert mix.owner == _domain_policy("vault", mix.required, "asset")
        assert mix.matching_drop == _domain_policy("drop", mix.required)
    assert _BARE_DROP == _domain_policy("drop", ())
    assert _EMPTY_POLICY == PeerPolicy()


# ---------------------------------------------------------------------------
# Only package errors escape the text parsers
# ---------------------------------------------------------------------------

def mutated(canonical, fragments):
    """``canonical`` texts with text[at:at + cut] replaced by a fragment:
    edits that keep most of a valid input, so the parse gets past its
    first token."""
    return st.builds(
        lambda text, at, cut, fragment: text[:at] + fragment + text[at + cut:],
        st.sampled_from(canonical), st.integers(0, 600), st.integers(0, 12),
        st.sampled_from(fragments))


def soup(tokens):
    """Tokens drawn from ``tokens`` and joined by spaces and newlines."""
    return st.lists(st.sampled_from((*tokens, " ", " ", "\n")),
                    max_size=40).map("".join)


_UIDS = ("a", "b", "c")
_SCENARIO_TOKENS = (
    *_ARITY, *_UIDS, *_NAMES, *(k.value for k in PropertyKind),
    "0", "1", "0.5", "-1", "7.5", "1e9", "nan", "inf", "1_0", "\u0667",
    "name=", "name=A", "behavior=", "behavior=saint",
    *(f"behavior={b.value}" for b in BehaviorModel),
    "refuse_threshold", "full_trust_threshold", "history_window",
    "strict_conflicts", "true", "#", "=", "\u00e9", "\t")
_AVC_LINE = render_avc(AvcRecord(
    timestamp="1229395253.757", serial="369", decision=Decision.DENIED,
    permissions=frozenset({"read", "write"}), pid=4241, comm="vim",
    name="secret.txt", dev="sda3", ino=179226,
    scontext=SecurityContext("user_u", "user_r", "user_t"),
    tcontext=SecurityContext("system_u", "object_r", "a_t"), tclass="file"))
_AVC_TOKENS = ("audit(", "1.000:1):", "avc:", "denied", "granted", "{", "}",
               "read", "for", "pid=1", 'comm="x"', 'name="f"', "dev=d",
               "ino=9", "scontext=a:b:c", "tcontext=a:b", "tclass=file",
               "pid=99999999999999999999", "\u0661", ":", '"', "=")
_CHALLENGE_FILE = render_challenge(parse_challenge(
    "scontext=user_u:user_r:user_t vim /root/my secret.txt\n"
    "expect=denied\npermissions=read,write\n"
    "tcontext=system_u:object_r:a_t\n"))
_CHALLENGE_TOKENS = ("scontext=a:b:c", "scontext=", "vim", "f", "expect=",
                     "expect=denied", "expect=granted", "permissions=",
                     "permissions=read", "tcontext=a:b:c", "tcontext=a:b",
                     "other=x", "=", ":", "expect=denied\nexpect=granted",
                     "permissions=read,,")
_SCENARIO_FILES = [p.read_text() for p in sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))]
parser_texts = st.one_of(
    st.text(max_size=100),
    soup(_SCENARIO_TOKENS),
    mutated(_SCENARIO_FILES, ("", "\n", "#", *_SCENARIO_TOKENS)),
    soup(_AVC_TOKENS),
    mutated([_AVC_LINE], ("", " ", *_AVC_TOKENS)),
    soup(_CHALLENGE_TOKENS),
    mutated([_CHALLENGE_FILE], ("", " ", "\n", *_CHALLENGE_TOKENS)))


@EXAMPLES
@given(parser_texts)
def test_only_package_errors_escape_the_text_parsers(text):
    # Each text goes to every parser; the strategies aimed at one
    # parser's grammar get its parse past the first token.  A parser
    # checks each value once and builds its result unchecked, so what
    # it accepts must pass the result's full check.
    for parse in (parse_scenario, parse_avc, parse_challenge):
        try:
            value = parse(text)
        except P2PSecError:
            continue
        assert replace(value) == value


# ---------------------------------------------------------------------------
# Reputations stay in [0, 1] over whole runs
# ---------------------------------------------------------------------------

_KINDS = tuple(k.value for k in PropertyKind)
_SCOPES = (*_NAMES, *(f"r{d}" for d in _NAMES))
_STATEMENTS = (
    [f"knows {x} {y} {t}" for x in _UIDS for y in _UIDS
     for t in ("0", "0.55", "0.9", "1")]
    + [f"property {x} {s} {k}" for x in _UIDS for s in _SCOPES
       for k in _KINDS]
    + [f"ask {x} {y} r{d} {t}" for x in _UIDS for y in _UIDS
       for d in _NAMES for t in (*_NAMES, "new")]
    + [f"publish {x} p{d} {d} {k}" for x in _UIDS for d in _NAMES
       for k in _KINDS]
    + [f"add-property {x} {s} {k}" for x in _UIDS for s in _SCOPES
       for k in _KINDS]
    + [f"{verb} {x} {d}" for verb in ("create-domain", "delete-domain")
       for x in _UIDS for d in (*_NAMES, "new")]
    + [f"config {key} {value}" for key, value in (
        ("refuse_threshold", "0.1"), ("refuse_threshold", "0.4"),
        ("full_trust_threshold", "0.45"), ("refuse_decrement", "0.3"),
        ("partial_decrement", "2"), ("initial_reputation", "0"),
        ("initial_reputation", "1"), ("history_window", "0"))])


#: Three peers of every mix of behaviours, each holding domains d, e
#: and f with one file apiece.
_PRELUDES = [
    [*(f"peer {uid} behavior={b.value}" for uid, b in zip(_UIDS, mix)),
     *(f"{stmt} {uid} {args}" for uid in _UIDS for d in _NAMES
       for stmt, args in (("domain", d), ("resource", f"r{d} {d}")))]
    for mix in itertools.product(BehaviorModel, repeat=len(_UIDS))]


def _parse_keeping_what_parses(lines):
    """The scenario of ``lines`` less each statement the parser refuses."""
    while True:
        try:
            return parse_scenario("\n".join(lines))
        except P2PSecError as exc:
            del lines[exc.line - 1]


runnable_scenarios = st.builds(
    lambda prelude, statements: _parse_keeping_what_parses(
        prelude + statements),
    st.sampled_from(_PRELUDES),
    st.lists(st.sampled_from(_STATEMENTS), max_size=20))


@EXAMPLES
@given(runnable_scenarios)
def test_reputations_stay_in_unit_interval_over_a_run(scenario):
    report = run_scenario(scenario)
    assert all(0.0 <= value <= 1.0
               for _, _, value in report.final_reputations)


@EXAMPLES
@given(runnable_scenarios)
def test_a_parsed_scenario_passes_the_full_check(scenario):
    """Each statement meets the roster on its line and the parse builds
    its ``Scenario`` unchecked, so it must never accept a scenario the
    full check refuses: drawn statements include a peer asking or
    knowing itself and a repeated ``knows``."""
    assert replace(scenario) == scenario


# ---------------------------------------------------------------------------
# A scenario built in code is refused at once or runs to the end
# ---------------------------------------------------------------------------

_INTEGRITY = SecurityProperty(PropertyKind.INTEGRITY)
_NOPUBLICATION = SecurityProperty(PropertyKind.NOPUBLICATION)
#: File ``rd`` in domain ``d``, which requires integrity, and a domain
#: ``e`` that forbids publication.
_CODE_POLICY = (PeerPolicy().create_domain("d").add_property("d", _INTEGRITY)
                .add_resource("rd", "d").create_domain("e")
                .add_property("e", _NOPUBLICATION))
#: Edit arguments: names, the empty name, a bare kind string, properties,
#: and property tuples with a bare kind or nopublication among them.
_EDIT_ARGS = ("d", "e", "rd", "", "integrity", _INTEGRITY, _NOPUBLICATION,
              (), (_INTEGRITY,), (_NOPUBLICATION,), ("integrity",))
_SPREAD = SecurityProperty(PropertyKind.SPREAD)
code_actions = st.lists(st.one_of(
    st.sampled_from([AskAction(x, y, r, t) for x in _UIDS for y in _UIDS
                     for r in ("rd", "x") for t in ("d", "e", "new", "")]),
    st.sampled_from([ShowAction(x) for x in (*_UIDS, "ghost")]),
    # Edits whose arguments have the method's shape, so that some run...
    st.sampled_from(
        [EditAction(x, "publish", (props, path, dom)) for x in _UIDS
         for props in ((), (_SPREAD,), (_NOPUBLICATION,))
         for path in ("rd", "p", "") for dom in ("d", "e", "new")]
        + [EditAction(x, "add_property", (scope, prop)) for x in _UIDS
           for scope in ("d", "e", "rd", "x")
           for prop in (_INTEGRITY, _SPREAD, _NOPUBLICATION)]
        + [EditAction(x, method, (name,)) for x in _UIDS
           for method in ("create_domain", "delete_domain")
           for name in ("d", "e", "new", "")]),
    # ...and edits of any method with any arguments.
    st.builds(lambda peer, method, args: EditAction(peer, method,
                                                    tuple(args)),
              st.sampled_from(_UIDS),
              st.sampled_from(("publish", "add_property", "create_domain",
                               "delete_domain", "rename")),
              st.lists(st.sampled_from(_EDIT_ARGS), max_size=3))),
    max_size=6)


#: Trusts a peer may hold: in range, or an int too long to write.
_CODE_TRUSTS = st.sampled_from((0.9, 0.9, 0.9, 10**5000))


@st.composite
def code_scenarios(draw):
    peers = tuple(
        PeerDecl(uid, uid, _CODE_POLICY,
                 draw(st.sampled_from(list(BehaviorModel))),
                 tuple((other, draw(_CODE_TRUSTS)) for other in _UIDS
                       if other != uid and draw(st.booleans())))
        for uid in _UIDS)
    return peers, tuple(draw(code_actions))


@EXAMPLES
@given(code_scenarios())
def test_a_code_built_scenario_is_refused_or_runs(parts):
    peers, actions = parts
    try:
        scenario = Scenario(peers=peers, actions=actions)
    except ScenarioError:
        return
    run_scenario(scenario)
