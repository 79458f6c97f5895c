"""Generated-input properties for the core invariants."""

import itertools
import re
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
    PolicyDocument,
    PolicyError,
    PolicySlice,
    PropertyKind,
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
    parse_avc,
    parse_challenge,
    parse_policy,
    parse_scenario,
    property_set_conflicts,
    render_avc,
    render_challenge,
    render_contexts,
    run_scenario,
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
from p2psec.policy_xml import _q
from p2psec.simnet import (
    _ARITY,
    AskAction,
    BehaviorModel,
    EditAction,
    PeerAgent,
    PeerDecl,
    Scenario,
    ShowAction,
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


#: The whole-document invariants ``PolicyDocument`` checks after the
#: parse; every other validation fault is found during the pass.
_DOCUMENT_FAULTS = re.compile(
    r"duplicate (id|domain name|file path) |(domain name|file path) must "
    r"be non-empty$|unknown property type |.* references undeclared domain")


@EXAMPLES
@given(mutated_documents)
def test_every_fault_found_during_the_parse_has_a_line(data):
    try:
        parse_policy(data)
    except XmlValidationError as exc:
        if _DOCUMENT_FAULTS.match(str(exc)):
            assert exc.line is None
        else:
            assert exc.line is not None and 1 <= exc.line
    except XmlSyntaxError:
        pass


def _fault_rows(domains, files):
    """The documented check order, written out as (failed, message,
    element) rows: domains then files; each a tuple of entries; for a
    domain a ``DocDomain``, an int id, a new id, a str name, a non-empty
    name, properties, and a new name; for a file a ``DocFile``, an int
    id, a new id, a str path, a non-empty path, an int owner, a declared
    owner, properties, and a new path.  Properties are a tuple, and
    each is a ``DocProperty`` with a str type, a tuple of targets and a
    known type.  Rows are made lazily, so none reads past a failed
    one."""
    kinds = {kind.value for kind in PropertyKind}

    def wrong(value, cls, what, element):
        return (type(value) is not cls, f"{what} must be a {cls.__name__}, "
                f"not {type(value).__name__}", element)

    def property_rows(tag, name, properties):
        where = f"on {tag} {name!r}"
        yield wrong(properties, tuple, f"properties {where}", tag)
        for p in properties:
            yield wrong(p, DocProperty, f"property {where}", "property")
            yield wrong(p.type, str, f"property type {where}", "property")
            yield wrong(p.targets, tuple,
                        f"targets of property {p.type!r} {where}", "property")
            yield (p.type not in kinds,
                   f"unknown property type {p.type!r} {where}", "property")

    yield wrong(domains, tuple, "domains", "policy")
    for i, dom in enumerate(domains):
        earlier = domains[:i]
        yield wrong(dom, DocDomain, "domain entry", "domain")
        yield (type(dom.id) is not int,
               f"attribute id={dom.id!r} on <domain> is not an integer",
               "domain")
        yield (dom.id in [d.id for d in earlier], f"duplicate id {dom.id}",
               "domain")
        yield (type(dom.name) is not str,
               f"attribute name={dom.name!r} on <domain> is not a string",
               "domain")
        yield (dom.name == "", "domain name must be non-empty", "domain")
        yield from property_rows("domain", dom.name, dom.properties)
        yield (dom.name in [d.name for d in earlier],
               f"duplicate domain name {dom.name!r}", "domain")
    yield wrong(files, tuple, "files", "policy")
    for i, file in enumerate(files):
        earlier = files[:i]
        yield wrong(file, DocFile, "file entry", "file")
        yield (type(file.id) is not int,
               f"attribute id={file.id!r} on <file> is not an integer",
               "file")
        yield (file.id in [x.id for x in domains + earlier],
               f"duplicate id {file.id}", "file")
        yield (type(file.path) is not str,
               f"attribute path={file.path!r} on <file> is not a string",
               "file")
        yield (file.path == "", "file path must be non-empty", "file")
        yield (type(file.domainid) is not int,
               f"attribute domainid={file.domainid!r} on <file> is not an "
               f"integer", "file")
        yield (file.domainid not in [d.id for d in domains],
               f"file {file.path!r} references undeclared domain id "
               f"{file.domainid}", "file")
        yield from property_rows("file", file.path, file.properties)
        yield (file.path in [f.path for f in earlier],
               f"duplicate file path {file.path!r}", "file")


def _first_fault(domains, files):
    return next(((XmlValidationError, message, element)
                 for failed, message, element in _fault_rows(domains, files)
                 if failed), None)


# Pools so small that every document rule fires, often several at once:
# mostly tuples of the right entries, with a list, a wrong entry or a
# wrong property now and then.
_POOL_PROPERTIES = st.lists(st.sampled_from((
    *(DocProperty("integrity"), DocProperty("secrecy")) * 2,
    DocProperty("cooperation", (1,)), DocProperty("cooperation", [1]),
    DocProperty(["integrity"]), "integrity")), max_size=2).flatmap(
        lambda props: st.sampled_from((tuple(props),) * 4 + (props,)))
_POOL_IDS = st.sampled_from((1, 2, 3, "1"))
_WRONG_ENTRIES = st.sampled_from(("x", DocFile(4, "h", 1), DocDomain(4, "c")))
pool_domains = st.builds(DocDomain, _POOL_IDS,
                         st.sampled_from(("", "a", "b", 5)), _POOL_PROPERTIES)
pool_files = st.builds(DocFile, _POOL_IDS, st.sampled_from(("", "f", "g", 5)),
                       st.sampled_from((1, 2, 9, True)), _POOL_PROPERTIES)


def _pool_container(entries):
    """Up to three entries, one in ten of them wrong, in a tuple or now
    and then a list."""
    entry = st.integers(0, 9).flatmap(
        lambda i: _WRONG_ENTRIES if i == 9 else entries)
    return st.lists(entry, max_size=3).flatmap(
        lambda xs: st.sampled_from((tuple(xs),) * 7 + (xs,)))


@EXAMPLES
@given(_pool_container(pool_domains), _pool_container(pool_files))
def test_a_document_reports_its_first_fault(domains, files):
    try:
        PolicyDocument(domains, files)
    except P2PSecError as exc:
        assert (type(exc), str(exc), exc.element) == _first_fault(domains,
                                                                   files)
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
    try:
        policy = to_peer_policy(PolicyDocument(*parts))
    except XmlValidationError:
        return
    policy.validate()


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
    # The early exit on kinds that cannot clash keeps pairs and order.
    assert property_set_conflicts(a, b) == [
        (r, o) for r in sort_properties(a) for o in sort_properties(b)
        if conflicts(r.kind, o.kind) and not (r.targets or o.targets)]


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
    conflicting = [off for off in offered if conflicts(kind, off.kind)]
    assert (score == -1) == bool(conflicting)


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


@st.composite
def ask_scenarios(draw):
    owner_kinds = draw(safe_kind_sets)
    asker_kinds = draw(safe_kind_sets)
    behavior = draw(st.sampled_from(list(BehaviorModel)))
    seed = draw(st.integers(0, 2**16))
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


@EXAMPLES
@given(ask_scenarios())
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
    domain's kinds, the offered kinds and the kind alone, so the engine
    keeps them for the run under that key: two rounds with a different
    domain name, resource path and tick give the same pass/fail bools."""
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
    # parser's grammar get its parse past the first token.
    for parse in (parse_scenario, parse_avc, parse_challenge):
        try:
            parse(text)
        except P2PSecError:
            pass


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


@st.composite
def code_scenarios(draw):
    peers = tuple(
        PeerDecl(uid, uid, _CODE_POLICY,
                 draw(st.sampled_from(list(BehaviorModel))),
                 tuple((other, 0.9) for other in _UIDS
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
