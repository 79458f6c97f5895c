"""XML policy exchange format: parsing, validation, serialization."""

import gc
from dataclasses import fields, replace

import pytest

from p2psec import (
    DocDomain,
    DocFile,
    DocProperty,
    Domain,
    PeerPolicy,
    P2PSecError,
    PolicyDocument,
    PolicyValidationError,
    Resource,
    SecurityProperty,
    XmlSyntaxError,
    XmlValidationError,
    confidentiality,
    cooperation,
    from_peer_policy,
    integrity,
    parse_policy,
    serialize_policy,
    to_peer_policy,
)
from p2psec import policy_xml
from p2psec.policy_xml import _ATTRS

SAMPLE = b"""<policy>
<domain id="1" name="domainA">
<property type="confidentiality"></property>
</domain>
<file id="2" path="/root/secret.txt" domainid="1">
<property type="cooperation"><target domainid="2"/></property>
</file>
</policy>"""

CANONICAL = b"""<policy>
  <domain id="1" name="domainA">
    <property type="confidentiality"/>
  </domain>
  <file id="2" path="/root/secret.txt" domainid="1">
    <property type="cooperation">
      <target domainid="2"/>
    </property>
  </file>
</policy>
"""


def test_parse_sample_document():
    doc = parse_policy(SAMPLE)
    assert len(doc.domains) == 1
    assert doc.domains[0].name == "domainA"
    assert doc.domains[0].properties[0].type == "confidentiality"
    assert len(doc.files) == 1
    assert doc.files[0].path == "/root/secret.txt"
    assert doc.files[0].domainid == 1
    assert doc.files[0].properties[0].targets == (2,)


def test_parse_checks_each_element_once(monkeypatch):
    """The pass checks each domain and file as it closes, so the parse
    builds its result without ``PolicyDocument``'s second walk; the
    result is still one that walk accepts."""
    calls = []
    check = PolicyDocument.__post_init__
    monkeypatch.setattr(PolicyDocument, "__post_init__",
                        lambda doc: calls.append(doc) or check(doc))
    doc = parse_policy(SAMPLE)
    assert calls == []
    assert PolicyDocument(doc.domains, doc.files) == doc
    assert len(calls) == 1


def test_parse_runs_the_value_rules_alone(monkeypatch):
    """The pass builds every value of the types the type rules ask for,
    so it runs only the value rules, once per domain and file; building
    the same document in code runs both, once per domain and file."""
    calls = []

    def counted(name):
        check = getattr(policy_xml, name)
        return lambda element, *rest: (calls.append((name, element))
                                       or check(element, *rest))
    for name in ("_check_types", "_check_values"):
        monkeypatch.setattr(policy_xml, name, counted(name))
    doc = parse_policy(SAMPLE)
    elements = [*doc.domains, *doc.files]
    assert calls == [("_check_values", element) for element in elements]
    calls.clear()
    assert PolicyDocument(doc.domains, doc.files) == doc
    assert calls == [(name, element) for element in elements
                     for name in ("_check_types", "_check_values")]


def test_the_lift_runs_no_model_check(monkeypatch):
    """A parsed document already holds every rule the model checks, so
    the lift builds its properties, domains, resources and policy
    unchecked; building the same policy in code runs every check."""
    calls = []
    for cls, name in ((SecurityProperty, "__post_init__"),
                      (Domain, "__post_init__"), (Resource, "__post_init__"),
                      (PeerPolicy, "validate")):
        check = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda value, check=check: (
            calls.append(type(value)) or check(value)))
    policy = to_peer_policy(parse_policy(SAMPLE))
    assert calls == []
    assert PeerPolicy(policy.domains, policy.resources,
                      policy.next_id) == policy
    assert calls == [PeerPolicy]
    calls.clear()
    for dom in policy.domains:
        Domain(dom.id, dom.name, dom.properties)
    for res in policy.resources:
        Resource(res.id, res.path, res.domain_id, res.properties)
    assert calls == [Domain, Resource]
    calls.clear()
    props = [prop for scope in (*policy.domains, *policy.resources)
             for prop in scope.properties]
    assert [SecurityProperty(p.kind, p.targets) for p in props] == props
    assert calls == [SecurityProperty] * 2


def test_untargeted_properties_are_built_once_per_parse():
    doc = parse_policy(b"<policy><domain id='1' name='a'>"
                       b"<property type='integrity'/></domain>"
                       b"<domain id='2' name='b'>"
                       b"<property type='integrity'/></domain></policy>")
    assert doc.domains[0].properties[0] is doc.domains[1].properties[0]


def test_parse_leaves_no_reference_cycle():
    """The parser and its handlers are freed when the parse returns, not
    kept for the cyclic garbage collector."""
    gc.collect()
    gc.disable()
    try:
        parse_policy(SAMPLE)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_serialize_is_canonical():
    assert serialize_policy(parse_policy(SAMPLE)) == CANONICAL


def test_parse_serialize_identity_on_canonical():
    doc = parse_policy(CANONICAL)
    assert serialize_policy(doc) == CANONICAL


def test_empty_document():
    doc = PolicyDocument(domains=(), files=())
    data = serialize_policy(doc)
    assert data == b"<policy></policy>\n"
    assert parse_policy(data) == doc


def test_attribute_escaping_round_trip():
    policy = PeerPolicy().create_domain('we "love" <xml> & co')
    policy = policy.add_resource("a&b.txt", 'we "love" <xml> & co')
    data = serialize_policy(from_peer_policy(policy))
    again = to_peer_policy(parse_policy(data))
    assert again.has_domain('we "love" <xml> & co')
    assert again.has_resource("a&b.txt")


@pytest.mark.parametrize("bad", [
    b"<policy", # unclosed
    b"<policy><domain id='1'/></policy>", # missing name
    b"<policy><domain id='1' name='a' extra='x'/></policy>",
    b"<policy><domain id='x' name='a'/></policy>",
    b"<policy><wat/></policy>",
    b"<policy>text<domain id='1' name='a'/></policy>",
    b"<policy><domain id='1' name='a'>hm</domain></policy>",
    b"<policy><domain id='1' name='a'><property type='confidentiality'>"
    b"<target domainid='1'/>junk</property></domain></policy>",
    b"<root></root>",
    b"<policy version='2'></policy>",
])
def test_malformed_documents_rejected(bad):
    with pytest.raises((XmlSyntaxError, XmlValidationError)):
        parse_policy(bad)


def test_syntax_error_carries_position():
    with pytest.raises(XmlSyntaxError) as err:
        parse_policy(b"<policy>\n<broken\n</policy>")
    assert err.value.line is not None


def test_duplicate_ids_rejected():
    with pytest.raises(XmlValidationError):
        parse_policy(b"<policy><domain id='1' name='a'/>"
                     b"<file id='1' path='f' domainid='1'/></policy>")


def test_file_domainid_must_exist():
    with pytest.raises(XmlValidationError):
        parse_policy(b"<policy><domain id='1' name='a'/>"
                     b"<file id='2' path='f' domainid='9'/></policy>")


def test_unknown_property_type_rejected():
    with pytest.raises(XmlValidationError):
        parse_policy(b"<policy><domain id='1' name='a'>"
                     b"<property type='secrecy'/></domain></policy>")


def test_target_on_untargeted_kind_rejected():
    with pytest.raises(XmlValidationError,
                       match="integrity does not take target domains"):
        parse_policy(b"<policy><domain id='1' name='a'>"
                     b"<property type='integrity'>"
                     b"<target domainid='1'/></property></domain></policy>")


@pytest.mark.parametrize("scopes, where", [
    ("<domain id='2' name='b'>{bad}</domain>\n"
     "<domain id='3' name='c'>{bad}</domain>", "domain 'b'"),
    ("<file id='2' path='f' domainid='1'>{bad}</file>\n"
     "<file id='3' path='g' domainid='1'>{bad}</file>", "file 'f'"),
], ids=["domain", "file"])
def test_parse_names_the_first_scope_with_a_bad_property(scopes, where):
    """The parse refuses the first scope that holds a target on a kind
    that takes none, naming it, with the line of its start tag."""
    bad = "<property type='integrity'><target domainid='1'/></property>"
    data = ("<policy><domain id='1' name='a'/>\n"
            + scopes.format(bad=bad) + "</policy>")
    with pytest.raises(XmlValidationError) as err:
        parse_policy(data)
    assert (str(err.value), err.value.line) == (
        f"integrity does not take target domains on {where}", 2)


def test_to_peer_policy_resolves_local_targets():
    doc = parse_policy(
        b"<policy><domain id='1' name='a'/><domain id='2' name='b'>"
        b"<property type='cooperation'><target domainid='1'/></property>"
        b"</domain></policy>")
    policy = to_peer_policy(doc)
    assert cooperation("a") in policy.domain("b").properties


def test_to_peer_policy_keeps_external_targets_symbolic():
    policy = to_peer_policy(parse_policy(SAMPLE))
    resource = policy.find_resource("/root/secret.txt")
    assert cooperation("ext:2") in resource.properties


def test_from_peer_policy_preserves_ids_and_paths():
    policy = to_peer_policy(parse_policy(SAMPLE))
    doc = from_peer_policy(policy)
    assert [d.id for d in doc.domains] == [1]
    assert [f.id for f in doc.files] == [2]
    assert doc.files[0].properties[0].targets == (2,)


def test_full_round_trip_through_model():
    policy = PeerPolicy().create_domain("work")
    policy = policy.add_property("work", confidentiality())
    policy = policy.add_resource("report.pdf", "work", (integrity(),))
    policy = policy.create_domain("play")
    policy = policy.add_property("play", cooperation("work"))
    data = serialize_policy(from_peer_policy(policy))
    again = to_peer_policy(parse_policy(data))
    assert {d.name for d in again.domains} == {"work", "play"}
    assert again.effective_properties("report.pdf") == frozenset(
        {confidentiality(), integrity()})
    assert cooperation("work") in again.domain("play").properties
    # a second pass serializes to identical bytes
    assert serialize_policy(from_peer_policy(again)) == data


def test_duplicate_domain_names_rejected_at_model_load():
    with pytest.raises(XmlValidationError,
                       match="duplicate domain name 'a'"):
        parse_policy(b"<policy><domain id='1' name='a'/>"
                     b"<domain id='2' name='a'/></policy>")


def test_duplicate_file_paths_rejected_at_model_load():
    with pytest.raises(XmlValidationError,
                       match="duplicate file path 'f'"):
        parse_policy(b"<policy><domain id='1' name='a'/>"
                     b"<domain id='2' name='b'/>"
                     b"<file id='3' path='f' domainid='1'/>"
                     b"<file id='4' path='f' domainid='2'/></policy>")


@pytest.mark.parametrize("domains, files, message", [
    ((DocDomain(1, "a"), DocDomain(1, "b")), (), "duplicate id 1"),
    ((DocDomain(1, ""),), (), "domain name must be non-empty"),
    ((DocDomain(1, "a"), DocDomain(2, "a")), (), "duplicate domain name"),
    ((DocDomain(1, "a", (DocProperty("secrecy"),)),), (),
     "unknown property type 'secrecy'"),
    ((DocDomain(1, "a"),), (DocFile(1, "f", 1),), "duplicate id 1"),
    ((DocDomain(1, "a"),), (DocFile(2, "", 1),),
     "file path must be non-empty"),
    ((DocDomain(1, "a"),), (DocFile(2, "f", 1), DocFile(3, "f", 1)),
     "duplicate file path 'f'"),
    ((DocDomain(1, "a"),), (DocFile(2, "f", 3), DocFile(3, "g", 1)),
     "undeclared domain id 3"),
])
def test_hand_built_document_checks_itself(domains, files, message):
    with pytest.raises(XmlValidationError, match=message):
        PolicyDocument(domains=domains, files=files)


@pytest.mark.parametrize("domains, files, message", [
    ((DocDomain("x", "a"),), (),
     "attribute id='x' on <domain> is not an integer"),
    ((DocDomain(True, "a"),), (),
     "attribute id=True on <domain> is not an integer"),
    ((DocDomain(1.5, "a"),), (),
     "attribute id=1.5 on <domain> is not an integer"),
    ((DocDomain(1, "a", (DocProperty("integrity", ("x",)),)),), (),
     "attribute domainid='x' on <target> is not an integer"),
    ((DocDomain(10**5000, "a"),), (),
     "attribute id on <domain> has too many digits"),
    ((DocDomain("x", "a"), DocDomain(1, "b")), (),
     "attribute id='x' on <domain> is not an integer"),
    ((DocDomain(1, 5),), (),
     "attribute name=5 on <domain> is not a string"),
    ((DocDomain(1, "a"),), (DocFile(2, b"f", 1),),
     "attribute path=b'f' on <file> is not a string"),
    ((DocDomain(1, "a"),), (DocFile(2, "f", True),),
     "attribute domainid=True on <file> is not an integer"),
    ((DocDomain(1, "a", [DocProperty("integrity")]),), (),
     "properties on domain 'a' must be a tuple, not list"),
    ((DocDomain(1, "a", (DocProperty("cooperation", [1]),)),), (),
     "targets of property 'cooperation' on domain 'a' must be a tuple, "
     "not list"),
    ((DocDomain(1, "a", (DocProperty(["integrity"]),)),), (),
     "property type on domain 'a' must be a str, not list"),
    ((DocDomain(1, "a", ("integrity",)),), (),
     "property on domain 'a' must be a DocProperty, not str"),
    ([DocDomain(1, "a")], (), "domains must be a tuple, not list"),
    ((DocDomain(1, "a") for _ in range(1)), (),
     "domains must be a tuple, not generator"),
    ((DocDomain(1, "a"),), [DocFile(2, "f", 1)],
     "files must be a tuple, not list"),
    (("x",), (), "domain entry must be a DocDomain, not str"),
    ((DocFile(1, "f", 1),), (),
     "domain entry must be a DocDomain, not DocFile"),
    ((DocDomain(1, "a", (DocProperty("spread", (1,)),)),), (),
     "spread does not take target domains on domain 'a'"),
    ((DocDomain(1, "a"),),
     (DocFile(2, "f", 1, (DocProperty("nopublication"),)),),
     "nopublication applies to domains, not resources"),
    ((DocDomain(1, "a"),),
     (DocFile(2, "f", 1, (DocProperty("nopublication", (1,)),)),),
     "nopublication does not take target domains on file 'f'"),
], ids=["str-id", "bool-id", "float-id", "str-target", "long-id",
        "mixed-ids", "int-name", "bytes-path", "bool-owner",
        "list-properties", "list-targets", "list-type", "str-property",
        "list-domains", "generator-domains", "list-files", "str-entry",
        "file-among-domains", "untargeted-target", "nopublication-file",
        "nopublication-target"])
def test_code_built_document_holds_the_parser_value_rules(
        domains, files, message):
    """What the parser would refuse to read back, building refuses: an
    integer attribute that is not an ``int`` or that ``str`` cannot
    write, a name or path that is not a ``str``, and a container, entry
    or property of the wrong type, named by its type before anything
    reads into it; and, as the parser does, what would not lift."""
    with pytest.raises(XmlValidationError) as err:
        PolicyDocument(domains=domains, files=files)
    assert str(err.value) == message


@pytest.mark.parametrize("doc, message", [
    (PolicyDocument((DocDomain(1, "a\x01b"),)),
     "domain name 'a\\x01b' holds '\\x01', which XML 1.0 cannot carry"),
    (PolicyDocument((DocDomain(1, "a"),), (DocFile(2, "\ud800", 1),)),
     "file path '\\ud800' holds '\\ud800', which XML 1.0 cannot carry"),
    (from_peer_policy(PeerPolicy().create_domain("a\x01b")),
     "domain name 'a\\x01b' holds '\\x01', which XML 1.0 cannot carry"),
], ids=["control", "surrogate", "from-policy"])
def test_serializer_refuses_what_xml_cannot_carry(doc, message):
    with pytest.raises(XmlValidationError) as err:
        serialize_policy(doc)
    assert str(err.value) == message


def test_attrs_table_matches_the_element_fields():
    """``_ATTRS`` is what the parser checks and the serializer writes, in
    order; it must name the fields the parser builds."""
    assert [f.name for f in fields(DocDomain)] == [*_ATTRS["domain"],
                                                   "properties"]
    assert [f.name for f in fields(DocFile)] == [*_ATTRS["file"],
                                                 "properties"]


def test_from_peer_policy_rejects_a_broken_policy():
    # A policy checks itself when built, so from_peer_policy is never
    # handed one that breaks a document invariant.
    policy = PeerPolicy().create_domain("a")
    with pytest.raises(PolicyValidationError, match="duplicate domain name"):
        replace(policy, domains=policy.domains + (Domain(2, "a"),),
                next_id=3)


def test_doctype_rejected():
    with pytest.raises(XmlValidationError, match="DOCTYPE policy"):
        parse_policy(b'<!DOCTYPE policy [<!ENTITY a "x">]>'
                     b'<policy><domain id="1" name="&a;&a;"/></policy>')
    with pytest.raises(XmlValidationError):
        parse_policy(b'<!DOCTYPE policy SYSTEM "policy.dtd"><policy/>')


@pytest.mark.parametrize("data", [
    b'<?xml version="1.0" encoding="foo"?><policy/>',
    '<?xml version="1.0" encoding="foo"?><policy/>',
    '<policy><domain id="1" name="\ud800"/></policy>',
])
def test_unusable_encoding_is_a_syntax_error(data):
    with pytest.raises(XmlSyntaxError):
        parse_policy(data)


@pytest.mark.parametrize("element, attr", [
    ("<domain id='{}' name='a'/>", "id"),
    ("<domain id='1' name='a'/><file id='{}' path='f' domainid='1'/>", "id"),
    ("<domain id='1' name='a'/><file id='2' path='f' domainid='{}'/>",
     "domainid"),
    ("<domain id='1' name='a'><property type='cooperation'>"
     "<target domainid='{}'/></property></domain>", "domainid"),
], ids=["domain-id", "file-id", "file-domainid", "target-domainid"])
@pytest.mark.parametrize("raw", [" 1_0", "1_0", "٣", "01", "+1", "-0",
                                 " 7", "7\n", "9" * 5000],
                         ids=lambda raw: repr(raw)[:12])
def test_integer_attributes_are_canonical(element, attr, raw):
    """An integer attribute is written as ``str(int)`` writes it, so
    parsing and serializing a document keeps its bytes."""
    data = "<policy>" + element.format(raw) + "</policy>"
    with pytest.raises(XmlValidationError,
                       match=f"attribute {attr}=.* is not an integer"):
        parse_policy(data)


def test_negative_integer_attributes_are_accepted():
    doc = parse_policy("<policy><domain id='-3' name='a'><property "
                       "type='cooperation'><target domainid='-12'/>"
                       "</property></domain></policy>")
    assert doc.domains == (DocDomain(-3, "a", (DocProperty(
        "cooperation", (-12,)),)),)


@pytest.mark.parametrize("target", ["ext:٣", "ext:1_0", "ext:03",
                                    "ext:-0", "ext: 3", "ext:3\n", "ext:",
                                    "ext:" + "9" * 5000, "EXT:3"],
                         ids=lambda target: repr(target)[:12])
def test_external_targets_are_canonical(target):
    policy = (PeerPolicy().create_domain("a")
              .add_property("a", cooperation(target)))
    with pytest.raises(XmlValidationError, match="names no local domain"):
        from_peer_policy(policy)


@pytest.mark.parametrize("encoding", ["latin-1", "utf8", "utf-16",
                                      "ascii"])
def test_str_declaring_another_encoding_is_refused(encoding):
    text = (f'<?xml version="1.0" encoding="{encoding}"?>'
            f'<policy><domain id="1" name="é"/></policy>')
    with pytest.raises(XmlSyntaxError, match=f"encoding '{encoding}'"):
        parse_policy(text)
    with pytest.raises(XmlSyntaxError, match=f"encoding '{encoding}'"):
        parse_policy(f"﻿{text}".replace('"', "'"))


@pytest.mark.parametrize("declaration", [
    "", '<?xml version="1.0"?>', '<?xml version="1.0" encoding="UTF-8"?>',
    "<?xml version='1.0' encoding='utf-8' standalone='yes'?>"])
def test_str_in_utf8_parses(declaration):
    text = declaration + '<policy><domain id="1" name="é"/></policy>'
    assert parse_policy(text).domains == (DocDomain(1, "é"),)


V, S = XmlValidationError, XmlSyntaxError
_DOMAIN = "<domain id='1' name='a'>"
_COOP = "<property type='cooperation'>"

#: One fault per document: (id, document, error type, exact message,
#: line).  Line is the document line the parser reports the fault on:
#: for stray text the line of the markup that ends it; for a fault
#: found when a domain or file closes (a duplicate id, name or path, an
#: empty one, an unknown property type, a target on a kind that takes
#: none, ``nopublication`` on a file) or at ``</policy>`` (an
#: undeclared owner), the line of that domain's or file's start tag;
#: None only for a fault with no position.  A row whose error type is
#: None names a document that parses.
XML_ERRORS = (
    ("domain-missing-id", "<policy>\n<domain name='a'/>\n</policy>",
     V, "<domain> is missing attribute 'id'", 2),
    ("domain-missing-name", "<policy>\n<domain id='1'/>\n</policy>",
     V, "<domain> is missing attribute 'name'", 2),
    ("file-missing-id", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file path='f' domainid='1'/>\n</policy>",
     V, "<file> is missing attribute 'id'", 3),
    ("file-missing-path", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' domainid='1'/>\n</policy>",
     V, "<file> is missing attribute 'path'", 3),
    ("file-missing-domainid", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f'/>\n</policy>",
     V, "<file> is missing attribute 'domainid'", 3),
    ("property-missing-type", f"<policy>\n{_DOMAIN}\n<property/>\n"
     "</domain>\n</policy>",
     V, "<property> is missing attribute 'type'", 3),
    ("target-missing-domainid", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<target/>\n</property>\n</domain>\n</policy>",
     V, "<target> is missing attribute 'domainid'", 4),
    ("policy-unknown-attr", "<policy\nversion='2'>\n</policy>",
     V, "unknown attribute 'version' on <policy>", 1),
    ("domain-unknown-attr", "<policy>\n<domain id='1' name='a' x=''/>"
     "\n</policy>",
     V, "unknown attribute 'x' on <domain>", 2),
    ("file-unknown-attr", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='1' mode='r'/>\n</policy>",
     V, "unknown attribute 'mode' on <file>", 3),
    ("property-unknown-attr", f"<policy>\n{_DOMAIN}\n"
     "<property type='integrity' on='1'/>\n</domain>\n</policy>",
     V, "unknown attribute 'on' on <property>", 3),
    ("target-unknown-attr", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<target domainid='1' id='1'/>\n</property>\n</domain>\n</policy>",
     V, "unknown attribute 'id' on <target>", 4),
    ("namespaced-attr", "<policy>\n<domain xmlns:p='u' p:x='1' id='1' "
     "name='a'/>\n</policy>",
     V, "unknown attribute '{u}x' on <domain>", 2),
    ("domain-id-not-canonical", "<policy>\n<domain id='01' name='a'/>\n"
     "</policy>",
     V, "attribute id='01' on <domain> is not an integer", 2),
    ("file-id-not-canonical", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id=' 2' path='f' domainid='1'/>\n</policy>",
     V, "attribute id=' 2' on <file> is not an integer", 3),
    ("file-domainid-not-canonical", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='+1'/>\n</policy>",
     V, "attribute domainid='+1' on <file> is not an integer", 3),
    ("target-domainid-not-canonical", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<target domainid='1_0'/>\n</property>\n</domain>\n</policy>",
     V, "attribute domainid='1_0' on <target> is not an integer", 4),
    ("root-not-policy", "<!-- c -->\n<root>\n</root>",
     V, "root element must be <policy>, got <root>", 2),
    ("element-under-policy", "<policy>\n<wat/>\n</policy>",
     V, "unexpected element <wat> under <policy>", 2),
    ("element-under-domain", f"<policy>\n{_DOMAIN}\n"
     "<file id='2' path='f' domainid='1'/>\n</domain>\n</policy>",
     V, "unexpected element <file> under <domain>", 3),
    ("element-under-file", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='1'>\n<target domainid='1'/>\n"
     "</file>\n</policy>",
     V, "unexpected element <target> under <file>", 4),
    ("element-under-property", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<property type='spread'/>\n</property>\n</domain>\n</policy>",
     V, "unexpected element <property> under <property>", 4),
    ("element-under-target", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<target domainid='1'><junk x='y'>text<deeper/></junk></target>\n"
     "</property>\n</domain>\n</policy>",
     V, "unexpected element <junk> under <target>", 4),
    ("text-inside-policy", f"<policy>\n  text\n{_DOMAIN}</domain>\n"
     "</policy>",
     V, "unexpected text inside <policy>", 3),
    ("text-inside-domain", f"<policy>\n{_DOMAIN}\n  text\n</domain>\n"
     "</policy>",
     V, "unexpected text inside <domain>", 4),
    ("text-inside-file", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='1'>\n\ntext\n</file>\n</policy>",
     V, "unexpected text inside <file>", 6),
    ("text-inside-property", f"<policy>\n{_DOMAIN}\n"
     "<property type='integrity'>text\n\n</property>\n</domain>\n"
     "</policy>",
     V, "unexpected text inside <property>", 5),
    ("text-inside-target", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<target domainid='1'>x</target>\n</property>\n</domain>\n</policy>",
     V, "unexpected text inside <target>", 4),
    ("text-after-domain", f"<policy>\n{_DOMAIN}</domain>\n  text\n"
     "</policy>",
     V, "unexpected text after <domain>", 4),
    ("text-after-file", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='1'/>text\n</policy>",
     V, "unexpected text after <file>", 4),
    ("text-after-property", f"<policy>\n{_DOMAIN}\n"
     "<property type='integrity'/>\n<![CDATA[text]]>\n</domain>\n"
     "</policy>",
     V, "unexpected text after <property>", 5),
    ("text-after-target", f"<policy>\n{_DOMAIN}\n{_COOP}\n"
     "<target domainid='1'/>&amp;\n</property>\n</domain>\n</policy>",
     V, "unexpected text after <target>", 5),
    ("text-after-policy", "<policy>\n</policy>\ntext",
     S, "junk after document element: line 3, column 0", 3),
    ("no-break-space-is-blank", f"<policy>\u00a0\n{_DOMAIN}\u00a0"
     "<property type='integrity'>\u00a0</property>\u00a0</domain>\n"
     "</policy>",
     None, "", None),
    ("prefixed-root", "<p:policy xmlns:p='u'>\n</p:policy>",
     V, "root element must be <policy>, got <{u}policy>", 1),
    ("default-namespace-root", "<policy xmlns='x'>\n</policy>",
     V, "root element must be <policy>, got <{x}policy>", 1),
    ("doctype", "<?xml version='1.0'?>\n"
     "<!DOCTYPE policy [<!ENTITY a 'x'>]>\n<policy/>",
     V, "<!DOCTYPE policy> is not allowed in a policy document", 2),
    ("unknown-encoding", b"<?xml version='1.0' encoding='foo'?><policy/>",
     S, "unknown encoding: foo", None),
    ("unclosed-tag", f"<policy>\n{_DOMAIN}\n</policy>",
     S, "mismatched tag: line 3, column 2", 3),
    ("unclosed-token", "<policy",
     S, "unclosed token: line 1, column 0", 1),
    ("duplicate-id", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='1' path='f' domainid='1'/>\n</policy>",
     V, "duplicate id 1", 3),
    ("duplicate-name", f"<policy>\n{_DOMAIN}</domain>\n"
     "<domain id='2' name='a'/>\n</policy>",
     V, "duplicate domain name 'a'", 3),
    ("duplicate-path", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='1'/>\n"
     "<file id='3' path='f' domainid='1'/>\n</policy>",
     V, "duplicate file path 'f'", 4),
    ("undeclared-domainid", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='9'/>\n</policy>",
     V, "file 'f' references undeclared domain id 9", 3),
    ("unknown-property-type", f"<policy>\n{_DOMAIN}\n"
     "<property type='secrecy'/>\n</domain>\n</policy>",
     V, "unknown property type 'secrecy' on domain 'a'", 2),
    # The first fault in document order is reported, whichever rule
    # finds it.
    ("first-fault-in-document-order", f"<policy>\n{_DOMAIN}</domain>\n"
     "<domain id='1' name='b'/>\n<domain id='01' name='c'/>\n</policy>",
     V, "duplicate id 1", 3),
    # A file may come before the domain that owns it...
    ("file-before-its-domain", "<policy>\n"
     "<file id='2' path='f' domainid='1'/>\n<domain id='1' name='a'/>\n"
     "</policy>",
     None, "", None),
    # ...so an undeclared owner is found only at </policy>, after a
    # fault further down, and keeps its file's line.
    ("undeclared-domainid-found-at-end", "<policy>\n"
     "<file id='2' path='f' domainid='9'/>\n<domain id='1' name=''/>\n"
     "</policy>",
     V, "domain name must be non-empty", 3),
    ("empty-name", "<policy>\n<domain id='1' name=''/>\n</policy>",
     V, "domain name must be non-empty", 2),
    ("empty-path", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='' domainid='1'/>\n</policy>",
     V, "file path must be non-empty", 3),
    ("target-on-untargeted-kind", f"<policy>\n{_DOMAIN}\n"
     "<property type='integrity'>\n<target domainid='1'/>\n</property>\n"
     "</domain>\n</policy>",
     V, "integrity does not take target domains on domain 'a'", 2),
    ("nopublication-on-file", f"<policy>\n{_DOMAIN}</domain>\n"
     "<file id='2' path='f' domainid='1'>\n"
     "<property type='nopublication'/>\n</file>\n</policy>",
     V, "nopublication applies to domains, not resources", 3),
)


@pytest.mark.parametrize("data, error, message",
                         [row[1:4] for row in XML_ERRORS],
                         ids=[row[0] for row in XML_ERRORS])
def test_xml_error_messages(data, error, message):
    if error is None:
        parse_policy(data)
        return
    with pytest.raises(P2PSecError) as err:
        parse_policy(data)
    assert (type(err.value), str(err.value)) == (error, message)


@pytest.mark.parametrize("data, error, line",
                         [row[1:3] + row[4:] for row in XML_ERRORS
                          if row[2] is not None],
                         ids=[row[0] for row in XML_ERRORS
                              if row[2] is not None])
def test_xml_error_lines(data, error, line):
    with pytest.raises(error) as err:
        parse_policy(data)
    assert err.value.line == line


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("body, message", [
    ("<domain id='1'{nl}  name='b'>{nl}<property type='spread'/>{nl}"
     "</domain>", "duplicate id 1"),
    ("<file id='2'{nl}  path='f' domainid='9'>{nl}"
     "<property type='spread'/>{nl}</file>",
     "file 'f' references undeclared domain id 9"),
], ids=["at-close", "at-end"])
def test_a_checked_element_fault_has_its_start_tag_line(body, message,
                                                        newline, encoding):
    """A fault found when a domain or file closes, or at </policy>,
    carries the line its start tag begins on, whatever the line breaks
    and the encoding."""
    text = newline.join([f"<?xml version='1.0' encoding='{encoding}'?>",
                         "<policy>", "<domain id='1' name='a'/>",
                         body.format(nl=newline), "</policy>"])
    with pytest.raises(XmlValidationError) as err:
        parse_policy(text.encode(encoding))
    assert (str(err.value), err.value.line) == (message, 4)
