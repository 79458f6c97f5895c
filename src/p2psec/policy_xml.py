"""XML interchange format for peer policies.

The wire dialect is a single ``<policy>`` element holding ``<domain>``
and ``<file>`` entries; properties nest as ``<property type="...">``
with optional ``<target domainid="..."/>`` children.  Serialization is
canonical (two-space indent, each element's attributes in the order
``_ATTRS`` lists them, UTF-8) so that ``parse(serialize(doc))``
reproduces the document exactly.

Property targets may reference ids that are not declared in the same
document; they become symbolic ``ext:<id>`` domain references when a
document is lifted into a :class:`~p2psec.policy.PeerPolicy`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from xml.parsers import expat

from .errors import PolicyValidationError, XmlSyntaxError, XmlValidationError
from .policy import (
    Domain,
    PeerPolicy,
    PropertyKind,
    Resource,
    SecurityProperty,
    sort_properties,
)

#: Each property type name's kind.
_KINDS = {kind.value: kind for kind in PropertyKind}

#: The encoding an XML declaration at the start of a document names.
_DECLARED_ENCODING = re.compile(
    r"\ufeff?<\?xml\s[^>]*?\bencoding\s*=\s*[\"']([^\"']*)[\"']")


def _canonical_int(text: str) -> int | None:
    """``text`` as an integer when it is written as ``str(int)`` writes
    it, so that a parse followed by a serialize keeps the bytes; else
    None.  ``int`` alone would also read spaces, ``_`` separators, a
    ``+``, leading zeros and non-ASCII digits."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


@dataclass(frozen=True)
class DocProperty:
    type: str
    targets: tuple[int, ...] = ()


@dataclass(frozen=True)
class DocDomain:
    id: int
    name: str
    properties: tuple[DocProperty, ...] = ()


@dataclass(frozen=True)
class DocFile:
    id: int
    path: str
    domainid: int
    properties: tuple[DocProperty, ...] = ()


@dataclass(frozen=True)
class PolicyDocument:
    """A policy document; building one checks every schema invariant
    (tuples of ``DocDomain``, ``DocFile`` and ``DocProperty`` values,
    ``int`` ids, owners and targets that ``str`` can write, unique ids,
    ``str`` names and paths that are unique and non-empty, declared file
    owners, known ``str`` property types), so code given one trusts it.
    The check is one pass, domains then files, and reports the first
    fault it meets."""

    domains: tuple[DocDomain, ...] = ()
    files: tuple[DocFile, ...] = ()

    def __post_init__(self):
        ids: set[int] = set()
        domain_ids: frozenset[int] = frozenset()
        for tag, key, cls, elements in (
                ("domain", "name", DocDomain, self.domains),
                ("file", "path", DocFile, self.files)):
            if type(elements) is not tuple:
                _refuse_type(elements, tuple, f"{tag}s", "policy")
            keys: set[str] = set()
            for element in elements:
                if type(element) is not cls:
                    _refuse_type(element, cls, f"{tag} entry", tag)
                _check_integer(element.id, "id", tag)
                if element.id in ids:
                    raise XmlValidationError(f"duplicate id {element.id}",
                                             element=tag)
                ids.add(element.id)
                value = getattr(element, key)
                if type(value) is not str:
                    raise XmlValidationError(
                        f"attribute {key}={value!r} on <{tag}> is not a "
                        f"string", element=tag)
                if not value:
                    raise XmlValidationError(f"{tag} {key} must be non-empty",
                                             element=tag)
                if tag == "file":
                    _check_integer(element.domainid, "domainid", tag)
                    if element.domainid not in domain_ids:
                        raise XmlValidationError(
                            f"file {value!r} references undeclared domain "
                            f"id {element.domainid}", element=tag)
                if type(element.properties) is not tuple:
                    _refuse_type(element.properties, tuple,
                                 f"properties on {tag} {value!r}", tag)
                for prop in element.properties:
                    if (type(prop) is not DocProperty
                            or type(prop.type) is not str
                            or type(prop.targets) is not tuple
                            or prop.type not in _KINDS):
                        _refuse_property(prop, f"on {tag} {value!r}")
                    for target in prop.targets:
                        _check_integer(target, "domainid", "target")
                if value in keys:
                    raise XmlValidationError(
                        f"duplicate {tag} {key} {value!r}", element=tag)
                keys.add(value)
            domain_ids = frozenset(ids)


def _refuse_type(value: object, cls: type, what: str, tag: str) -> None:
    """Refuse ``value``, which is not a ``cls``, naming its type."""
    raise XmlValidationError(f"{what} must be a {cls.__name__}, not "
                             f"{type(value).__name__}", element=tag)


def _refuse_property(prop: object, where: str) -> None:
    """Refuse a property entry for the first rule it breaks: a
    ``DocProperty`` whose ``str`` type is known and whose targets are a
    tuple; ``where`` names its domain or file."""
    if type(prop) is not DocProperty:
        _refuse_type(prop, DocProperty, f"property {where}", "property")
    if type(prop.type) is not str:
        _refuse_type(prop.type, str, f"property type {where}", "property")
    if type(prop.targets) is not tuple:
        _refuse_type(prop.targets, tuple,
                     f"targets of property {prop.type!r} {where}", "property")
    raise XmlValidationError(f"unknown property type {prop.type!r} {where}",
                             element="property")


def _check_integer(value: object, attr: str, tag: str) -> None:
    """Refuse an integer attribute the parser would not read back: a
    value that is not an ``int`` (a ``bool`` is not) or one that ``str``
    cannot write.  ``str`` refuses an int over its digit limit, which is
    never below 640 digits, so only a long int needs the costly test;
    its ``repr`` would raise too, so the message leaves it out."""
    if type(value) is not int:
        raise XmlValidationError(
            f"attribute {attr}={value!r} on <{tag}> is not an integer",
            element=tag)
    if value.bit_length() > 2048:
        try:
            str(value)
        except ValueError:
            raise XmlValidationError(
                f"attribute {attr} on <{tag}> has too many digits",
                element=tag) from None


def _where(scope: DocDomain | DocFile) -> str:
    """How a message names a domain or a file."""
    return (f"domain {scope.name!r}" if isinstance(scope, DocDomain)
            else f"file {scope.path!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_policy(data: bytes | str) -> PolicyDocument:
    """Parse a policy document in one pass; the result is valid.

    A ``str`` is parsed as UTF-8 and may declare no other encoding.
    Raises XmlSyntaxError (with position when the parser gives one) on
    malformed markup, an unknown or unusable encoding, a ``str`` that
    declares an encoding other than UTF-8 or cannot be encoded as UTF-8,
    and XmlValidationError naming the offending element otherwise, a
    DOCTYPE declaration included.  A fault the pass finds comes first:
    the first in document order is reported, with its line (stray text
    on the line of the markup that ends it).  Only a document the pass
    accepts reaches :class:`PolicyDocument`'s check, whose faults
    (duplicate ids, names and paths, undeclared file owners, unknown
    property types, empty names and paths) carry no line, so such a
    fault is reported only when the pass finds none, wherever it sits.
    """
    if isinstance(data, str):
        declared = _DECLARED_ENCODING.match(data)
        if declared and declared.group(1).upper() != "UTF-8":
            raise XmlSyntaxError(f"a str policy is UTF-8 and cannot declare "
                                 f"encoding {declared.group(1)!r}")
    # The parser ElementTree.XMLParser makes: a "}" namespace separator
    # and text handed over in runs, not piecemeal.
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    domains: list[DocDomain] = []
    files: list[DocFile] = []
    _install_handlers(parser, domains, files)
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise XmlSyntaxError(str(exc), line=exc.lineno) from exc
    except (ValueError, LookupError) as exc:
        raise XmlSyntaxError(str(exc)) from exc
    finally:
        # The handlers close over the parser: unhooking them frees both
        # now instead of at the next cyclic garbage collection.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.StartDoctypeDeclHandler = None
    return PolicyDocument(domains=tuple(domains), files=tuple(files))


#: The elements each depth may hold: the root, what ``<policy>`` holds,
#: and so on down; nothing may open below a ``<target>``.
_NESTING = (("policy",), ("domain", "file"), ("property",), ("target",), ())

#: The attributes each element takes, in the order a missing one is
#: reported and the serializer writes them.
_ATTRS = {
    "policy": (),
    "domain": ("id", "name"),
    "file": ("id", "path", "domainid"),
    "property": ("type",),
    "target": ("domainid",),
}
#: Both as one lookup: per depth, each element it may hold and its
#: attributes as a set, the one compare a well-formed element pays.
_OPENS = tuple({tag: frozenset(_ATTRS[tag]) for tag in tags}
               for tags in _NESTING)


def _universal(name: str) -> str:
    """A namespaced name in ElementTree's ``{uri}local`` form."""
    return "{" + name if "}" in name else name


def _install_handlers(parser, domains: list[DocDomain],
                      files: list[DocFile]) -> None:
    """Install the expat handlers of one parse, which append to
    ``domains`` and ``files`` as it goes.  An element is checked
    against ``_NESTING`` and ``_ATTRS`` when it opens and its ``Doc*``
    value is built when it closes."""
    open_tags: list[str] = []
    after = None              # the last child closed at this depth
    scope: tuple = ()         # fields of the open domain or file
    properties: list[DocProperty] = []
    ptype = ""                # type of the open property
    targets: list[int] = []
    untargeted: dict[str, DocProperty] = {}   # each built once

    def fail(message, element):
        raise XmlValidationError(message, element=element,
                                 line=parser.CurrentLineNumber)

    def check_attrs(tag, attrs):
        allowed = _ATTRS[tag]
        for attr in attrs:
            if attr not in allowed:
                fail(f"unknown attribute {_universal(attr)!r} on <{tag}>", tag)
        for attr in allowed:
            if attr not in attrs:
                fail(f"<{tag}> is missing attribute {attr!r}", tag)

    def integer(tag, attrs, attr):
        value = _canonical_int(attrs[attr])
        if value is None:
            fail(f"attribute {attr}={attrs[attr]!r} on <{tag}> is not an "
                 f"integer", tag)
        return value

    def start(tag, attrs):
        nonlocal after, scope, properties, ptype, targets
        allowed = _OPENS[len(open_tags)].get(tag)
        if allowed is None:
            tag = _universal(tag)
            if open_tags:
                fail(f"unexpected element <{tag}> under <{open_tags[-1]}>",
                     tag)
            fail(f"root element must be <policy>, got <{tag}>", tag)
        if attrs.keys() != allowed:
            check_attrs(tag, attrs)
        if tag == "domain":
            scope = (integer(tag, attrs, "id"), attrs["name"])
            properties = []
        elif tag == "file":
            scope = (integer(tag, attrs, "id"), attrs["path"],
                     integer(tag, attrs, "domainid"))
            properties = []
        elif tag == "property":
            ptype = attrs["type"]
            targets = []
        elif tag == "target":
            targets.append(integer(tag, attrs, "domainid"))
        open_tags.append(tag)
        after = None

    def end(tag):
        nonlocal after
        open_tags.pop()
        after = tag
        if tag == "property":
            if targets:
                prop = DocProperty(ptype, tuple(targets))
            else:
                prop = untargeted.get(ptype)
                if prop is None:
                    prop = untargeted[ptype] = DocProperty(ptype)
            properties.append(prop)
        elif tag == "domain":
            domains.append(DocDomain(*scope, tuple(properties)))
        elif tag == "file":
            files.append(DocFile(*scope, tuple(properties)))

    def text(data):
        if not data.isspace():
            if after:
                fail(f"unexpected text after <{after}>", after)
            fail(f"unexpected text inside <{open_tags[-1]}>", open_tags[-1])

    def doctype(name, system_id, public_id, has_internal_subset):
        fail(f"<!DOCTYPE {name}> is not allowed in a policy document",
             "!DOCTYPE")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.StartDoctypeDeclHandler = doctype


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

#: A character outside XML 1.0's ``Char`` production, which no escape
#: can carry.  ``re`` compiles it at the first serialize: compiling it
#: at import would slow every ``import p2psec``.
_NOT_XML_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def serialize_policy(doc: PolicyDocument) -> bytes:
    """Render the canonical UTF-8 form of a document, which
    :func:`parse_policy` reads back as it is.  A name or path holding a
    character that XML 1.0 cannot carry raises XmlValidationError."""
    if not doc.domains and not doc.files:
        return b"<policy></policy>\n"
    lines = ["<policy>"]
    for tag, elements in (("domain", doc.domains), ("file", doc.files)):
        for element in elements:
            open_tag = f"  <{tag}"
            for attr in _ATTRS[tag]:
                value = getattr(element, attr)
                char = re.search(_NOT_XML_CHAR, str(value))
                if char:
                    raise XmlValidationError(
                        f"{tag} {attr} {value!r} holds {char.group()!r}, "
                        f"which XML 1.0 cannot carry", element=tag)
                open_tag += f" {attr}={_q(value)}"
            if not element.properties:
                lines.append(open_tag + "/>")
                continue
            lines.append(open_tag + ">")
            for prop in element.properties:
                if prop.targets:
                    lines.append(f"    <property type={_q(prop.type)}>")
                    lines.extend(f"      <target domainid={_q(t)}/>"
                                 for t in prop.targets)
                    lines.append("    </property>")
                else:
                    lines.append(f"    <property type={_q(prop.type)}/>")
            lines.append(f"  </{tag}>")
    lines.append("</policy>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _q(value: object) -> str:
    """``xml.sax.saxutils.quoteattr(str(value))`` without importing
    ``xml.sax``, which loads ``urllib`` and ``http``: ``&``, ``<``,
    ``>``, ``\\n``, ``\\r`` and ``\\t`` escaped, then the value quoted in
    ``"``, or in ``'`` if it holds ``"`` but not ``'``, or in ``"`` with
    each ``"`` escaped if it holds both."""
    text = (str(value).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\n", "&#10;")
            .replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' in text:
        if "'" not in text:
            return f"'{text}'"
        text = text.replace('"', "&quot;")
    return f'"{text}"'


# ---------------------------------------------------------------------------
# Lifting to and from the policy model
# ---------------------------------------------------------------------------

def to_peer_policy(doc: PolicyDocument) -> PeerPolicy:
    """Build the policy model from a document; the result is valid.

    Target ids that name a declared domain become that domain's name;
    any other id becomes a symbolic ``ext:<id>`` reference.  The lift
    checks only what a document cannot: targets on a kind that takes
    none and ``nopublication`` on a file.  Each distinct property list
    is lifted once.
    """
    names_by_id = {dom.id: dom.name for dom in doc.domains}
    lifted: dict[tuple[DocProperty, ...], frozenset[SecurityProperty]] = {}

    def lift(scope: DocDomain | DocFile) -> frozenset[SecurityProperty]:
        props = lifted.get(scope.properties)
        if props is None:
            props = lifted[scope.properties] = _lift_properties(scope,
                                                                names_by_id)
        return props

    domains = tuple(Domain(dom.id, dom.name, lift(dom))
                    for dom in doc.domains)
    resources = []
    for file in doc.files:
        props = lift(file)
        try:
            resources.append(Resource(file.id, file.path, file.domainid,
                                      props))
        except PolicyValidationError as exc:
            raise XmlValidationError(str(exc), element="file") from exc
    all_ids = [d.id for d in doc.domains] + [f.id for f in doc.files]
    return PeerPolicy(domains=domains, resources=tuple(resources),
                      next_id=max(all_ids, default=0) + 1)


def _lift_properties(scope: DocDomain | DocFile,
                     names_by_id: dict[int, str]) -> frozenset[SecurityProperty]:
    lifted = set()
    for prop in scope.properties:
        targets = frozenset(
            names_by_id.get(t, f"ext:{t}") for t in prop.targets)
        try:
            lifted.add(SecurityProperty(_KINDS[prop.type], targets))
        except PolicyValidationError as exc:
            raise XmlValidationError(f"{exc} on {_where(scope)}",
                                     element="property") from exc
    return frozenset(lifted)


def from_peer_policy(policy: PeerPolicy) -> PolicyDocument:
    """Project a policy back onto the interchange document; a target
    that names no local domain and is not an ``ext:<id>`` reference
    raises XmlValidationError."""
    ids_by_name = {dom.name: dom.id for dom in policy.domains}
    domains = tuple(
        DocDomain(id=dom.id, name=dom.name,
                  properties=_lower_properties(dom.properties, ids_by_name))
        for dom in policy.domains)
    files = tuple(
        DocFile(id=res.id, path=res.path, domainid=res.domain_id,
                properties=_lower_properties(res.properties, ids_by_name))
        for res in policy.resources)
    return PolicyDocument(domains=domains, files=files)


def _lower_properties(props: frozenset[SecurityProperty],
                      ids_by_name: dict[str, int]) -> tuple[DocProperty, ...]:
    lowered = []
    for prop in sort_properties(props):
        targets = []
        for name in sorted(prop.targets):
            if name in ids_by_name:
                targets.append(ids_by_name[name])
                continue
            prefix, _, digits = name.partition(":")
            external = _canonical_int(digits) if prefix == "ext" else None
            if external is None:
                raise XmlValidationError(
                    f"target {name!r} names no local domain and is not an "
                    f"external ext:<id> reference", element="property")
            targets.append(external)
        lowered.append(DocProperty(type=prop.kind.value,
                                   targets=tuple(sorted(targets))))
    return tuple(lowered)
