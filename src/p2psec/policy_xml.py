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
from xml.parsers import expat

from .errors import (
    XmlSyntaxError,
    XmlValidationError,
    too_long_to_write,
)
from .policy import (
    Domain,
    PeerPolicy,
    PropertyKind,
    Resource,
    SecurityProperty,
    TARGETED_KINDS,
    frozen_record,
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


@frozen_record
class DocProperty:
    type: str
    targets: tuple[int, ...] = ()


@frozen_record
class DocDomain:
    id: int
    name: str
    properties: tuple[DocProperty, ...] = ()


@frozen_record
class DocFile:
    id: int
    path: str
    domainid: int
    properties: tuple[DocProperty, ...] = ()


@frozen_record
class PolicyDocument:
    """A policy document; building one checks every schema invariant
    (tuples of ``DocDomain``, ``DocFile`` and ``DocProperty`` values,
    ``int`` ids, owners and targets that ``str`` can write, unique ids,
    ``str`` names and paths that are unique and non-empty, declared file
    owners, known ``str`` property types, targets only on a kind that
    takes them, no ``nopublication`` on a file), so code given one
    trusts it, and :func:`to_peer_policy` lifts it.  The check runs
    :func:`_check_types` and then :func:`_check_values` on each domain,
    then on each file, and reports the first fault it meets, so an
    element's type faults come before its value faults.
    :func:`parse_policy` builds only sound types, runs the value rules
    during its pass and builds its result without this check."""

    domains: tuple[DocDomain, ...] = ()
    files: tuple[DocFile, ...] = ()

    def __post_init__(self):
        ids: set[int] = set()
        owners = None             # for the files: the domain ids
        for name, cls in (("domains", DocDomain), ("files", DocFile)):
            elements = getattr(self, name)
            if type(elements) is not tuple:
                _refuse_type(elements, tuple, name)
            keys: set[str] = set()
            for element in elements:
                _check_types(element, cls)
                _check_values(element, cls, ids, keys, owners)
            owners = frozenset(ids)


#: Each element type's tag, the attribute that names it, and the
#: property types it may not carry.
_NAMED_BY = {DocDomain: ("domain", "name", ()),
             DocFile: ("file", "path", ("nopublication",))}

#: The property types that take targets.
_TARGETED = frozenset(kind.value for kind in TARGETED_KINDS)


def _check_types(element: object, cls: type) -> None:
    """Check that one entry is built of the types a parse builds, in
    order: a ``cls``, an ``int`` id, a ``str`` name or path, for a file
    an ``int`` owner, and a tuple of properties, each a ``DocProperty``
    with a ``str`` type and a tuple of ``int`` targets; every ``int``
    one that ``str`` can write.  The parse builds only such values, so
    only a code-built document runs these rules."""
    tag, key, _ = _NAMED_BY[cls]
    if type(element) is not cls:
        _refuse_type(element, cls, f"{tag} entry")
    _check_integer(element.id, "id", tag)
    value = getattr(element, key)
    if type(value) is not str:
        raise XmlValidationError(f"attribute {key}={value!r} on <{tag}> is "
                                 f"not a string")
    if cls is DocFile:
        _check_integer(element.domainid, "domainid", tag)
    if type(element.properties) is not tuple:
        _refuse_type(element.properties, tuple,
                     f"properties on {tag} {value!r}")
    for prop in element.properties:
        if type(prop) is not DocProperty:
            _refuse_type(prop, DocProperty, f"property on {tag} {value!r}")
        if type(prop.type) is not str:
            _refuse_type(prop.type, str, f"property type on {tag} {value!r}")
        if type(prop.targets) is not tuple:
            _refuse_type(prop.targets, tuple, f"targets of property "
                         f"{prop.type!r} on {tag} {value!r}")
        for target in prop.targets:
            _check_integer(target, "domainid", "target")


def _check_values(element: DocDomain | DocFile, cls: type, ids: set[int],
                  keys: set[str], owners) -> None:
    """Check one ``cls`` entry, whose types are sound, against the
    ``ids`` and, of its kind, the names or paths (``keys``) seen so far,
    and add its own.  The rules run in order: a new id, a non-empty
    name or path, for a file an owner among ``owners`` unless that is
    None, the properties, and a new name or path.  Each property has a
    known type, targets only if its type takes them, and is not
    ``nopublication`` on a file.  Both the parse and
    :class:`PolicyDocument` run these rules."""
    tag, key, refused = _NAMED_BY[cls]
    if element.id in ids:
        raise XmlValidationError(f"duplicate id {element.id}")
    ids.add(element.id)
    value = getattr(element, key)
    if not value:
        raise XmlValidationError(f"{tag} {key} must be non-empty")
    if owners is not None:
        _check_owner(element, owners)
    for prop in element.properties:
        if prop.type not in _KINDS:
            raise XmlValidationError(f"unknown property type {prop.type!r} "
                                     f"on {tag} {value!r}")
        if prop.targets:
            if prop.type not in _TARGETED:
                raise XmlValidationError(f"{prop.type} does not take target "
                                         f"domains on {tag} {value!r}")
        elif prop.type in refused:
            raise XmlValidationError(f"{prop.type} applies to domains, not "
                                     f"resources")
    if value in keys:
        raise XmlValidationError(f"duplicate {tag} {key} {value!r}")
    keys.add(value)


def _check_owner(file: DocFile, owners) -> None:
    """Refuse a file whose owner is not among the ``owners`` ids."""
    if file.domainid not in owners:
        raise XmlValidationError(f"file {file.path!r} references undeclared "
                                 f"domain id {file.domainid}")


def _refuse_type(value: object, cls: type, what: str) -> None:
    """Refuse ``value``, which is not a ``cls``, naming its type."""
    raise XmlValidationError(f"{what} must be a {cls.__name__}, not "
                             f"{type(value).__name__}")


def _check_integer(value: object, attr: str, tag: str) -> None:
    """Refuse an integer attribute the parser would not read back: a
    value that is not an ``int`` (a ``bool`` is not) or one that ``str``
    cannot write, which the message therefore leaves out."""
    if type(value) is not int:
        raise XmlValidationError(f"attribute {attr}={value!r} on <{tag}> is "
                                 f"not an integer")
    if too_long_to_write(value):
        raise XmlValidationError(f"attribute {attr} on <{tag}> has too many "
                                 f"digits")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_policy(data: bytes | str) -> PolicyDocument:
    """Parse a policy document in one pass; the result is valid.

    A ``str`` is parsed as UTF-8 and may declare no other encoding.
    Raises XmlSyntaxError (with position when the parser gives one) on
    malformed markup, an unknown or unusable encoding, a ``str`` that
    declares an encoding other than UTF-8 or cannot be encoded as UTF-8,
    and XmlValidationError naming the offending element and its line
    otherwise, a DOCTYPE declaration included.  The first fault the pass
    meets is reported.  Each element's markup is checked as it opens
    (stray text carries the line of the markup that ends it), and each
    domain and file is held to :class:`PolicyDocument`'s value rules
    (:func:`_check_values`) as it closes, with the line of its start
    tag; a file's owner may be declared after it, so owners are checked
    at ``</policy>``.  The pass builds every id, owner and target from
    canonical digits and every other value as the type rules
    (:func:`_check_types`) require, so it runs none of them, and the
    document is built without checking it a second time.
    """
    # The parser ElementTree.XMLParser makes: a "}" namespace separator
    # and text handed over in runs, not piecemeal.
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    domains, files = [], []
    try:
        if isinstance(data, str):
            declared = _DECLARED_ENCODING.match(data)
            if declared and declared.group(1).upper() != "UTF-8":
                raise XmlSyntaxError(f"a str policy is UTF-8 and cannot "
                                     f"declare encoding {declared.group(1)!r}")
            data = data.encode("utf-8")
        _install_handlers(parser, data, domains, files)
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise XmlSyntaxError(str(exc), exc.lineno) from exc
    except (ValueError, LookupError) as exc:
        raise XmlSyntaxError(str(exc)) from exc
    finally:
        # The handlers close over the parser: unhooking them frees both
        # now instead of at the next cyclic garbage collection.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.StartDoctypeDeclHandler = None
    return PolicyDocument.unchecked(tuple(domains), tuple(files))


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


def _install_handlers(parser, data: bytes, domains: list[DocDomain],
                      files: list[DocFile]) -> None:
    """Install the expat handlers of one parse of ``data``, which append
    to ``domains`` and ``files`` as it goes.  An element is checked
    against ``_NESTING`` and ``_ATTRS`` when it opens and its ``Doc*``
    value is built when it closes; a domain or file is then checked by
    :func:`_check_values` alone, since the values the handlers build
    are of the types :func:`_check_types` asks for, and file owners at
    ``</policy>``, each fault with the line of its domain's or file's
    start tag."""
    open_tags: list[str] = []
    after = None              # the last child closed at this depth
    scope: tuple = ()         # fields of the open domain or file
    at = 0                    # byte where the open domain or file starts
    properties: list[DocProperty] = []
    ptype = ""                # type of the open property
    targets: list[int] = []
    untargeted: dict[str, DocProperty] = {}   # each built once
    ids, names, paths = set(), set(), set()   # seen so far
    file_starts: list[int] = []

    def fail(message):
        raise XmlValidationError(message, parser.CurrentLineNumber)

    def integer(tag, attrs, attr):
        value = _canonical_int(attrs[attr])
        if value is None:
            fail(f"attribute {attr}={attrs[attr]!r} on <{tag}> is not an "
                 f"integer")
        return value

    def start(tag, attrs):
        nonlocal after, scope, at, properties, ptype, targets
        allowed = _OPENS[len(open_tags)].get(tag)
        if allowed is None:
            tag = _universal(tag)
            if open_tags:
                fail(f"unexpected element <{tag}> under <{open_tags[-1]}>")
            fail(f"root element must be <policy>, got <{tag}>")
        if attrs.keys() != allowed:
            for attr in attrs:
                if attr not in allowed:
                    fail(f"unknown attribute {_universal(attr)!r} on <{tag}>")
            for attr in _ATTRS[tag]:
                if attr not in attrs:
                    fail(f"<{tag}> is missing attribute {attr!r}")
        if tag == "property":
            ptype = attrs["type"]
            targets = []
        elif tag == "target":
            targets.append(integer(tag, attrs, "domainid"))
        elif tag == "domain":
            scope = (integer(tag, attrs, "id"), attrs["name"])
            at, properties = parser.CurrentByteIndex, []
        elif tag == "file":
            scope = (integer(tag, attrs, "id"), attrs["path"],
                     integer(tag, attrs, "domainid"))
            at, properties = parser.CurrentByteIndex, []
        open_tags.append(tag)
        after = None

    def end(tag):
        nonlocal after, at
        open_tags.pop()
        after = tag
        if tag == "property":
            prop = (DocProperty(ptype, tuple(targets)) if targets
                    else untargeted.get(ptype))
            if prop is None:
                prop = untargeted[ptype] = DocProperty(ptype)
            properties.append(prop)
        elif tag != "target":
            try:
                if tag == "domain":
                    domains.append(DocDomain(*scope, tuple(properties)))
                    _check_values(domains[-1], DocDomain, ids, names, None)
                elif tag == "file":
                    files.append(DocFile(*scope, tuple(properties)))
                    _check_values(files[-1], DocFile, ids, paths, None)
                    file_starts.append(at)
                else:
                    owners = {dom.id for dom in domains}
                    for file, at in zip(files, file_starts):
                        _check_owner(file, owners)
            except XmlValidationError as exc:
                # The line of the start tag at byte ``at``: expat reads
                # the document again through the tag's "<" (one or two
                # bytes) and reports that as an unclosed token on its
                # line.  Only a fault pays for this, where asking the
                # parser for each tag's line would cost every parse.
                try:
                    expat.ParserCreate().Parse(data[:at + 2], True)
                except expat.ExpatError as found:
                    raise XmlValidationError(str(exc), found.lineno) from None
                raise

    def text(run):
        if not run.isspace():
            if after:
                fail(f"unexpected text after <{after}>")
            fail(f"unexpected text inside <{open_tags[-1]}>")

    def doctype(name, system_id, public_id, has_internal_subset):
        fail(f"<!DOCTYPE {name}> is not allowed in a policy document")

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
                        f"which XML 1.0 cannot carry")
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
    any other id becomes a symbolic ``ext:<id>`` reference.  A document
    holds every rule the model checks (unique ids, names and paths,
    declared owners, non-empty names and paths, no ``nopublication`` on
    a file), so the lift refuses nothing and trusts the document: it
    builds the domains, resources and policy, with its indexes and a
    counter above every id, in one pass through their ``unchecked``
    builds, without ``Domain``/``Resource`` checks or
    ``PeerPolicy.validate``.  Each distinct property list is lifted once,
    and its kinds derived once: each property through
    ``SecurityProperty.unchecked``, since the document holds its kind to
    the targets rule and each target names a domain, by its non-empty
    name or as ``ext:<id>``.
    """
    names_by_id = {dom.id: dom.name for dom in doc.domains}
    # each distinct property list -> (its properties, their kinds)
    lifted: dict[tuple[DocProperty, ...], tuple[frozenset, frozenset]] = {}

    def lift(properties: tuple[DocProperty, ...]):
        found = lifted.get(properties)
        if found is None:
            props = frozenset(
                SecurityProperty.unchecked(_KINDS[prop.type], frozenset(
                    names_by_id.get(t, f"ext:{t}") for t in prop.targets))
                for prop in properties)
            found = lifted[properties] = (
                props, frozenset(prop.kind for prop in props))
        return found

    by_name: dict[str, Domain] = {}
    by_id: dict[int, Domain] = {}
    for dom in doc.domains:
        by_name[dom.name] = by_id[dom.id] = Domain.unchecked(
            dom.id, dom.name, *lift(dom.properties))
    by_path: dict[str, Resource] = {}
    for file in doc.files:
        by_path[file.path] = Resource.unchecked(
            file.id, file.path, file.domainid, lift(file.properties)[0])
    ids = [*by_id, *(file.id for file in doc.files)]
    return PeerPolicy.unchecked(tuple(by_name.values()),
                                tuple(by_path.values()),
                                max(ids, default=0) + 1, by_name, by_id,
                                by_path)


def from_peer_policy(policy: PeerPolicy) -> PolicyDocument:
    """Project a policy back onto the interchange document; a target
    that names no local domain and is not an ``ext:<id>`` reference
    raises XmlValidationError."""
    ids_by_name = {dom.name: dom.id for dom in policy.domains}

    def lower(props: frozenset[SecurityProperty]) -> tuple[DocProperty, ...]:
        lowered = []
        for prop in sort_properties(props):
            targets = []
            for name in sorted(prop.targets):
                prefix, _, digits = name.partition(":")
                target = ids_by_name.get(
                    name, _canonical_int(digits) if prefix == "ext" else None)
                if target is None:
                    raise XmlValidationError(
                        f"target {name!r} names no local domain and is not "
                        f"an external ext:<id> reference")
                targets.append(target)
            lowered.append(DocProperty(prop.kind.value, tuple(sorted(targets))))
        return tuple(lowered)

    return PolicyDocument(
        tuple(DocDomain(dom.id, dom.name, lower(dom.properties))
              for dom in policy.domains),
        tuple(DocFile(res.id, res.path, res.domain_id, lower(res.properties))
              for res in policy.resources))
