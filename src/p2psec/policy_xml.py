"""XML interchange format for peer policies.

The wire dialect is a single ``<policy>`` element holding ``<domain>``
and ``<file>`` entries; properties nest as ``<property type="...">``
with optional ``<target domainid="..."/>`` children.  Serialization is
canonical (two-space indent, fixed attribute order, UTF-8) so that
``parse(serialize(doc))`` reproduces the document exactly.

Property targets may reference ids that are not declared in the same
document; they become symbolic ``ext:<id>`` domain references when a
document is lifted into a :class:`~p2psec.policy.PeerPolicy`.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

from .errors import PolicyValidationError, XmlSyntaxError, XmlValidationError
from .policy import (
    Domain,
    PeerPolicy,
    PropertyKind,
    Resource,
    SecurityProperty,
    sort_properties,
)

PROPERTY_TYPE_NAMES = tuple(kind.value for kind in PropertyKind)

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
    (unique ids, names and paths, non-empty names and paths, declared
    file owners, known property types), so code given one trusts it."""

    domains: tuple[DocDomain, ...] = ()
    files: tuple[DocFile, ...] = ()

    def __post_init__(self):
        ids: set[int] = set()
        names: set[str] = set()
        for dom in self.domains:
            _add_unique(ids, dom.id, f"duplicate id {dom.id}", "domain")
            if not dom.name:
                raise XmlValidationError("domain name must be non-empty",
                                         element="domain")
            _validate_properties(dom.properties, f"domain {dom.name!r}")
            _add_unique(names, dom.name,
                        f"duplicate domain name {dom.name!r}", "domain")
        domain_ids = set(ids)
        paths: set[str] = set()
        for file in self.files:
            _add_unique(ids, file.id, f"duplicate id {file.id}", "file")
            if not file.path:
                raise XmlValidationError("file path must be non-empty",
                                         element="file")
            if file.domainid not in domain_ids:
                raise XmlValidationError(
                    f"file {file.path!r} references undeclared domain id "
                    f"{file.domainid}", element="file")
            _validate_properties(file.properties, f"file {file.path!r}")
            _add_unique(paths, file.path,
                        f"duplicate file path {file.path!r}", "file")


def _add_unique(seen: set, value: object, message: str, element: str) -> None:
    if value in seen:
        raise XmlValidationError(message, element=element)
    seen.add(value)


def _validate_properties(props: tuple[DocProperty, ...], where: str) -> None:
    for prop in props:
        if prop.type not in PROPERTY_TYPE_NAMES:
            raise XmlValidationError(
                f"unknown property type {prop.type!r} on {where}",
                element="property")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _TreeBuilder(ET.TreeBuilder):
    """Refuses a DOCTYPE, and with it every entity a document declares."""

    def doctype(self, name, pubid, system):
        raise XmlValidationError(
            f"<!DOCTYPE {name}> is not allowed in a policy document",
            element="!DOCTYPE")


def parse_policy(data: bytes | str) -> PolicyDocument:
    """Parse a policy document; the result is valid.

    A ``str`` is parsed as UTF-8 and may declare no other encoding.
    Raises XmlSyntaxError (with position when the parser gives one) on
    malformed markup, an unknown or unusable encoding, a ``str`` that
    declares an encoding other than UTF-8 or cannot be encoded as UTF-8,
    and XmlValidationError naming the offending element otherwise, a
    DOCTYPE declaration included.
    """
    if isinstance(data, str):
        declared = _DECLARED_ENCODING.match(data)
        if declared and declared.group(1).upper() != "UTF-8":
            raise XmlSyntaxError(f"a str policy is UTF-8 and cannot declare "
                                 f"encoding {declared.group(1)!r}")
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        root = ET.fromstring(data, parser=ET.XMLParser(target=_TreeBuilder()))
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise XmlSyntaxError(str(exc), line=line, column=column) from exc
    except (ValueError, LookupError) as exc:
        raise XmlSyntaxError(str(exc)) from exc

    if root.tag != "policy":
        raise XmlValidationError(
            f"root element must be <policy>, got <{root.tag}>",
            element=root.tag)
    _require_attrs(root, ())
    _reject_stray_text(root)

    domains: list[DocDomain] = []
    files: list[DocFile] = []
    for child in root:
        if child.tag == "domain":
            domains.append(_parse_domain(child))
        elif child.tag == "file":
            files.append(_parse_file(child))
        else:
            raise XmlValidationError(
                f"unexpected element <{child.tag}> under <policy>",
                element=child.tag)

    return PolicyDocument(domains=tuple(domains), files=tuple(files))


def _parse_domain(elem: ET.Element) -> DocDomain:
    _require_attrs(elem, ("id", "name"))
    _reject_stray_text(elem)
    return DocDomain(
        id=_int_attr(elem, "id"),
        name=elem.get("name", ""),
        properties=_parse_properties(elem),
    )


def _parse_file(elem: ET.Element) -> DocFile:
    _require_attrs(elem, ("id", "path", "domainid"))
    _reject_stray_text(elem)
    return DocFile(
        id=_int_attr(elem, "id"),
        path=elem.get("path", ""),
        domainid=_int_attr(elem, "domainid"),
        properties=_parse_properties(elem),
    )


def _parse_properties(parent: ET.Element) -> tuple[DocProperty, ...]:
    props = []
    for child in parent:
        if child.tag != "property":
            raise XmlValidationError(
                f"unexpected element <{child.tag}> under <{parent.tag}>",
                element=child.tag)
        _require_attrs(child, ("type",))
        _reject_stray_text(child)
        targets = []
        for sub in child:
            if sub.tag != "target":
                raise XmlValidationError(
                    f"unexpected element <{sub.tag}> under <property>",
                    element=sub.tag)
            _require_attrs(sub, ("domainid",))
            _reject_stray_text(sub)
            targets.append(_int_attr(sub, "domainid"))
        props.append(DocProperty(type=child.get("type", ""),
                                 targets=tuple(targets)))
    return tuple(props)


def _require_attrs(elem: ET.Element, allowed: tuple[str, ...]) -> None:
    for attr in elem.attrib:
        if attr not in allowed:
            raise XmlValidationError(
                f"unknown attribute {attr!r} on <{elem.tag}>",
                element=elem.tag)
    for attr in allowed:
        if attr not in elem.attrib:
            raise XmlValidationError(
                f"<{elem.tag}> is missing attribute {attr!r}",
                element=elem.tag)


def _int_attr(elem: ET.Element, attr: str) -> int:
    raw = elem.get(attr, "")
    value = _canonical_int(raw)
    if value is None:
        raise XmlValidationError(
            f"attribute {attr}={raw!r} on <{elem.tag}> is not an integer",
            element=elem.tag)
    return value


def _reject_stray_text(elem: ET.Element) -> None:
    if elem.text and elem.text.strip():
        raise XmlValidationError(
            f"unexpected text inside <{elem.tag}>", element=elem.tag)
    for child in elem:
        if child.tail and child.tail.strip():
            raise XmlValidationError(
                f"unexpected text after <{child.tag}>", element=child.tag)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_policy(doc: PolicyDocument) -> bytes:
    """Render the canonical UTF-8 form of a document."""
    if not doc.domains and not doc.files:
        return b"<policy></policy>\n"
    lines = ["<policy>"]
    for dom in doc.domains:
        open_tag = f"  <domain id={_q(dom.id)} name={_q(dom.name)}"
        lines.extend(_element_lines(open_tag, "domain", dom.properties))
    for file in doc.files:
        open_tag = (f"  <file id={_q(file.id)} path={_q(file.path)} "
                    f"domainid={_q(file.domainid)}")
        lines.extend(_element_lines(open_tag, "file", file.properties))
    lines.append("</policy>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _element_lines(open_tag: str, tag: str,
                   props: tuple[DocProperty, ...]) -> list[str]:
    if not props:
        return [open_tag + "/>"]
    lines = [open_tag + ">"]
    for prop in props:
        if prop.targets:
            lines.append(f"    <property type={_q(prop.type)}>")
            lines.extend(f"      <target domainid={_q(t)}/>"
                         for t in prop.targets)
            lines.append("    </property>")
        else:
            lines.append(f"    <property type={_q(prop.type)}/>")
    lines.append(f"  </{tag}>")
    return lines


def _q(value: object) -> str:
    return quoteattr(str(value))


# ---------------------------------------------------------------------------
# Lifting to and from the policy model
# ---------------------------------------------------------------------------

def to_peer_policy(doc: PolicyDocument, peer_id: str = "peer") -> PeerPolicy:
    """Build the policy model from a document; the result is valid.

    Target ids that name a declared domain become that domain's name;
    any other id becomes a symbolic ``ext:<id>`` reference.  The lift
    checks only what a document cannot: targets on a kind that takes
    none and ``nopublication`` on a file.
    """
    names_by_id = {dom.id: dom.name for dom in doc.domains}
    domains = tuple(
        Domain(id=dom.id, name=dom.name,
               properties=_lift_properties(dom.properties, names_by_id,
                                           f"domain {dom.name!r}"))
        for dom in doc.domains)
    resources = []
    for file in doc.files:
        props = _lift_properties(file.properties, names_by_id,
                                 f"file {file.path!r}")
        try:
            resources.append(Resource(id=file.id, path=file.path,
                                      domain_id=file.domainid,
                                      properties=props))
        except PolicyValidationError as exc:
            raise XmlValidationError(str(exc), element="file") from exc
    all_ids = [d.id for d in doc.domains] + [f.id for f in doc.files]
    return PeerPolicy(peer_id=peer_id, domains=domains,
                      resources=tuple(resources),
                      next_id=max(all_ids, default=0) + 1)


def _lift_properties(props: tuple[DocProperty, ...],
                     names_by_id: dict[int, str],
                     where: str) -> frozenset[SecurityProperty]:
    lifted = set()
    for prop in props:
        targets = frozenset(
            names_by_id.get(t, f"ext:{t}") for t in prop.targets)
        try:
            lifted.add(SecurityProperty(PropertyKind(prop.type), targets))
        except PolicyValidationError as exc:
            raise XmlValidationError(f"{exc} on {where}",
                                     element="property") from exc
    return frozenset(lifted)


def from_peer_policy(policy: PeerPolicy) -> PolicyDocument:
    """Project a policy back onto the interchange document; a policy
    that breaks a document invariant raises XmlValidationError."""
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
