"""Core policy model: domains, resources, and security properties.

A peer organises its shared resources into named domains.  Six property
kinds can be attached to a domain or to a single resource: four
prohibitions (confidentiality, integrity, noshare, nopublication) and two
permissions (cooperation, spread).  Some kind pairs are mutually
incompatible; the conflict relation drives both local policy checks and
remote negotiation.

All types are immutable values.  Mutation operations return a new
``PeerPolicy`` and never touch their input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

from .errors import (
    DuplicateDomainError,
    DuplicateResourceError,
    PolicyValidationError,
    PropertyConflictError,
    PublicationForbiddenError,
    UnknownDomainError,
    UnknownResourceError,
    UnknownScopeError,
)


class PropertyKind(Enum):
    """The six supported security property kinds."""

    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"
    NOSHARE = "noshare"
    NOPUBLICATION = "nopublication"
    COOPERATION = "cooperation"
    SPREAD = "spread"


#: Kinds whose two-argument form names explicit partner domains.
TARGETED_KINDS = frozenset({
    PropertyKind.CONFIDENTIALITY,
    PropertyKind.COOPERATION,
})

#: Unordered kind pairs that are mutually incompatible.  Everything not
#: listed here is compatible; the relation is symmetric and irreflexive.
CONFLICTING_KIND_PAIRS = frozenset({
    frozenset({PropertyKind.CONFIDENTIALITY, PropertyKind.SPREAD}),
    frozenset({PropertyKind.CONFIDENTIALITY, PropertyKind.COOPERATION}),
    frozenset({PropertyKind.NOSHARE, PropertyKind.SPREAD}),
    frozenset({PropertyKind.NOSHARE, PropertyKind.COOPERATION}),
})

#: Stable kind order used for deterministic iteration and rendering.
KIND_ORDER = tuple(PropertyKind)


def conflicts(kind_a: PropertyKind, kind_b: PropertyKind) -> bool:
    """True when the two kinds are incompatible on the same scope."""
    return frozenset((kind_a, kind_b)) in CONFLICTING_KIND_PAIRS


@dataclass(frozen=True)
class SecurityProperty:
    """A property value: a kind plus optional explicit target domains.

    Two properties are the same property when kind and targets match;
    the scope a property protects is given by where it is attached
    (a domain entry or a resource entry), not stored in the value.
    """

    kind: PropertyKind
    targets: frozenset[str] = frozenset()

    def __post_init__(self):
        if not isinstance(self.targets, frozenset):
            object.__setattr__(self, "targets", frozenset(self.targets))
        if self.targets and self.kind not in TARGETED_KINDS:
            raise PolicyValidationError(
                f"{self.kind.value} does not take target domains")
        for target in self.targets:
            if not target:
                raise PolicyValidationError("empty target domain name")

    def render(self) -> str:
        if self.targets:
            return f"{self.kind.value}({', '.join(sorted(self.targets))})"
        return self.kind.value


def confidentiality(*targets: str) -> SecurityProperty:
    return SecurityProperty(PropertyKind.CONFIDENTIALITY, frozenset(targets))


def integrity() -> SecurityProperty:
    return SecurityProperty(PropertyKind.INTEGRITY)


def noshare() -> SecurityProperty:
    return SecurityProperty(PropertyKind.NOSHARE)


def nopublication() -> SecurityProperty:
    return SecurityProperty(PropertyKind.NOPUBLICATION)


def cooperation(*targets: str) -> SecurityProperty:
    return SecurityProperty(PropertyKind.COOPERATION, frozenset(targets))


def spread() -> SecurityProperty:
    return SecurityProperty(PropertyKind.SPREAD)


def sort_properties(props: Iterable[SecurityProperty]) -> tuple[SecurityProperty, ...]:
    """Deterministic order: declaration order of kinds, then targets."""
    return tuple(sorted(props, key=lambda p: (KIND_ORDER.index(p.kind),
                                              sorted(p.targets))))


def render_properties(props: Iterable[SecurityProperty]) -> str:
    """Bracketed list used by transcripts and the CLI; ``null`` if empty."""
    ordered = sort_properties(props)
    if not ordered:
        return "null"
    return "[" + ", ".join(p.render() for p in ordered) + "]"


def property_set_conflicts(
    required: Iterable[SecurityProperty],
    offered: Iterable[SecurityProperty],
) -> list[tuple[SecurityProperty, SecurityProperty]]:
    """All (required, offered) pairs whose kinds conflict, in the
    local-policy reading: a pair is not reported when either side
    carries explicit targets, since a scoped cooperation or
    confidentiality is an intentional exception to the kind-level rule.
    Negotiation does not use this; ``eval_property`` applies the plain
    kind-level relation, :func:`conflicts`.
    """
    offered = sort_properties(offered)
    found = []
    for req in sort_properties(required):
        for off in offered:
            scoped = req.targets or off.targets
            if conflicts(req.kind, off.kind) and not scoped:
                found.append((req, off))
    return found


@dataclass(frozen=True)
class Domain:
    """A named group of resources protected by a common property set.

    ``kinds`` is the set of the properties' kinds.  It is computed once
    when the value is built, and policy edits keep the ``Domain`` values
    they do not change, so every compile of an edited policy reuses it.
    """

    id: int
    name: str
    properties: frozenset[SecurityProperty] = frozenset()
    kinds: frozenset[PropertyKind] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if not self.name:
            raise PolicyValidationError("domain name must be non-empty")
        if not isinstance(self.properties, frozenset):
            object.__setattr__(self, "properties", frozenset(self.properties))
        object.__setattr__(self, "kinds",
                           frozenset(p.kind for p in self.properties))


@dataclass(frozen=True)
class Resource:
    """A shared file, owned by exactly one domain."""

    id: int
    path: str
    domain_id: int
    properties: frozenset[SecurityProperty] = frozenset()

    def __post_init__(self):
        if not self.path:
            raise PolicyValidationError("resource path must be non-empty")
        if not isinstance(self.properties, frozenset):
            object.__setattr__(self, "properties", frozenset(self.properties))
        for prop in self.properties:
            if prop.kind is PropertyKind.NOPUBLICATION:
                raise PolicyValidationError(
                    "nopublication applies to domains, not resources")


@dataclass(frozen=True)
class PeerPolicy:
    """The complete local policy of one peer.

    Ids are unique across domains and resources; a shared monotone
    counter hands them out.  Operations are pure: each returns a new
    policy value.
    """

    peer_id: str = "peer"
    domains: tuple[Domain, ...] = ()
    resources: tuple[Resource, ...] = ()
    next_id: int = 1

    # -- lookups ------------------------------------------------------

    def domain(self, name: str) -> Domain:
        for dom in self.domains:
            if dom.name == name:
                return dom
        raise UnknownDomainError(f"unknown domain {name!r}")

    def has_domain(self, name: str) -> bool:
        return any(dom.name == name for dom in self.domains)

    def domain_by_id(self, domain_id: int) -> Domain:
        for dom in self.domains:
            if dom.id == domain_id:
                return dom
        raise UnknownDomainError(f"unknown domain id {domain_id}")

    def find_resource(self, path: str) -> Resource:
        for res in self.resources:
            if res.path == path:
                return res
        raise UnknownResourceError(f"unknown resource {path!r}")

    def has_resource(self, path: str) -> bool:
        return any(res.path == path for res in self.resources)

    # -- domain operations --------------------------------------------

    def create_domain(self, name: str) -> "PeerPolicy":
        """Add a fresh, property-free domain named ``name``."""
        if self.has_domain(name):
            raise DuplicateDomainError(f"domain {name!r} already exists")
        dom = Domain(id=self.next_id, name=name)
        return replace(self, domains=self.domains + (dom,),
                       next_id=self.next_id + 1)

    def delete_domain(self, name: str) -> "PeerPolicy":
        """Remove a domain together with every resource it owns."""
        dom = self.domain(name)
        return replace(
            self,
            domains=tuple(d for d in self.domains if d.id != dom.id),
            resources=tuple(r for r in self.resources
                            if r.domain_id != dom.id),
        )

    # -- property operations ------------------------------------------

    def add_property(self, scope: str, prop: SecurityProperty) -> "PeerPolicy":
        """Attach ``prop`` at ``scope`` (a domain name, else a resource path).

        Raises PropertyConflictError when the new property conflicts with
        a property already effective at that scope (for a domain, that
        includes its files' own properties); re-adding an implied
        property is a no-op.
        """
        if self.has_domain(scope):
            dom = self.domain(scope)
            if prop in dom.properties:
                return self
            present = dom.properties.union(*(
                r.properties for r in self.resources if r.domain_id == dom.id))
            self._check_conflicts(prop, present, f"domain {scope!r}")
            updated = replace(dom, properties=dom.properties | {prop})
            return self._swap_domain(updated)
        if self.has_resource(scope):
            res = self.find_resource(scope)
            effective = self.effective_properties(scope)
            if prop in effective:
                return self
            self._check_conflicts(prop, effective, f"resource {scope!r}")
            updated = replace(res, properties=res.properties | {prop})
            return self._swap_resource(updated)
        raise UnknownScopeError(f"no domain or resource named {scope!r}")

    def remove_property(self, scope: str, prop: SecurityProperty) -> "PeerPolicy":
        """Detach ``prop`` from ``scope``; absent properties are a no-op."""
        if self.has_domain(scope):
            dom = self.domain(scope)
            if prop not in dom.properties:
                return self
            return self._swap_domain(
                replace(dom, properties=dom.properties - {prop}))
        if self.has_resource(scope):
            res = self.find_resource(scope)
            if prop not in res.properties:
                return self
            return self._swap_resource(
                replace(res, properties=res.properties - {prop}))
        raise UnknownScopeError(f"no domain or resource named {scope!r}")

    def effective_properties(self, resource_path: str) -> frozenset[SecurityProperty]:
        """Owning domain properties united with the resource's own."""
        res = self.find_resource(resource_path)
        dom = self.domain_by_id(res.domain_id)
        return dom.properties | res.properties

    # -- resource operations ------------------------------------------

    def add_resource(self, path: str, domain_name: str,
                     props: Iterable[SecurityProperty] = ()) -> "PeerPolicy":
        """Plain constructor used by setup and transfers.

        Unlike :meth:`publish` this applies no publication rules; property
        conflicts against the owning domain are still rejected, and so is
        a path the policy already holds (after the domain and property
        checks).
        """
        dom = self.domain(domain_name)
        props = frozenset(props)
        pairs = property_set_conflicts(props, dom.properties)
        pairs += _internal_conflicts(props)
        if pairs:
            raise PropertyConflictError(
                f"properties conflict in domain {domain_name!r}", pairs)
        if self.has_resource(path):
            raise DuplicateResourceError(f"resource {path!r} already exists")
        attached = frozenset(p for p in props if p not in dom.properties)
        res = Resource(id=self.next_id, path=path, domain_id=dom.id,
                       properties=attached)
        return replace(self, resources=self.resources + (res,),
                       next_id=self.next_id + 1)

    def publish(self, props: Iterable[SecurityProperty], path: str,
                domain_name: str) -> "PeerPolicy":
        """Introduce a new resource into ``domain_name`` with ``props``.

        Refused when the domain carries nopublication; past that check
        it is :meth:`add_resource`, which refuses properties that
        conflict with the domain's or with each other and then a path
        the policy already holds.  Properties the domain already implies
        are not duplicated on the resource.
        """
        dom = self.domain(domain_name)
        props = frozenset(props)
        for prop in props:
            if prop.kind is PropertyKind.NOPUBLICATION:
                raise PolicyValidationError(
                    "nopublication applies to domains, not resources")
        if PropertyKind.NOPUBLICATION in dom.kinds:
            raise PublicationForbiddenError(
                f"domain {domain_name!r} forbids publication")
        return self.add_resource(path, domain_name, props)

    # -- whole-policy checks ------------------------------------------

    def conflict_report(self) -> tuple[tuple[str, str, SecurityProperty, SecurityProperty], ...]:
        """Every conflicting pair in the policy, scoped-exception aware.

        Yields (scope kind, scope name, property, property) tuples.  Pairs
        inside a domain are reported once under the domain; resource scopes
        report only pairs involving a resource-level property.
        """
        findings = []
        for dom in self.domains:
            findings.extend(
                ("domain", dom.name, a, b)
                for a, b in _internal_conflicts(dom.properties))
        for res in self.resources:
            dom = self.domain_by_id(res.domain_id)
            findings.extend(
                ("resource", res.path, a, b)
                for a, b in _internal_conflicts(res.properties))
            findings.extend(
                ("resource", res.path, a, b)
                for a, b in property_set_conflicts(res.properties,
                                                   dom.properties))
        return tuple(findings)

    def validate(self) -> None:
        """Check structural invariants; raises PolicyValidationError."""
        seen_ids: set[int] = set()
        seen_names: set[str] = set()
        seen_paths: set[str] = set()
        domain_ids = {dom.id for dom in self.domains}
        for dom in self.domains:
            if dom.id in seen_ids:
                raise PolicyValidationError(f"duplicate id {dom.id}")
            seen_ids.add(dom.id)
            if dom.name in seen_names:
                raise PolicyValidationError(
                    f"duplicate domain name {dom.name!r}")
            seen_names.add(dom.name)
        for res in self.resources:
            if res.id in seen_ids:
                raise PolicyValidationError(f"duplicate id {res.id}")
            seen_ids.add(res.id)
            if res.domain_id not in domain_ids:
                raise PolicyValidationError(
                    f"resource {res.path!r} owned by unknown domain id "
                    f"{res.domain_id}")
            if res.path in seen_paths:
                raise PolicyValidationError(
                    f"duplicate resource path {res.path!r}")
            seen_paths.add(res.path)
        if seen_ids and max(seen_ids) >= self.next_id:
            raise PolicyValidationError("id counter behind an assigned id")

    # -- internals ------------------------------------------------------

    def _check_conflicts(self, prop: SecurityProperty,
                         present: frozenset[SecurityProperty],
                         where: str) -> None:
        pairs = property_set_conflicts((prop,), present)
        if pairs:
            raise PropertyConflictError(
                f"{prop.render()} conflicts at {where}", pairs)

    def _swap_domain(self, dom: Domain) -> "PeerPolicy":
        return replace(self, domains=tuple(
            dom if d.id == dom.id else d for d in self.domains))

    def _swap_resource(self, res: Resource) -> "PeerPolicy":
        return replace(self, resources=tuple(
            res if r.id == res.id else r for r in self.resources))


def _internal_conflicts(
    props: Iterable[SecurityProperty],
) -> list[tuple[SecurityProperty, SecurityProperty]]:
    """Conflicting pairs inside one property set (each pair once)."""
    ordered = sort_properties(props)
    found = []
    for a, b in itertools.combinations(ordered, 2):
        if not conflicts(a.kind, b.kind):
            continue
        if a.targets or b.targets:
            continue
        found.append((a, b))
    return found
