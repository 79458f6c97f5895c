"""Core policy model: domains, resources, and security properties.

A peer organises its shared resources into named domains.  Six property
kinds can be attached to a domain or to a single resource: four
prohibitions (confidentiality, integrity, noshare, nopublication) and two
permissions (cooperation, spread).  Some kind pairs are mutually
incompatible; the conflict relation drives both local policy checks and
remote negotiation.

The value types are immutable, and every policy value is valid: a
``PeerPolicy`` built directly is validated, one frozen from a
``PolicyBuilder`` was checked step by step, and one lifted from a
``PolicyDocument`` was checked as the document was built.  A
``PeerPolicy`` is its domains, resources and id counter; its one index,
for lookups and edits, is a builder that one loop builds from those
fields, checking them, unless ``freeze`` handed it one.  Edits are made
on that mutable builder, the one home of the edit checks; a
``PeerPolicy`` edit thaws, applies one builder step and freezes,
returning a new value and never touching its input.  Each step runs the
checks its new values need itself (a non-empty name or path, no
nopublication on a file, conflicts, duplicates) and builds its
``Domain`` or ``Resource`` through ``unchecked``, so no value is checked
twice.  Thaw and freeze copy the policy's index and re-check nothing, so
an edit makes a fixed number of Python calls whatever the policy's size,
but copies an index as large as the policy.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cached_property
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


def frozen_record(cls: type) -> type:
    """Class decorator: ``dataclass(frozen=True)`` with cheap builds, the
    one way this package makes a frozen value and writes its fields.

    The class gets the dataclass's fields, ``__eq__``, ``__hash__``,
    ``__repr__`` and ``replace``, and assignment raises
    ``FrozenInstanceError``, but its ``__init__``, with the dataclass's
    signature, writes each field through ``object.__setattr__`` bound
    once, when the class is made (the dataclass's own looks the setter
    up again for every field), then runs ``__post_init__`` if the class
    has one.  A class with ``__post_init__`` also gets ``unchecked``,
    which takes every field, ``init=False`` ones included, by position
    or name, and builds the value without ``__post_init__``: for values
    a checked source already holds to the class's rules.  No build
    writes the instance ``__dict__`` itself, which would cost memory and
    slow every attribute read.  A field with a ``default_factory``, a
    ``kw_only`` field, an ``init=False`` field with a default, an
    ``InitVar`` and a class that defines its own ``unchecked`` are
    refused with ``TypeError``; no class here has one.
    """
    # The dataclass's own __init__ would be replaced, so it is not made.
    cls = dataclass(frozen=True, init=False)(cls)
    every = fields(cls)
    init = [f for f in every if f.init]
    post = hasattr(cls, "__post_init__")
    if (any(f.default_factory is not MISSING or f.kw_only
            or (not f.init and f.default is not MISSING) for f in every)
            or len(every) != len(cls.__dataclass_fields__)   # an InitVar
            or {f.name for f in every} & {"self", "set_", "new_", "cls_"}
            or (post and "unchecked" in cls.__dict__)):
        raise TypeError(f"frozen_record cannot build {cls.__name__}")
    defaults = {f"default_{f.name}": f.default for f in init
                if f.default is not MISSING}
    params = ", ".join(f"{f.name}=default_{f.name}"
                       if f.default is not MISSING else f.name
                       for f in init)
    lines = [f"def make(set_, new_, cls_, {', '.join(defaults)}):",
             f" def __init__(self, {params}):",
             *(f"  set_(self, {f.name!r}, {f.name})" for f in init),
             "  self.__post_init__()" if post else "  pass",
             " unchecked = None"]
    if post:
        lines += [f" def unchecked({', '.join(f.name for f in every)}):",
                  "  self = new_(cls_)",
                  *(f"  set_(self, {f.name!r}, {f.name})" for f in every),
                  "  return self"]
    lines.append(" return __init__, unchecked")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    new_init, unchecked = namespace["make"](
        object.__setattr__, object.__new__, cls, *defaults.values())
    new_init.__qualname__ = f"{cls.__qualname__}.__init__"
    new_init.__annotations__ = {**{f.name: f.type for f in init},
                                "return": None}
    cls.__init__ = new_init
    if post:
        unchecked.__qualname__ = f"{cls.__qualname__}.unchecked"
        unchecked.__doc__ = (f"The {cls.__name__} these fields make, built "
                             f"without ``__post_init__``.")
        cls.unchecked = staticmethod(unchecked)
    return cls


class PropertyKind(Enum):
    """The six supported security property kinds."""

    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"
    NOSHARE = "noshare"
    NOPUBLICATION = "nopublication"
    COOPERATION = "cooperation"
    SPREAD = "spread"

    # Members are singletons that compare by identity, so hashing by
    # identity agrees with equality and skips Enum's Python-level hash.
    __hash__ = object.__hash__


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

_KIND_RANK = {kind: rank for rank, kind in enumerate(KIND_ORDER)}

#: Kind -> the kinds it conflicts with, read off ``CONFLICTING_KIND_PAIRS``.
KIND_CONFLICTS: dict[PropertyKind, frozenset[PropertyKind]] = {
    kind: frozenset().union(*(pair - {kind} for pair in CONFLICTING_KIND_PAIRS
                              if kind in pair))
    for kind in KIND_ORDER}


#: The refusal of nopublication on a file, by a ``Resource`` or a builder
#: step.
_NOPUBLICATION_ON_FILE = "nopublication applies to domains, not resources"


def conflicts(kind_a: PropertyKind, kind_b: PropertyKind) -> bool:
    """True when the two kinds are incompatible on the same scope."""
    return kind_b in KIND_CONFLICTS[kind_a]


@frozen_record
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
    return tuple(sorted(props, key=lambda p: (_KIND_RANK[p.kind],
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
    kind-level relation, :func:`conflicts`.  The builder refuses the
    same conflicts through :func:`_kinds_clash`.
    """
    offered = sort_properties(offered)
    return [(req, off) for req in sort_properties(required)
            for off in offered if _clash(req, off)]


def _clash(a: SecurityProperty, b: SecurityProperty) -> bool:
    """A kind-level conflict that no explicit target excuses."""
    return conflicts(a.kind, b.kind) and not (a.targets or b.targets)


@frozen_record
class Domain:
    """A named group of resources protected by a common property set.

    ``kinds`` is the set of the properties' kinds.  It is computed once
    when the value is built, and policy edits keep the ``Domain`` values
    they do not change, so every compile of an edited policy reuses it.
    ``Domain.unchecked(id, name, properties, kinds)`` builds one without
    the checks of ``__post_init__``: for values a checked source already
    holds to them, a non-empty name and a frozenset of properties whose
    kinds are ``kinds``.
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


@frozen_record
class Resource:
    """A shared file, owned by exactly one domain.

    ``Resource.unchecked(id, path, domain_id, properties)`` builds one
    without the checks of ``__post_init__``: for values a checked source
    already holds to them, a non-empty path and a frozenset of
    properties without ``nopublication``."""

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
                raise PolicyValidationError(_NOPUBLICATION_ON_FILE)


@frozen_record
class PeerPolicy:
    """The complete local policy of one peer: its domains, its
    resources and the id counter.

    Ids are unique across domains and resources, and a shared monotone
    counter above them hands out new ones; domain names and resource
    paths are unique, and each resource's owner is one of the domains.
    A value's one index is a :class:`PolicyBuilder` no step is applied
    to, holding its domains by name and id, its resources by path and
    each domain's paths, so each lookup is a dict read.  One loop builds
    that index from the three fields and checks the invariants as it
    goes: building a value from code (``PeerPolicy(...)``) runs it
    through :meth:`validate`.  Two builds trust a source that has
    already checked them and go through ``unchecked``: the edit
    operations, which thaw the policy into a builder, apply one step and
    freeze the result, handing it a copy of the builder's step-checked
    index, and :func:`~p2psec.policy_xml.to_peer_policy`, which lifts a
    checked ``PolicyDocument`` and leaves the index to be built, and so
    checked, on the first lookup; a policy that is only compiled never
    builds one.
    """

    domains: tuple[Domain, ...] = ()
    resources: tuple[Resource, ...] = ()
    next_id: int = 1

    def __post_init__(self):
        self.validate()

    @cached_property
    def _index(self) -> "PolicyBuilder":
        """The builder's index, handed over by ``freeze``, kept by
        :meth:`validate`, or built and checked on first use."""
        return _indexed(self)

    # -- lookups ------------------------------------------------------

    def domain(self, name: str) -> Domain:
        return _get(self._index._domains, name, UnknownDomainError, "domain")

    def has_domain(self, name: str) -> bool:
        return name in self._index._domains

    def domain_by_id(self, domain_id: int) -> Domain:
        return _get(self._index._by_id, domain_id, UnknownDomainError,
                    "domain id")

    def find_resource(self, path: str) -> Resource:
        return _get(self._index._resources, path, UnknownResourceError,
                    "resource")

    def has_resource(self, path: str) -> bool:
        return path in self._index._resources

    def effective_properties(self, resource_path: str) -> frozenset[SecurityProperty]:
        """Owning domain properties united with the resource's own."""
        res = self.find_resource(resource_path)
        return self._index._by_id[res.domain_id].properties | res.properties

    # -- edits; see PolicyBuilder for what each one checks ------------

    def thaw(self) -> "PolicyBuilder":
        """A builder holding a copy of this policy's index; only a policy
        with none yet builds it first."""
        return self._index._copy()

    def create_domain(self, name: str) -> "PeerPolicy":
        return self.thaw().create_domain(name).freeze()

    def delete_domain(self, name: str) -> "PeerPolicy":
        return self.thaw().delete_domain(name).freeze()

    def add_property(self, scope: str, prop: SecurityProperty) -> "PeerPolicy":
        return self.thaw().add_property(scope, prop).freeze()

    def add_resource(self, path: str, domain_name: str,
                     props: Iterable[SecurityProperty] = ()) -> "PeerPolicy":
        return self.thaw().add_resource(path, domain_name, props).freeze()

    def publish(self, props: Iterable[SecurityProperty], path: str,
                domain_name: str) -> "PeerPolicy":
        return self.thaw().publish(props, path, domain_name).freeze()

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
            dom = self._index._by_id[res.domain_id]
            findings.extend(
                ("resource", res.path, a, b)
                for a, b in _internal_conflicts(res.properties)
                + property_set_conflicts(res.properties, dom.properties))
        return tuple(findings)

    def validate(self) -> None:
        """Check the structural invariants and keep the index built while
        checking them; raises PolicyValidationError on the first fault in
        declaration order.  Building a value calls it."""
        object.__setattr__(self, "_index", _indexed(self))


def _indexed(policy: PeerPolicy) -> "PolicyBuilder":
    """The one loop that builds a policy's index from its fields,
    checking the invariants as it goes; raises PolicyValidationError on
    the first fault in declaration order."""
    index = PolicyBuilder()
    by_name, by_id, by_path = index._domains, index._by_id, index._resources
    files: dict[int, list[str]] = {}
    ids: set[int] = set()
    for dom in policy.domains:
        if dom.id in ids:
            raise PolicyValidationError(f"duplicate id {dom.id}")
        ids.add(dom.id)
        if dom.name in by_name:
            raise PolicyValidationError(f"duplicate domain name {dom.name!r}")
        by_name[dom.name] = by_id[dom.id] = dom
        files[dom.id] = []
    for res in policy.resources:
        if res.id in ids:
            raise PolicyValidationError(f"duplicate id {res.id}")
        ids.add(res.id)
        if res.domain_id not in by_id:
            raise PolicyValidationError(
                f"resource {res.path!r} owned by unknown domain id "
                f"{res.domain_id}")
        if res.path in by_path:
            raise PolicyValidationError(
                f"duplicate resource path {res.path!r}")
        by_path[res.path] = res
        files[res.domain_id].append(res.path)
    if ids and max(ids) >= policy.next_id:
        raise PolicyValidationError("id counter behind an assigned id")
    index._next_id = policy.next_id
    index._files = {dom_id: frozenset(paths)
                    for dom_id, paths in files.items()}
    return index


class PolicyBuilder:
    """A policy under construction, and the one place where edits are
    checked.

    Each step either raises, leaving the builder as it was, or applies
    in O(1); deleting a domain also reads that domain's files, and so
    does adding to a domain an untargeted property of a kind that has
    conflicts.  A step runs every check its new value needs itself --
    :meth:`create_domain` a non-empty, new name; :meth:`add_property`
    the conflict test and, on a file, no nopublication;
    :meth:`add_resource` conflicts, a new, non-empty path and no
    nopublication of the file's own; :meth:`publish` those and the
    publication rules -- and so builds the ``Domain`` or ``Resource``
    with ``unchecked``, without running ``__post_init__``'s checks a
    second time.  Since every step keeps the invariants
    ``PeerPolicy.validate`` checks, ``freeze`` hands a copy of the
    builder to the :class:`PeerPolicy` as its index without validating
    it, with domains and resources in the order they were first added
    and the ids the counter handed out.  Every step returns the builder.
    """

    def __init__(self):
        self._next_id = 1
        self._domains: dict[str, Domain] = {}
        self._resources: dict[str, Resource] = {}
        self._by_id: dict[int, Domain] = {}
        # domain id -> its paths; a step replaces an entry, never
        # mutates one, since a frozen policy may share it.
        self._files: dict[int, frozenset[str]] = {}

    def freeze(self) -> PeerPolicy:
        """The policy so far, handed a copy of this index unvalidated."""
        index = self._copy()
        policy = PeerPolicy.unchecked(tuple(index._domains.values()),
                                      tuple(index._resources.values()),
                                      index._next_id)
        object.__setattr__(policy, "_index", index)
        return policy

    def _copy(self) -> "PolicyBuilder":
        """A builder holding copies of this one's dicts; a step replaces
        a ``_files`` entry, never mutates one, so the entries are shared."""
        copy = PolicyBuilder()
        copy._next_id = self._next_id
        copy._domains, copy._by_id = dict(self._domains), dict(self._by_id)
        copy._resources, copy._files = dict(self._resources), dict(self._files)
        return copy

    def create_domain(self, name: str) -> "PolicyBuilder":
        """Add a fresh, property-free domain named ``name``, which must be
        new and non-empty."""
        if name in self._domains:
            raise DuplicateDomainError(f"domain {name!r} already exists")
        if not name:
            raise PolicyValidationError("domain name must be non-empty")
        dom = Domain.unchecked(self._next_id, name, frozenset(), frozenset())
        self._domains[name] = self._by_id[dom.id] = dom
        self._files[dom.id] = frozenset()
        self._next_id += 1
        return self

    def delete_domain(self, name: str) -> "PolicyBuilder":
        """Remove a domain together with every resource it owns."""
        dom = _get(self._domains, name, UnknownDomainError, "domain")
        del self._domains[name], self._by_id[dom.id]
        for path in self._files.pop(dom.id):
            del self._resources[path]
        return self

    def add_property(self, scope: str, prop: SecurityProperty) -> "PolicyBuilder":
        """Attach ``prop`` at ``scope`` (a domain name, else a resource path).

        Raises PropertyConflictError when the new property conflicts with
        a property already effective at that scope (for a domain, that
        includes its files' own properties), and PolicyValidationError
        for nopublication on a resource; re-adding an implied property is
        a no-op.  A targeted property, or one of a kind that conflicts
        with none, skips the conflict test, so adding one reads no file.
        The step hashes ``prop`` once, into ``new``: the set operations
        on it reuse that hash.
        """
        new = {prop}
        if scope in self._domains:
            dom = self._domains[scope]
            if new.isdisjoint(dom.properties):
                if _may_clash(prop) and _kinds_clash(new, itertools.chain(
                        (dom.properties,),
                        (self._resources[path].properties
                         for path in self._files[dom.id]))):
                    raise PropertyConflictError(
                        f"{prop.render()} conflicts at domain {scope!r}")
                self._domains[scope] = self._by_id[dom.id] = Domain.unchecked(
                    dom.id, dom.name, dom.properties | new,
                    dom.kinds | {prop.kind})
        elif scope in self._resources:
            res = self._resources[scope]
            owner = self._by_id[res.domain_id].properties
            if new.isdisjoint(owner) and new.isdisjoint(res.properties):
                if _may_clash(prop) and _kinds_clash(new,
                                                     (owner, res.properties)):
                    raise PropertyConflictError(
                        f"{prop.render()} conflicts at resource {scope!r}")
                if prop.kind is PropertyKind.NOPUBLICATION:
                    raise PolicyValidationError(_NOPUBLICATION_ON_FILE)
                self._resources[scope] = Resource.unchecked(
                    res.id, res.path, res.domain_id, res.properties | new)
        else:
            raise UnknownScopeError(f"no domain or resource named {scope!r}")
        return self

    def add_resource(self, path: str, domain_name: str,
                     props: Iterable[SecurityProperty] = ()) -> "PolicyBuilder":
        """Plain constructor used by setup and transfers.

        Unlike :meth:`publish` this applies no publication rules; property
        conflicts against the owning domain are still rejected, and so is
        a path the builder already holds or an empty one, then
        nopublication among the file's own properties (in that order,
        after the domain check).  Properties the domain already implies
        are not duplicated on the resource.
        """
        dom = _get(self._domains, domain_name, UnknownDomainError, "domain")
        props = frozenset(props)
        if props and _kinds_clash(props, (dom.properties, props)):
            raise PropertyConflictError(
                f"properties conflict in domain {domain_name!r}")
        if path in self._resources:
            raise DuplicateResourceError(f"resource {path!r} already exists")
        if not path:
            raise PolicyValidationError("resource path must be non-empty")
        own = props - dom.properties
        if any(prop.kind is PropertyKind.NOPUBLICATION for prop in own):
            raise PolicyValidationError(_NOPUBLICATION_ON_FILE)
        self._resources[path] = Resource.unchecked(self._next_id, path,
                                                   dom.id, own)
        self._files[dom.id] |= {path}
        self._next_id += 1
        return self

    def publish(self, props: Iterable[SecurityProperty], path: str,
                domain_name: str) -> "PolicyBuilder":
        """Introduce a new resource into ``domain_name`` with ``props``.

        Refused when the domain carries nopublication; past that check
        it is :meth:`add_resource`.
        """
        dom = _get(self._domains, domain_name, UnknownDomainError, "domain")
        props = frozenset(props)
        if any(p.kind is PropertyKind.NOPUBLICATION for p in props):
            raise PolicyValidationError(_NOPUBLICATION_ON_FILE)
        if PropertyKind.NOPUBLICATION in dom.kinds:
            raise PublicationForbiddenError(
                f"domain {domain_name!r} forbids publication")
        return self.add_resource(path, domain_name, props)

    def drop_resource(self, path: str) -> "PolicyBuilder":
        """Remove a held resource, as a transfer does before it places
        the received copy."""
        res = _get(self._resources, path, UnknownResourceError, "resource")
        del self._resources[path]
        self._files[res.domain_id] -= {path}
        return self


def _get(index: dict, key, error: type, what: str):
    try:
        return index[key]
    except KeyError:
        raise error(f"unknown {what} {key!r}") from None


def _may_clash(prop: SecurityProperty) -> bool:
    """Whether ``prop`` can conflict with anything: it is untargeted and
    of a kind that has conflicts.  When not, a step skips the conflict
    test."""
    return not prop.targets and bool(KIND_CONFLICTS[prop.kind])


def _kinds_clash(props: Iterable[SecurityProperty],
                 present: Iterable[Iterable[SecurityProperty]]) -> bool:
    """Whether an untargeted property in ``props`` has a kind that
    conflicts with an untargeted property in one of the ``present``
    sets: the conflicts :func:`property_set_conflicts` would pair up,
    found without building a pair.  ``present`` is read only when an
    untargeted property in ``props`` has a kind that conflicts with
    any."""
    clashing = frozenset().union(*[KIND_CONFLICTS[prop.kind]
                                   for prop in props if not prop.targets])
    return bool(clashing) and any(
        not prop.targets and prop.kind in clashing
        for group in present for prop in group)


def _internal_conflicts(
    props: Iterable[SecurityProperty],
) -> list[tuple[SecurityProperty, SecurityProperty]]:
    """Conflicting pairs inside one property set (each pair once)."""
    return [pair for pair in itertools.combinations(sort_properties(props), 2)
            if _clash(*pair)]
