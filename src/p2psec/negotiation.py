"""Resource-sharing negotiation between an owner and a requester.

The requester names a resource and the domain it intends to hold the
resource in.  The owner reveals nothing about the rest of the
requester's policy: it asks only for the slice covering that one
domain.  :func:`open_session` records what the owner must check (the
resource, where it lives and its required properties), each required
property is scored against the slice with :func:`eval_property` and
through the trust pipeline, and :func:`decide` accepts or refuses over
the resulting ``TrustComputation`` values.  On acceptance
:func:`apply_transfer` lands the resource in the requester's target
domain, optionally carrying owner-requested resource-level properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .policy import (
    KIND_CONFLICTS,
    PeerPolicy,
    PropertyKind,
    Resource,
    SecurityProperty,
    sort_properties,
)
from .trust import TrustComputation, TrustConfig


class Outcome(Enum):
    ACCEPTED = "accepted"
    REFUSED = "refused"
    __hash__ = object.__hash__  # identity, as PropertyKind's


# ---------------------------------------------------------------------------
# Protocol messages (in-memory, typed)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicySlice:
    """The requester's claimed properties for one domain -- the only
    part of its policy a negotiation may reveal."""

    domain_name: str
    properties: frozenset[SecurityProperty] = frozenset()
    kinds: frozenset[PropertyKind] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if not isinstance(self.properties, frozenset):
            object.__setattr__(self, "properties",
                               frozenset(self.properties))
        object.__setattr__(self, "kinds",
                           frozenset(p.kind for p in self.properties))


# ---------------------------------------------------------------------------
# Session state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NegotiationSession:
    """What the owner checks in one negotiation: the requested resource,
    the domain it lives in, the requester's target domain and the
    resource's required properties (domain properties plus its own)."""

    resource: Resource
    source_domain: str
    target_domain_name: str
    required: tuple[SecurityProperty, ...]


def open_session(owner_policy: PeerPolicy, resource_name: str,
                 target_domain_name: str) -> NegotiationSession:
    """Locate the requested resource and snapshot its required
    properties; ``UnknownResourceError`` if the owner does not hold it."""
    resource = owner_policy.find_resource(resource_name)
    source = owner_policy.domain_by_id(resource.domain_id)
    required = sort_properties(
        owner_policy.effective_properties(resource.path))
    return NegotiationSession(
        resource=resource,
        source_domain=source.name,
        target_domain_name=target_domain_name,
        required=required,
    )


def eval_property(required: SecurityProperty, offered: PolicySlice) -> int:
    """Compatibility of one required property with the offered slice.

    -1 when any offered kind conflicts with the required kind (plain
    kind-level relation), 1 when the slice carries the same kind with
    compatible targets (both empty, or intersecting), 0 otherwise.
    """
    if not KIND_CONFLICTS[required.kind].isdisjoint(offered.kinds):
        return -1
    for off in offered.properties:
        if off.kind is not required.kind:
            continue
        if not required.targets and not off.targets:
            return 1
        if required.targets & off.targets:
            return 1
    return 0


def decide(computations: Iterable[TrustComputation],
           config: TrustConfig) -> Outcome:
    """Final owner decision over the required properties' computations.

    A single property below the refuse threshold refuses the whole
    request; no required properties means the resource is free.  With
    ``strict_conflicts`` the decision degrades to pure conflict
    checking: any -1 evaluation refuses.
    """
    if config.strict_conflicts:
        refused = any(c.eval_score == -1 for c in computations)
    else:
        refused = any(c.tv < config.refuse_threshold for c in computations)
    return Outcome.REFUSED if refused else Outcome.ACCEPTED


def apply_transfer(requester_policy: PeerPolicy, resource: Resource,
                   target_domain_name: str,
                   owner_props: frozenset[SecurityProperty] = frozenset(),
                   ) -> PeerPolicy:
    """Install a received resource into the requester's target domain.

    Owner-requested resource-level properties come along unless they
    conflict with the target domain's own properties, in which case
    ``PolicyBuilder.add_resource`` aborts the whole transfer with
    ``PropertyConflictError``.

    A policy has one resource per path.  If the requester already holds
    the path in the target domain, ``requester_policy`` itself comes
    back unchanged; if it holds the path in another domain, one builder
    drops that copy and adds the received one, so the result is built
    and checked once.
    """
    path = resource.path
    if requester_policy.has_resource(path):
        held = requester_policy.find_resource(path)
        if (requester_policy.domain_by_id(held.domain_id).name
                == target_domain_name):
            return requester_policy
    policy = requester_policy.thaw()
    if path in policy.resources:
        policy.drop_resource(path)
    return policy.add_resource(path, target_domain_name, owner_props).freeze()
