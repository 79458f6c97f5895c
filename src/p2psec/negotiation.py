"""Resource-sharing negotiation between an owner and a requester.

The requester names a resource and the domain it intends to hold the
resource in.  The owner reveals nothing about the rest of the
requester's policy: it asks only for the slice covering that one
domain.  :func:`open_session` records what the owner must check (the
resource, where it lives and its required properties), each required
property is scored against the slice with :func:`eval_property` and
through the trust pipeline, and :func:`decide` has one rule over the
resulting ``TrustComputation`` values: a trust value in the refused
band refuses the ask, and the ask is accepted otherwise.  On acceptance
:func:`apply_transfer` lands the resource in the requester's target
domain, creating that domain if the requester lacks it, in one policy
install, optionally carrying owner-requested resource-level
properties.  The simulator passes none, so a received file takes only
the target domain's properties.
"""

from __future__ import annotations

from dataclasses import field
from enum import Enum
from typing import Iterable

from .policy import (
    KIND_CONFLICTS,
    PeerPolicy,
    PropertyKind,
    Resource,
    SecurityProperty,
    frozen_record,
    sort_properties,
)
from .trust import Band, TrustComputation, TrustConfig, band


class Outcome(Enum):
    ACCEPTED = "accepted"
    REFUSED = "refused"
    __hash__ = object.__hash__  # identity, as PropertyKind's


# ---------------------------------------------------------------------------
# Protocol messages (in-memory, typed)
# ---------------------------------------------------------------------------

@frozen_record
class PolicySlice:
    """The requester's claimed properties for one domain -- the only
    part of its policy a negotiation may reveal.

    ``PolicySlice.unchecked(domain_name, properties, kinds)`` builds one
    without ``__post_init__``: for a frozenset of properties whose kinds
    are ``kinds``, as a ``Domain`` holds them."""

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

@frozen_record
class NegotiationSession:
    """What the owner checks in one negotiation: the requested resource,
    the domain it lives in and the resource's required properties
    (domain properties plus its own); the ask names the target domain."""

    resource: Resource
    source_domain: str
    required: tuple[SecurityProperty, ...]


def open_session(owner_policy: PeerPolicy,
                 resource_name: str) -> NegotiationSession:
    """Locate the requested resource in the owner's policy and snapshot
    its required properties; ``UnknownResourceError`` if it is missing."""
    resource = owner_policy.find_resource(resource_name)
    source = owner_policy.domain_by_id(resource.domain_id)
    required = sort_properties(
        owner_policy.effective_properties(resource.path))
    return NegotiationSession(
        resource=resource,
        source_domain=source.name,
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

    One property whose ``tv`` :func:`band` puts in ``Band.REFUSED``
    refuses the whole request; no required properties means the
    resource is free.  An offered kind that conflicts needs no rule of
    its own: its eval of -1 zeroes EvalHist, so its ``tv`` is 0.
    """
    refused = any(band(c.tv, config) is Band.REFUSED for c in computations)
    return Outcome.REFUSED if refused else Outcome.ACCEPTED


def apply_transfer(requester_policy: PeerPolicy, resource: Resource,
                   target_domain_name: str,
                   owner_props: frozenset[SecurityProperty] = frozenset(),
                   ) -> PeerPolicy:
    """Install a received resource into the requester's target domain,
    creating the domain first if the requester lacks it.

    Owner-requested resource-level properties come along unless they
    conflict with the target domain's own properties, in which case
    ``PolicyBuilder.add_resource`` aborts the whole transfer with
    ``PropertyConflictError``.  The simulator passes no ``owner_props``,
    so there a received file takes only the target domain's properties.

    A policy has one resource per path.  If the requester already holds
    the path in the target domain, ``requester_policy`` itself comes
    back unchanged.  Otherwise one builder drops any copy held in
    another domain, creates the target domain if it is missing and adds
    the received file, so the result is built and checked once.
    """
    path = resource.path
    holds = requester_policy.has_resource(path)
    if holds and (requester_policy.domain_by_id(
            requester_policy.find_resource(path).domain_id).name
            == target_domain_name):
        return requester_policy
    policy = requester_policy.thaw()
    if holds:
        policy.drop_resource(path)
    if not requester_policy.has_domain(target_domain_name):
        policy.create_domain(target_domain_name)
    return policy.add_resource(path, target_domain_name, owner_props).freeze()
