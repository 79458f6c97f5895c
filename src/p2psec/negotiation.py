"""Resource-sharing negotiation between an owner and a requester.

The requester names a resource and the domain it intends to hold the
resource in.  The owner reveals nothing about the rest of the
requester's policy: it asks only for the slice covering that one
domain, evaluates its own required properties against the slice, runs
the trust pipeline per property, and then accepts or refuses.  On
acceptance the resource lands in the requester's target domain,
optionally carrying owner-requested resource-level properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from .errors import MissingTrustValueError
from .policy import (
    PeerPolicy,
    Resource,
    SecurityProperty,
    conflicts,
    sort_properties,
)
from .trust import PeerId, TrustConfig


class Outcome(Enum):
    ACCEPTED = "accepted"
    REFUSED = "refused"


# ---------------------------------------------------------------------------
# Protocol messages (in-memory, typed)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceRequest:
    requester: PeerId
    resource_name: str
    target_domain_name: str


@dataclass(frozen=True)
class PolicySlice:
    """The requester's claimed properties for one domain -- the only
    part of its policy a negotiation may reveal."""

    domain_name: str
    properties: frozenset[SecurityProperty] = frozenset()

    def __post_init__(self):
        if not isinstance(self.properties, frozenset):
            object.__setattr__(self, "properties",
                               frozenset(self.properties))

    @property
    def kinds(self):
        return frozenset(p.kind for p in self.properties)


# ---------------------------------------------------------------------------
# Session state
# ---------------------------------------------------------------------------

@dataclass
class NegotiationSession:
    """Owner-side record of one negotiation."""

    owner: PeerId
    requester: PeerId
    resource: Resource
    source_domain: str
    target_domain_name: str
    required: tuple[SecurityProperty, ...]
    offered_slice: Optional[PolicySlice] = None
    per_property_eval: dict[SecurityProperty, int] = field(default_factory=dict)


def open_session(owner_policy: PeerPolicy, owner: PeerId,
                 request: ResourceRequest) -> NegotiationSession:
    """Locate the requested resource and snapshot its required
    properties (domain properties plus its own)."""
    resource = owner_policy.find_resource(request.resource_name)
    source = owner_policy.domain_by_id(resource.domain_id)
    required = sort_properties(
        owner_policy.effective_properties(resource.path))
    return NegotiationSession(
        owner=owner,
        requester=request.requester,
        resource=resource,
        source_domain=source.name,
        target_domain_name=request.target_domain_name,
        required=required,
    )


def eval_property(required: SecurityProperty,
                  offered_slice: PolicySlice) -> int:
    """Compatibility of one required property with the offered slice.

    -1 when any offered kind conflicts with the required kind (plain
    kind-level relation), 1 when the slice carries the same kind with
    compatible targets (both empty, or intersecting), 0 otherwise.
    """
    offered = sort_properties(offered_slice.properties)
    if any(conflicts(required.kind, off.kind) for off in offered):
        return -1
    for off in offered:
        if off.kind is not required.kind:
            continue
        if not required.targets and not off.targets:
            return 1
        if required.targets & off.targets:
            return 1
    return 0


def decide(session: NegotiationSession,
           trust_values: Mapping[SecurityProperty, float],
           config: TrustConfig) -> Outcome:
    """Final owner decision over the per-property trust values.

    A single property below the refuse threshold refuses the whole
    request; no required properties means the resource is free.  With
    ``strict_conflicts`` the decision degrades to pure conflict
    checking: any -1 evaluation refuses.
    """
    if not session.required:
        return Outcome.ACCEPTED
    if config.strict_conflicts:
        if any(session.per_property_eval.get(prop, 0) == -1
               for prop in session.required):
            return Outcome.REFUSED
        return Outcome.ACCEPTED
    for prop in session.required:
        if prop not in trust_values:
            raise MissingTrustValueError(
                f"no trust value for {prop.render()}")
    if any(trust_values[prop] < config.refuse_threshold
           for prop in session.required):
        return Outcome.REFUSED
    return Outcome.ACCEPTED


def apply_transfer(requester_policy: PeerPolicy, resource: Resource,
                   target_domain_name: str,
                   owner_props: frozenset[SecurityProperty] = frozenset(),
                   ) -> PeerPolicy:
    """Install a received resource into the requester's target domain.

    Owner-requested resource-level properties come along unless they
    conflict with the target domain's own properties, in which case
    ``add_resource`` aborts the whole transfer with
    ``PropertyConflictError``.
    """
    return requester_policy.add_resource(resource.path, target_domain_name,
                                         owner_props)
