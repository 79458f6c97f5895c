"""Trust evaluation: history, delegated challenges, and trust values.

For every property the owner requires, three signals are combined:

* ``eval``   -- compatibility of the requester's offered policy slice
  (-1 conflict, 0 not provided, 1 provided);
* ``hist``   -- the requester's track record for that property kind;
* ``chal``   -- trust-weighted scores from challenges run by delegates.

``Tv = EvalHist * (challenge_weight * Chal + eval_weight * (eval+1)/2)``
with EvalHist collapsing eval and hist into a [0,1] factor.  The value
lands in one of three bands (refused, partial, full) which also drives
the requester's reputation update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from .errors import NoDelegatesError, TrustError
from .policy import PropertyKind


@dataclass(frozen=True)
class PeerId:
    """Opaque unique identifier plus a display name.

    Display names need not be unique; equality follows ``uid`` alone so
    two distinct peers may both present themselves as ``C``.
    """

    uid: str
    name: str = ""

    def __post_init__(self):
        if not self.uid:
            raise TrustError("peer uid must be non-empty")
        if not self.name:
            object.__setattr__(self, "name", self.uid)

    def __eq__(self, other):
        if not isinstance(other, PeerId):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self):
        return hash(self.uid)


@dataclass(frozen=True)
class TrustConfig:
    """Tunable thresholds and weights; defaults follow the reference
    behaviour of the negotiation engine."""

    refuse_threshold: float = 0.2
    full_trust_threshold: float = 0.5
    refuse_decrement: float = 0.02
    partial_decrement: float = 0.01
    initial_reputation: float = 0.5
    history_window: int = 50
    challenge_weight: float = 0.75
    eval_weight: float = 0.25
    strict_conflicts: bool = False

    def __post_init__(self):
        if not (0.0 <= self.refuse_threshold < self.full_trust_threshold
                <= 1.0):
            raise TrustError(
                "need 0 <= refuse_threshold < full_trust_threshold <= 1")
        if self.refuse_decrement <= 0 or self.partial_decrement <= 0:
            raise TrustError("reputation decrements must be positive")
        if not 0.0 <= self.initial_reputation <= 1.0:
            raise TrustError("initial reputation must lie in [0, 1]")
        if self.history_window < 0:
            raise TrustError("history window must be non-negative")
        if abs(self.challenge_weight + self.eval_weight - 1.0) > 1e-9:
            raise TrustError("challenge and eval weights must sum to 1")


class HistoryScore(Enum):
    """Track-record codes for one (peer, property kind) pair."""

    VIOLATED_RECENT = -1
    VIOLATED_BEFORE = -2
    CLEAN = 1
    NO_DATA = 0

    def render(self) -> str:
        return "NoData" if self is HistoryScore.NO_DATA else str(self.value)


@dataclass(frozen=True)
class HistoryRecord:
    """One logged operation, as observed or as presented by a peer.

    ``actor`` is the peer that performed the operation; ``counterparty``
    is the other side of the exchange and is what cross-referencing
    validates a presented record against.
    """

    timestamp: int
    actor: PeerId
    property_kind: PropertyKind
    action: str
    violation: bool = False
    counterparty: Optional[PeerId] = None


class ChallengeKind(Enum):
    CONFLICTING_REQUEST = "conflicting-request"
    MAC_CHALLENGE = "mac-challenge"


@dataclass(frozen=True)
class ChallengeResult:
    delegate: PeerId
    target: PeerId
    property_kind: PropertyKind
    kind: ChallengeKind
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise TrustError("challenge score must lie in [0, 1]")


class Band(Enum):
    REFUSED = "refused"
    PARTIAL = "partial"
    FULL = "full"


@dataclass
class TrustLedger:
    """Per-peer trust state: reputations and operation history.

    A ledger has a single writer (its owning peer).
    :func:`update_reputation` returns a fresh ledger, but the simulator
    appends history records to a ledger in place.
    """

    reputations: dict[PeerId, float] = field(default_factory=dict)
    history: list[HistoryRecord] = field(default_factory=list)

    def reputation(self, peer: PeerId, config: TrustConfig) -> float:
        return self.reputations.get(peer, config.initial_reputation)


@dataclass(frozen=True)
class TrustComputation:
    """Everything that went into one per-property trust value."""

    eval_score: int
    hist: HistoryScore
    chal: float
    eval_hist: float
    tv: float
    band: Band
    reputation_after: float


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def eval_history(ledger: TrustLedger, target: PeerId, kind: PropertyKind,
                 now: int, window: int) -> HistoryScore:
    """Score the target's record for one property kind.

    A violation inside [now-window, now] dominates; older violations
    score -2; a non-empty clean record scores 1; silence is NO_DATA.
    """
    selected = [r for r in ledger.history
                if r.actor == target and r.property_kind is kind]
    violations = [r for r in selected if r.violation]
    if any(r.timestamp >= now - window for r in violations):
        return HistoryScore.VIOLATED_RECENT
    if violations:
        return HistoryScore.VIOLATED_BEFORE
    if selected:
        return HistoryScore.CLEAN
    return HistoryScore.NO_DATA


_HIST_FACTOR = {
    HistoryScore.CLEAN: 1.0,
    HistoryScore.NO_DATA: 0.5,
    HistoryScore.VIOLATED_BEFORE: 0.25,
    HistoryScore.VIOLATED_RECENT: 0.0,
}


def eval_hist_norm(hist: HistoryScore, eval_score: int) -> float:
    """Collapse eval and history into the [0,1] EvalHist factor.

    A policy conflict (eval -1) zeroes the factor outright; otherwise
    the history code alone decides it.
    """
    if eval_score == -1:
        return 0.0
    return _HIST_FACTOR[hist]


ChallengeHarness = Callable[[PeerId, PeerId, PropertyKind],
                            Sequence[ChallengeResult]]


def run_challenges(delegates: Sequence[tuple[PeerId, float]], target: PeerId,
                   kind: PropertyKind, harness: ChallengeHarness) -> float:
    """Trust-weighted mean of per-delegate challenge scores.

    Each delegate's score is the mean over the probes the harness ran
    for it.  Delegate trusts must be positive; an empty delegate list is
    an error.
    """
    if not delegates:
        raise NoDelegatesError("no delegates available for challenges")
    weighted = 0.0
    total = 0.0
    for delegate, trust in delegates:
        if trust <= 0.0:
            raise TrustError(f"delegate {delegate.uid} has non-positive "
                             f"trust {trust}")
        results = list(harness(delegate, target, kind))
        if not results:
            raise TrustError(
                f"harness ran no probes for delegate {delegate.uid}")
        score = sum(r.score for r in results) / len(results)
        weighted += trust * score
        total += trust
    return weighted / total


def trust_value(eval_score: int, eval_hist: float, chal: float,
                config: TrustConfig) -> float:
    """Combine the three signals into the final [0,1] trust value."""
    eval_norm = (eval_score + 1) / 2
    raw = eval_hist * (config.challenge_weight * chal
                       + config.eval_weight * eval_norm)
    return min(1.0, max(0.0, raw))


def band(tv: float, config: TrustConfig) -> Band:
    if tv < config.refuse_threshold:
        return Band.REFUSED
    if tv < config.full_trust_threshold:
        return Band.PARTIAL
    return Band.FULL


def update_reputation(ledger: TrustLedger, peer: PeerId, band_result: Band,
                      config: TrustConfig) -> TrustLedger:
    """Fresh ledger with the peer's reputation adjusted for the band.

    Refused and partial outcomes cost reputation; full trust leaves it
    unchanged.  Values stay clamped to [0, 1] and are kept on a 1e-9
    grid so repeated small decrements stay exact.
    """
    decrement = {
        Band.REFUSED: config.refuse_decrement,
        Band.PARTIAL: config.partial_decrement,
        Band.FULL: 0.0,
    }[band_result]
    current = ledger.reputation(peer, config)
    updated = min(1.0, max(0.0, round(current - decrement, 9)))
    reputations = dict(ledger.reputations)
    reputations[peer] = updated
    return TrustLedger(reputations=reputations,
                       history=list(ledger.history))
