"""Trust evaluation: history, delegated challenges, and trust values.

For every property the owner requires, three signals are combined:

* ``eval``   -- compatibility of the requester's offered policy slice
  (-1 conflict, 0 not provided, 1 provided);
* ``hist``   -- the requester's track record for that property kind;
* ``chal``   -- trust-weighted scores from challenges run by delegates.

``Tv = EvalHist * (challenge_weight * Chal + eval_weight * (eval+1)/2)``
with EvalHist collapsing eval and hist into a [0,1] factor and
``eval_weight`` being ``1 - challenge_weight``.  The value lands in one
of three bands (refused, partial, full): a refused band on any required
property refuses the ask, and the band also drives the requester's
reputation update.  ``TrustConfig`` holds the thresholds and weights,
every one a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .errors import NoDelegatesError, TrustError, written
from .policy import PropertyKind, frozen_record


#: The exact types each ``TrustConfig`` annotation takes (so a bool is
#: not a number), and their wording.
_FIELD_TYPES = {
    "float": ((int, float), "a finite number"),
    "int": ((int,), "an int"),
}


def _finite(value: float) -> bool:
    """Neither infinite nor NaN; an int too large for a float is not
    finite either, since the reputation arithmetic would overflow."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@frozen_record
class TrustConfig:
    """Tunable thresholds and weights; defaults follow the reference
    behaviour of the negotiation engine.

    Every field is a number: ``history_window`` an ``int``, every other
    field a finite ``int`` or ``float`` (a bool is not a number here);
    ``TrustError`` names a field of the wrong type."""

    refuse_threshold: float = 0.2
    full_trust_threshold: float = 0.5
    refuse_decrement: float = 0.02
    partial_decrement: float = 0.01
    initial_reputation: float = 0.5
    history_window: int = 50
    challenge_weight: float = 0.75

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            types, wording = _FIELD_TYPES[f.type]
            if type(value) not in types or (
                    f.type == "float" and not _finite(value)):
                raise TrustError(
                    f"{f.name} must be {wording}, not {written(value)}")
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
        if not 0.0 <= self.challenge_weight <= 1.0:
            raise TrustError("challenge weight must lie in [0, 1]")

    @property
    def eval_weight(self) -> float:
        """The weight of the eval signal: what the challenges leave."""
        return 1.0 - self.challenge_weight


class HistoryScore(Enum):
    """Track-record codes for one (peer, property kind) pair."""

    VIOLATED_RECENT = -1
    VIOLATED_BEFORE = -2
    CLEAN = 1
    NO_DATA = 0
    __hash__ = object.__hash__  # identity, as PropertyKind's

    def render(self) -> str:
        return "NoData" if self is HistoryScore.NO_DATA else str(self.value)


@frozen_record
class HistoryRecord:
    """One logged operation, as observed or as presented by a peer.

    ``actor`` is the uid of the peer that performed the operation;
    ``counterparty`` is the uid of the other side of the exchange and is
    what cross-referencing validates a presented record against.  The
    engine writes two kinds of record, a received file and a failed
    probe (``violation``), and keeps no wording for either.
    """

    timestamp: int
    actor: str
    property_kind: PropertyKind
    violation: bool = False
    counterparty: Optional[str] = None


def check_reputation(value: object, error: type, subject: str) -> None:
    """The one rule for a reputation, a ledger's or a scenario's trust:
    raise ``error`` naming ``subject`` unless ``value`` is an exact
    ``int`` or ``float`` (a bool or a subclass is not one) in [0, 1]."""
    if type(value) not in (int, float):
        raise error(f"{subject} must be a number, not {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise error(f"{subject} must lie in [0, 1], got {written(value)}")


class Band(Enum):
    REFUSED = "refused"
    PARTIAL = "partial"
    FULL = "full"


@dataclass
class TrustLedger:
    """Per-peer trust state: reputations and operation history, both
    keyed by peer uid.

    A ledger has a single writer, its owning peer, and is updated in
    place: :func:`update_reputation` writes reputations and
    :meth:`record` appends history records.  Every reputation lies in
    [0, 1]; construction refuses any value :func:`check_reputation`
    refuses.  Records are kept per actor, in recording order, and only
    :meth:`record` adds them.
    """

    reputations: dict[str, float] = field(default_factory=dict)
    _by_actor: dict[str, list[HistoryRecord]] = field(
        init=False, repr=False, default_factory=dict)
    _keys: set[tuple[str, int, PropertyKind]] = field(
        init=False, repr=False, compare=False, default_factory=set)

    def __post_init__(self):
        for peer, value in self.reputations.items():
            check_reputation(value, TrustError, f"reputation of {peer}")

    def reputation(self, peer: str, config: TrustConfig) -> float:
        return self.reputations.get(peer, config.initial_reputation)

    def record(self, record: HistoryRecord) -> None:
        """Append ``record`` to its actor's records and index it."""
        self._by_actor.setdefault(record.actor, []).append(record)
        self._keys.add((record.actor, record.timestamp, record.property_kind))

    def records_by(self, actor: str) -> tuple[HistoryRecord, ...]:
        """The records whose actor is ``actor``, in recording order."""
        return tuple(self._by_actor.get(actor, ()))

    def has_record(self, actor: str, timestamp: int,
                   kind: PropertyKind) -> bool:
        """Whether some record has this actor, timestamp and kind."""
        return (actor, timestamp, kind) in self._keys


@frozen_record
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

def eval_history(records: Iterable[HistoryRecord], kind: PropertyKind,
                 now: int, window: int) -> HistoryScore:
    """Score one peer's records for one property kind.

    ``records`` are the records whose actor is the peer being scored
    (for example ``ledger.records_by(peer)``).  A violation inside
    [now-window, now] dominates; older violations score -2; a non-empty
    clean record scores 1; silence is NO_DATA.
    """
    selected = [r for r in records if r.property_kind is kind]
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


#: Runs one delegate's probes of ``target`` for a property kind and
#: returns their scores, each in [0, 1]: called as
#: ``harness(delegate, target, kind)`` with peer uids.
ChallengeHarness = Callable[[str, str, PropertyKind], Sequence[float]]


def run_challenges(delegates: Sequence[tuple[str, float]], target: str,
                   kind: PropertyKind, harness: ChallengeHarness) -> float:
    """Trust-weighted mean of per-delegate challenge scores.

    ``delegates`` pairs each delegate's uid with the owner's trust in
    it.  Each delegate's score is the mean of the probe scores the harness
    returns for it.  Delegate trusts must be positive, each delegate
    must run at least one probe and every probe score must lie in
    [0, 1] (``TrustError`` otherwise); an empty delegate list raises
    ``NoDelegatesError``.
    """
    if not delegates:
        raise NoDelegatesError("no delegates available for challenges")
    weighted = 0.0
    total = 0.0
    for delegate, trust in delegates:
        if trust <= 0.0:
            raise TrustError(f"delegate {delegate} has non-positive "
                             f"trust {trust}")
        scores = harness(delegate, target, kind)
        if not scores:
            raise TrustError(
                f"harness ran no probes for delegate {delegate}")
        if not all(0.0 <= score <= 1.0 for score in scores):
            raise TrustError("challenge score must lie in [0, 1]")
        weighted += trust * (sum(scores) / len(scores))
        total += trust
    return weighted / total


def trust_value(eval_score: int, eval_hist: float, chal: float,
                config: TrustConfig) -> float:
    """Combine the three signals into the final [0,1] trust value; the
    eval signal weighs ``config.eval_weight``, ``1 - challenge_weight``."""
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


def update_reputation(ledger: TrustLedger, peer: str, band_result: Band,
                      config: TrustConfig) -> float:
    """Adjust the peer's reputation in ``ledger`` for the band, in place,
    and return the new value.

    Refused and partial outcomes cost reputation; full trust leaves it
    unchanged (but records it).  Values stay clamped to [0, 1] and are
    kept on a 1e-9 grid so repeated small decrements stay exact.
    """
    if band_result is Band.REFUSED:
        decrement = config.refuse_decrement
    elif band_result is Band.PARTIAL:
        decrement = config.partial_decrement
    else:
        decrement = 0.0
    current = ledger.reputation(peer, config)
    updated = min(1.0, max(0.0, round(current - decrement, 9)))
    ledger.reputations[peer] = updated
    return updated
