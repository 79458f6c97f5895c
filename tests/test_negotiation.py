"""Negotiation sessions: evaluation, decision, transfer."""

import pytest

from p2psec import (
    Band,
    HistoryScore,
    Outcome,
    PeerPolicy,
    PolicySlice,
    PropertyConflictError,
    TrustComputation,
    TrustConfig,
    UnknownResourceError,
    apply_transfer,
    confidentiality,
    cooperation,
    decide,
    eval_property,
    integrity,
    open_session,
    spread,
)

def owner_policy():
    policy = PeerPolicy().create_domain("ensib")
    policy = policy.add_property("ensib", confidentiality())
    policy = policy.add_property("ensib", integrity())
    policy = policy.create_domain("free")
    policy = policy.add_property("free", cooperation())
    policy = policy.add_resource("contract", "ensib")
    return policy.add_resource("firefox", "free")


class TestOpenSession:
    def test_required_properties_sorted(self):
        session = open_session(owner_policy(), "contract")
        assert session.source_domain == "ensib"
        assert [p.render() for p in session.required] == [
            "confidentiality", "integrity"]

    def test_unknown_resource(self):
        with pytest.raises(UnknownResourceError):
            open_session(owner_policy(), "nope")


class TestEvalProperty:
    def test_conflict_scores_minus_one(self):
        offered = PolicySlice("free", frozenset({spread()}))
        assert eval_property(confidentiality(), offered) == -1

    def test_same_kind_scores_one(self):
        offered = PolicySlice("free", frozenset({confidentiality()}))
        assert eval_property(confidentiality(), offered) == 1

    def test_unrelated_scores_zero(self):
        offered = PolicySlice("free", frozenset({spread()}))
        assert eval_property(integrity(), offered) == 0
        assert eval_property(cooperation(), offered) == 0

    def test_empty_slice_scores_zero(self):
        assert eval_property(confidentiality(), PolicySlice("free")) == 0

    def test_conflict_takes_precedence_over_match(self):
        offered = PolicySlice("free", frozenset({confidentiality(),
                                                 spread()}))
        assert eval_property(confidentiality(), offered) == -1

    def test_targeted_match_requires_overlap(self):
        required = cooperation("work")
        assert eval_property(required, PolicySlice(
            "d", frozenset({cooperation("work", "play")}))) == 1
        assert eval_property(required, PolicySlice(
            "d", frozenset({cooperation("other")}))) == 0

    def test_kind_level_conflicts_ignore_targets(self):
        # Cross-peer comparison has no scoped whitelist.
        offered = PolicySlice("d", frozenset({cooperation("partner")}))
        assert eval_property(confidentiality(), offered) == -1


def computation(tv, eval_score=0):
    """A trust computation; ``decide`` reads only ``tv`` and
    ``eval_score``."""
    return TrustComputation(eval_score=eval_score, hist=HistoryScore.NO_DATA,
                            chal=0.0, eval_hist=0.5, tv=tv, band=Band.FULL,
                            reputation_after=0.5)


class TestDecide:
    def test_any_low_trust_refuses(self):
        computations = [computation(0.1), computation(0.9)]
        assert decide(computations, TrustConfig()) is Outcome.REFUSED

    def test_all_above_threshold_accepts(self):
        computations = [computation(0.25), computation(0.9)]
        assert decide(computations, TrustConfig()) is Outcome.ACCEPTED

    def test_strict_mode_refuses_on_conflict_eval(self):
        computations = [computation(0.9, eval_score=-1), computation(0.9)]
        config = TrustConfig(strict_conflicts=True)
        assert decide(computations, config) is Outcome.REFUSED

    def test_strict_mode_accepts_without_conflicts(self):
        # Strict mode judges conflicts only, whatever the trust values.
        computations = [computation(0.0), computation(0.0)]
        config = TrustConfig(strict_conflicts=True)
        assert decide(computations, config) is Outcome.ACCEPTED

    def test_no_required_properties_accepts(self):
        policy = PeerPolicy().create_domain("open")
        policy = policy.add_resource("misc", "open")
        session = open_session(policy, "misc")
        assert session.required == ()
        assert decide([], TrustConfig()) is Outcome.ACCEPTED


class TestApplyTransfer:
    def requester_policy(self):
        policy = PeerPolicy().create_domain("free")
        return policy.add_property("free", spread())

    def test_transfer_lands_in_target_domain(self):
        resource = owner_policy().find_resource("firefox")
        policy = apply_transfer(self.requester_policy(), resource, "free")
        landed = policy.find_resource("firefox")
        assert policy.domain_by_id(landed.domain_id).name == "free"
        # no owner-side properties attached by default
        assert policy.effective_properties("firefox") == frozenset(
            {spread()})

    def test_transfer_with_owner_props_conflicting_rejected(self):
        resource = owner_policy().find_resource("firefox")
        with pytest.raises(PropertyConflictError):
            apply_transfer(self.requester_policy(), resource, "free",
                           frozenset({confidentiality()}))

    def test_transfer_with_scoped_owner_props_allowed(self):
        resource = owner_policy().find_resource("firefox")
        policy = apply_transfer(self.requester_policy(), resource, "free",
                                frozenset({cooperation("jfl")}))
        assert cooperation("jfl") in policy.effective_properties("firefox")

    def test_transfer_creates_a_missing_target_domain(self):
        resource = owner_policy().find_resource("firefox")
        before = self.requester_policy()
        policy = apply_transfer(before, resource, "elsewhere")
        created = policy.domain("elsewhere")
        landed = policy.find_resource("firefox")
        # The domain is created first, then the file, as two edits would.
        assert (created.id, landed.id) == (before.next_id,
                                           before.next_id + 1)
        assert landed.domain_id == created.id
        assert created.properties == frozenset()
        assert policy.effective_properties("firefox") == frozenset()
        policy.validate()

    def test_transfer_nonconflicting_owner_props(self):
        resource = owner_policy().find_resource("firefox")
        policy = apply_transfer(self.requester_policy(), resource, "free",
                                frozenset({integrity()}))
        assert integrity() in policy.effective_properties("firefox")

    def test_transfer_of_a_path_held_in_the_target_domain_changes_nothing(
            self):
        resource = owner_policy().find_resource("firefox")
        once = apply_transfer(self.requester_policy(), resource, "free")
        assert apply_transfer(once, resource, "free") is once

    def test_transfer_replaces_a_copy_held_in_another_domain(self):
        resource = owner_policy().find_resource("firefox")
        policy = self.requester_policy().create_domain("old")
        policy = policy.add_resource("firefox", "old", (integrity(),))
        policy = apply_transfer(policy, resource, "free")
        (landed,) = policy.resources
        assert landed.path == "firefox"
        assert policy.domain_by_id(landed.domain_id).name == "free"
        assert landed.properties == frozenset()
        policy.validate()
