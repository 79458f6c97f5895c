"""Negotiation sessions: evaluation, decision, transfer."""

import pytest

from p2psec import (
    MissingTrustValueError,
    Outcome,
    PeerId,
    PeerPolicy,
    PolicySlice,
    PropertyConflictError,
    ResourceRequest,
    TrustConfig,
    UnknownDomainError,
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

OWNER = PeerId("jfl", "JFL")
ASKER = PeerId("david", "David")


def owner_policy():
    policy = PeerPolicy(peer_id="jfl").create_domain("ensib")
    policy = policy.add_property("ensib", confidentiality())
    policy = policy.add_property("ensib", integrity())
    policy = policy.create_domain("free")
    policy = policy.add_property("free", cooperation())
    policy = policy.add_resource("contract", "ensib")
    return policy.add_resource("firefox", "free")


class TestOpenSession:
    def test_required_properties_sorted(self):
        request = ResourceRequest(requester=ASKER, resource_name="contract",
                                  target_domain_name="free")
        session = open_session(owner_policy(), OWNER, request)
        assert session.source_domain == "ensib"
        assert [p.render() for p in session.required] == [
            "confidentiality", "integrity"]

    def test_unknown_resource(self):
        request = ResourceRequest(requester=ASKER, resource_name="nope",
                                  target_domain_name="free")
        with pytest.raises(UnknownResourceError):
            open_session(owner_policy(), OWNER, request)


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


class TestDecide:
    def session(self, resource_name="contract"):
        request = ResourceRequest(requester=ASKER,
                                  resource_name=resource_name,
                                  target_domain_name="free")
        return open_session(owner_policy(), OWNER, request)

    def test_any_low_trust_refuses(self):
        session = self.session()
        trust = {confidentiality(): 0.1, integrity(): 0.9}
        assert decide(session, trust, TrustConfig()) is Outcome.REFUSED

    def test_all_above_threshold_accepts(self):
        session = self.session()
        trust = {confidentiality(): 0.25, integrity(): 0.9}
        assert decide(session, trust, TrustConfig()) is Outcome.ACCEPTED

    def test_missing_trust_value_is_error(self):
        session = self.session()
        with pytest.raises(MissingTrustValueError):
            decide(session, {confidentiality(): 0.9}, TrustConfig())

    def test_strict_mode_refuses_on_conflict_eval(self):
        session = self.session()
        session.per_property_eval = {confidentiality(): -1, integrity(): 0}
        config = TrustConfig(strict_conflicts=True)
        assert decide(session, {}, config) is Outcome.REFUSED

    def test_strict_mode_accepts_without_conflicts(self):
        session = self.session()
        session.per_property_eval = {confidentiality(): 0, integrity(): 0}
        config = TrustConfig(strict_conflicts=True)
        assert decide(session, {}, config) is Outcome.ACCEPTED

    def test_no_required_properties_accepts(self):
        policy = PeerPolicy(peer_id="jfl").create_domain("open")
        policy = policy.add_resource("misc", "open")
        request = ResourceRequest(requester=ASKER, resource_name="misc",
                                  target_domain_name="free")
        session = open_session(policy, OWNER, request)
        assert decide(session, {}, TrustConfig()) is Outcome.ACCEPTED


class TestApplyTransfer:
    def requester_policy(self):
        policy = PeerPolicy(peer_id="david").create_domain("free")
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

    def test_transfer_unknown_domain(self):
        resource = owner_policy().find_resource("firefox")
        with pytest.raises(UnknownDomainError):
            apply_transfer(self.requester_policy(), resource, "elsewhere")

    def test_transfer_nonconflicting_owner_props(self):
        resource = owner_policy().find_resource("firefox")
        policy = apply_transfer(self.requester_policy(), resource, "free",
                                frozenset({integrity()}))
        assert integrity() in policy.effective_properties("firefox")
