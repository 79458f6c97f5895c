"""Simulation harness: scenarios, behaviours, determinism, detection."""

import random
from pathlib import Path

import pytest

from p2psec import (
    Band,
    BehaviorModel,
    Decision,
    HistoryRecord,
    HistoryScore,
    Outcome,
    PeerAgent,
    PeerId,
    PeerPolicy,
    PopulationParams,
    PropertyKind,
    ScenarioError,
    SimulationEngine,
    confidentiality,
    cross_reference_history,
    detection_experiment,
    integrity,
    parse_scenario,
    render_experiment,
    render_report,
    run_scenario,
    spread,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: (scenario text, message, line) for every parser rejection.
PARSE_ERRORS = [
    ("seed\n", "seed takes one integer", 1),
    ("config history_window\n", "bad config statement ['history_window']",
     1),
    ("peer\n", "peer takes a uid", 1),
    ("peer a\nknows a\n", "knows takes peer, peer, trust", 2),
    ("peer a\ndomain a\n", "domain takes peer and name", 2),
    ("peer a\nresource a f\n", "resource takes peer, path, domain", 2),
    ("peer a\nproperty a d\n", "property takes peer, scope, kind", 2),
    ("peer a\nask a a f\n", "ask takes requester, owner, resource, domain",
     2),
    ("peer a\npublish a f\n", "publish takes peer, path, domain", 2),
    ("peer a\nadd-property a d\n", "add-property takes peer, scope, kind",
     2),
    ("peer a\ncreate-domain a\n", "create-domain takes peer and name", 2),
    ("peer a\ndelete-domain a\n", "delete-domain takes peer and name", 2),
    ("peer a\nshow a b\n", "show takes a peer", 2),
    ("ask a b f d\n", "peer 'a' is not declared", 1),
    ("peer a\nknows a ghost 0.5\n", "peer 'ghost' is not declared", 2),
    ("peer a\nfrobnicate a\n", "unknown statement 'frobnicate'", 2),
    ("peer a\ndomain a d\nproperty a d secrecy\n",
     "unknown property kind 'secrecy'", 3),
    ("peer a\ndomain a d\npublish a f d secrecy\n",
     "unknown property kind 'secrecy'", 3),
    ("peer a behavior=saint\n", "unknown behavior 'saint'", 1),
    ("peer a color=red\n", "bad peer option 'color=red'", 1),
    ("peer a\npeer a\n", "peer 'a' declared twice", 2),
    ("peer a\ndomain a d\ndomain a d\n", "domain 'd' declared twice", 3),
    ("seed x\n", "invalid literal for int() with base 10: 'x'", 1),
    ("config speed 3\n", "bad config statement ['speed', '3']", 1),
    ("peer a\ndomain a d\nproperty a d integrity e\n",
     "integrity does not take target domains", 3),
    ("peer a\nadd-property a d spread e\n",
     "spread does not take target domains", 2),
    ("config refuse_threshold high\n",
     "could not convert string to float: 'high'", 1),
    ("config history_window 1.5\n",
     "invalid literal for int() with base 10: '1.5'", 1),
    ("config strict_conflicts yes\n",
     "strict_conflicts takes true or false, not 'yes'", 1),
    ("peer a\npeer b\nknows a b 7.5\n",
     "knows trust must lie in [0, 1], not '7.5'", 3),
    ("peer a\npeer b\nknows a b high\n",
     "could not convert string to float: 'high'", 3),
    ("peer a\nresource a f nowhere\n",
     "resource domain 'nowhere' is not declared", 2),
    ("peer a\nproperty a nowhere integrity\n",
     "scope 'nowhere' is not declared", 2),
    # Declarations are checked by the peer's policy as they are read.
    ("peer a\ndomain a d\nproperty a d spread\n"
     "property a d confidentiality\n",
     "confidentiality conflicts at domain 'd'", 4),
    ("peer a\ndomain a d\nproperty a d confidentiality\nresource a f d\n"
     "property a f spread\n", "spread conflicts at resource 'f'", 5),
    ("peer a\ndomain a d\nresource a f d\nproperty a f spread\n"
     "property a d confidentiality\n",
     "confidentiality conflicts at domain 'd'", 5),
    ("peer a\ndomain a d\nresource a f d\nproperty a f nopublication\n",
     "nopublication applies to domains, not resources", 4),
    ("peer a\ndomain a d\nresource a f d\nproperty a f nopublication\n"
     "property a d nopublication\n",
     "nopublication applies to domains, not resources", 4),
    ("peer a\ndomain a d\nresource a f d\nresource a f d\n",
     "resource 'f' declared twice", 4),
    ("peer a\ndomain a d\npublish a f d nopublication\n",
     "nopublication applies to domains, not resources", 3),
    # Config values are checked as one set, on the last config line.
    ("config initial_reputation 2\n",
     "initial reputation must lie in [0, 1]", 1),
    ("seed 1\nconfig history_window -1\n",
     "history window must be non-negative", 2),
    ("config refuse_threshold 0.9\n",
     "need 0 <= refuse_threshold < full_trust_threshold <= 1", 1),
    ("config refuse_threshold 0.9\npeer a\nconfig eval_weight 0.25\n",
     "need 0 <= refuse_threshold < full_trust_threshold <= 1", 3),
]


def load(name):
    return parse_scenario((SCENARIOS / name).read_text())


class TestParsing:
    def test_full_scenario_parses(self):
        scenario = load("contract.scn")
        assert [p.uid for p in scenario.peers] == ["JFL", "C1", "C2",
                                                   "David"]
        assert scenario.seed == 7
        jfl = scenario.peers[0]
        assert jfl.knows == (("C1", 0.8), ("C2", 0.9))
        assert {d.name for d in jfl.policy.domains} == {"ensib", "free"}

    def test_comments_and_blanks_ignored(self):
        scenario = parse_scenario("# hi\n\npeer a\n  # indented\n")
        assert len(scenario.peers) == 1

    def test_undeclared_peer_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("ask a b f d\n")
        assert err.value.line == 1

    def test_undeclared_knows_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("peer a\nknows a ghost 0.5\n")

    def test_resource_needs_declared_domain(self):
        with pytest.raises(ScenarioError):
            parse_scenario("peer a\nresource a file nowhere\n")

    def test_property_scope_must_exist(self):
        with pytest.raises(ScenarioError):
            parse_scenario("peer a\nproperty a nowhere integrity\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("peer a\ndomain a d\nproperty a d secrecy\n")

    def test_unknown_statement_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("frobnicate\n")

    def test_duplicate_peer_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("peer a\npeer a\n")

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("peer a behavior=saint\n")

    def test_config_override(self):
        scenario = parse_scenario("config refuse_threshold 0.3\n"
                                  "config history_window 10\n"
                                  "config strict_conflicts true\n")
        assert scenario.config.refuse_threshold == 0.3
        assert scenario.config.history_window == 10
        assert scenario.config.strict_conflicts is True

    @pytest.mark.parametrize("value", ["ture", "1", "yes"])
    def test_strict_conflicts_must_be_boolean(self, value):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(f"seed 1\nconfig strict_conflicts {value}\n")
        assert err.value.line == 2

    def test_strict_conflicts_accepts_false(self):
        scenario = parse_scenario("config strict_conflicts False\n")
        assert scenario.config.strict_conflicts is False

    @pytest.mark.parametrize("trust", ["7.5", "-0.1", "nan", "inf"])
    def test_knows_trust_must_lie_in_unit_interval(self, trust):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(f"peer a\npeer b\nknows a b {trust}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("trust", ["0", "1", "0.5"])
    def test_knows_trust_bounds_accepted(self, trust):
        scenario = parse_scenario(f"peer a\npeer b\nknows a b {trust}\n")
        assert scenario.peers[0].knows == (("b", float(trust)),)

    @pytest.mark.parametrize("text, message, line", PARSE_ERRORS)
    def test_error_message_and_line(self, text, message, line):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (str(err.value), err.value.line) == (message, line)

    def test_config_checked_only_as_a_whole(self):
        scenario = parse_scenario("config refuse_threshold 0.6\n"
                                  "config full_trust_threshold 0.8\n")
        assert scenario.config.refuse_threshold == 0.6


class TestContractScenario:
    def report(self):
        return run_scenario(load("contract.scn"))

    def test_outcome_refused(self):
        report = self.report()
        assert report.negotiations[0].outcome is Outcome.REFUSED

    def test_per_property_pipeline(self):
        record = self.report().negotiations[0]
        by_kind = {prop.kind: comp for prop, comp in record.per_property}
        conf = by_kind[PropertyKind.CONFIDENTIALITY]
        assert conf.eval_score == -1
        assert conf.hist is HistoryScore.NO_DATA
        assert conf.chal == 1.0
        assert conf.eval_hist == 0.0
        assert conf.tv == 0.0
        assert conf.band is Band.REFUSED
        integ = by_kind[PropertyKind.INTEGRITY]
        assert integ.eval_score == 0
        assert integ.tv == 0.4375
        assert integ.band is Band.PARTIAL

    def test_reputation_trajectory(self):
        record = self.report().negotiations[0]
        steps = [comp.reputation_after for _, comp in record.per_property]
        assert steps == [0.48, 0.47]

    def test_transcript_lines(self):
        transcript = self.report().transcript
        assert ("David: I asks to peer JFL the file contract to be put in "
                "free") in transcript
        assert "(Eval) Eval(David,confidentiality)=-1" in transcript
        assert "(Eval) Hist(David,confidentiality)=NoData" in transcript
        assert "(Eval) Tv(confidentiality,David)=0.0" in transcript
        assert ("(Eval) Peer refused (0.0<0.2) for confidentiality trust "
                "decreased to 0.48") in transcript
        assert ("(Eval) Peer not fully trusted (0.2<0.4375<0.5) for "
                "integrity trust decreased to 0.47") in transcript
        assert "JFL: one of the property is refused: refusing request." \
            in transcript
        assert "David: peer JFL REFUSED to send the file." in transcript

    def test_requester_policy_unchanged(self):
        engine = SimulationEngine(load("contract.scn"))
        engine.run()
        david = engine.agents["David"]
        assert not david.policy.has_resource("contract")


class TestFirefoxScenario:
    def report(self):
        return run_scenario(load("firefox.scn"))

    def test_outcome_accepted(self):
        report = self.report()
        assert report.negotiations[0].outcome is Outcome.ACCEPTED

    def test_tv_band_partial(self):
        record = self.report().negotiations[0]
        (prop, comp), = record.per_property
        assert prop.kind is PropertyKind.COOPERATION
        assert comp.eval_score == 0
        assert comp.tv == 0.4375
        assert comp.band is Band.PARTIAL
        assert comp.reputation_after == 0.49

    def test_file_lands_without_owner_properties(self):
        engine = SimulationEngine(load("firefox.scn"))
        engine.run()
        david = engine.agents["David"]
        assert david.policy.has_resource("firefox")
        assert david.policy.effective_properties("firefox") == frozenset(
            {spread()})

    def test_history_recorded_on_both_sides(self):
        engine = SimulationEngine(load("firefox.scn"))
        engine.run()
        jfl = engine.agents["JFL"]
        david = engine.agents["David"]
        assert any(r.actor == david.id for r in jfl.ledger.history)
        assert any(r.actor == david.id for r in david.ledger.history)


def test_run_is_deterministic():
    scenario = load("contract.scn")
    first = render_report(run_scenario(scenario))
    second = render_report(run_scenario(scenario))
    assert first == second


def test_unknown_resource_is_graceful():
    scenario = parse_scenario(
        "peer a\npeer b\ndomain b inbox\nask b a missing inbox\n")
    report = run_scenario(scenario)
    assert report.negotiations[0].outcome is Outcome.REFUSED
    assert "a: File missing not found." in report.transcript


def test_publish_action_respects_nopublication():
    scenario = parse_scenario(
        "peer a\ndomain a sealed\nproperty a sealed nopublication\n"
        "publish a note.txt sealed\n")
    report = run_scenario(scenario)
    assert any("forbids publication" in line for line in report.transcript)


def test_add_property_conflicting_with_a_file_is_refused():
    scenario = parse_scenario(
        "peer a\ndomain a d\nresource a f d\nproperty a f spread\n"
        "add-property a d confidentiality\nshow a\n")
    transcript = run_scenario(scenario).transcript
    assert ("a: property confidentiality refused on d: conflicting "
            "properties") in transcript
    assert "[Display a] <file> f in d under [spread]" in transcript


def test_add_property_nopublication_on_a_file_is_refused():
    scenario = parse_scenario(
        "peer a\ndomain a d\nresource a f d\n"
        "add-property a f nopublication\n")
    transcript = run_scenario(scenario).transcript
    assert ("a: property nopublication refused on f: nopublication "
            "applies to domains, not resources") in transcript


def test_show_lists_domains_and_files():
    report = run_scenario(load("contract.scn"))
    assert ("[Display JFL] <domain> ensib secured by "
            "[confidentiality, integrity]") in report.transcript
    assert ("[Display JFL] <file> contract in ensib under "
            "[confidentiality, integrity]") in report.transcript


class TestBehaviors:
    def agent(self, behavior, props=()):
        policy = PeerPolicy(peer_id="x").create_domain("drop")
        for prop in props:
            policy = policy.add_property("drop", prop)
        return PeerAgent(PeerId("x"), policy, behavior)

    def test_honest_slice_reports_actual_properties(self):
        agent = self.agent(BehaviorModel.HONEST, (spread(),))
        offered = agent.slice_for("drop", (confidentiality(),),
                                  random.Random(0))
        assert offered.properties == frozenset({spread()})

    def test_honest_slice_for_missing_domain_is_empty(self):
        agent = self.agent(BehaviorModel.HONEST)
        offered = agent.slice_for("other", (), random.Random(0))
        assert offered.domain_name == "other"
        assert offered.properties == frozenset()

    def test_informed_liar_mirrors_requirements(self):
        agent = self.agent(BehaviorModel.INFORMED_LIAR)
        required = (confidentiality(), integrity())
        offered = agent.slice_for("drop", required, random.Random(0))
        assert offered.properties == frozenset(required)

    def test_blind_liar_claims_independent_of_requirements(self):
        agent = self.agent(BehaviorModel.BLIND_LIAR)
        rng = random.Random(0)
        claims = {agent.slice_for("drop", (confidentiality(),), rng).properties
                  for _ in range(20)}
        assert len(claims) > 1

    def test_honest_refuses_conflicting_probe(self):
        agent = self.agent(BehaviorModel.HONEST, (confidentiality(),))
        assert not agent.respond_conflicting_request(
            "drop", PropertyKind.SPREAD)
        assert agent.respond_conflicting_request(
            "drop", PropertyKind.INTEGRITY)

    def test_liar_accepts_conflicting_probe(self):
        agent = self.agent(BehaviorModel.INFORMED_LIAR, (confidentiality(),))
        assert agent.respond_conflicting_request("drop", PropertyKind.SPREAD)

    def test_honest_mac_response_reflects_policy(self):
        agent = self.agent(BehaviorModel.HONEST, (confidentiality(),))
        from p2psec import Challenge, SecurityContext, object_context
        challenge = Challenge(
            scontext=SecurityContext("user_u", "user_r", "user_t"),
            command="scontext=user_u:user_r:user_t vim f",
            target_path="f", expected=Decision.DENIED,
            expected_permissions=frozenset({"read"}),
            expected_tcontext=object_context("drop"))
        record = agent.respond_mac_challenge(challenge, "drop", "read",
                                             timestamp="1.000", serial="1")
        assert record.decision is Decision.DENIED
        assert record.tcontext.type_name == "drop_t"

    def test_liar_mac_response_grants_everything(self):
        agent = self.agent(BehaviorModel.BLIND_LIAR)
        from p2psec import Challenge, SecurityContext, object_context
        challenge = Challenge(
            scontext=SecurityContext("user_u", "user_r", "user_t"),
            command="scontext=user_u:user_r:user_t vim f",
            target_path="f", expected=Decision.DENIED,
            expected_permissions=frozenset({"read"}),
            expected_tcontext=object_context("drop"))
        record = agent.respond_mac_challenge(challenge, "drop", "read",
                                             timestamp="1.000", serial="1")
        assert record.decision is Decision.GRANTED

    def test_forger_presents_extra_records(self):
        agent = self.agent(BehaviorModel.LOG_FORGER)
        records, forged = agent.present_history(
            (PropertyKind.CONFIDENTIALITY,), now=10)
        assert forged == 1
        assert len(records) == 1
        assert records[0].counterparty.uid.startswith("ghost")

    def test_honest_presents_only_own_records(self):
        agent = self.agent(BehaviorModel.HONEST)
        other = PeerId("y")
        agent.ledger.history.append(HistoryRecord(
            timestamp=1, actor=other,
            property_kind=PropertyKind.CONFIDENTIALITY, action="noise"))
        agent.ledger.history.append(HistoryRecord(
            timestamp=2, actor=agent.id,
            property_kind=PropertyKind.CONFIDENTIALITY, action="mine",
            counterparty=other))
        records, forged = agent.present_history(
            (PropertyKind.CONFIDENTIALITY,), now=10)
        assert forged == 0
        assert [r.action for r in records] == ["mine"]


class TestCrossReference:
    def make_agents(self):
        me = PeerId("me")
        counterpart = PeerId("cp")
        agents = {
            "cp": PeerAgent(counterpart, PeerPolicy(peer_id="cp")),
        }
        return me, counterpart, agents

    def test_matching_record_verifies(self):
        me, counterpart, agents = self.make_agents()
        shared = HistoryRecord(timestamp=5, actor=me,
                               property_kind=PropertyKind.INTEGRITY,
                               action="received", counterparty=counterpart)
        agents["cp"].ledger.history.append(shared)
        checked = cross_reference_history([shared], agents, me)
        assert checked == [(shared, True)]

    def test_unknown_counterparty_flagged(self):
        me, _, agents = self.make_agents()
        fake = HistoryRecord(timestamp=5, actor=me,
                             property_kind=PropertyKind.INTEGRITY,
                             action="made up",
                             counterparty=PeerId("ghost1"))
        checked = cross_reference_history([fake], agents, me)
        assert checked == [(fake, False)]

    def test_known_counterparty_without_match_flagged(self):
        me, counterpart, agents = self.make_agents()
        fake = HistoryRecord(timestamp=5, actor=me,
                             property_kind=PropertyKind.INTEGRITY,
                             action="made up", counterparty=counterpart)
        checked = cross_reference_history([fake], agents, me)
        assert checked == [(fake, False)]

    def test_record_without_counterparty_skipped(self):
        me, _, agents = self.make_agents()
        plain = HistoryRecord(timestamp=5, actor=me,
                              property_kind=PropertyKind.INTEGRITY,
                              action="local")
        checked = cross_reference_history([plain], agents, me)
        assert checked == [(plain, True)]


class TestDetectionExperiment:
    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            detection_experiment(PopulationParams(), 0)

    def test_small_experiment_outcomes(self):
        report = detection_experiment(PopulationParams(seed=3), 10)
        honest = report.stat(BehaviorModel.HONEST)
        assert honest.negotiations == 20
        assert honest.refused == 0
        informed = report.stat(BehaviorModel.INFORMED_LIAR)
        assert informed.refused == informed.negotiations == 10
        assert report.flagged_records == report.forged_records > 0

    def test_experiment_deterministic(self):
        first = detection_experiment(PopulationParams(seed=3), 5)
        second = detection_experiment(PopulationParams(seed=3), 5)
        assert render_experiment(first) == render_experiment(second)

    def test_bad_population_rejected(self):
        with pytest.raises(ValueError):
            PopulationParams(delegates=0)
