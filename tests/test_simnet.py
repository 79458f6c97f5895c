"""Simulation harness: scenarios, behaviours, determinism, detection."""

import random
import sys
from dataclasses import fields, replace
from itertools import combinations, product
from pathlib import Path

import pytest

import p2psec
from p2psec import (
    AvcParseError,
    Band,
    BehaviorModel,
    Challenge,
    ChallengeError,
    DEFAULT_RULESET,
    Decision,
    Domain,
    HistoryRecord,
    HistoryScore,
    NegotiationSession,
    Outcome,
    PeerAgent,
    PeerPolicy,
    PermissionClass,
    PolicyBuilder,
    PolicySlice,
    PolicyValidationError,
    PopulationParams,
    PrivacyViolationError,
    PropertyConflictError,
    PropertyKind,
    Resource,
    ScenarioError,
    SecurityProperty,
    SimulationEngine,
    TrustConfig,
    TrustError,
    TrustLedger,
    check_access,
    compile_policy,
    confidentiality,
    cross_reference_history,
    detection_experiment,
    integrity,
    object_context,
    parse_scenario,
    render_experiment,
    render_report,
    run_scenario,
    simnet,
    spread,
)
from p2psec.errors import too_long_to_write, written
from p2psec.mac import PROBE_PERMISSIONS, build_challenge
from p2psec.policy import CONFLICTING_KIND_PAIRS, KIND_ORDER, conflicts
from p2psec.simnet import (
    CHALLENGE_SUBJECT,
    AskAction,
    EditAction,
    PeerDecl,
    Scenario,
    ShowAction,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

NOT_ASCII = ("number {!r} may hold only ASCII digits, '.', '+', '-', 'e' "
             "and 'E'")

def decl(uid, knows=()):
    return PeerDecl(uid, uid, PeerPolicy(), knows=knows)


NOPUBLICATION = SecurityProperty(PropertyKind.NOPUBLICATION)

#: An int subclass, which no count or seed takes.
COUNT = type("Count", (int,), {})


def not_an_int(value):
    """How a count's message names ``value``: its type, or for an int,
    which a count refuses only when too long to write, that fault."""
    return ("an int too long to write" if type(value) is int
            else type(value).__name__)


#: The rules a scenario keeps across statements, one row each: (id,
#: scenario text, the line it is refused on, the same scenario built in
#: code as peers and actions, message).  The parser names the line;
#: ``Scenario`` refuses the code-built one with the same message and no
#: line.
RULES = [
    ("repeated-uid", "peer a\npeer b\npeer a\n", 3,
     (decl("a"), decl("b"), decl("a")), (), "peer 'a' declared twice"),
    ("repeated-uid-adjacent", "peer a\npeer a\n", 2, (decl("a"), decl("a")),
     (), "peer 'a' declared twice"),
    # A peer is its uid; its name is only shown, so it may not be empty.
    ("empty-name", "peer a name=\n", 1, (PeerDecl("a", "", PeerPolicy()),), (),
     "peer name must be non-empty"),
    ("knows", "peer a\nknows a ghost 0.5\n", 2,
     (decl("a", knows=(("ghost", 0.5),)),), (),
     "peer 'ghost' is not declared"),
    ("ask", "peer a\nask a ghost f d\n", 2, (decl("a"),),
     (AskAction("a", "ghost", "f", "d"),), "peer 'ghost' is not declared"),
    ("ask-requester", "ask a b f d\n", 1, (),
     (AskAction("a", "b", "f", "d"),), "peer 'a' is not declared"),
    ("show", "peer a\nshow ghost\n", 2, (decl("a"),), (ShowAction("ghost"),),
     "peer 'ghost' is not declared"),
    ("knows-twice", "peer a\npeer b\nknows a b 0.9\nknows a b 0.1\n", 4,
     (decl("a", knows=(("b", 0.9), ("b", 0.1))), decl("b")), (),
     "peer 'a' knows 'b' twice"),
    ("trust-above-one", "peer a\npeer b\nknows a b 7.5\n", 3,
     (decl("a", knows=(("b", 7.5),)), decl("b")), (),
     "peer 'a' knows 'b': trust must lie in [0, 1], got 7.5"),
    # A peer neither trusts nor asks itself: either would let an owner
    # judge, and strip, its own file.
    ("knows-itself", "peer a\npeer d\nknows a d 0.9\nknows a a 0.9\n", 4,
     (decl("a", knows=(("d", 0.9), ("a", 0.9))), decl("d")), (),
     "peer 'a' knows itself"),
    ("asks-itself", "peer a\ndomain a v\nresource a f v\nask a a f w\n", 4,
     (decl("a"),), (AskAction("a", "a", "f", "w"),), "peer 'a' asks itself"),
]

#: (scenario text, message, line) for every parser rejection: the rows of
#: RULES, then the rules of the parser alone.
PARSE_ERRORS = [
    *((text, message, line) for _, text, line, _, _, message in RULES),
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
    ("peer a\nfrobnicate a\n", "unknown statement 'frobnicate'", 2),
    ("peer a\ndomain a d\nproperty a d secrecy\n",
     "unknown property kind 'secrecy'", 3),
    ("peer a\ndomain a d\npublish a f d secrecy\n",
     "unknown property kind 'secrecy'", 3),
    ("peer a behavior=saint\n", "unknown behavior 'saint'", 1),
    ("peer a color=red\n", "bad peer option 'color=red'", 1),
    ("peer a name=x name=y\n", "peer option 'name' given twice", 1),
    ("peer a behavior=honest behavior=log-forger\n",
     "peer option 'behavior' given twice", 1),
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
     "bad config statement ['strict_conflicts', 'yes']", 1),
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
    # Config values are checked as one set, on the last config line.
    ("config initial_reputation 2\n",
     "initial reputation must lie in [0, 1]", 1),
    ("seed 1\nconfig history_window -1\n",
     "history window must be non-negative", 2),
    ("config refuse_threshold 0.9\n",
     "need 0 <= refuse_threshold < full_trust_threshold <= 1", 1),
    ("config refuse_threshold 0.9\npeer a\nconfig challenge_weight 0.75\n",
     "need 0 <= refuse_threshold < full_trust_threshold <= 1", 3),
    ("config refuse_decrement 1e999\npeer a\nconfig history_window 3\n",
     "refuse_decrement must be a finite number, not inf", 3),
    ("config challenge_weight 1.5\n", "challenge weight must lie in [0, 1]", 1),
    ("config eval_weight 0.25\n", "bad config statement ['eval_weight', '0.25']",
     1),
    # Numbers are ASCII: Python's conversions would read these.
    ("seed 1_0\n", NOT_ASCII.format("1_0"), 1),
    ("seed \u0663\n", NOT_ASCII.format("\u0663"), 1),
    ("config history_window 0_7\n", NOT_ASCII.format("0_7"), 1),
    ("config refuse_threshold 0_1\n", NOT_ASCII.format("0_1"), 1),
    ("config challenge_weight \uff10.5\n", NOT_ASCII.format("\uff10.5"), 1),
    ("peer a\npeer b\nknows a b \u0660.\u0665\n",
     NOT_ASCII.format("\u0660.\u0665"), 3),
    ("peer a\npeer b\nknows a b nan\n", NOT_ASCII.format("nan"), 3),
]

#: For each ``TrustConfig`` field, a value other than its default that a
#: config line may set alone: (as written, as read back).
CONFIG_VALUES = {
    "refuse_threshold": ("0.3", 0.3),
    "full_trust_threshold": ("0.6", 0.6),
    "refuse_decrement": ("0.05", 0.05),
    "partial_decrement": ("1", 1.0),
    "initial_reputation": ("0.7", 0.7),
    "history_window": ("10", 10),
    "challenge_weight": ("0.5", 0.5),
}


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

    def test_display_name_defaults_to_uid(self):
        scenario = parse_scenario("peer a\npeer b name=B\n")
        assert [p.display_name for p in scenario.peers] == ["a", "B"]

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
                                  "config history_window 10\n")
        assert scenario.config.refuse_threshold == 0.3
        assert scenario.config.history_window == 10

    @pytest.mark.parametrize("field", fields(TrustConfig),
                             ids=lambda f: f.name)
    def test_every_config_field_is_set_by_a_config_line(self, field):
        text, value = CONFIG_VALUES[field.name]
        config = parse_scenario(f"config {field.name} {text}\n").config
        assert config == replace(TrustConfig(), **{field.name: value})
        assert type(getattr(config, field.name)) is type(value)

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

    @pytest.mark.parametrize("peers, actions, message", [
        *(pytest.param(peers, actions, message, id=rule)
          for rule, _, _, peers, actions, message in RULES),
        pytest.param((decl("a"),), (EditAction("a", "rename", ("d",)),),
                     "unknown edit method 'rename'", id="edit-method"),
        pytest.param((decl("a", knows=(("b", float("nan")),)), decl("b")),
                     (), "peer 'a' knows 'b': trust must lie in [0, 1], "
                     "got nan", id="trust-nan"),
        pytest.param((decl("a", knows=(("b", "x"),)), decl("b")), (),
                     "peer 'a' knows 'b': trust must be a number, not str",
                     id="trust-str"),
        pytest.param((decl("a", knows=(("b", None),)), decl("b")), (),
                     "peer 'a' knows 'b': trust must be a number, not "
                     "NoneType", id="trust-none"),
        pytest.param((decl("a", knows=(("b", True),)), decl("b")), (),
                     "peer 'a' knows 'b': trust must be a number, not bool",
                     id="trust-bool"),
        # The ledger's rule: exact types, so no run fails on a subclass.
        pytest.param((decl("a", knows=(("b", type("Trust", (float,), {})(
                         0.5)),)), decl("b")), (),
                     "peer 'a' knows 'b': trust must be a number, not Trust",
                     id="trust-float-subclass"),
        # An int too long to write is named, not written.
        pytest.param((decl("a", knows=(("b", 10**5000),)), decl("b")), (),
                     "peer 'a' knows 'b': trust must lie in [0, 1], got an "
                     "int too long to write", id="trust-long-int"),
        # Each peer's fields are of the types the parser gives them.
        pytest.param((PeerDecl("a", "a", PeerPolicy(), behavior="honest"),),
                     (), "peer 'a' behavior must be a BehaviorModel, not "
                     "'honest'", id="behavior-str"),
        pytest.param((PeerDecl("a", "a", None),), (),
                     "peer 'a' policy must be a PeerPolicy, not None",
                     id="policy-none"),
        # The parser builds no action the run cannot apply; code can.
        pytest.param((decl("a"), decl("b")), (AskAction("a", "b", "f", ""),),
                     "ask target domain must be non-empty",
                     id="empty-target"),
        pytest.param((decl("a"),), (EditAction("a", "publish", ()),),
                     "publish takes tuple, str, str, not ()",
                     id="edit-arity"),
        pytest.param((decl("a"),),
                     (EditAction("a", "add_property", ("d", "integrity")),),
                     "add_property takes str, SecurityProperty, not "
                     "('d', 'integrity')", id="edit-bare-kind"),
        pytest.param((decl("a"),),
                     (EditAction("a", "publish", (("integrity",), "f", "d")),),
                     "publish takes properties, not 'integrity'",
                     id="publish-bare-kind"),
        pytest.param((decl("a"),),
                     (EditAction("a", "publish", ((), "", "d")),),
                     "publish takes non-empty names, not ((), '', 'd')",
                     id="publish-empty-path"),
        pytest.param((decl("a"),), ("show a",),
                     "unsupported action 'show a'", id="not-an-action"),
    ])
    def test_a_scenario_built_in_code_checks_itself(self, peers, actions,
                                                    message):
        with pytest.raises(ScenarioError) as err:
            Scenario(peers=peers, actions=actions)
        assert (str(err.value), err.value.line) == (message, None)


    @pytest.mark.parametrize("field, value, message", [
        # A str seed would seed random as the string, not as 7.
        ("seed", "7", "seed must be an int, not str"),
        ("seed", True, "seed must be an int, not bool"),
        ("seed", 10**5000, "seed must be an int, not an int too long to "
         "write"),
        ("config", "x", "scenario config must be a TrustConfig, not 'x'"),
    ], ids=["seed-str", "seed-bool", "seed-long-int", "config-str"])
    def test_a_code_built_scenario_holds_seed_and_config_to_their_types(
            self, field, value, message):
        with pytest.raises(ScenarioError) as err:
            Scenario(**{field: value})
        assert (str(err.value), err.value.line) == (message, None)

    def test_an_int_trust_is_accepted(self):
        scenario = Scenario(peers=(decl("a", knows=(("b", 1),)), decl("b")))
        assert scenario.peers[0].knows == (("b", 1),)


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
        assert jfl.ledger.records_by(david.uid)
        assert david.ledger.records_by(david.uid)


def test_run_is_deterministic():
    scenario = load("contract.scn")
    first = render_report(run_scenario(scenario))
    second = render_report(run_scenario(scenario))
    assert first == second


def delegated_scenario(delegates: int) -> str:
    """Two asks for a confidentiality + noshare file, each property with
    a conflicting probe kind, judged through ``delegates`` delegates.
    The accepted honest requester keeps a reputation equal to the
    full-trust threshold and so does not judge the liar."""
    lines = ["peer own", "peer honest", "peer liar behavior=informed-liar",
             "domain own vault", "property own vault confidentiality",
             "property own vault noshare", "resource own doc vault",
             "domain honest inbox", "property honest inbox confidentiality",
             "property honest inbox noshare", "domain liar open"]
    for i in range(delegates):
        lines += [f"peer d{i}", f"knows own d{i} 0.9"]
    lines += ["ask honest own doc inbox", "ask liar own doc open"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("delegates, final_tick", [(1, 27), (8, 139)])
def test_requester_answers_once_per_property_evaluation(
        monkeypatch, delegates, final_tick):
    calls = {"respond_mac_challenge": 0, "respond_conflicting_request": 0}
    for name in calls:
        original = getattr(PeerAgent, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(PeerAgent, name, counted)
    engine = SimulationEngine(parse_scenario(delegated_scenario(delegates)))
    report = engine.run()
    evaluations = sum(len(n.per_property) for n in report.negotiations)
    assert evaluations == 4
    assert calls == {"respond_mac_challenge": evaluations,
                     "respond_conflicting_request": evaluations}
    # Every delegate is still charged its probes' message ticks.
    assert engine.now == final_tick


#: Three asks for a confidentiality + noshare file by two honest
#: requesters whose inboxes hold equal properties, one of them asking
#: twice: six property evaluations, two distinct questions.
REPEATED_QUESTIONS = """peer own
peer h1
peer h2
peer d0
knows own d0 0.9
domain own vault
property own vault confidentiality
property own vault noshare
resource own doc vault
domain h1 inbox
property h1 inbox confidentiality
property h1 inbox noshare
domain h2 inbox
property h2 inbox confidentiality
property h2 inbox noshare
ask h1 own doc inbox
ask h1 own doc inbox
ask h2 own doc inbox
"""


def test_each_distinct_question_is_answered_once_per_run(monkeypatch):
    calls = {"respond_mac_challenge": 0, "respond_conflicting_request": 0}
    for name in calls:
        original = getattr(PeerAgent, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(PeerAgent, name, counted)
    scenario = parse_scenario(REPEATED_QUESTIONS)
    reports = []
    for run in (1, 2):
        report = SimulationEngine(scenario).run()
        # One call each per (enforces, offered kinds, kind); a second
        # engine asks its questions afresh.
        assert calls == {"respond_mac_challenge": 2 * run,
                         "respond_conflicting_request": 2 * run}
        reports.append(render_report(report))
    assert sum(len(n.per_property) for n in report.negotiations) == 6
    assert all(c.chal == 1.0 for n in report.negotiations
               for _, c in n.per_property)
    assert reports[0] == reports[1]


def test_delegate_consultations_on_the_delegate_golden(monkeypatch):
    """What ``golden/delegates.report`` cannot show: how many delegates
    each challenged evaluation consults, and the clock the run ends on.
    A requester the owner accepts keeps a reputation equal to the
    full-trust threshold, and a delegate must be trusted strictly above
    it, so every challenged evaluation consults the 3 declared
    delegates."""
    consulted = []
    original = simnet.run_challenges

    def counted(delegates, target, kind, harness):
        consulted.append(len(delegates))
        return original(delegates, target, kind, harness)
    monkeypatch.setattr(simnet, "run_challenges", counted)
    engine = SimulationEngine(parse_scenario(
        (GOLDEN / "delegates.scn").read_text()))
    report = engine.run()
    # Two evaluations are by delegate D1, which trusts no one.
    assert sum(len(n.per_property) for n in report.negotiations) == 54
    assert len(consulted) == 52
    assert consulted == [3] * 52
    assert engine.now == 671


#: A delegate the owner refuses falls to 0.49 and leaves its list.
DELEGATE_DROPS_OUT = """peer own
peer d1 behavior=informed-liar
peer d2
peer h
knows own d1 0.51
knows own d2 0.9
domain own vault
property own vault confidentiality
resource own doc vault
domain d1 open
domain h inbox
property h inbox confidentiality
ask d1 own doc open
ask h own doc inbox
ask d1 own doc open
"""


def experiment(seed: int, index: int):
    return simnet._experiment_scenario(PopulationParams(seed=seed), index,
                                       {})


#: Scenarios whose runs the maintained structures are checked against.
RUNS = {
    "contract": lambda: load("contract.scn"),
    "firefox": lambda: load("firefox.scn"),
    "delegates": lambda: parse_scenario(
        (GOLDEN / "delegates.scn").read_text()),
    "drops-out": lambda: parse_scenario(DELEGATE_DROPS_OUT),
    # Every requester judged FULL keeps 0.6 and becomes a delegate.
    "accepted-become-delegates": lambda: parse_scenario(
        "config initial_reputation 0.6\n" + delegated_scenario(2)),
    **{f"experiment-{seed}-{index}": (
        lambda seed=seed, index=index: experiment(seed, index))
       for seed in (1, 7) for index in range(4)},
}


def fresh_delegates(engine, owner, *excluded):
    """The delegate rule applied afresh to the owner's ledger."""
    threshold = engine.config.full_trust_threshold
    skip = {owner.uid, *(agent.uid for agent in excluded)}
    return sorted((peer, value)
                  for peer, value in owner.ledger.reputations.items()
                  if value > threshold and peer not in skip)


@pytest.mark.parametrize("name", RUNS)
def test_maintained_delegate_lists_match_a_fresh_filter(name):
    engine = SimulationEngine(RUNS[name]())
    original = engine._negotiate
    lists = []

    def negotiate(action):
        owner = engine.agents[action.owner]
        requester = engine.agents[action.requester]
        for agent in engine.agents.values():
            assert engine._delegates[agent.uid] == fresh_delegates(
                engine, agent)
        used = engine._delegates_for(owner, requester)
        assert used == fresh_delegates(engine, owner, requester)
        lists.append([peer for peer, _ in used])
        original(action)
    engine._negotiate = negotiate
    engine.run()
    assert len(lists) == sum(isinstance(a, simnet.AskAction)
                             for a in engine.scenario.actions)
    if name == "drops-out":
        assert lists == [["d2"], ["d2"], ["d2"]]
        assert engine._delegates["own"] == [("d2", 0.9)]
    if name == "accepted-become-delegates":
        assert lists == [["d0", "d1"], ["d0", "d1", "honest"]]


def test_the_engine_checks_no_trust_again(monkeypatch):
    """A scenario holds each trust to the ledger's rule, so the engine
    fills each peer's ledger with its trusts after the ledger's check,
    which meets none of them."""
    checked = []
    check = TrustLedger.__post_init__
    monkeypatch.setattr(TrustLedger, "__post_init__", lambda ledger: (
        checked.extend(ledger.reputations) or check(ledger)))
    scenario = parse_scenario("peer a\npeer b\nknows a b 0.9\n"
                              "knows b a 1\n")
    engine = SimulationEngine(scenario)
    assert checked == []
    assert {uid: agent.ledger.reputations
            for uid, agent in engine.agents.items()} == {
        "a": {"b": 0.9}, "b": {"a": 1}}


@pytest.mark.parametrize("name", RUNS)
def test_history_index_matches_a_scan_of_the_ledger(name, monkeypatch):
    """Over a run, each ledger's lookups agree with a scan of the records
    it was given, logged here in a plain list per ledger."""
    logs = {}
    record = TrustLedger.record

    def logged(ledger, rec):
        logs.setdefault(id(ledger), []).append(rec)
        record(ledger, rec)
    monkeypatch.setattr(TrustLedger, "record", logged)
    engine = SimulationEngine(RUNS[name]())
    engine.run()
    for agent in engine.agents.values():
        log = logs.get(id(agent.ledger), [])
        for actor in {r.actor for r in log} | {"nobody"}:
            assert agent.ledger.records_by(actor) == tuple(
                r for r in log if r.actor == actor)
        assert agent.ledger._keys == {
            (r.actor, r.timestamp, r.property_kind) for r in log}


@pytest.mark.parametrize("name", ["contract", "firefox", "delegates"])
def test_projection_matches_the_policy_after_every_action(name):
    """After every action, an honest answer to each probe for each
    domain a peer holds is what the compiled policy decides."""
    engine = SimulationEngine(RUNS[name]())
    original = engine._dispatch
    answers = 0

    def dispatch(action):
        nonlocal answers
        original(action)
        for agent in engine.agents.values():
            honest = PeerAgent(agent.uid, agent.policy)
            rules = compile_policy(agent.policy).domain_rules
            for domain, stub in product(rules, PROBE_PERMISSIONS):
                challenge = build_challenge(
                    "f", CHALLENGE_SUBJECT, stub, DEFAULT_RULESET,
                    object_context(domain))
                record = honest.respond_mac_challenge(challenge, domain, 1)
                assert record.decision is check_access(
                    rules[domain], PermissionClass.FILE,
                    PROBE_PERMISSIONS[stub])
                answers += 1
    engine._dispatch = dispatch
    report = engine.run()
    assert answers > 0
    assert render_report(report) == (GOLDEN / f"{name}.report").read_text()


@pytest.fixture
def compile_calls(monkeypatch):
    """Every ``compile_policy`` call made through any ``p2psec`` module,
    patched in each module that binds it, as ``perfbench/spans.py``
    traces it."""
    calls = []
    original = p2psec.compile_policy

    def counted(policy):
        calls.append(policy)
        return original(policy)
    for key, module in list(sys.modules.items()):
        if key == "p2psec" or key.startswith("p2psec."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return calls


def test_owner_edits_without_probes_compile_no_policy(monkeypatch,
                                                       compile_calls):
    installed = []
    original_apply = PeerAgent.apply_policy

    def counted_apply(self, policy):
        installed.append(self.uid)
        return original_apply(self, policy)
    monkeypatch.setattr(PeerAgent, "apply_policy", counted_apply)
    run_scenario(parse_scenario(
        "peer own\npeer h\ndomain own vault\nproperty own vault integrity\n"
        "resource own doc vault\ndomain h inbox\n"
        "property h inbox integrity\nask h own doc inbox\n"
        "add-property own vault confidentiality\ncreate-domain own extra\n"
        "publish own memo extra\nask h own doc inbox\n"
        "create-domain own spare\ndelete-domain own spare\n"))
    assert installed == ["own"] * 5
    # Nor does any other run: a challenge is answered from the policy.
    for name in ("contract", "firefox", "delegates"):
        run_scenario(RUNS[name]())
    detection_experiment(PopulationParams(seed=416), runs=100)
    assert compile_calls == []


def test_parse_builds_each_peer_policy_once(monkeypatch):
    # Each declaration is one builder step and each policy is frozen
    # once, so a parse is linear in its statements.  Counting freezes
    # guards that without a wall-clock bound.
    built = []
    original = PolicyBuilder.freeze

    def counted(builder):
        built.append(original(builder))
        return built[-1]
    monkeypatch.setattr(PolicyBuilder, "freeze", counted)
    lines = ["peer a", "peer b"]
    for i in range(400):
        lines += [f"domain a d{i}", f"resource a f{i} d{i}",
                  f"property a d{i} confidentiality",
                  f"property a f{i} integrity", f"domain b d{i}"]
    scenario = parse_scenario("\n".join(lines))
    assert len(lines) == 2002
    owner, other = (decl.policy for decl in scenario.peers)
    assert len(built) == 2
    assert built[0] is owner and built[1] is other
    assert (len(owner.domains), len(owner.resources)) == (400, 400)
    assert len(other.domains) == 400


#: Property token lists of the owner's domains in ``shaped_scenario``.
_OWNER_MIXES = ((), ("integrity",), ("confidentiality",),
                ("noshare", "integrity"), ("cooperation k0",),
                ("spread", "integrity"), ("nopublication",),
                ("confidentiality k1", "integrity"))


def shaped_scenario(domains=40):
    """A scenario of the benchmark's shape: an owner with ``domains``
    domains of mixed properties and one or two files each, some with
    their own property; three delegates; requesters of every behaviour
    with their own domains; asks, publications and the other owner
    edits."""
    lines = ["seed 5", "peer o name=Owner", "peer h0", "peer h1",
             "peer b0 behavior=blind-liar", "peer m0 behavior=informed-liar",
             "peer f0 behavior=log-forger"]
    for i in range(3):
        lines += [f"peer k{i}", f"knows o k{i} 0.{7 + i}"]
    for d in range(domains):
        mix = _OWNER_MIXES[d % len(_OWNER_MIXES)]
        lines.append(f"domain o d{d}")
        lines += [f"property o d{d} {tokens}" for tokens in mix]
        lines.append(f"resource o r{d}a d{d}")
        if d % 3 == 0:
            lines += [f"resource o r{d}b d{d}", f"property o r{d}b integrity"]
    for uid in ("h0", "h1", "f0"):
        for j, mix in enumerate(_OWNER_MIXES[1:4]):
            lines.append(f"domain {uid} keep{j}")
            lines += [f"property {uid} keep{j} {tokens}" for tokens in mix]
    lines += ["domain b0 drop", "domain m0 drop"]
    for a in range(domains):
        uid = ("h0", "h1", "b0", "m0", "f0")[a % 5]
        domain = "drop" if uid in ("b0", "m0") else f"keep{a % 3}"
        lines.append(f"ask {uid} o r{a}a {domain}")
        if a % 4 == 3:
            lines += [f"publish o new{a} d{a} integrity",
                      f"add-property o d{a} integrity",
                      f"create-domain o fresh{a}"]
    lines.append("delete-domain o d1")
    return "\n".join(lines) + "\n"


def test_a_parse_runs_no_model_check(monkeypatch):
    """Each builder step checks what it adds itself and builds its
    values unchecked, so parsing the bundled scenarios and one of the
    benchmark's shape runs no ``Domain`` or ``Resource`` check and no
    policy validation; building the same values in code runs them."""
    calls = []
    for cls, name in ((Domain, "__post_init__"), (Resource, "__post_init__"),
                      (PeerPolicy, "validate")):
        check = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda value, check=check: (
            calls.append(type(value)) or check(value)))
    texts = [path.read_text() for path in sorted(SCENARIOS.glob("*.scn"))]
    scenarios = [parse_scenario(text) for text in texts + [shaped_scenario()]]
    assert len(scenarios) == 3
    assert calls == []
    owner = scenarios[-1].peers[0].policy
    assert (len(owner.domains), len(owner.resources)) == (40, 54)
    PeerPolicy(owner.domains, owner.resources, owner.next_id)
    Domain(1, "d")
    Resource(1, "f", 1)
    assert calls == [PeerPolicy, Domain, Resource]


@pytest.mark.parametrize("text", [
    (GOLDEN / "delegates.scn").read_text(), shaped_scenario()],
    ids=["delegates", "shaped"])
def test_a_parse_meets_the_roster_once_per_statement(monkeypatch, text):
    """Each ``peer``, ``knows`` and action statement meets ``_Roster``
    once, on its line, so the parse builds its ``Scenario`` without
    replaying the roster; rebuilding the scenario in code replays it
    once."""
    calls = []
    for name in ("declare", "know", "act"):
        check = getattr(simnet._Roster, name)
        monkeypatch.setattr(simnet._Roster, name,
                            lambda roster, *args, name=name, check=check: (
                                calls.append(name) or check(roster, *args)))
    scenario = parse_scenario(text)
    statements = [line.split()[0] for line in text.splitlines()
                  if line.split("#", 1)[0].strip()]
    meets = {"peer": "declare", "knows": "know", "ask": "act",
             "publish": "act", "add-property": "act", "create-domain": "act",
             "delete-domain": "act", "show": "act"}
    expected = [meets[stmt] for stmt in statements if stmt in meets]
    assert set(expected) == {"declare", "know", "act"}
    assert calls == expected
    calls.clear()
    assert replace(scenario) == scenario
    assert sorted(calls) == sorted(expected)


def test_installing_a_policy_validates_it_at_once():
    # A policy checks itself when built, so no broken one can be
    # handed to an agent.
    policy = PeerPolicy().create_domain("drop")
    with pytest.raises(PolicyValidationError):
        replace(policy, next_id=0)
    agent = PeerAgent("x", policy)
    assert agent.policy is policy
    grown = policy.create_domain("inbox")
    agent.apply_policy(grown)
    assert agent.policy is grown


def scaled_experiment(asks: int):
    """``_experiment_scenario`` with ``asks // 5`` requesters of each
    behaviour (honest requesters ask twice) and 2 delegates."""
    k = asks // 5
    return simnet._experiment_scenario(PopulationParams(
        seed=1, delegates=2, honest_requesters=k, blind_liars=k,
        informed_liars=k, log_forgers=k), 0, {})


def test_clock_grows_linearly_with_asks():
    """Ticks per ask at 100 and at 1600 asks stay within 1.1x: the
    delegate list does not grow with the requesters the owner accepts."""
    per_ask = {}
    for asks in (100, 1600):
        engine = SimulationEngine(scaled_experiment(asks))
        assert len(engine.run().negotiations) == asks
        per_ask[asks] = engine.now / asks
    assert max(per_ask.values()) <= 1.1 * min(per_ask.values())


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


def test_publish_with_nopublication_is_refused_in_the_transcript():
    """The policy refuses a published file's nopublication as it refuses
    any publication, when the edit runs, whether the scenario was parsed
    or built in code."""
    scenario = parse_scenario("peer a\ndomain a d\n"
                              "publish a f d nopublication\n")
    assert Scenario(peers=scenario.peers,
                    actions=scenario.actions) == scenario
    assert scenario.actions == (
        EditAction("a", "publish", ((NOPUBLICATION,), "f", "d")),)
    assert ("a: publication refused: nopublication applies to domains, "
            "not resources") in run_scenario(scenario).transcript


def test_add_property_nopublication_on_a_file_is_refused():
    scenario = parse_scenario(
        "peer a\ndomain a d\nresource a f d\n"
        "add-property a f nopublication\n")
    transcript = run_scenario(scenario).transcript
    assert ("a: property nopublication refused on f: nopublication "
            "applies to domains, not resources") in transcript


HELD_PATH_SCENARIO = """\
peer a
peer b
peer c
knows a c 0.9
domain a d
property a d integrity
resource a f d
domain b inbox
property b inbox integrity
domain b other
property b other integrity
ask b a f inbox
ask b a f inbox
show b
"""


def test_a_slice_for_another_domain_stops_the_run(monkeypatch):
    """A requester whose slice names a domain other than the ask's would
    reveal that domain's policy, so the engine stops the run."""
    monkeypatch.setattr(PeerAgent, "slice_for",
                        lambda self, domain_name, required, rng:
                        PolicySlice("other"))
    with pytest.raises(PrivacyViolationError) as err:
        run_scenario(parse_scenario(HELD_PATH_SCENARIO))
    assert str(err.value) == ("slice for 'other' leaked during a "
                              "negotiation about 'inbox'")


def test_repeated_ask_into_the_same_domain_keeps_one_copy(monkeypatch):
    recompiles = []
    original = PeerAgent.apply_policy

    def counted(self, policy):
        recompiles.append(self.uid)
        return original(self, policy)
    monkeypatch.setattr(PeerAgent, "apply_policy", counted)
    engine = SimulationEngine(parse_scenario(HELD_PATH_SCENARIO))
    report = engine.run()
    assert [n.outcome for n in report.negotiations] == [Outcome.ACCEPTED] * 2
    b = engine.agents["b"]
    assert [r.path for r in b.policy.resources] == ["f"]
    # The second transfer leaves b's policy and projection as they are.
    assert recompiles == ["b"]
    assert report.transcript.count("b: file f placed in domain inbox") == 2
    assert report.transcript.count(
        "[Display b] <file> f in inbox under [integrity]") == 1
    # Both ledgers hold the two receipts from a, one per transfer tick.
    records = engine.agents["a"].ledger.records_by("b")
    assert b.ledger.records_by("b") == records
    assert [(r.counterparty, r.violation) for r in records] == [
        ("a", False)] * 2
    assert records[0].timestamp < records[1].timestamp


def test_ask_into_another_domain_moves_the_held_copy():
    scenario = parse_scenario(HELD_PATH_SCENARIO
                              + "ask b a f other\nshow b\n")
    engine = SimulationEngine(scenario)
    report = engine.run()
    assert report.negotiations[-1].outcome is Outcome.ACCEPTED
    b = engine.agents["b"]
    (held,) = b.policy.resources
    assert b.policy.domain_by_id(held.domain_id).name == "other"
    assert report.transcript[-4:] == (
        "b: file f placed in domain other",
        "[Display b] <domain> inbox secured by [integrity]",
        "[Display b] <domain> other secured by [integrity]",
        "[Display b] <file> f in other under [integrity]",
    )
    assert compile_policy(b.policy).resource_domains == {"f": "other"}


def test_publish_of_a_held_path_is_refused():
    scenario = parse_scenario(
        "peer a\ndomain a d\nresource a f d\ndomain a e\n"
        "publish a f e\nshow a\n")
    transcript = run_scenario(scenario).transcript
    assert "a: publication refused: file f already exists" in transcript
    assert [line for line in transcript if "<file>" in line] == [
        "[Display a] <file> f in d under null"]


def test_show_lists_domains_and_files():
    report = run_scenario(load("contract.scn"))
    assert ("[Display JFL] <domain> ensib secured by "
            "[confidentiality, integrity]") in report.transcript
    assert ("[Display JFL] <file> contract in ensib under "
            "[confidentiality, integrity]") in report.transcript


class TestBehaviors:
    def agent(self, behavior, props=()):
        policy = PeerPolicy().create_domain("drop")
        for prop in props:
            policy = policy.add_property("drop", prop)
        return PeerAgent("x", policy, behavior)

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

    def challenge(self, stub="vim"):
        return Challenge(
            scontext=CHALLENGE_SUBJECT,
            stub=stub,
            target_path="f", expected=Decision.DENIED,
            expected_permissions=frozenset({"read"}),
            expected_tcontext=object_context("drop"))

    def test_honest_mac_response_reflects_policy(self):
        agent = self.agent(BehaviorModel.HONEST, (confidentiality(),))
        record = agent.respond_mac_challenge(self.challenge(), "drop", 1)
        assert record.decision is Decision.DENIED
        assert record.permissions == frozenset({"read"})
        assert record.comm == "vim"
        assert record.tcontext.type_name == "drop_t"
        # The permission is the one the stub probes.
        record = agent.respond_mac_challenge(self.challenge("editor-write"),
                                             "drop", 1)
        assert record.decision is Decision.GRANTED
        assert record.permissions == frozenset({"write"})
        # A domain the peer does not hold enforces the default ruleset.
        record = agent.respond_mac_challenge(self.challenge(), "other", 1)
        assert record.decision is Decision.GRANTED
        assert record.tcontext.type_name == "other_t"

    def test_liar_mac_response_grants_everything(self):
        agent = self.agent(BehaviorModel.BLIND_LIAR, (confidentiality(),))
        record = agent.respond_mac_challenge(self.challenge(), "drop", 1)
        assert record.decision is Decision.GRANTED

    @pytest.mark.parametrize("behavior", list(BehaviorModel))
    def test_mac_challenge_with_an_unknown_stub_is_refused(self, behavior):
        agent = self.agent(behavior, (confidentiality(),))
        with pytest.raises(ChallengeError,
                           match="unknown command stub 'wget'"):
            agent.respond_mac_challenge(self.challenge("wget"), "drop", 1)

    @pytest.mark.parametrize("tick", [
        -1, True, 1.0, "1",
        pytest.param(10**5000, id="too-long-to-write")])
    def test_mac_challenge_at_a_bad_tick_is_refused(self, tick):
        agent = self.agent(BehaviorModel.HONEST, (confidentiality(),))
        with pytest.raises(AvcParseError) as caught:
            agent.respond_mac_challenge(self.challenge(), "drop", tick)
        # str refuses the record's numbers, ino = 170000 + tick the first.
        assert str(caught.value) == (
            "AVC tick has too many digits" if type(tick) is int and tick > 0
            else f"AVC tick must be a non-negative int, not {tick!r}")

    def test_a_number_too_long_to_write_is_named_not_written(self):
        """Each number check names such an int in its package error
        instead of letting ``repr`` raise a bare ``ValueError``."""
        agent = self.agent(BehaviorModel.HONEST, (confidentiality(),))
        record = agent.respond_mac_challenge(self.challenge(), "drop", 1)
        huge = "an int too long to write"
        for build, error, message in (
                (lambda: agent.respond_mac_challenge(
                    self.challenge(), "drop", -10**5000), AvcParseError,
                 f"AVC tick must be a non-negative int, not {huge}"),
                (lambda: replace(record, pid=-10**5000), AvcParseError,
                 f"AVC pid must be a non-negative int, not {huge}"),
                (lambda: replace(record, ino=-10**5000), AvcParseError,
                 f"AVC ino must be a non-negative int, not {huge}"),
                (lambda: TrustConfig(refuse_threshold=10**5000), TrustError,
                 f"refuse_threshold must be a finite number, not {huge}")):
            with pytest.raises(error) as caught:
                build()
            assert str(caught.value) == message
        # A long int that str still writes is written.
        assert not too_long_to_write(10**1000)
        assert written(10**1000) == str(10**1000)

    def test_forger_presents_extra_records(self):
        agent = self.agent(BehaviorModel.LOG_FORGER)
        records, forged = agent.present_history(
            (PropertyKind.CONFIDENTIALITY,), now=10)
        assert forged == 1
        assert len(records) == 1
        assert records[0].counterparty == "ghost1-x"

    def test_honest_presents_only_own_records(self):
        agent = self.agent(BehaviorModel.HONEST)
        other = "y"
        agent.ledger.record(HistoryRecord(
            timestamp=1, actor=other,
            property_kind=PropertyKind.CONFIDENTIALITY))
        agent.ledger.record(HistoryRecord(
            timestamp=2, actor=agent.uid,
            property_kind=PropertyKind.CONFIDENTIALITY, counterparty=other))
        records, forged = agent.present_history(
            (PropertyKind.CONFIDENTIALITY,), now=10)
        assert forged == 0
        assert [(r.timestamp, r.counterparty) for r in records] == [
            (2, other)]


class TestCrossReference:
    def make_agents(self):
        me = "me"
        counterpart = "cp"
        agents = {"cp": PeerAgent(counterpart, PeerPolicy())}
        return me, counterpart, agents

    def test_matching_record_verifies(self):
        me, counterpart, agents = self.make_agents()
        shared = HistoryRecord(timestamp=5, actor=me,
                               property_kind=PropertyKind.INTEGRITY,
                               counterparty=counterpart)
        agents["cp"].ledger.record(shared)
        checked = cross_reference_history([shared], agents, me)
        assert checked == [(shared, True)]

    def test_unknown_counterparty_flagged(self):
        me, _, agents = self.make_agents()
        fake = HistoryRecord(timestamp=5, actor=me,
                             property_kind=PropertyKind.INTEGRITY,
                             counterparty="ghost1")
        checked = cross_reference_history([fake], agents, me)
        assert checked == [(fake, False)]

    def test_known_counterparty_without_match_flagged(self):
        me, counterpart, agents = self.make_agents()
        fake = HistoryRecord(timestamp=5, actor=me,
                             property_kind=PropertyKind.INTEGRITY,
                             counterparty=counterpart)
        checked = cross_reference_history([fake], agents, me)
        assert checked == [(fake, False)]

    def test_record_with_the_wrong_kind_flagged(self):
        me, counterpart, agents = self.make_agents()
        agents["cp"].ledger.record(HistoryRecord(
            timestamp=5, actor=me, property_kind=PropertyKind.INTEGRITY,
            counterparty=counterpart))
        forged = HistoryRecord(timestamp=5, actor=me,
                               property_kind=PropertyKind.CONFIDENTIALITY,
                               counterparty=counterpart)
        checked = cross_reference_history([forged], agents, me)
        assert checked == [(forged, False)]

    def test_record_without_counterparty_flagged(self):
        # Like a record naming an unknown peer, it names no ledger that
        # could confirm it.
        me, _, agents = self.make_agents()
        plain = HistoryRecord(timestamp=5, actor=me,
                              property_kind=PropertyKind.INTEGRITY)
        checked = cross_reference_history([plain], agents, me)
        assert checked == [(plain, False)]


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

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            PopulationParams(blind_liars=-1)

    @pytest.mark.parametrize("field, value", [
        ("delegates", True),
        ("delegates", 2.5),
        ("log_forgers", 1.0),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", False),
        pytest.param("seed", 10**5000, id="seed-long-int"),
        pytest.param("delegates", COUNT(2), id="delegates-int-subclass"),
    ])
    def test_a_population_value_that_is_no_int_is_refused(self, field,
                                                          value):
        with pytest.raises(ValueError) as err:
            PopulationParams(**{field: value})
        assert str(err.value) == (f"{field} must be an int, "
                                  f"not {not_an_int(value)}")

    @pytest.mark.parametrize("runs", [
        True, 2.0, "3", pytest.param(COUNT(2), id="int-subclass")])
    def test_runs_that_are_no_int_are_refused(self, runs):
        with pytest.raises(ValueError) as err:
            detection_experiment(PopulationParams(), runs)
        assert str(err.value) == (f"runs must be an int, "
                                  f"not {not_an_int(runs)}")

    def test_population_table_lists_each_behaviour_and_count_once(self):
        rows = simnet._POPULATION
        counts = [f.name for f in fields(PopulationParams)
                  if f.name not in ("seed", "delegates")]
        assert sorted(row[0].value for row in rows) == sorted(
            model.value for model in BehaviorModel)
        assert sorted(row[1] for row in rows) == sorted(counts)
        # Distinct uid prefixes, none a delegate's.
        prefixes = [row[2] for row in rows]
        assert len(set(prefixes)) == len(prefixes) and "c" not in prefixes

    def test_a_behaviour_with_no_asks_is_left_out(self):
        report = detection_experiment(PopulationParams(seed=3,
                                                       log_forgers=0), 2)
        assert report.stat(BehaviorModel.LOG_FORGER).negotiations == 0
        lines = render_experiment(report).splitlines()
        assert [line.split()[0] for line in lines[1:-2]] == [
            "behavior=honest", "behavior=blind-liar",
            "behavior=informed-liar"]


def test_kind_tables_agree_with_their_definitions():
    for a, b in product(PropertyKind, repeat=2):
        assert conflicts(a, b) == (
            frozenset({a, b}) in CONFLICTING_KIND_PAIRS), (a, b)
        first = next((k for k in KIND_ORDER if conflicts(k, b)), None)
        assert (simnet.PROBE_KINDS[b] is a) == (first is a), (a, b)


def test_detection_experiment_renders_no_transcript(monkeypatch):
    calls = []
    render = simnet.render_transcript

    def counted(*args):
        calls.append(args)
        return render(*args)

    monkeypatch.setattr(simnet, "render_transcript", counted)
    detection_experiment(PopulationParams(seed=3), runs=4)
    assert calls == []
    report = run_scenario(parse_scenario(
        (SCENARIOS / "contract.scn").read_text()))
    assert report.transcript is report.transcript
    assert len(calls) == 1


def _holdable_property_sets():
    """Every property set a domain can hold, up to its target names: each
    kind set, with each targeted kind untargeted or targeted, that the
    builder accepts."""
    forms = {kind: [SecurityProperty(kind)] for kind in PropertyKind}
    for kind in (PropertyKind.CONFIDENTIALITY, PropertyKind.COOPERATION):
        forms[kind].append(SecurityProperty(kind, frozenset({"x"})))
    held = []
    for size in range(len(KIND_ORDER) + 1):
        for kinds in combinations(KIND_ORDER, size):
            for props in product(*(forms[kind] for kind in kinds)):
                builder = PolicyBuilder().create_domain("dst")
                try:
                    for prop in props:
                        builder.add_property("dst", prop)
                except PropertyConflictError:
                    continue
                held.append(builder.freeze())
    return held


def verdict_questions():
    """Every (requester, offered slice) question of a probe round, with
    every requester behind its key: both behaviours that share its
    ``enforces``; for an enforcing peer, each domain property set it can
    hold, which it offers as its slice; for a peer that enforces
    nothing, every offered kind set against each domain kind set and
    against no domain."""
    domains = _holdable_property_sets()
    one_per_kind_set = list({frozenset(p.domains[0].kinds): p
                             for p in domains}.values())
    questions = []
    for behavior in BehaviorModel:
        agents = [PeerAgent("r", policy, behavior) for policy in (
            domains if behavior.enforces
            else [*one_per_kind_set, PeerPolicy()])]
        if behavior.enforces:
            questions += [(agent, agent.slice_for("dst", (),
                                                  random.Random(0)))
                          for agent in agents]
            continue
        for size in range(len(KIND_ORDER) + 1):
            for kinds in combinations(KIND_ORDER, size):
                offered = PolicySlice("dst", frozenset(
                    SecurityProperty(kind) for kind in kinds))
                questions += [(agent, offered) for agent in agents]
    return questions


def test_every_verdict_key_has_one_verdict():
    """The engine keys a probe round on (enforces, offered kinds, kind).
    Every key is asked with every requester behind it
    (``verdict_questions``).  All its rounds give one verdict, and one
    engine's shared table serves each question the verdict a fresh
    round gives, so no two questions that differ in their verdicts
    share a key."""
    engine = SimulationEngine(Scenario(peers=(
        PeerDecl(uid="c0", display_name="C", policy=PeerPolicy()),)))
    session = NegotiationSession(Resource(1, "res", 1), "src", ())
    fresh = SimulationEngine(Scenario())
    by_key = {}
    for (agent, offered), kind in product(verdict_questions(), KIND_ORDER):
        verdict = fresh._probe_round("res", offered, agent, kind)
        by_key.setdefault((agent.behavior.enforces, offered.kinds, kind),
                          set()).add(verdict)
        harness = engine._probe_harness(session, offered, agent, kind)
        assert harness("c0", "r", kind) == [float(p) for p in verdict], (
            agent.behavior, offered.kinds, kind)
    # 48 holdable kind sets (no noshare with spread), all 64 offered.
    assert len(by_key) == (48 + 64) * len(KIND_ORDER)
    assert all(len(verdicts) == 1 for verdicts in by_key.values())
    assert len(engine._verdicts) == len(by_key)


def render_verdicts() -> str:
    """The verdict table, one sorted line per key that
    ``verdict_questions`` reaches: whether the requester enforces, the
    offered kinds (``-`` for none) and the probed kind, then each probe
    of a fresh round (the conflicting-transfer probe, when the kind has
    one, then the MAC challenge) as pass or fail."""
    fresh = SimulationEngine(Scenario())
    lines = set()
    for (agent, offered), kind in product(verdict_questions(), KIND_ORDER):
        verdict = fresh._probe_round("res", offered, agent, kind)
        probes = ("conflict", "mac") if simnet.PROBE_KINDS[kind] else ("mac",)
        lines.add(" ".join((
            f"enforces={'yes' if agent.behavior.enforces else 'no'}",
            "offered=" + (",".join(k.value for k in KIND_ORDER
                                   if k in offered.kinds) or "-"),
            f"kind={kind.value}",
            *(f"{probe}={'pass' if passed else 'fail'}"
              for probe, passed in zip(probes, verdict, strict=True)))))
    return "".join(f"{line}\n" for line in sorted(lines))


def test_the_verdict_table_matches_its_golden():
    """``golden/verdicts.txt`` pins every key's verdict: which claims a
    peer that enforces nothing is caught on.  One line per key, so no
    key has two verdicts.  A change meant to alter it regenerates it
    with ``render_verdicts`` and says why."""
    table = render_verdicts()
    assert len(table.splitlines()) == (48 + 64) * len(KIND_ORDER)
    assert table == (GOLDEN / "verdicts.txt").read_text()


@pytest.mark.parametrize("seed", [1, 7, 416])
def test_a_shared_scenario_table_changes_no_scenario(seed):
    """Each run's scenario, built from the parts of the first run that
    drew its mix, equals the one built with a fresh, empty table, and
    shares those parts."""
    params = PopulationParams(seed=seed, delegates=3, honest_requesters=2)
    shared = {}
    for index in range(40):
        scenario = simnet._experiment_scenario(params, index, shared)
        assert scenario == simnet._experiment_scenario(params, index, {})
        assert scenario.seed == index
        first = next(s for s in shared.values()
                     if s.peers[0].policy is scenario.peers[0].policy)
        assert (scenario.peers, scenario.actions) == (first.peers,
                                                       first.actions)
        assert scenario.peers is first.peers
    assert set(shared) <= set(range(len(simnet._REQUIRED_MIXES)))


def test_an_experiment_builds_each_drawn_mixs_peers_once(monkeypatch):
    params = PopulationParams(seed=5, delegates=3)
    runs = 30
    mixes = {id(simnet._experiment_scenario(params, index, {})
                .peers[0].policy) for index in range(runs)}
    built = []

    def counted(*args, **kwargs):
        built.append(PeerDecl(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(simnet, "PeerDecl", counted)
    detection_experiment(params, runs)
    # The owner, 3 delegates and one requester of each behaviour.
    assert 1 < len(mixes) < runs
    assert len(built) == len(mixes) * (1 + 3 + 4)
