"""Trust pipeline: history scoring, challenges, trust values, reputation."""

import re

import pytest

from p2psec import (
    Band,
    HistoryRecord,
    HistoryScore,
    NoDelegatesError,
    PropertyKind,
    TrustConfig,
    TrustError,
    TrustLedger,
    band,
    eval_hist_norm,
    eval_history,
    run_challenges,
    trust_value,
    update_reputation,
)

ALICE = "alice"
BOB = "bob"
CARA = "cara"


def record(timestamp, violation=False, kind=PropertyKind.CONFIDENTIALITY,
           actor=BOB):
    return HistoryRecord(timestamp=timestamp, actor=actor,
                         property_kind=kind, violation=violation,
                         counterparty=ALICE)


#: (field, value, message) for each TrustConfig value no run can use.
CONFIG_REFUSALS = [
    ("refuse_decrement", float("nan"),
     "refuse_decrement must be a finite number, not nan"),
    ("partial_decrement", float("inf"),
     "partial_decrement must be a finite number, not inf"),
    ("refuse_decrement", 10**400,
     f"refuse_decrement must be a finite number, not {10**400}"),
    ("initial_reputation", True,
     "initial_reputation must be a finite number, not True"),
    ("refuse_threshold", "0.1",
     "refuse_threshold must be a finite number, not '0.1'"),
    ("full_trust_threshold", None,
     "full_trust_threshold must be a finite number, not None"),
    ("history_window", 2.5, "history_window must be an int, not 2.5"),
    ("history_window", True, "history_window must be an int, not True"),
    ("challenge_weight", 1.5, "challenge weight must lie in [0, 1]"),
    ("challenge_weight", -0.1, "challenge weight must lie in [0, 1]"),
    ("challenge_weight", float("nan"),
     "challenge_weight must be a finite number, not nan"),
    ("refuse_decrement", 0, "reputation decrements must be positive"),
]


class TestConfig:
    def test_defaults(self):
        config = TrustConfig()
        assert config.refuse_threshold == 0.2
        assert config.full_trust_threshold == 0.5
        assert config.initial_reputation == 0.5
        assert config.challenge_weight + config.eval_weight == 1.0

    def test_rejects_bad_thresholds(self):
        with pytest.raises(TrustError):
            TrustConfig(refuse_threshold=0.6, full_trust_threshold=0.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(TrustError):
            TrustConfig(challenge_weight=1.2)

    @pytest.mark.parametrize("challenge_weight", [0, 0.75, 1.0])
    def test_eval_weight_is_what_the_challenges_leave(self, challenge_weight):
        config = TrustConfig(challenge_weight=challenge_weight)
        assert config.eval_weight == 1.0 - challenge_weight

    @pytest.mark.parametrize(
        "field, value, message", CONFIG_REFUSALS,
        ids=[f"{field}={value!r}"[:40] for field, value, _ in CONFIG_REFUSALS])
    def test_rejects_values_no_run_can_use(self, field, value, message):
        with pytest.raises(TrustError, match=f"^{re.escape(message)}$"):
            TrustConfig(**{field: value})


class TestHistory:
    def test_no_data(self):
        assert eval_history([], PropertyKind.CONFIDENTIALITY,
                            now=100, window=50) is HistoryScore.NO_DATA

    def test_clean(self):
        records = [record(90)]
        assert eval_history(records, PropertyKind.CONFIDENTIALITY,
                            now=100, window=50) is HistoryScore.CLEAN

    def test_recent_violation(self):
        records = [record(90), record(95, violation=True)]
        assert eval_history(records, PropertyKind.CONFIDENTIALITY,
                            now=100, window=50) is HistoryScore.VIOLATED_RECENT

    def test_old_violation(self):
        records = [record(10, violation=True), record(90)]
        assert eval_history(records, PropertyKind.CONFIDENTIALITY,
                            now=100, window=50) is HistoryScore.VIOLATED_BEFORE

    def test_window_boundary_is_recent(self):
        records = [record(50, violation=True)]
        assert eval_history(records, PropertyKind.CONFIDENTIALITY,
                            now=100, window=50) is HistoryScore.VIOLATED_RECENT

    def test_other_kind_and_actor_ignored(self):
        ledger = TrustLedger()
        ledger.record(record(95, violation=True, kind=PropertyKind.INTEGRITY))
        ledger.record(record(95, violation=True, actor=CARA))
        assert eval_history(ledger.records_by(BOB),
                            PropertyKind.CONFIDENTIALITY,
                            now=100, window=50) is HistoryScore.NO_DATA

    def test_render_codes(self):
        assert HistoryScore.NO_DATA.render() == "NoData"
        assert HistoryScore.VIOLATED_RECENT.render() == "-1"
        assert HistoryScore.VIOLATED_BEFORE.render() == "-2"
        assert HistoryScore.CLEAN.render() == "1"


class TestEvalHistNorm:
    def test_conflict_zeroes_everything(self):
        for score in HistoryScore:
            assert eval_hist_norm(score, -1) == 0.0

    def test_history_factors(self):
        assert eval_hist_norm(HistoryScore.CLEAN, 0) == 1.0
        assert eval_hist_norm(HistoryScore.NO_DATA, 0) == 0.5
        assert eval_hist_norm(HistoryScore.VIOLATED_BEFORE, 0) == 0.25
        assert eval_hist_norm(HistoryScore.VIOLATED_RECENT, 0) == 0.0
        assert eval_hist_norm(HistoryScore.NO_DATA, 1) == 0.5


class TestRunChallenges:
    def test_trust_weighted_mean(self):
        def harness(delegate, target, kind):
            if delegate == ALICE:
                return [1.0, 0.0]
            return [1.0]

        chal = run_challenges([(ALICE, 0.5), (CARA, 1.0)], BOB,
                              PropertyKind.CONFIDENTIALITY, harness)
        # (0.5*0.5 + 1.0*1.0) / 1.5
        assert chal == pytest.approx(0.8333333333)

    def test_no_delegates(self):
        with pytest.raises(NoDelegatesError):
            run_challenges([], BOB, PropertyKind.CONFIDENTIALITY,
                           lambda d, t, k: [1.0])

    def test_empty_harness_result_is_error(self):
        with pytest.raises(TrustError):
            run_challenges([(ALICE, 1.0)], BOB,
                           PropertyKind.CONFIDENTIALITY,
                           lambda d, t, k: [])

    def test_non_positive_trust_is_error(self):
        with pytest.raises(TrustError):
            run_challenges([(ALICE, 0.0)], BOB,
                           PropertyKind.CONFIDENTIALITY,
                           lambda d, t, k: [1.0])

    def test_score_bounds_enforced(self):
        for score in (1.5, -0.1, float("nan")):
            with pytest.raises(TrustError):
                run_challenges([(ALICE, 1.0)], BOB,
                               PropertyKind.CONFIDENTIALITY,
                               lambda d, t, k: [1.0, score])


class TestTrustValue:
    def test_reference_points(self):
        config = TrustConfig()
        assert trust_value(-1, 0.0, 1.0, config) == 0.0
        assert trust_value(0, 0.5, 1.0, config) == 0.4375
        assert trust_value(1, 0.5, 1.0, config) == 0.5
        assert trust_value(1, 1.0, 1.0, config) == 1.0
        assert trust_value(1, 0.5, 0.0, config) == 0.125

    def test_clamped(self):
        config = TrustConfig()
        assert 0.0 <= trust_value(1, 1.0, 1.0, config) <= 1.0

    def test_bands(self):
        config = TrustConfig()
        assert band(0.0, config) is Band.REFUSED
        assert band(0.19999, config) is Band.REFUSED
        assert band(0.2, config) is Band.PARTIAL
        assert band(0.4999, config) is Band.PARTIAL
        assert band(0.5, config) is Band.FULL
        assert band(1.0, config) is Band.FULL


class TestReputation:
    def test_initial_value(self):
        config = TrustConfig()
        assert TrustLedger().reputation(BOB, config) == 0.5

    def test_refused_then_partial_trajectory(self):
        config = TrustConfig()
        ledger = TrustLedger()
        assert update_reputation(ledger, BOB, Band.REFUSED, config) == 0.48
        assert ledger.reputation(BOB, config) == 0.48
        assert update_reputation(ledger, BOB, Band.PARTIAL, config) == 0.47
        assert ledger.reputation(BOB, config) == 0.47

    def test_partial_only(self):
        config = TrustConfig()
        ledger = TrustLedger()
        assert update_reputation(ledger, BOB, Band.PARTIAL, config) == 0.49
        assert ledger.reputation(BOB, config) == 0.49

    def test_full_leaves_reputation_unchanged(self):
        config = TrustConfig()
        ledger = TrustLedger()
        assert update_reputation(ledger, BOB, Band.FULL, config) == 0.5
        assert ledger.reputations == {BOB: 0.5}

    def test_never_below_zero(self):
        config = TrustConfig()
        ledger = TrustLedger(reputations={BOB: 0.01})
        assert update_reputation(ledger, BOB, Band.REFUSED, config) == 0.0
        assert ledger.reputation(BOB, config) == 0.0

    def test_update_writes_in_place_and_keeps_history(self):
        config = TrustConfig()
        ledger = TrustLedger(reputations={BOB: 0.5, CARA: 0.9})
        ledger.record(record(90))
        update_reputation(ledger, BOB, Band.REFUSED, config)
        assert ledger.reputations == {BOB: 0.48, CARA: 0.9}
        assert ledger.records_by(BOB) == (record(90),)

    @pytest.mark.parametrize("value", [7.5, -0.1, float("nan")])
    def test_ledger_rejects_reputation_outside_unit_interval(self, value):
        message = rf"bob .*\[0, 1\], got {re.escape(str(value))}$"
        with pytest.raises(TrustError, match=message):
            TrustLedger(reputations={BOB: value})

    @pytest.mark.parametrize("value, message", [
        (True, "must be a number, not bool"),
        ("x", "must be a number, not str"),
        (None, "must be a number, not NoneType"),
        (10**5000, "must lie in [0, 1], got an int too long to write"),
        (type("Trust", (float,), {})(0.5), "must be a number, not Trust"),
    ], ids=["bool", "str", "none", "long-int", "float-subclass"])
    def test_ledger_rejects_reputation_that_is_not_a_number(self, value,
                                                            message):
        with pytest.raises(TrustError) as err:
            TrustLedger(reputations={BOB: value})
        assert str(err.value) == f"reputation of {BOB} {message}"
