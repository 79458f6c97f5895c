"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from pathlib import Path

from p2psec import (
    Band,
    BehaviorModel,
    Decision,
    HistoryScore,
    Outcome,
    PeerPolicy,
    PopulationParams,
    PropertyKind,
    SecurityContext,
    TrustConfig,
    compile_policy,
    confidentiality,
    conflicts,
    detection_experiment,
    emit_rules,
    integrity,
    kind_ruleset,
    make_challenge,
    parse_avc,
    parse_policy,
    parse_scenario,
    render_avc,
    render_contexts,
    run_benchmark,
    run_scenario,
    to_peer_policy,
    verify_challenge,
    PermissionClass,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Hand-copied conflict truth table (kind value -> set of conflicting
# kind values).
CONFLICTS = {
    "confidentiality": {"spread", "cooperation"},
    "integrity": set(),
    "noshare": {"spread", "cooperation"},
    "nopublication": set(),
    "cooperation": {"confidentiality", "noshare"},
    "spread": {"confidentiality", "noshare"},
}

REFERENCE_POLICY_XML = b"""<policy>
<domain id="1" name="domainA">
<property type="confidentiality"></property>
</domain>
<file id="2" path="/root/secret.txt" domainid="1">
<property type="cooperation"><target domainid="2"/></property>
</file>
</policy>"""

REFERENCE_RULES = (
    "domainA:\n"
    "allow file {read write unlink create append mounton rename lock "
    "execute getattr setattr}\n"
    "allow dir {read write unlink search create mounton getattr setattr "
    "rename add_name remove_name reparent rmdir}\n"
    "neverallow file {read append setattr}\n"
    "neverallow dir {read search setattr}\n")

REFERENCE_AVC = ('audit(1229395253.757:369): avc: denied { read } for '
                 'pid=4241 comm="vim" name="secret.txt" dev=sda3 '
                 'ino=179226 scontext=user_u:user_r:user_t '
                 'tcontext=system_u:object_r:domainA_t tclass=file')

REFERENCE_CHALLENGE_LINE = "scontext=user_u:user_r:user_t vim /root/secret.txt"

NEVERALLOW_TABLES = {
    PropertyKind.CONFIDENTIALITY: ({"read", "append", "setattr"},
                                   {"read", "search", "setattr"}),
    PropertyKind.INTEGRITY: (
        {"write", "unlink", "append", "rename", "setattr"},
        {"write", "unlink", "setattr", "rename", "remove_name", "rmdir"}),
    PropertyKind.NOPUBLICATION: (
        {"create", "setattr", "mounton"},
        {"create", "setattr", "add_name", "remove_name", "rmdir",
         "mounton"}),
}


def _verdict(number, description, checks):
    failed = [label for label, ok in checks if not ok]
    line = f"{'PASS' if not failed else 'FAIL'} criterion {number}: " \
           f"{description}"
    if failed:
        line += " [failed: " + ", ".join(failed) + "]"
    print(line)
    assert not failed, line


def _scenario_report(name):
    return run_scenario(parse_scenario((SCENARIOS / name).read_text()))


def test_criterion_01_conflict_matrix():
    start = time.perf_counter()
    checks = []
    ordered = 0
    for a in PropertyKind:
        for b in PropertyKind:
            expected = b.value in CONFLICTS[a.value]
            checks.append((f"{a.value}/{b.value}",
                           conflicts(a, b) is expected))
            ordered += int(expected)
    checks.append(("eight ordered pairs", ordered == 8))
    checks.append(("symmetry", all(
        conflicts(a, b) == conflicts(b, a)
        for a in PropertyKind for b in PropertyKind)))
    checks.append(("under 1s", time.perf_counter() - start < 1.0))
    _verdict(1, "conflict matrix matches the reference table", checks)


def test_criterion_02_refused_exchange_scenario():
    start = time.perf_counter()
    report = _scenario_report("contract.scn")
    record = report.negotiations[0]
    by_kind = {prop.kind: comp for prop, comp in record.per_property}
    conf = by_kind.get(PropertyKind.CONFIDENTIALITY)
    integ = by_kind.get(PropertyKind.INTEGRITY)
    checks = [
        ("confidentiality eval -1", conf is not None
         and conf.eval_score == -1),
        ("integrity eval 0", integ is not None and integ.eval_score == 0),
        ("Tv(confidentiality) exactly 0.0", conf.tv == 0.0),
        ("confidentiality band refused", conf.band is Band.REFUSED),
        ("integrity band partial", integ.band is Band.PARTIAL),
        ("outcome refused", record.outcome is Outcome.REFUSED),
        ("initial reputation 0.5",
         TrustConfig().initial_reputation == 0.5),
        ("reputation trajectory 0.48 then 0.47",
         [comp.reputation_after for _, comp in record.per_property]
         == [0.48, 0.47]),
        ("under 1s", time.perf_counter() - start < 1.0),
    ]
    _verdict(2, "refused-exchange scenario reproduces the reference "
                "trajectory", checks)


def test_criterion_03_accepted_exchange_scenario():
    start = time.perf_counter()
    report = _scenario_report("firefox.scn")
    record = report.negotiations[0]
    (prop, comp), = record.per_property
    checks = [
        ("cooperation eval 0",
         prop.kind is PropertyKind.COOPERATION and comp.eval_score == 0),
        ("band partial", comp.band is Band.PARTIAL),
        ("outcome accepted", record.outcome is Outcome.ACCEPTED),
        ("reputation 0.5 to 0.49", comp.reputation_after == 0.49),
        ("under 1s", time.perf_counter() - start < 1.0),
    ]
    _verdict(3, "accepted-exchange scenario reproduces the reference "
                "trajectory", checks)


def test_criterion_04_mac_compiler_golden():
    checks = []
    for kind, (files, dirs) in NEVERALLOW_TABLES.items():
        ruleset = kind_ruleset({kind})
        got_files = {p.name for p in ruleset.neverallow
                     if p.cls is PermissionClass.FILE}
        got_dirs = {p.name for p in ruleset.neverallow
                    if p.cls is PermissionClass.DIR}
        checks.append((f"{kind.value} file set", got_files == files))
        checks.append((f"{kind.value} dir set", got_dirs == dirs))
    checks.append(("noshare equals nopublication",
                   kind_ruleset({PropertyKind.NOSHARE})
                   == kind_ruleset({PropertyKind.NOPUBLICATION})))
    checks.append(("cooperation and spread add nothing",
                   not kind_ruleset({PropertyKind.COOPERATION}).neverallow
                   and not kind_ruleset({PropertyKind.SPREAD}).neverallow))
    compiled = compile_policy(to_peer_policy(
        parse_policy(REFERENCE_POLICY_XML)))
    checks.append(("emitted rules exact", emit_rules(compiled)
                   == REFERENCE_RULES))
    checks.append(("resource context exact", render_contexts(compiled)
                   == "/root/secret.txt system_u:object_r:domainA_t\n"))
    _verdict(4, "compiled rules and labels match the reference output",
             checks)


def test_criterion_05_avc_round_trip():
    record = parse_avc(REFERENCE_AVC)
    checks = [
        ("pid 4241", record.pid == 4241),
        ("comm vim", record.comm == "vim"),
        ("ino 179226", record.ino == 179226),
        ("tclass file", record.tclass == "file"),
        ("denied {read}", record.decision is Decision.DENIED
         and record.permissions == frozenset({"read"})),
        ("scontext", record.scontext.render() == "user_u:user_r:user_t"),
        ("tcontext", record.tcontext.render()
         == "system_u:object_r:domainA_t"),
        ("render∘parse identity", render_avc(record) == REFERENCE_AVC),
    ]
    _verdict(5, "audit record parses field-for-field and round-trips",
             checks)


def test_criterion_06_challenge_loop():
    policy = PeerPolicy().create_domain("domainA")
    policy = policy.add_property("domainA", confidentiality())
    policy = policy.add_resource("/root/secret.txt", "domainA")
    challenge = make_challenge(
        "/root/secret.txt", SecurityContext("user_u", "user_r", "user_t"),
        "vim", compile_policy(policy))
    record = parse_avc(REFERENCE_AVC)
    checks = [
        ("challenge line exact",
         challenge.command == REFERENCE_CHALLENGE_LINE),
        ("verification passes on the reference record",
         verify_challenge(challenge, [record]).passed),
        ("verification fails on an empty trace",
         not verify_challenge(challenge, []).passed),
    ]
    _verdict(6, "challenge emission and verification loop", checks)


def test_criterion_07_compile_scaling():
    start = time.perf_counter()
    report = run_benchmark(counts=(10, 20, 40, 80, 160, 320, 640),
                           repeats=5)
    elapsed = time.perf_counter() - start
    largest = report.points[-1]
    checks = [
        ("linear fit above 100 domains has R2 >= 0.98",
         report.fit_large is not None and report.fit_large.r2 >= 0.98),
        ("640-domain compile under 1s", largest.time_ms < 1000.0),
        ("whole benchmark under 30s", elapsed < 30.0),
    ]
    _verdict(7, "compile time scales linearly with domain count", checks)


def test_criterion_08_publication_dedup():
    policy = PeerPolicy().create_domain("private_company_A")
    policy = policy.add_property("private_company_A", confidentiality())
    policy = policy.publish((confidentiality(), integrity()),
                            "reportA.pdf", "private_company_A")
    resource = policy.find_resource("reportA.pdf")
    checks = [
        ("only integrity attached to the file",
         resource.properties == frozenset({integrity()})),
        ("confidentiality not duplicated",
         confidentiality() not in resource.properties),
        ("effective set still covers both",
         policy.effective_properties("reportA.pdf")
         == frozenset({confidentiality(), integrity()})),
    ]
    _verdict(8, "publication deduplicates domain-implied properties",
             checks)


def test_criterion_09_adversary_suite():
    start = time.perf_counter()
    runs = 100
    report = detection_experiment(PopulationParams(seed=416), runs)
    elapsed = time.perf_counter() - start
    honest = report.stat(BehaviorModel.HONEST)
    informed = report.stat(BehaviorModel.INFORMED_LIAR)
    checks = [
        ("at least 100 seeded runs", report.runs >= 100),
        ("honest matching requesters never refused",
         honest.negotiations == 2 * runs and honest.refused == 0),
        ("informed liars always refused",
         informed.negotiations == runs
         and informed.refused == informed.negotiations),
        ("every forged record flagged", report.forged_records > 0
         and report.flagged_records == report.forged_records),
        ("under 60s", elapsed < 60.0),
    ]
    _verdict(9, "seeded adversary detection behaves as specified", checks)


def test_criterion_10_generated_property_suites():
    import test_properties as props

    start = time.perf_counter()
    suites = [
        ("xml round trip", props.test_xml_round_trip_preserves_structure),
        ("tv monotone in chal", props.test_trust_value_monotone_in_chal),
        ("tv monotone in eval_hist",
         props.test_trust_value_monotone_in_eval_hist),
        ("decide monotone", props.test_decide_monotone_in_trust),
        ("reputation clamped", props.test_reputation_stays_clamped),
        ("ruleset union compositional",
         props.test_kind_ruleset_union_compositional),
        ("slice privacy", props.test_no_slice_beyond_negotiated_domain),
    ]
    checks = []
    for label, suite in suites:
        try:
            suite()
            checks.append((label, True))
        except Exception:
            checks.append((label, False))
    checks.append(("under 120s", time.perf_counter() - start < 120.0))
    _verdict(10, "thousand-case generated property suites hold", checks)
