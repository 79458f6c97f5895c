"""Rule projection, labels, audit records, and challenges."""

import itertools
from dataclasses import replace

import pytest

from p2psec import (
    AvcParseError,
    AvcRecord,
    ChallengeError,
    CompiledPolicy,
    Decision,
    DEFAULT_RULESET,
    DIR_PERMISSIONS,
    FILE_PERMISSIONS,
    KIND_NEVERALLOW,
    MacError,
    MacRuleSet,
    PeerPolicy,
    Permission,
    PermissionClass,
    PropertyKind,
    SecurityContext,
    UnknownPermissionError,
    UnknownResourceError,
    VerifyResult,
    check_access,
    compile_policy,
    confidentiality,
    cooperation,
    emit_rules,
    integrity,
    kind_ruleset,
    make_challenge,
    nopublication,
    noshare,
    object_context,
    parse_avc,
    parse_challenge,
    render_avc,
    render_challenge,
    render_contexts,
    sanitize_label,
    spread,
    verify_challenge,
)
from p2psec import mac

# Permission vocabulary and the per-kind forbidden sets, hand-copied
# (with token normalization) from the reference rule tables.
FILE_VOCAB = ("read", "write", "unlink", "create", "append", "mounton",
              "rename", "lock", "execute", "getattr", "setattr")
DIR_VOCAB = ("read", "write", "unlink", "search", "create", "mounton",
             "getattr", "setattr", "rename", "add_name", "remove_name",
             "reparent", "rmdir")

NEVERALLOW = {
    "confidentiality": ({"read", "append", "setattr"},
                        {"read", "search", "setattr"}),
    "integrity": ({"write", "unlink", "append", "rename", "setattr"},
                  {"write", "unlink", "setattr", "rename", "remove_name",
                   "rmdir"}),
    "nopublication": ({"create", "setattr", "mounton"},
                      {"create", "setattr", "add_name", "remove_name",
                       "rmdir", "mounton"}),
    "noshare": ({"create", "setattr", "mounton"},
                {"create", "setattr", "add_name", "remove_name", "rmdir",
                 "mounton"}),
    "cooperation": (set(), set()),
    "spread": (set(), set()),
}

AVC_LINE = ('audit(1229395253.757:369): avc: denied { read } for pid=4241 '
            'comm="vim" name="secret.txt" dev=sda3 ino=179226 '
            'scontext=user_u:user_r:user_t '
            'tcontext=system_u:object_r:domainA_t tclass=file')


def test_permission_vocabularies():
    assert FILE_PERMISSIONS == FILE_VOCAB
    assert DIR_PERMISSIONS == DIR_VOCAB
    assert len(FILE_PERMISSIONS) == 11
    assert len(DIR_PERMISSIONS) == 13


def test_unknown_permission_rejected():
    with pytest.raises(UnknownPermissionError):
        Permission(PermissionClass.FILE, "search")
    with pytest.raises(UnknownPermissionError):
        Permission(PermissionClass.DIR, "lock")


def test_per_kind_neverallow_sets():
    for kind in PropertyKind:
        files, dirs = NEVERALLOW[kind.value]
        ruleset = kind_ruleset({kind})
        got_files = {p.name for p in ruleset.neverallow
                     if p.cls is PermissionClass.FILE}
        got_dirs = {p.name for p in ruleset.neverallow
                    if p.cls is PermissionClass.DIR}
        assert got_files == files, kind
        assert got_dirs == dirs, kind


def test_kind_ruleset_unions():
    combined = kind_ruleset({PropertyKind.CONFIDENTIALITY,
                             PropertyKind.INTEGRITY})
    assert combined.neverallow == (
        kind_ruleset({PropertyKind.CONFIDENTIALITY}).neverallow
        | kind_ruleset({PropertyKind.INTEGRITY}).neverallow)


def test_kind_ruleset_accepts_one_shot_iterables():
    kinds = [PropertyKind.INTEGRITY, PropertyKind.NOSHARE]
    assert kind_ruleset(iter(kinds)) == kind_ruleset(set(kinds))
    assert kind_ruleset(kind for kind in kinds) == kind_ruleset(set(kinds))
    assert kind_ruleset(iter([])) == DEFAULT_RULESET


def test_check_access_deny_overrides():
    """The whole table: for every subset of kinds and every permission of
    both vocabularies, access is denied exactly when one of the kinds
    neverallows it, and a name outside a vocabulary is an error."""
    ruleset = kind_ruleset({PropertyKind.CONFIDENTIALITY})
    assert check_access(ruleset, PermissionClass.FILE, "read") is Decision.DENIED
    assert check_access(ruleset, PermissionClass.FILE, "write") is Decision.GRANTED
    assert check_access(ruleset, PermissionClass.DIR, "search") is Decision.DENIED
    assert check_access(DEFAULT_RULESET, PermissionClass.FILE, "read") is Decision.GRANTED
    vocabularies = ((PermissionClass.FILE, FILE_VOCAB, "search"),
                    (PermissionClass.DIR, DIR_VOCAB, "lock"))
    kinds = list(PropertyKind)
    subsets = [subset for size in range(len(kinds) + 1)
               for subset in itertools.combinations(kinds, size)]
    assert len(subsets) == 2 ** 6
    for subset in subsets:
        forbidden = frozenset().union(
            *(KIND_NEVERALLOW[kind] for kind in subset))
        ruleset = kind_ruleset(subset)
        for cls, names, foreign in vocabularies:
            for name in names:
                expected = (Decision.DENIED
                            if Permission(cls, name) in forbidden
                            else Decision.GRANTED)
                assert check_access(ruleset, cls, name) is expected, (
                    subset, cls, name)
            for unknown in (foreign, "chmod"):
                with pytest.raises(UnknownPermissionError):
                    check_access(ruleset, cls, unknown)


def test_sanitize_label_preserves_case():
    assert sanitize_label("domainA") == "domainA_t"
    assert sanitize_label("fee paying") == "fee_paying_t"
    assert sanitize_label("a.b-c") == "a_b_c_t"


def test_object_context():
    assert object_context("domainA").render() == "system_u:object_r:domainA_t"


def test_security_context_parse_render():
    ctx = SecurityContext.parse("user_u:user_r:user_t")
    assert ctx == SecurityContext("user_u", "user_r", "user_t")
    assert ctx.render() == "user_u:user_r:user_t"
    with pytest.raises(Exception):
        SecurityContext.parse("just_two:parts")


@pytest.mark.parametrize("spaced", ["user u", "user\tu", "user\u00a0u"])
def test_security_context_refuses_whitespace(spaced):
    """A context renders to one token of a challenge's command line and
    of an AVC line, so a component may hold no whitespace: a valid
    subject's challenge round-trips, and a spaced one is refused when it
    is built and when a challenge file names it."""
    subject = SecurityContext("user_u", "user_r", "user_t")
    challenge = mac.build_challenge(
        "/root/secret.txt", subject, "vim",
        kind_ruleset({PropertyKind.CONFIDENTIALITY}),
        object_context("domainA"))
    text = render_challenge(challenge)
    assert parse_challenge(text) == challenge
    for parts in ((spaced, "user_r", "user_t"), ("user_u", spaced, "user_t"),
                  ("user_u", "user_r", spaced)):
        with pytest.raises(MacError):
            SecurityContext(*parts)
    with pytest.raises(MacError):
        SecurityContext.parse(f"system_u:object_r:{spaced}")
    with pytest.raises(ChallengeError):
        parse_challenge(text.replace("domainA_t", spaced))


class TestCompile:
    def policy(self):
        policy = PeerPolicy().create_domain("domainA")
        policy = policy.add_property("domainA", confidentiality())
        return policy.add_resource("/root/secret.txt", "domainA")

    def test_compile_single_domain(self):
        compiled = compile_policy(self.policy())
        rules = compiled.domain_rules["domainA"]
        assert check_access(rules, PermissionClass.FILE, "read") is Decision.DENIED
        ctx = compiled.resource_contexts["/root/secret.txt"]
        assert ctx.render() == "system_u:object_r:domainA_t"

    def test_emit_rules_golden(self):
        emitted = emit_rules(compile_policy(self.policy()))
        assert emitted == (
            "domainA:\n"
            "allow file {read write unlink create append mounton rename "
            "lock execute getattr setattr}\n"
            "allow dir {read write unlink search create mounton getattr "
            "setattr rename add_name remove_name reparent rmdir}\n"
            "neverallow file {read append setattr}\n"
            "neverallow dir {read search setattr}\n")

    def test_render_contexts(self):
        compiled = compile_policy(self.policy())
        assert render_contexts(compiled) == (
            "/root/secret.txt system_u:object_r:domainA_t\n")

    def test_resource_stricter_than_domain_gets_own_stanza(self):
        policy = self.policy().add_property("/root/secret.txt", integrity())
        emitted = emit_rules(compile_policy(policy))
        assert "/root/secret.txt:" in emitted
        assert "neverallow file {read write unlink append rename setattr}" \
            in emitted

    @pytest.mark.parametrize("domain_prop, file_prop", [
        (integrity(), spread()),
        (integrity(), cooperation()),
        (nopublication(), noshare()),
    ])
    def test_resource_whose_kinds_add_no_rule_gets_no_stanza(
            self, domain_prop, file_prop):
        """A file whose own kinds add no neverallow entry gets a ruleset
        equal to its domain's but not the same object, and no stanza."""
        policy = PeerPolicy().create_domain("d")
        policy = policy.add_property("d", domain_prop)
        policy = policy.add_resource("/tmp/f", "d", (file_prop,))
        compiled = compile_policy(policy)
        own = compiled.resource_rules["/tmp/f"]
        domain = compiled.domain_rules["d"]
        assert own == domain and own is not domain
        assert "/tmp/f:" not in emit_rules(compiled)

    def test_each_domain_projected_once(self, monkeypatch):
        calls = []
        original = mac.kind_ruleset

        def counted(kinds):
            calls.append(frozenset(kinds))
            return original(calls[-1])
        monkeypatch.setattr(mac, "kind_ruleset", counted)
        policy = self.policy().create_domain("open")
        policy = policy.add_resource("/tmp/a", "open")
        policy = policy.add_resource("/tmp/b", "open", (integrity(),))
        policy = policy.add_resource("/root/key", "domainA", (integrity(),))
        compiled = compile_policy(policy)
        # One call per domain, plus one per file with its own properties.
        assert len(calls) == 2 + 2
        contexts = compiled.resource_contexts
        assert contexts["/root/key"] is contexts["/root/secret.txt"]
        assert contexts["/tmp/a"] is contexts["/tmp/b"]
        assert (compiled.resource_rules["/tmp/a"]
                is compiled.domain_rules["open"])

    def test_emit_rules_renders_each_ruleset_once(self, monkeypatch):
        calls = []
        original = mac._ruleset_lines

        def counted(ruleset):
            calls.append(ruleset)
            return original(ruleset)
        monkeypatch.setattr(mac, "_ruleset_lines", counted)
        # A fresh instance: kind_ruleset's shared ones may be rendered.
        shared = MacRuleSet(
            neverallow=KIND_NEVERALLOW[PropertyKind.INTEGRITY])
        compiled = CompiledPolicy(
            domain_rules={"a": shared, "b": shared},
            resource_contexts={}, resource_rules={}, resource_domains={})
        first = emit_rules(compiled)
        assert emit_rules(compiled) == first
        assert first.count("neverallow file") == 2
        assert calls == [shared]


class TestAvc:
    def test_parse_fields(self):
        record = parse_avc(AVC_LINE)
        assert record.timestamp == "1229395253.757"
        assert record.serial == "369"
        assert record.decision is Decision.DENIED
        assert record.permissions == frozenset({"read"})
        assert record.pid == 4241
        assert record.comm == "vim"
        assert record.name == "secret.txt"
        assert record.dev == "sda3"
        assert record.ino == 179226
        assert record.scontext.render() == "user_u:user_r:user_t"
        assert record.tcontext.render() == "system_u:object_r:domainA_t"
        assert record.tclass == "file"

    def test_render_parse_identity(self):
        assert render_avc(parse_avc(AVC_LINE)) == AVC_LINE

    def test_multi_permission_sorted(self):
        line = AVC_LINE.replace("{ read }", "{ read append }")
        record = parse_avc(line)
        assert record.permissions == frozenset({"read", "append"})
        assert "{ append read }" in render_avc(record)

    def test_granted_parse(self):
        line = AVC_LINE.replace("denied", "granted")
        assert parse_avc(line).decision is Decision.GRANTED

    @pytest.mark.parametrize("mangle", [
        lambda s: s.replace("avc:", "svc:"),
        lambda s: s.replace("pid=", "pud="),
        lambda s: s.replace("{ read }", "{ }"),
        lambda s: s.replace("tclass=file", ""),
        lambda s: s.replace("audit(", "audit["),
        lambda s: s + " trailing=1",
    ])
    def test_mangled_lines_rejected(self, mangle):
        with pytest.raises(AvcParseError):
            parse_avc(mangle(AVC_LINE))

    @pytest.mark.parametrize("field, new, message", [
        (":369)", ":\u0663\u0666\u0669)", "expected serial"),
        ("pid=4241", "pid=\u0661\u0662", "expected pid"),
        ("ino=179226", "ino=\uff11\uff12", "expected ino"),
        ("pid=4241", "pid=" + "9" * 5000, "pid has too many digits"),
        ("ino=179226", "ino=" + "9" * 5000, "ino has too many digits"),
    ], ids=["serial-arabic-indic", "pid-arabic-indic", "ino-fullwidth",
            "pid-5000-digits", "ino-5000-digits"])
    def test_numbers_are_ascii_decimal(self, field, new, message):
        """Serial, pid and ino hold ASCII digits only, and a number too
        long for ``int`` is a parse error naming its field."""
        with pytest.raises(AvcParseError, match=message):
            parse_avc(AVC_LINE.replace(field, new))


    @pytest.mark.parametrize("field, new", [
        ("scontext=user_u:user_r:user_t", "scontext=user_u:user_r"),
        ("tcontext=system_u:object_r:domainA_t",
         "tcontext=system_u:object_r:domainA_t:s0"),
    ], ids=["scontext", "tcontext"])
    def test_a_bad_context_names_its_field(self, field, new):
        label, _, text = new.partition("=")
        with pytest.raises(AvcParseError) as err:
            parse_avc(AVC_LINE.replace(field, new))
        assert str(err.value) == f"{label}: bad security context {text!r}"

    @pytest.mark.parametrize("stamp", ["...", ".", "1.2.3", "12.", ".5",
                                       "12", "\u0661.2"])
    def test_timestamp_is_digits_dot_digits(self, stamp):
        with pytest.raises(AvcParseError, match="expected timestamp at"):
            parse_avc(AVC_LINE.replace("1229395253.757", stamp))


@pytest.mark.parametrize("field, value, message", [
    ("timestamp", "...", "AVC timestamp must be <digits>.<digits>, not '...'"),
    ("serial", "x", "AVC serial must be ASCII digits, not 'x'"),
    ("pid", -1, "AVC pid must be a non-negative int, not -1"),
    ("ino", True, "AVC ino must be a non-negative int, not True"),
    ("comm", 'a"b', "AVC comm must be free of '\"', not 'a\"b'"),
    ("dev", "", "AVC dev must be non-empty and free of whitespace, not ''"),
    ("tclass", "a b",
     "AVC tclass must be non-empty and free of whitespace, not 'a b'"),
    ("permissions", {"read", "a b"}, "AVC permission 'a b' must be "
     "non-empty and free of whitespace and braces"),
    pytest.param("pid", 10**5000, "AVC pid has too many digits",
                 id="pid-5000-digits"),
    pytest.param("decision", "denied",
                 "AVC decision must be a Decision, not 'denied'",
                 id="decision-str"),
    pytest.param("scontext", "u:r:t",
                 "AVC scontext must be a SecurityContext, not 'u:r:t'",
                 id="scontext-str"),
    pytest.param("tcontext", None,
                 "AVC tcontext must be a SecurityContext, not None",
                 id="tcontext-none"),
])
def test_a_code_built_avc_record_is_held_to_the_line_form(field, value,
                                                          message):
    with pytest.raises(AvcParseError) as err:
        replace(parse_avc(AVC_LINE), **{field: value})
    assert str(err.value) == message


def test_a_code_built_avc_record_may_name_any_path():
    """``name`` is unchecked, since a policy path may hold ``"``."""
    assert replace(parse_avc(AVC_LINE), name=' a"b ').name == ' a"b '


def test_parse_avc_runs_no_record_check(monkeypatch):
    """The line's steps hold each field to the form ``AvcRecord``
    checks, so ``parse_avc`` builds its record unchecked; rebuilding it
    in code checks it once."""
    calls = []
    check = AvcRecord.__post_init__
    monkeypatch.setattr(AvcRecord, "__post_init__", lambda record: (
        calls.append(record) or check(record)))
    record = parse_avc(AVC_LINE)
    assert calls == []
    assert replace(record) == record
    assert calls == [record]


CHALLENGE_TEXT = ("scontext=user_u:user_r:user_t vim /root/secret.txt\n"
                  "expect=denied\npermissions=read\n"
                  "tcontext=system_u:object_r:domainA_t\n")


@pytest.mark.parametrize("field, value, message", [
    ("stub", "", "bad command stub ''"),
    ("stub", "a b", "bad command stub 'a b'"),
    ("expected_permissions", {"reed"},
     "permissions entry 'reed' is not a file permission"),
    ("expected_permissions", set(),
     "denied challenge needs expected permissions"),
    ("expected_permissions", ["write", "reed", ""],
     "permissions entry 'reed' is not a file permission"),
    ("expected_permissions", ("search", "reed"),
     "permissions entry 'search' is not a file permission"),
    ("expected_permissions", frozenset({"reed", "", "search"}),
     "permissions entry '' is not a file permission"),
    pytest.param("expected", "denied",
                 "challenge expected must be a Decision, not 'denied'",
                 id="expected-str"),
    pytest.param("scontext", "u:r:t",
                 "challenge scontext must be a SecurityContext, not 'u:r:t'",
                 id="scontext-str"),
    pytest.param("expected_tcontext", 10**5000,
                 "challenge expected_tcontext must be a SecurityContext, "
                 "not an int too long to write", id="tcontext-long-int"),
])
def test_a_code_built_challenge_is_held_to_the_file_form(field, value,
                                                         message):
    with pytest.raises(ChallengeError) as err:
        replace(parse_challenge(CHALLENGE_TEXT), **{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("old, new, message", [
    ("expect=denied\n", "expect=denied\nexpect=granted\n",
     "challenge file repeats 'expect'"),
    ("permissions=read\n", "permissions=read\npermissions=read\n",
     "challenge file repeats 'permissions'"),
    ("permissions=read", "permissions=reed,,",
     "permissions entry 'reed' is not a file permission"),
    ("permissions=read", "permissions=read,,write",
     "permissions entry '' is not a file permission"),
    ("permissions=read", "permissions=read,",
     "permissions entry '' is not a file permission"),
    ("permissions=read", "permissions=read, write",
     "permissions entry ' write' is not a file permission"),
    ("permissions=read", "permissions=search",
     "permissions entry 'search' is not a file permission"),
    ("expect=denied", "expect=maybe", "bad expectation 'maybe'"),
    ("scontext=user_u:user_r:user_t", "scontext=user_u:user_r",
     "scontext: bad security context 'user_u:user_r'"),
    ("tcontext=system_u:object_r:domainA_t", "tcontext=system_u::domainA_t",
     "tcontext: bad security context 'system_u::domainA_t'"),
], ids=["repeated-expect", "repeated-permissions", "unknown-name",
        "empty-entry", "trailing-comma", "spaced-entry", "dir-permission",
        "bad-expectation", "bad-scontext", "bad-tcontext"])
def test_challenge_file_faults_name_the_key_or_entry(old, new, message):
    assert old in CHALLENGE_TEXT
    with pytest.raises(ChallengeError) as err:
        parse_challenge(CHALLENGE_TEXT.replace(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize("entries, tested", [
    ("read,write,append", ["read", "write", "append"]),
    ("", []),
    ("write,reed,,search", ["write", "reed", "", "search"]),
])
def test_parse_challenge_tests_each_permission_entry_once(monkeypatch,
                                                          entries, tested):
    """The rule is written once, in ``Challenge``: the parse hands it
    the entries in file order, and each is tested once."""
    seen = []

    class Counted(tuple):
        def __contains__(self, entry):
            seen.append(entry)
            return super().__contains__(entry)
    monkeypatch.setattr(mac, "FILE_PERMISSIONS", Counted(mac.FILE_PERMISSIONS))
    text = CHALLENGE_TEXT.replace("permissions=read", f"permissions={entries}")
    try:
        challenge = parse_challenge(text.replace("expect=denied",
                                                 "expect=granted"))
    except ChallengeError as exc:
        assert str(exc) == "permissions entry 'reed' is not a file permission"
    else:
        assert challenge.expected_permissions == frozenset(tested)
    assert seen == tested


def test_challenge_file_permissions_may_be_empty_or_many():
    granted = CHALLENGE_TEXT.replace("expect=denied", "expect=granted")
    assert parse_challenge(granted.replace(
        "permissions=read", "permissions=")).expected_permissions == set()
    assert parse_challenge(CHALLENGE_TEXT.replace(
        "permissions=read", "permissions=write,read")
    ).expected_permissions == {"read", "write"}


class TestChallenge:
    def compiled(self):
        policy = PeerPolicy().create_domain("domainA")
        policy = policy.add_property("domainA", confidentiality())
        policy = policy.add_resource("/root/secret.txt", "domainA")
        return compile_policy(policy)

    def subject(self):
        return SecurityContext("user_u", "user_r", "user_t")

    def test_make_challenge_command(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        assert challenge.command == (
            "scontext=user_u:user_r:user_t vim /root/secret.txt")
        assert challenge.expected is Decision.DENIED
        assert challenge.expected_permissions == frozenset({"read"})
        assert challenge.target_name == "secret.txt"

    def test_verify_against_matching_record(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        assert verify_challenge(challenge, [parse_avc(AVC_LINE)]).passed

    def test_verify_empty_trace_fails(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        result = verify_challenge(challenge, [])
        assert not result.passed

    def test_verify_wrong_decision_fails(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        granted = parse_avc(AVC_LINE.replace("denied", "granted"))
        assert not verify_challenge(challenge, [granted]).passed

    def test_verify_names_missing_permissions(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        write = parse_avc(AVC_LINE.replace("{ read }", "{ write }"))
        assert verify_challenge(challenge, [write]) == VerifyResult(
            False, "record 0: permissions missing ['read']")

    def test_verify_wrong_label_fails(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        other = parse_avc(AVC_LINE.replace("domainA_t", "other_t"))
        assert not verify_challenge(challenge, [other]).passed

    def test_verify_scans_past_unrelated_records(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        unrelated = parse_avc(AVC_LINE.replace("secret.txt", "other.txt"))
        good = parse_avc(AVC_LINE)
        assert verify_challenge(challenge, [unrelated, good]).passed

    def test_unknown_resource(self):
        with pytest.raises(UnknownResourceError):
            make_challenge("/nope", self.subject(), "vim", self.compiled())

    def test_unknown_stub(self):
        with pytest.raises(ChallengeError):
            make_challenge("/root/secret.txt", self.subject(), "wget",
                           self.compiled())

    def test_challenge_file_round_trip(self):
        challenge = make_challenge("/root/secret.txt", self.subject(),
                                   "vim", self.compiled())
        assert parse_challenge(render_challenge(challenge)) == challenge

    def test_challenge_for_a_path_with_spaces_round_trips(self):
        challenge = mac.build_challenge(
            "/home/a b.txt", self.subject(), "vim",
            kind_ruleset({PropertyKind.CONFIDENTIALITY}),
            SecurityContext("system_u", "object_r", "domainA_t"))
        again = parse_challenge(render_challenge(challenge))
        assert again.target_path == "/home/a b.txt"
        assert again == challenge

    @pytest.mark.parametrize("path", ["/root/secret.txt", "/home/a b.txt"])
    @pytest.mark.parametrize("stub", sorted(set(mac.PROBE_STUBS.values())))
    def test_a_challenge_file_keeps_its_stub(self, stub, path):
        challenge = mac.build_challenge(
            path, self.subject(), stub,
            kind_ruleset({PropertyKind.CONFIDENTIALITY}),
            SecurityContext("system_u", "object_r", "domainA_t"))
        assert parse_challenge(render_challenge(challenge)).stub == stub


def test_probe_stub_per_kind_matches_its_derivation():
    """Each kind's probe is the first stub listed for the first file
    permission, in vocabulary order, that the kind forbids, or for
    ``read`` when it forbids none."""
    assert set(mac.PROBE_STUBS) == set(PropertyKind)
    for kind in PropertyKind:
        probed = next(
            (name for name in FILE_PERMISSIONS
             if any(p.name == name and p.cls is PermissionClass.FILE
                    for p in kind_ruleset({kind}).neverallow)),
            "read")
        stub = next(s for s, perm in mac.PROBE_PERMISSIONS.items()
                    if perm == probed)
        assert mac.PROBE_STUBS[kind] == stub
    assert mac.PROBE_STUBS == {
        PropertyKind.CONFIDENTIALITY: "vim",
        PropertyKind.INTEGRITY: "editor-write",
        PropertyKind.NOPUBLICATION: "publisher",
        PropertyKind.COOPERATION: "vim",
        PropertyKind.SPREAD: "vim",
        PropertyKind.NOSHARE: "publisher",
    }


def test_probe_permission_is_the_stub_table_lookup():
    for stub, permission in mac.PROBE_PERMISSIONS.items():
        assert mac.probe_permission(stub) == permission
    with pytest.raises(ChallengeError, match="unknown command stub 'wget'"):
        mac.probe_permission("wget")
