"""Command line interface end-to-end behaviour."""

from pathlib import Path

import pytest

from p2psec.cli import main

POLICY_XML = """<policy>
  <domain id="1" name="domainA">
    <property type="confidentiality"/>
  </domain>
  <file id="2" path="/root/secret.txt" domainid="1"/>
</policy>
"""

CONFLICTED_XML = """<policy>
  <domain id="1" name="messy">
    <property type="confidentiality"/>
    <property type="spread"/>
  </domain>
</policy>
"""

#: A file whose own property conflicts with its domain's.
FILE_CONFLICT_XML = """<policy>
  <domain id="1" name="vault">
    <property type="confidentiality"/>
  </domain>
  <file id="2" path="/srv/leak.txt" domainid="1">
    <property type="spread"/>
  </file>
</policy>
"""

SCENARIO = """seed 3
peer a
peer b
peer c
knows a c 0.8
domain a src
property a src cooperation
resource a thing src
domain b dst
ask b a thing dst
"""

CHALLENGE = """scontext=user_u:user_r:user_t vim /root/secret.txt
expect=denied
permissions=read
tcontext=system_u:object_r:domainA_t
"""

GOOD_TRACE = ('audit(1229395253.757:369): avc: denied { read } for '
              'pid=4241 comm="vim" name="secret.txt" dev=sda3 ino=179226 '
              'scontext=user_u:user_r:user_t '
              'tcontext=system_u:object_r:domainA_t tclass=file\n')


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.xml"
    path.write_text(POLICY_XML)
    return str(path)


def test_compile_outputs_rules_and_contexts(policy_file, capsys):
    assert main(["compile", policy_file]) == 0
    out = capsys.readouterr().out
    assert "domainA:" in out
    assert "neverallow file {read append setattr}" in out
    assert "/root/secret.txt system_u:object_r:domainA_t" in out


def test_compile_bad_xml_fails(tmp_path, capsys):
    path = tmp_path / "bad.xml"
    path.write_text("<policy><wat/></policy>")
    assert main(["compile", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    b'<?xml version="1.0" encoding="foo"?><policy/>',
    b'<!DOCTYPE policy [<!ENTITY a "x">]><policy/>',
])
def test_compile_unusable_xml_fails(tmp_path, capsys, data):
    path = tmp_path / "bad.xml"
    path.write_bytes(data)
    assert main(["compile", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_xml_fault_names_its_file_and_line(tmp_path, capsys):
    """A fault found as an element opens, or as a domain or file closes,
    carries its line; ``check`` reads the file as ``compile`` does."""
    path = tmp_path / "bad.xml"
    for data, message in (
            ('<policy>\n  <domain id="1" name="a">\n    <wat/>\n'
             '  </domain>\n</policy>\n',
             "3: unexpected element <wat> under <domain>"),
            ('<policy>\n  <domain id="1" name="a"/>\n'
             '  <domain id="1" name="b"/>\n</policy>\n',
             "3: duplicate id 1")):
        path.write_text(data)
        for command in ("compile", "check"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == f"error: {path}:{message}\n"


@pytest.mark.parametrize("command", ["compile", "check"])
@pytest.mark.parametrize("data, message", [
    ("<?xml version='1.0' encoding='bogus'?>\n<policy/>\n",
     "unknown encoding: bogus"),
    ('<policy>\n  <domain id="1" name="a">\n</policy>\n',
     "mismatched tag: line 3, column 2"),
], ids=["document", "markup"])
def test_policy_fault_without_a_line_names_its_file(command, data, message,
                                                     tmp_path, capsys):
    path = tmp_path / "bad.xml"
    path.write_text(data)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_compile_missing_file_fails(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "absent.xml")]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_clean_policy(policy_file, capsys):
    assert main(["check", policy_file]) == 0
    assert "no conflicts" in capsys.readouterr().out


def test_check_reports_conflicts(tmp_path, capsys):
    path = tmp_path / "messy.xml"
    path.write_text(CONFLICTED_XML)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "conflict in domain messy" in out
    assert "confidentiality" in out and "spread" in out


def test_check_reports_a_file_conflicting_with_its_domain(tmp_path, capsys):
    path = tmp_path / "leaky.xml"
    path.write_text(FILE_CONFLICT_XML)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        "conflict in resource /srv/leak.txt: spread vs confidentiality\n")


def test_simulate_runs_scenario(tmp_path, capsys):
    path = tmp_path / "run.scn"
    path.write_text(SCENARIO)
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "outcome=accepted" in out
    assert "seed=3" in out


def test_simulate_seed_override_and_out_file(tmp_path):
    path = tmp_path / "run.scn"
    path.write_text(SCENARIO)
    out_path = tmp_path / "report.txt"
    assert main(["simulate", str(path), "--seed", "9",
                 "--out", str(out_path)]) == 0
    assert "seed=9" in out_path.read_text()


def test_simulate_bad_scenario_fails(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("ask ghost nobody thing dst\n")
    assert main(["simulate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_scenario_fault_names_its_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("peer a\npeer b\ndomain zz d\n")
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:3: peer 'zz' is not declared\n")


@pytest.mark.parametrize("argv, bad", [
    (["simulate", "{scn}"], "scn"),
    (["verify-challenge", "{challenge}", "{trace}"], "challenge"),
    (["verify-challenge", "{challenge}", "{trace}"], "trace"),
], ids=["scenario", "challenge", "trace"])
def test_a_file_that_is_not_utf8_is_an_error(argv, bad, tmp_path, capsys):
    paths = {}
    for name, text in (("scn", SCENARIO), ("challenge", CHALLENGE),
                       ("trace", GOOD_TRACE)):
        paths[name] = tmp_path / f"{name}.txt"
        data = text.encode() + (b"peer a\xff\n" if name == bad else b"")
        paths[name].write_bytes(data)
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {paths[bad]}: not UTF-8 text (invalid start byte)\n")
    assert captured.out == ""


def test_verify_challenge_pass_and_fail(tmp_path, capsys):
    challenge = tmp_path / "challenge.txt"
    challenge.write_text(CHALLENGE)
    trace = tmp_path / "trace.txt"
    trace.write_text(GOOD_TRACE)
    assert main(["verify-challenge", str(challenge), str(trace)]) == 0
    assert capsys.readouterr().out.startswith("pass")

    granted = tmp_path / "granted.txt"
    granted.write_text(GOOD_TRACE.replace("denied", "granted"))
    assert main(["verify-challenge", str(challenge), str(granted)]) == 1
    assert capsys.readouterr().out.startswith("fail")


def test_verify_challenge_for_a_path_with_spaces(tmp_path, capsys):
    challenge = tmp_path / "challenge.txt"
    challenge.write_text(CHALLENGE.replace("/root/secret.txt",
                                           "/home/a b.txt"))
    trace = tmp_path / "trace.txt"
    trace.write_text(GOOD_TRACE.replace('"secret.txt"', '"a b.txt"'))
    assert main(["verify-challenge", str(challenge), str(trace)]) == 0
    assert capsys.readouterr().out.startswith("pass")

    trace.write_text(GOOD_TRACE.replace('"secret.txt"', '"b.txt"'))
    assert main(["verify-challenge", str(challenge), str(trace)]) == 1
    assert capsys.readouterr().out.startswith("fail")


def test_verify_challenge_overlong_pid_is_an_error(tmp_path, capsys):
    challenge = tmp_path / "challenge.txt"
    challenge.write_text(CHALLENGE)
    trace = tmp_path / "trace.txt"
    trace.write_text(GOOD_TRACE.replace("pid=4241", "pid=" + "9" * 5000))
    assert main(["verify-challenge", str(challenge), str(trace)]) == 1
    assert capsys.readouterr().err == (
        f"error: {trace}:1: pid has too many digits\n")


def test_verify_challenge_names_the_line_of_a_bad_avc_line(tmp_path, capsys):
    challenge = tmp_path / "challenge.txt"
    challenge.write_text(CHALLENGE)
    trace = tmp_path / "trace.txt"
    trace.write_text(GOOD_TRACE + "\n" + GOOD_TRACE.replace("4241", "x"))
    assert main(["verify-challenge", str(challenge), str(trace)]) == 1
    assert capsys.readouterr().err == (
        f"error: {trace}:3: expected pid at "
        f"'pid=x comm=\"vim\" name=\"secret.txt\" dev=s'\n")


def test_verify_challenge_repeated_key_is_an_error(tmp_path, capsys):
    challenge = tmp_path / "challenge.txt"
    challenge.write_text(CHALLENGE + "expect=granted\n")
    trace = tmp_path / "trace.txt"
    trace.write_text(GOOD_TRACE)
    assert main(["verify-challenge", str(challenge), str(trace)]) == 1
    assert capsys.readouterr().err == (
        f"error: {challenge}: challenge file repeats 'expect'\n")


def test_bench_small_counts(capsys):
    assert main(["bench", "--counts", "5,10,15", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "domains=5" in out
    assert "fit_slope_ms=" in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("repeats", ["0", "-2", "three", "١"])
def test_bench_bad_repeats_is_a_usage_error(repeats, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "--counts", "5,10", "--repeats", repeats])
    assert err.value.code == 2
    assert "--repeats" in capsys.readouterr().err


def test_simulate_takes_both_thresholds_as_a_pair(capsys):
    firefox = str(Path(__file__).resolve().parent.parent / "scenarios"
                  / "firefox.scn")
    assert main(["simulate", firefox, "--refuse-threshold", "0.6",
                 "--full-threshold", "0.8"]) == 0
    assert "<0.6) for cooperation" in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main(["simulate", firefox, "--refuse-threshold", "0.8",
              "--full-threshold", "0.6"])
    assert err.value.code == 2
    assert "--refuse-threshold/--full-threshold" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--refuse-threshold", "--full-threshold"])
@pytest.mark.parametrize("value", ["5", "-0.1", "nan", "٠.٣", "0.3_0"])
def test_simulate_bad_threshold_is_a_usage_error(flag, value, tmp_path,
                                                capsys):
    path = tmp_path / "s.scn"
    path.write_text(SCENARIO)
    with pytest.raises(SystemExit) as err:
        main(["simulate", str(path), flag, value])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "{}", "--seed", "٧"], "--seed"),
    (["simulate", "{}", "--seed", "0_7"], "--seed"),
    (["bench", "--counts", "1_0,2_0"], "--counts"),
])
def test_number_flags_take_only_ascii_decimal(argv, flag, tmp_path, capsys):
    # The scenario rule: Python's int() and float() would read these.
    path = tmp_path / "s.scn"
    path.write_text(SCENARIO)
    with pytest.raises(SystemExit) as err:
        main([arg.format(path) for arg in argv])
    assert err.value.code == 2
    assert f"argument {flag}: bad " in capsys.readouterr().err


#: (argv, the last stderr line) for every number-flag refusal, and for
#: a flag simulate does not take.
FLAG_REFUSALS = [
    (["simulate", "{}", "--strict-conflicts"],
     "p2psec: error: unrecognized arguments: --strict-conflicts"),
    (["simulate", "{}", "--seed", "seven"],
     "p2psec simulate: error: argument --seed: bad seed 'seven'"),
    (["simulate", "{}", "--seed", "0_7"],
     "p2psec simulate: error: argument --seed: bad seed '0_7'"),
    (["bench", "--counts", "1_0,2_0"],
     "p2psec bench: error: argument --counts: bad counts '1_0,2_0'"),
    (["bench", "--counts", "5,0"],
     "p2psec bench: error: argument --counts: bad counts '5,0'"),
    (["bench", "--counts", ","],
     "p2psec bench: error: argument --counts: bad counts ','"),
    # A line needs two distinct sizes.
    (["bench", "--counts", "5"],
     "p2psec bench: error: argument --counts: bad counts '5'"),
    (["bench", "--counts", "5,5"],
     "p2psec bench: error: argument --counts: bad counts '5,5'"),
    (["bench", "--repeats", "three"],
     "p2psec bench: error: argument --repeats: bad repeats 'three'"),
    (["bench", "--repeats", "0"],
     "p2psec bench: error: argument --repeats: bad repeats '0': must be "
     "at least 1"),
    *[(["simulate", "{}", flag, value],
       f"p2psec simulate: error: argument {flag}: bad threshold "
       f"{value!r}{why}")
      for flag in ("--refuse-threshold", "--full-threshold")
      for value, why in (
          ("٠.٣", ""), ("nan", ""),
          ("5", ": must be a finite value in [0, 1]"),
          ("-0.1", ": must be a finite value in [0, 1]"))],
]


@pytest.mark.parametrize("argv, line", FLAG_REFUSALS,
                         ids=[" ".join(argv[-2:]) for argv, _ in FLAG_REFUSALS])
def test_number_flag_refusal_wording(argv, line, tmp_path, capsys):
    path = tmp_path / "s.scn"
    path.write_text(SCENARIO)
    with pytest.raises(SystemExit) as err:
        main([arg.format(path) for arg in argv])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line
