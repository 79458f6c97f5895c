"""Output checks for the benchmark ops; each returns a list of problems.

The checks read only the program's rendered output and the facts the
generators recorded, so they judge the program from outside.  The MAC
projection tables below are copied from the golden expectations of
acceptance criterion 4, not imported from ``p2psec.mac``.
"""

from __future__ import annotations

from inputs import (
    CONF, COOP, INTEG, NOPUB, NOSHARE, SPREAD,
    CompileInput, ExperimentInput, SimulateInput,
)

FILE_VOCAB = ("read", "write", "unlink", "create", "append", "mounton",
              "rename", "lock", "execute", "getattr", "setattr")
DIR_VOCAB = ("read", "write", "unlink", "search", "create", "mounton",
             "getattr", "setattr", "rename", "add_name", "remove_name",
             "reparent", "rmdir")

_NOPUB_RULES = ({"create", "setattr", "mounton"},
                {"create", "setattr", "add_name", "remove_name", "rmdir",
                 "mounton"})
#: kind -> (file neverallow, dir neverallow)
NEVERALLOW = {
    CONF: ({"read", "append", "setattr"}, {"read", "search", "setattr"}),
    INTEG: ({"write", "unlink", "append", "rename", "setattr"},
            {"write", "unlink", "setattr", "rename", "remove_name",
             "rmdir"}),
    NOPUB: _NOPUB_RULES,
    NOSHARE: _NOPUB_RULES,
    COOP: (set(), set()),
    SPREAD: (set(), set()),
}


def _reference_lines(kinds) -> tuple:
    denied_files: set[str] = set()
    denied_dirs: set[str] = set()
    for kind in kinds:
        files, dirs = NEVERALLOW[kind]
        denied_files |= files
        denied_dirs |= dirs
    lines = [("allow", "file", FILE_VOCAB), ("allow", "dir", DIR_VOCAB)]
    for cls, vocab, denied in (("file", FILE_VOCAB, denied_files),
                               ("dir", DIR_VOCAB, denied_dirs)):
        if denied:
            lines.append(("neverallow", cls,
                          tuple(p for p in vocab if p in denied)))
    return tuple(lines)


def reference_projection(inp: CompileInput) -> list[tuple[str, tuple]]:
    """Stanzas ``emit_rules`` must produce: every domain in document
    order, then every file whose own kinds make it stricter."""
    stanzas = []
    domain_lines = {}
    domain_kinds = {}
    for name, kinds in inp.domains:
        domain_lines[name] = _reference_lines(kinds)
        domain_kinds[name] = kinds
        stanzas.append((name, domain_lines[name]))
    for path, domain, kinds in inp.files:
        lines = _reference_lines(domain_kinds[domain] | kinds)
        if lines != domain_lines[domain]:
            stanzas.append((path, lines))
    return stanzas


def parse_stanzas(text: str) -> list[tuple[str, tuple]]:
    stanzas = []
    for block in text.strip("\n").split("\n\n"):
        header, *rules = block.split("\n")
        lines = []
        for rule in rules:
            verb, cls, body = rule.split(" ", 2)
            lines.append((verb, cls, tuple(body.strip("{}").split())))
        stanzas.append((header.rstrip(":"), tuple(lines)))
    return stanzas


def check_compile(inp: CompileInput, output: tuple[str, str]) -> list[str]:
    rules, contexts = output
    problems = []
    got = parse_stanzas(rules)
    want = reference_projection(inp)
    if got != want:
        if len(got) != len(want):
            problems.append(f"{len(got)} rule stanzas, expected {len(want)}")
        for got_stanza, want_stanza in zip(got, want):
            if got_stanza != want_stanza:
                problems.append(f"stanza {got_stanza[0]!r} differs from the "
                                f"reference for {want_stanza[0]!r}")
                break
    lines = contexts.splitlines()
    if len(lines) != len(inp.files):
        problems.append(f"{len(lines)} context lines for "
                        f"{len(inp.files)} files")
    expected = {path: f"{path} system_u:object_r:{domain}_t"
                for path, domain, _ in inp.files}
    wrong = [line for line in lines
             if expected.get(line.split(" ", 1)[0]) != line]
    if wrong:
        problems.append(f"{len(wrong)} wrong context lines, first "
                        f"{wrong[0]!r}")
    return problems


def _section(lines: list[str], header: str) -> list[str]:
    """Lines after the last ``header`` up to the next blank line."""
    start = len(lines) - 1 - lines[::-1].index(header)
    body = []
    for line in lines[start + 1:]:
        if not line:
            break
        body.append(line)
    return body


def check_simulate(inp: SimulateInput, report: str) -> list[str]:
    problems = []
    lines = report.split("\n")
    try:
        asks = _section(lines, "# negotiations")
        reputations = _section(lines, "# reputations")
        metrics = dict(line.split("=", 1)
                       for line in _section(lines, "# metrics"))
    except ValueError:
        return ["report lacks a negotiations, reputations or metrics "
                "section"]
    if len(asks) != len(inp.asks):
        problems.append(f"{len(asks)} negotiation records for "
                        f"{len(inp.asks)} asks")
    for number, (line, (requester, resource, expected)) in enumerate(
            zip(asks, inp.asks), start=1):
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        if (fields.get("requester"), fields.get("resource")) != (
                requester, resource):
            problems.append(f"ask {number}: record {line!r} is not "
                            f"{requester} asking {resource}")
        elif expected and fields.get("outcome") != expected:
            problems.append(f"ask {number}: {requester} {resource} "
                            f"{fields.get('outcome')}, expected {expected}")
    for line in reputations:
        value = float(line.rsplit("=", 1)[1])
        if not 0.0 <= value <= 1.0:
            problems.append(f"reputation out of [0, 1]: {line!r}")
    if metrics.get("forged_records") != metrics.get("flagged_records"):
        problems.append(f"forged_records={metrics.get('forged_records')} "
                        f"but flagged_records="
                        f"{metrics.get('flagged_records')}")
    return problems


def check_experiment(inp: ExperimentInput, report: str) -> list[str]:
    problems = []
    pop = inp.population
    per_run = {
        "honest": 2 * pop["honest_requesters"],
        "blind-liar": pop["blind_liars"],
        "informed-liar": pop["informed_liars"],
        "log-forger": pop["log_forgers"],
    }
    stats = {}
    totals = {}
    for line in report.splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        if "behavior" in fields:
            stats[fields["behavior"]] = {
                k: int(fields[k])
                for k in ("negotiations", "accepted", "refused")}
        else:
            totals.update(fields)
    if totals.get("runs") != str(inp.runs):
        problems.append(f"runs={totals.get('runs')}, expected {inp.runs}")
    for behavior, asks in per_run.items():
        got = stats.get(behavior, {}).get("negotiations", 0)
        if got != asks * inp.runs:
            problems.append(f"{behavior}: {got} records for "
                            f"{asks * inp.runs} asks")
    if stats.get("honest", {}).get("refused", 0):
        problems.append("an honest matching requester was refused")
    for behavior in ("informed-liar", "log-forger"):
        row = stats.get(behavior, {})
        if row.get("refused") != row.get("negotiations"):
            problems.append(f"{behavior} accepted at least once")
    if totals.get("forged_records") != totals.get("flagged_records"):
        problems.append(f"forged_records={totals.get('forged_records')} "
                        f"but flagged_records="
                        f"{totals.get('flagged_records')}")
    return problems
