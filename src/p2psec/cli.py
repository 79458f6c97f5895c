"""Command line front end.

Exit codes: 0 on success, 1 for domain failures (invalid input, policy
conflicts, a failed challenge), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Optional, Sequence

from .bench import DEFAULT_COUNTS, render_benchmark, run_benchmark
from .errors import P2PSecError, TrustError, XmlSyntaxError
from .mac import (
    compile_policy,
    emit_rules,
    parse_avc,
    parse_challenge,
    render_contexts,
    verify_challenge,
)
from .policy_xml import parse_policy, to_peer_policy
from .simnet import (Scenario, ascii_number, parse_scenario, render_report,
                     run_scenario)


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8 with universal newlines; a file
    that is not UTF-8 is a ``P2PSecError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise P2PSecError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_file(path: str, parse: Callable[[Any], Any], data: Any) -> Any:
    """``parse(data)``, where ``path`` names the file (or the file's
    line) ``data`` was read from; a fault in it becomes a
    ``P2PSecError`` that names ``path``, and the line when the fault
    carries one.  An ``XmlSyntaxError``'s message already gives its
    position, so it takes the path alone."""
    try:
        return parse(data)
    except P2PSecError as exc:
        if exc.line and not isinstance(exc, XmlSyntaxError):
            path = f"{path}:{exc.line}"
        raise P2PSecError(f"{path}: {exc}") from None


def _load_policy(path: str):
    with open(path, "rb") as handle:
        data = handle.read()
    return _parse_file(path, lambda xml: to_peer_policy(parse_policy(xml)),
                       data)


def _cmd_compile(args: argparse.Namespace) -> int:
    compiled = compile_policy(_load_policy(args.policy))
    out = emit_rules(compiled)
    contexts = render_contexts(compiled)
    if contexts:
        out += "\n# contexts\n" + contexts
    sys.stdout.write(out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    findings = policy.conflict_report()
    if not findings:
        print(f"ok: {len(policy.domains)} domain(s), "
              f"{len(policy.resources)} file(s), no conflicts")
        return 0
    for scope_kind, scope_name, first, second in findings:
        print(f"conflict in {scope_kind} {scope_name}: {first.render()} "
              f"vs {second.render()}")
    return 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _parse_file(args.scenario, parse_scenario,
                           _read_text(args.scenario))
    # One replace, so TrustConfig checks the two thresholds as a pair.
    flags = {"refuse_threshold": args.refuse_threshold,
             "full_trust_threshold": args.full_threshold}
    try:
        config = replace(scenario.config, **{
            key: value for key, value in flags.items() if value is not None})
    except TrustError as exc:
        raise argparse.ArgumentError(
            None, f"--refuse-threshold/--full-threshold: {exc}") from None
    # The parse checked the peers and actions, which the flags leave as
    # they are, so the scenario is built once more, unchecked.
    scenario = Scenario.unchecked(
        scenario.seed if args.seed is None else args.seed, scenario.peers,
        scenario.actions, config)
    report = render_report(run_scenario(scenario))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    return 0


def _cmd_verify_challenge(args: argparse.Namespace) -> int:
    challenge = _parse_file(args.challenge, parse_challenge,
                            _read_text(args.challenge))
    # Lines are numbered as they sit in the file, blank ones included.
    records = [_parse_file(f"{args.trace}:{number}", parse_avc, line)
               for number, line in enumerate(
                   io.StringIO(_read_text(args.trace)), 1)
               if line.strip()]
    result = verify_challenge(challenge, records)
    print(f"{'pass' if result.passed else 'fail'}: {result.reason}")
    return 0 if result.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    report = run_benchmark(counts=args.counts, repeats=args.repeats)
    sys.stdout.write(render_benchmark(report))
    return 0


def _number_flag(what: str, convert: Callable[[str], Any],
                 accept: Callable[[Any], bool] = lambda value: True,
                 why: str = "") -> Callable[[str], Any]:
    """An argparse type that reads a flag with ``convert``, refusing
    text it cannot read as ``bad {what} {text!r}`` and a value outside
    ``accept`` with ``why`` appended.  Numbers follow the scenario rule
    (:func:`~p2psec.simnet.ascii_number`): ASCII decimal only."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}{why}")
        return value
    return parse


_parse_seed = _number_flag("seed", partial(ascii_number, int))
_parse_counts = _number_flag(
    "counts", lambda text: tuple(ascii_number(int, part)
                                 for part in text.split(",") if part),
    lambda counts: len(set(counts)) >= 2 and min(counts) >= 1)
_parse_repeats = _number_flag("repeats", partial(ascii_number, int),
                              lambda repeats: repeats >= 1,
                              ": must be at least 1")
_parse_threshold = _number_flag("threshold", partial(ascii_number, float),
                                lambda value: 0.0 <= value <= 1.0,
                                ": must be a finite value in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2psec",
        description="Policy compilation, checking, negotiation simulation, "
                    "and challenge verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser(
        "compile", help="project an XML policy onto MAC rules and labels")
    compile_p.add_argument("policy", help="policy XML file")
    compile_p.set_defaults(func=_cmd_compile)

    check_p = sub.add_parser(
        "check", help="validate an XML policy and report conflicts")
    check_p.add_argument("policy", help="policy XML file")
    check_p.set_defaults(func=_cmd_check)

    sim_p = sub.add_parser("simulate", help="run a scenario file")
    sim_p.add_argument("scenario", help="scenario file")
    sim_p.add_argument("--seed", type=_parse_seed, default=None,
                       help="override the scenario seed")
    sim_p.add_argument("--refuse-threshold", type=_parse_threshold,
                       default=None,
                       help="trust below this refuses the request; in "
                            "[0, 1]")
    sim_p.add_argument("--full-threshold", type=_parse_threshold,
                       default=None,
                       help="lower bound of the full-trust band, in [0, 1]: "
                            "trust at or above it is full trust, and a "
                            "delegate must be trusted strictly above it")
    sim_p.add_argument("--out", default=None,
                       help="write the report to this file")
    sim_p.set_defaults(func=_cmd_simulate)

    verify_p = sub.add_parser(
        "verify-challenge",
        help="check an audit trace against an issued challenge")
    verify_p.add_argument("challenge", help="challenge file")
    verify_p.add_argument("trace", help="audit records, one per line")
    verify_p.set_defaults(func=_cmd_verify_challenge)

    bench_p = sub.add_parser(
        "bench", help="measure compile scaling across policy sizes")
    bench_p.add_argument("--counts", type=_parse_counts,
                         default=DEFAULT_COUNTS,
                         help="comma-separated domain counts, each at "
                              "least 1: two or more distinct sizes to fit")
    bench_p.add_argument("--repeats", type=_parse_repeats, default=3,
                         help="timed repeats per size")
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except (P2PSecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
