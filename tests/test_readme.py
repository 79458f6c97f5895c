"""The README's scenario grammar names the statements the parser takes,
it names every command line option, and its library examples run
against the package as it is."""

import argparse
import re
from pathlib import Path

from p2psec.cli import build_parser
from p2psec.simnet import _ARITY

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN_POLICY = Path(__file__).resolve().parent / "golden" / "policy.xml"


def grammar_keywords(text: str) -> list[str]:
    """The first word of each statement line in the fenced block that
    follows the ``## Scenario files`` heading; indented lines continue
    the comment of the statement above."""
    section = text.split("## Scenario files", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    return [line.split()[0] for line in block.splitlines()
            if line and not line[0].isspace()]


def test_grammar_block_lists_every_statement_once():
    keywords = grammar_keywords(README.read_text(encoding="utf-8"))
    assert len(keywords) == len(set(keywords))
    assert set(keywords) == set(_ARITY)


def test_indented_lines_are_not_statements():
    text = ("## Scenario files\n\n```\nseed <int>   # seed\n"
            "peer <uid>\n                # behavior\n```\n")
    assert grammar_keywords(text) == ["seed", "peer"]


def cli_options() -> set[str]:
    """Every ``--long`` option of every ``p2psec`` subcommand, less
    argparse's own ``--help``."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {option for command in sub.choices.values()
            for action in command._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def test_readme_names_every_cli_option():
    text = README.read_text(encoding="utf-8")
    options = cli_options()
    assert {"--seed", "--counts"} <= options
    assert sorted(option for option in options
                  if not re.search(rf"{re.escape(option)}(?![\w-])", text)
                  ) == []


def library_examples(text: str) -> list[str]:
    """The fenced ``python`` blocks of the ``## Library use`` section."""
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def run_example(index: int, namespace: dict, monkeypatch) -> None:
    examples = library_examples(README.read_text(encoding="utf-8"))
    assert len(examples) == 2
    monkeypatch.chdir(README.parent)
    exec(compile(examples[index], f"README.md example {index + 1}", "exec"),
         namespace)


def test_library_example_runs(monkeypatch, capsys):
    run_example(0, {}, monkeypatch)
    out = capsys.readouterr().out
    assert out.startswith("ensib:\nallow file {")
    assert "neverallow file {read append setattr}" in out


def test_xml_example_runs_on_a_canonical_policy(monkeypatch):
    # The golden policy is canonical: serializing its parse gives it back.
    xml = GOLDEN_POLICY.read_bytes()
    namespace = {"xml_bytes": xml, "canonical_bytes": xml}
    run_example(1, namespace, monkeypatch)
    assert namespace["policy"].domains
