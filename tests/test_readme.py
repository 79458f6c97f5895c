"""The README's scenario grammar names the statements the parser takes."""

import re
from pathlib import Path

from p2psec.simnet import _ARITY

README = Path(__file__).resolve().parent.parent / "README.md"


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
