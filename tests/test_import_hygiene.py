"""Every name a package module imports is read in that module, no
package module imports another's private name, only ``mac`` reads a
challenge's command line, only the scenario parse loop and builder
give a ``ScenarioError`` its line, every dataclass field and every
attribute a class sets on ``self`` is read, every frozen value is built
through ``frozen_record``, and importing the package loads no
networking, e-mail or ``statistics`` module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p2psec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads,
    annotations included; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_an_unread_import_is_reported():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import re\nfrom typing import Optional, Union\n"
              "def f(x: Optional[int]) -> int:\n    return re.sub(x)\n")
    assert unread_imports(source) == ["Union", "os"]


def test_policy_xml_builds_no_element_tree():
    """The policy parser makes one expat pass; no ElementTree path is
    kept beside it."""
    tree = ast.parse((PACKAGE / "policy_xml.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            modules.update(f"{node.module}.{alias.name}"
                           for alias in node.names)
    assert not any(name.startswith("xml.etree") for name in modules)
    assert "xml.parsers.expat" in modules


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names imported from a package module, relatively
    or by the ``p2psec`` name."""
    return sorted(
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "p2psec")
        for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    assert private_imports(path.read_text()) == []


def test_a_private_import_is_reported():
    source = ("from __future__ import annotations\n"
              "from os import _exit\nfrom .simnet import _number, fmt\n"
              "from p2psec.mac import _AVC_STEPS\nfrom . import _x\n")
    assert private_imports(source) == ["_AVC_STEPS", "_number", "_x"]


def challenge_command_reads(source: str) -> list[str]:
    """``.command`` reads on an expression named for a challenge; an
    argparse namespace's ``args.command`` is not one."""
    return sorted(
        ast.unparse(node) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "command"
        and "challenge" in ast.unparse(node.value).lower())


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "mac.py"],
                         ids=lambda p: p.name)
def test_only_mac_reads_a_challenge_command_line(path):
    """The command line's format is ``mac``'s: other modules read a
    challenge's ``stub`` and ``target_path``."""
    assert challenge_command_reads(path.read_text()) == []


def test_a_challenge_command_read_is_reported():
    source = ("stub = challenge.command.split()[1]\n"
              "line = parse_challenge(text).command\nverb = args.command\n")
    assert challenge_command_reads(source) == [
        "challenge.command", "parse_challenge(text).command"]


def scenario_line_sites(source: str) -> list[str]:
    """The qualified name of the function around each ``ScenarioError``
    call given a line, by keyword or as a second argument."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "ScenarioError"
                    and (len(child.args) > 1
                         or any(k.arg == "line" for k in child.keywords))):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(sites)


def test_only_the_parse_loop_and_build_name_a_scenario_line():
    """Statements raise without a line; the parse loop attaches it, and
    ``build`` names the last ``config`` line for the config as a whole."""
    sites = {site for path in MODULES
             for site in scenario_line_sites(path.read_text())}
    assert sites == {"parse_scenario", "_ScenarioBuilder.build"}


def test_a_scenario_line_site_is_reported():
    source = ("def f(n):\n    raise ScenarioError('x', line=n)\n"
              "class B:\n    def g(self, n):\n"
              "        raise ScenarioError('y', n)\n"
              "def h():\n    raise ScenarioError('z')\n")
    assert scenario_line_sites(source) == ["B.g", "f"]


#: The decorators that make a class a dataclass.
DATACLASS_DECORATORS = ("dataclass", "frozen_record")


def write_only_fields(sources: list[str]) -> list[str]:
    """``Class.field`` for each field of a class decorated with
    ``dataclass`` or ``frozen_record``, and each attribute a class's
    code assigns on ``self``, whose name no source reads as an
    attribute."""
    declared, read = set(), set()
    for node in (n for s in sources for n in ast.walk(ast.parse(s))):
        if isinstance(node, ast.ClassDef):
            if any(isinstance(d, ast.Name) and d.id in DATACLASS_DECORATORS
                   or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id in DATACLASS_DECORATORS
                   for d in node.decorator_list):
                declared.update(f"{node.name}.{stmt.target.id}"
                                for stmt in node.body
                                if isinstance(stmt, ast.AnnAssign)
                                and isinstance(stmt.target, ast.Name))
            declared.update(
                f"{node.name}.{target.attr}" for target in ast.walk(node)
                if isinstance(target, ast.Attribute)
                and isinstance(target.ctx, ast.Store)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    return sorted(name for name in declared
                  if name.split(".")[1] not in read)


def test_every_dataclass_field_is_read():
    """A field no code reads is a fact kept for nobody."""
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert write_only_fields(sources) == []


def test_a_write_only_field_is_reported():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: str\n"
              "@dataclass\nclass B:\n    z: int = 0\n"
              "@frozen_record\nclass F:\n    v: int\n    x: int\n"
              "class C:\n    w: int\n"
              "class E(Exception):\n    def __init__(self, m, n):\n"
              "        self.m, self.n = m, n\n        other.o = 0\n"
              "def f(a, b, e):\n    a.y = 1\n    return a.x, b.z, e.n\n")
    assert write_only_fields([source]) == ["A.y", "E.m", "F.v"]


def frozen_without_record(source: str) -> list[str]:
    """Classes that ``dataclass`` makes frozen, where ``frozen_record``
    should make them, and each ``__dict__`` read on anything but a class
    named ``cls``: a frozen value's fields are written only by the
    builds ``frozen_record`` makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            if any(isinstance(d, ast.Call) and ast.unparse(d.func)
                   == "dataclass" and "frozen=True" in map(ast.unparse,
                                                           d.keywords)
                   for d in node.decorator_list):
                found.append(node.name)
        elif (isinstance(node, ast.Attribute) and node.attr == "__dict__"
              and ast.unparse(node.value) != "cls"):
            found.append(ast.unparse(node))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_frozen_value_is_built_by_frozen_record(path):
    assert frozen_without_record(path.read_text()) == []


def test_a_frozen_value_built_otherwise_is_reported():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n"
              "@dataclass(eq=False, frozen=True)\nclass B:\n    x: int\n"
              "@frozen_record\nclass C:\n    x: int\n"
              "@dataclass\nclass D:\n    x: int\n"
              "def f(value, cls):\n    value.__dict__.update(x=1)\n"
              "    return 'x' in cls.__dict__\n")
    assert frozen_without_record(source) == ["A", "B", "value.__dict__"]


#: Standard-library packages that importing ``p2psec`` must not load:
#: networking and e-mail, and ``xml.sax``, which would pull them in; and
#: ``statistics``, with its ``fractions`` and ``decimal``, which only
#: ``bench.linear_fit`` needs.
UNWANTED_PACKAGES = ("urllib", "http", "email", "ssl", "socket", "xml.sax",
                     "statistics")


def unwanted_modules(names: list[str]) -> list[str]:
    return sorted(name for name in names if any(
        name == package or name.startswith(package + ".")
        for package in UNWANTED_PACKAGES))


def test_importing_the_package_loads_no_network_or_mail_module():
    """A fresh interpreter started with ``-S``, so that site hooks load
    nothing of their own."""
    code = "import sys, p2psec, p2psec.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "p2psec.cli" in loaded
    assert unwanted_modules(loaded) == []


def test_an_unwanted_module_is_reported():
    assert unwanted_modules(["xml.sax.saxutils", "xml.parsers.expat", "http",
                             "httpx", "email.utils", "socketserver"]) == [
        "email.utils", "http", "xml.sax.saxutils"]
