"""Every code name the maintained docs cite resolves against the tree.

A backticked ``repro.<dotted>`` name resolves by import and attribute lookup
(an instance attribute by its class's syntax tree), ``path.py`` to a file by
its path or bare name, ``path.py::Symbol[.attr]`` to a top-level name of
that file and a name its body binds, and a span that is a command line,
``[python -m] repro <subcommand> [--flag ...]``, against the parser of
``repro.__main__.build_parser``: each subcommand must exist (a ``<workload>``
placeholder stands for any) and each flag belong to it.  A passage that
describes the past on purpose is exempt between ``<!-- doc-lint: off -->``
and ``<!-- doc-lint: on -->``, and nowhere else.  A test id
``file.py::Class::test`` resolves like a symbol (its ``[param]`` is not read).
"""

import argparse
import ast
import importlib
import inspect
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = (
    "README.md",
    "DESIGN.md",
    "docs/API.md",
    "benchmarks/suite/README.md",
    ".claude/skills/verify/SKILL.md",
)
#: Dead names in a doc frozen with the benchmark suite, mended when the suite
#: is next re-recorded.
FROZEN = {("benchmarks/suite/README.md", "bench_perf.py")}
OFF, ON = "<!-- doc-lint: off -->", "<!-- doc-lint: on -->"
SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"(?<![\w./*<-])(\w[\w./-]*\.py)(?!\w)((?:(?:::|\.)[A-Za-z_]\w*)*)")
#: A span that is a ``repro`` command line (after any ``VAR=value`` and
#: ``python -m``); group 1 is its arguments.
COMMAND = re.compile(r"(?:\w+=\S*\s+)*(?:python3?\s+-m\s+)?repro\s+(.+)")
#: Every Python file of the tree, hidden and cache directories aside.
PY_FILES = [
    f.relative_to(ROOT).as_posix()
    for f in ROOT.rglob("*.py")
    if not any(part.startswith((".", "__")) for part in f.relative_to(ROOT).parent.parts)
]


def _names(node: ast.AST) -> list[str]:
    """The names ``node`` binds: a def or class, an assignment's plain
    targets, a ``self.x`` store."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return [node.attr] if getattr(node.value, "id", None) == "self" else []
    return []


@lru_cache(maxsize=None)
def bound(file: str) -> dict[str, set[str]]:
    """Each top-level name of ``file`` with every name its body binds."""
    tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
    return {
        name: {inner for sub in ast.walk(node) for inner in _names(sub)}
        for node in tree.body
        for name in _names(node)
    }


def resolves_file(path: str, symbol: str) -> bool:
    top, *attr = [s for s in re.split(r"::|\.", symbol) if s][:2] or [None]
    for file in PY_FILES:
        if file != path and not file.endswith("/" + path):
            continue
        if top is None or (top in bound(file) and set(attr) <= bound(file)[top]):
            return True
    return False


def resolves_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return inspect.isclass(obj) and any(
                    attr in bound(Path(inspect.getsourcefile(k)).relative_to(ROOT).as_posix())
                    .get(k.__name__, ())
                    for k in obj.__mro__
                    if k.__module__.startswith("repro")
                )
            obj = getattr(obj, attr)
        return True
    return False


@lru_cache(maxsize=None)
def cli() -> argparse.ArgumentParser:
    from repro.__main__ import build_parser

    return build_parser()


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def resolves_command(args: str) -> bool:
    """Whether ``repro <args>`` names live subcommands and flags.  Tokens
    after a subcommand without subcommands of its own are values, and
    square brackets only mark what is optional."""
    parsers = [cli()]
    for token in args.replace("[", " ").replace("]", " ").split():
        subs = [_subcommands(p) for p in parsers]
        if token.startswith("-"):
            flag = token.split("=", 1)[0]
            parsers = [p for p in parsers if flag in p._option_string_actions]
        elif any(subs):
            parsers = [p for choices in subs for name, p in choices.items()
                       if token.startswith("<") or name == token]
        if not parsers:
            return False
    return True


def resolves(name: str) -> bool:
    m = PATH.fullmatch(name)
    return resolves_file(m.group(1), m.group(2)) if m else resolves_dotted(name)


def dead_names(doc: str, text: str) -> list[str]:
    """``doc:line: `name``` of every cited name outside an exempt passage
    that does not resolve."""
    dead, on = [], True
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip() in (OFF, ON):
            on = line.strip() == ON
            continue
        for span in SPAN.findall(line) if on else ():
            command = COMMAND.fullmatch(span)
            if command and not resolves_command(command.group(1)):
                dead.append(f"{doc}:{lineno}: `{span}`")
            cited = [m.group(0) for m in PATH.finditer(span)]
            cited += DOTTED.findall(PATH.sub(" ", span))
            dead += [
                f"{doc}:{lineno}: `{name}`"
                for name in cited
                if (doc, name) not in FROZEN and not resolves(name)
            ]
    return dead


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_name_resolves(doc):
    assert dead_names(doc, (ROOT / doc).read_text(encoding="utf-8")) == []


def test_the_lint_finds_planted_dead_names_outside_a_marked_passage():
    planted = (ROOT / "DESIGN.md").read_text(encoding="utf-8") + (
        "\n`repro.core.engine.NoSuchEngine`, `core/nosuch.py`, `repro.no_module`,"
        f" `core/engine.py::RunConfig.no_such_field`\n{OFF}\n`core/gone.py`\n{ON}\n"
        "`repro nosuch --n 4`, `python -m repro sort --no-such-flag`,"
        " `repro perf nosuch`\n"
    )
    assert [d.split(": ", 1)[1] for d in dead_names("DESIGN.md", planted)] == [
        "`repro.core.engine.NoSuchEngine`",
        "`core/nosuch.py`",
        "`repro.no_module`",
        "`core/engine.py::RunConfig.no_such_field`",
        "`repro nosuch --n 4`",
        "`python -m repro sort --no-such-flag`",
        "`repro perf nosuch`",
    ]


@pytest.mark.parametrize("name", [
    pytest.param("repro.core.engine.ParallelEMSimulation.procs", id="instance-attribute"),
    pytest.param("repro.conform.REFERENCE", id="module-constant"),
    pytest.param("core/processor.py::RealProcessor.deliver", id="file-class-method"),
    pytest.param("tests/helpers.py::piled", id="file-function"),
    pytest.param("tests/test_vector_golden.py::TestEligibility::test_custom_key_disables_vector_mode",
                 id="test-id"),
    pytest.param("processor.py", id="bare-file"),
])
def test_a_live_name_resolves(name):
    assert resolves(name)
