"""The docs point at code that exists.

Every module under ``src/repro`` has a line in DESIGN.md's module map
(§3), and every ``path.py::name`` reference in README.md, DESIGN.md and
EXPERIMENTS.md names a file of the repo and a class, function or
assignment defined in it.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: ``path.py::Name`` or ``path.py::Class::method``; a reference may wrap
#: after a ``::``
REFERENCE = re.compile(r"([\w./-]+\.py)((?:::\s*\w+)+)")


def module_map() -> set[str]:
    """The paths, relative to ``src/repro``, that DESIGN §3's tree lists.

    A line's entry is its text before the first run of two spaces; an
    entry ending in ``/`` opens a directory for the deeper-indented lines
    below it, and ``a.py / b.py`` lists two files."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text[text.index("## 3. "):text.index("## 4. ")]
    tree = section.split("```")[1]
    listed: set[str] = set()
    dirs: list[tuple[int, str]] = []
    for line in tree.splitlines():
        entry = re.split(r"\s{2,}", line.strip())[0]
        if not entry or entry == "src/repro/":
            continue
        indent = len(line) - len(line.lstrip())
        while dirs and dirs[-1][0] >= indent:
            dirs.pop()
        prefix = "".join(d for _, d in dirs)
        for name in entry.split(" / "):
            if name.endswith("/"):
                dirs.append((indent, name))
            elif name.endswith(".py"):
                listed.add(prefix + name)
    return listed


def test_every_module_is_in_the_module_map():
    modules = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
               if p.name != "__init__.py"}
    listed = module_map()
    assert sorted(modules - listed) == [], "modules missing from DESIGN §3"
    assert sorted(listed - modules) == [], "DESIGN §3 lists missing files"


def references() -> list[tuple[str, str, list[str]]]:
    found = []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for path, names in REFERENCE.findall(text):
            found.append((doc, path, re.split(r"::\s*", names)[1:]))
    return found


def locate(path: str) -> pathlib.Path:
    """The repo file *path* names: as given from the root, else the one
    file of that name under ``benchmarks/`` or ``bench/``."""
    direct = ROOT / path
    if direct.is_file():
        return direct
    hits = [p for d in ("benchmarks", "bench") for p in (ROOT / d).rglob(path)]
    assert len(hits) == 1, f"{path}: {len(hits)} files match"
    return hits[0]


def defines(body: list[ast.stmt], name: str) -> ast.stmt | None:
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.name == name:
            return node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


@pytest.mark.parametrize("doc,path,names", references(),
                         ids=lambda v: v if isinstance(v, str) else "::".join(v))
def test_reference_resolves(doc, path, names):
    scope = ast.parse(locate(path).read_text(encoding="utf-8")).body
    for name in names:
        node = defines(scope, name)
        assert node is not None, f"{doc}: {path}::{'::'.join(names)}"
        scope = getattr(node, "body", [])


def test_the_pattern_finds_references():
    assert references(), "no path.py::name found: the pattern is broken"
