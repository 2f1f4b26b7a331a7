"""Every name in a ``pite_sim`` module's ``__all__``, and every top-level
function and class of the package, private ones included, is referenced
in code outside its own definition: in ``src/pite_sim`` or in the
benchmark's ``perfbench/*.py`` (not its ``refsim`` copy of the package).
Docstrings and the ``__all__`` strings do not count. Oracles and helpers
that only tests call belong in ``tests/oracles.py`` or in the tests
themselves, and a helper whose last caller is gone goes with it."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pite_sim").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def scan() -> tuple[list, list, set]:
    """The package's ``__all__`` names and top-level defs and classes, as
    (path, name), and every (owner, referenced name) in the scanned code,
    the owner being the (path, name) of the top-level statement."""
    exported, defined, references = [], [], set()
    for path in SCANNED:
        for stmt in ast.parse(path.read_text()).body:
            targets = [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
            if path in PACKAGE and "__all__" in targets:
                exported += [(path, name) for name in ast.literal_eval(stmt.value)]
            if path in PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, stmt.name))
            owner = (path, getattr(stmt, "name", None))  # the top-level def or class
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    references.add((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    references.add((owner, node.attr))
    return exported, defined, references


def unreached(names: list, references: set) -> list[str]:
    return [
        f"{path.stem}.{name}"
        for path, name in names
        if not any(ref == name and owner != (path, name) for owner, ref in references)
    ]


def test_every_exported_name_is_referenced_outside_its_definition():
    exported, _, references = scan()
    missing = unreached(exported, references)
    assert exported and not missing, f"exported but never referenced: {missing}"


def test_every_top_level_definition_is_referenced_outside_itself():
    _, defined, references = scan()
    missing = unreached(defined, references)
    assert defined and not missing, f"defined but never referenced: {missing}"
