"""Every name in a ``pite_sim`` module's ``__all__``, and every top-level
function and class of the package, private ones included, is referenced
in code outside its own definition: in ``src/pite_sim`` or in the
benchmark's ``perfbench/*.py`` (not its ``refsim`` copy of the package).
Every method, property and annotated field of a package class (dunders
excepted) is likewise read as an attribute outside its own definition.
Docstrings and the ``__all__`` strings do not count. Oracles and helpers
that only tests call belong in ``tests/oracles.py`` or in the tests
themselves, and a helper whose last caller is gone goes with it."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pite_sim").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def member_name(stmt: ast.stmt) -> str | None:
    """The member a class-body statement defines: a method or property,
    or an annotated field; None for anything else."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return stmt.name
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


def scan() -> tuple[list, list, list, set]:
    """The package's ``__all__`` names and top-level defs and classes, as
    (path, name), its class members, as ((path, class), name), and every
    (owner, referenced name, read as an attribute) in the scanned code.
    The owner is (path, name, member) of the top-level statement and,
    within a class body, of the member the reference sits in (else
    None)."""
    exported, defined, members, references = [], [], [], set()
    for path in SCANNED:
        for stmt in ast.parse(path.read_text()).body:
            targets = [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
            if path in PACKAGE and "__all__" in targets:
                exported += [(path, name) for name in ast.literal_eval(stmt.value)]
            if path in PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, stmt.name))
            top = getattr(stmt, "name", None)
            parts = [(None, stmt)]
            if isinstance(stmt, ast.ClassDef):
                outer = (*stmt.bases, *stmt.keywords, *stmt.decorator_list)
                parts = [(None, node) for node in outer] + [(member_name(s), s) for s in stmt.body]
                if path in PACKAGE:
                    members += [
                        ((path, top), name)
                        for name, _ in parts
                        if name and not (name.startswith("__") and name.endswith("__"))
                    ]
            for member, part in parts:
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        references.add(((path, top, member), node.id, False))
                    elif isinstance(node, ast.Attribute):
                        read = isinstance(node.ctx, ast.Load)
                        references.add(((path, top, member), node.attr, read))
    return exported, defined, members, references


def unreached(names: list, references: set) -> list[str]:
    return [
        f"{path.stem}.{name}"
        for path, name in names
        if not any(ref == name and owner[:2] != (path, name) for owner, ref, _ in references)
    ]


def test_every_exported_name_is_referenced_outside_its_definition():
    exported, _, _, references = scan()
    missing = unreached(exported, references)
    assert exported and not missing, f"exported but never referenced: {missing}"


def test_every_top_level_definition_is_referenced_outside_itself():
    _, defined, _, references = scan()
    missing = unreached(defined, references)
    assert defined and not missing, f"defined but never referenced: {missing}"


def test_every_class_member_is_read_outside_its_definition():
    _, _, members, references = scan()
    missing = sorted(
        f"{path.stem}.{cls}.{name}"
        for (path, cls), name in set(members)
        if not any(
            read and ref == name and owner != (path, cls, name) for owner, ref, read in references
        )
    )
    assert members and not missing, f"class members never read as an attribute: {missing}"
