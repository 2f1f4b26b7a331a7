"""Every name in a ``pite_sim`` module's ``__all__`` is referenced in code
outside its own definition: in ``src/pite_sim`` or in the benchmark's
``perfbench/*.py`` (not its ``refsim`` copy of the package). Docstrings and
the ``__all__`` strings do not count. Oracles and helpers that only tests
call belong in ``tests/oracles.py`` or in the tests themselves."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pite_sim").glob("*.py"))


def test_every_exported_name_is_referenced_outside_its_definition():
    exported, references = [], set()
    for path in PACKAGE + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            targets = [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
            if path in PACKAGE and "__all__" in targets:
                exported += [(path, name) for name in ast.literal_eval(stmt.value)]
            owner = (path, getattr(stmt, "name", None))  # the top-level def or class
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    references.add((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    references.add((owner, node.attr))
    unreached = [
        f"{path.stem}.{name}"
        for path, name in exported
        if not any(ref == name and owner != (path, name) for owner, ref in references)
    ]
    assert exported and not unreached, f"exported but never referenced: {unreached}"
