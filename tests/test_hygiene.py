"""Source-level guards: every public name has a user, every import is used."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = {p: ast.parse(p.read_text())
           for p in sorted((ROOT / "src" / "satkit").glob("*.py"))}
# Kept without a caller outside the tests: fit_hpa is the amplifier fit
# that acceptance test 5 checks the chain against, and spd_apply_lut is the
# only apply rule under which the LUT that spd-bench's lut_bins writes has
# a meaning.
NO_CALLER_ALLOWED = {"predistortion.fit_hpa", "predistortion.spd_apply_lut"}


def read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller_outside_the_tests():
    # per top-level statement, so that a definition's own body is no caller
    users = {(p, stmt.lineno): read_names(stmt)
             for p, tree in MODULES.items() for stmt in tree.body}
    for p in [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        if not p.name.startswith("test_"):
            users[(p, 0)] = read_names(ast.parse(p.read_text()))
    uncalled = {f"{p.stem}.{stmt.name}" for p, tree in MODULES.items()
                for stmt in tree.body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and not any(stmt.name in names for key, names in users.items()
                            if key != (p, stmt.lineno))}
    assert uncalled == NO_CALLER_ALLOWED


def test_no_unused_imports_in_src():
    unused = []
    for p, tree in MODULES.items():
        if p.name == "__init__.py":
            continue
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{p.stem}: {alias.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in names]
    assert not unused
