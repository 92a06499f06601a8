"""Every public name of the program is used by the program.

A public module-level function, class or constant, or a public method,
of ``src/leandecomp`` or ``perfbench`` must be referenced somewhere in
those files (as a name, an attribute or an imported name) other than at
its own definition. A name that only tests call is not part of the
program: delete it, or call what the program calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/leandecomp/*.py"), *ROOT.glob("perfbench/*.py")])

#: Definitions that the program does not use, each with why it stays.
ALLOWED = {
    "ProofTree.validate": "the invariant checker that the tests run after every step",
    "DECLARATION_KEYWORDS": "kept for the statement check planned in ROADMAP.md, "
    "which starts declarations at these keywords",
}


def definitions(module: ast.Module):
    """(qualified name, bare name) of each public definition."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id


def references(module: ast.Module):
    """Every name the module reads, as a name, an attribute or an import."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def unused_public_names() -> set[str]:
    modules = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES]
    used = {name for module in modules for name in references(module)}
    return {
        qualified
        for module in modules
        for qualified, name in definitions(module)
        if not name.startswith("_") and name not in used
    }


def test_every_public_name_is_used_by_the_program():
    assert SOURCES
    unused = unused_public_names() - set(ALLOWED)
    assert not unused, f"public names that only tests use: {sorted(unused)}"


def test_every_allowed_name_is_still_defined_and_unused():
    assert unused_public_names() >= set(ALLOWED), "drop the stale entries from ALLOWED"
