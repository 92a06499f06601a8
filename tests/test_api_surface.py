"""Every name of the program is used by the program.

A module-level function, class or constant, or a method or class-level
name, of ``src/leandecomp`` or ``perfbench`` must be referenced somewhere
in those files (as a name, an attribute, an imported name or the literal
name given to ``getattr``) other than at its own definition. A public
name that only tests call is not part of the program: delete it, or call
what the program calls. A private name that nothing references is dead
code. The one exception is by rule: ``Orchestrator.dispatch`` finds the
handler of each action as ``_do_<kind>``, so those handlers must match
the action kinds one to one. A dataclass field must be read as an
attribute (``x.field``) in those files. The check goes by the bare name,
so a field that nothing reads passes when another class's attribute of
the same name is read. The orchestrator leaves each node's Lean text
to the proof tree, and every node status has its action, but for a
node waiting on its children or done; only the scheduling loop calls
``dispatch``. A node's status and counters are the fold of its history,
so only the proof tree sets them, and a node's checkpoint record holds
its structure alone. Last, each exception class of the program stands
for one way the program reacts to a failure: some ``except`` names it,
and no ``except`` names two of them.
"""

import ast
from pathlib import Path

from leandecomp.config import Limits
from leandecomp.orchestrator import _STATUS_ACTIONS, ActionKind
from leandecomp.proof_state import NodeStatus, ProofTree, _node_fields

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/leandecomp/*.py"), *ROOT.glob("perfbench/*.py")])
ORCHESTRATOR = ROOT / "src" / "leandecomp" / "orchestrator.py"
PROOF_STATE = ROOT / "src" / "leandecomp" / "proof_state.py"
PROGRAM = sorted(ROOT.glob("src/leandecomp/*.py"))

#: Definitions that the program does not use, each with why it stays.
ALLOWED = {
    "ProofTree.validate": "the invariant checker that the tests run after every step",
    "DECLARATION_KEYWORDS": "kept for the statement check planned in ROADMAP.md, "
    "which starts declarations at these keywords",
}

#: The action kinds that ``dispatch`` runs itself, with no handler.
UNHANDLED = {ActionKind.FINISH, ActionKind.BACKTRACK}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def definitions(module: ast.Module):
    """(qualified name, bare name) of each module-level and class-level
    definition. Annotated class-level names are dataclass fields, not
    definitions; dunder names are the language's. Both are left out."""

    def named(body, prefix, assigns):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + node.name, node.name
            elif isinstance(node, assigns):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield prefix + target.id, target.id

    found = list(named(module.body, "", (ast.Assign, ast.AnnAssign)))
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            found += named(node.body, node.name + ".", (ast.Assign,))
    return [(q, name) for q, name in found if not (name.startswith("__") and name.endswith("__"))]


def references(module: ast.Module):
    """Every name the module reads: as a name, an attribute, an import,
    or the literal second argument of ``getattr``."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def dataclass_fields(module: ast.Module):
    """(class name, field name) of each field of each module-level
    dataclass."""
    for node in module.body:
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    yield node.name, statement.target.id


def is_dataclass(decorator: ast.expr) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target) in ("dataclass", "dataclasses.dataclass")


def unused_names() -> set[str]:
    modules = [parse(path) for path in SOURCES]
    used = {name for module in modules for name in references(module)}
    return {
        qualified
        for module in modules
        for qualified, name in definitions(module)
        if name not in used
    }


def is_handler(qualified: str) -> bool:
    return qualified.startswith("Orchestrator._do_")


def test_every_public_name_is_used_by_the_program():
    assert SOURCES
    unused = {name for name in unused_names() if not name.rpartition(".")[2].startswith("_")}
    unused -= set(ALLOWED)
    assert not unused, f"public names that only tests use: {sorted(unused)}"


def test_every_private_name_is_used_by_the_program():
    unused = {
        name
        for name in unused_names()
        if name.rpartition(".")[2].startswith("_") and not is_handler(name)
    }
    assert not unused, f"private names that nothing references: {sorted(unused)}"


def test_every_dataclass_field_is_read_by_the_program():
    modules = [parse(path) for path in SOURCES]
    read = {
        node.attr
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [field for module in modules for field in dataclass_fields(module)]
    assert fields
    unread = [f"{cls}.{name}" for cls, name in fields if name not in read]
    assert not unread, f"dataclass fields that the program never reads: {unread}"


def test_the_action_handlers_match_the_action_kinds():
    handlers = {
        qualified.rpartition(".")[2]
        for qualified, _ in definitions(parse(ORCHESTRATOR))
        if is_handler(qualified)
    }
    expected = {"_do_" + kind.name.lower() for kind in ActionKind if kind not in UNHANDLED}
    assert not handlers - expected, "handlers that match no action kind"
    assert not expected - handlers, "action kinds with no handler"


def test_every_status_but_the_waiting_and_final_ones_has_an_action():
    """A node's status names the work it awaits, so a status whose action
    is removed cannot linger: only a node waiting on its children, or one
    that is done, has no entry in ``_STATUS_ACTIONS``."""
    idle = {NodeStatus.AWAITING_CHILDREN, NodeStatus.PROVEN}
    assert set(NodeStatus) - idle == set(_STATUS_ACTIONS)


def test_only_the_scheduling_loop_dispatches():
    """``Orchestrator.dispatch`` is called from ``_dispatch_ready`` alone:
    applying a result only records it in the tree, and the work that
    follows, a backtrack or the end of the run included,
    is chosen by ``next_action``."""
    callers = [
        function.name
        for function in ast.walk(parse(ORCHESTRATOR))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "dispatch"
    ]
    assert callers == ["_dispatch_ready"]


def test_only_the_proof_tree_sets_a_node_status_or_counters():
    """The tree folds each history entry into the node's status and
    counters as it appends it, so no other file assigns ``.status`` or
    ``.counters``, or changes a counter, in place or not."""
    assigned = [
        f"{path.relative_to(ROOT)}:{statement.lineno}"
        for path in SOURCES
        if path != PROOF_STATE
        for statement in ast.walk(parse(path))
        if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in getattr(statement, "targets", [getattr(statement, "target", None)])
        for node in ast.walk(target)
        if isinstance(node, ast.Attribute) and node.attr in ("status", "counters")
    ]
    assert PROOF_STATE in SOURCES
    assert not assigned, f"a node's status or counters set outside the proof tree: {assigned}"


def test_a_node_checkpoint_record_holds_its_structure_alone():
    """Status and counters fold from the history on load, so a node's
    record stores neither; its history is journaled apart."""
    node = ProofTree.from_formal("theorem t : True := by\n  sorry", Limits()).root_node()
    assert list(_node_fields(node)) == [
        "parent", "depth", "informal_statement", "formal", "name", "children"
    ]


def test_every_allowed_name_is_still_defined_and_unused():
    assert unused_names() >= set(ALLOWED), "drop the stale entries from ALLOWED"


def test_the_proof_tree_owns_each_node_lean_unit():
    """The orchestrator reads a node's Lean unit from the tree
    (``ProofTree.unit``): it parses, normalizes and joins no Lean text
    itself, so every decision about that text has one owner."""
    module = parse(ORCHESTRATOR)
    imported = {
        node.module.rpartition(".")[2]
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.module
    } | {
        alias.name.rpartition(".")[2]
        for node in ast.walk(module)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "lean_source" not in imported
    named = set(references(module)) & {"reply_code", "split_source", "normalize_preamble"}
    assert not named, f"orchestrator.py names {sorted(named)}"


def error_classes(modules: list[ast.Module]) -> set[str]:
    """LeandecompError and every class that derives from it, directly or
    through another of them."""
    bases = {
        node.name: {ast.unparse(base) for base in node.bases}
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, ast.ClassDef)
    }
    family = {"LeandecompError"}
    while grown := {name for name, named in bases.items() if named & family} - family:
        family |= grown
    return family


def caught_names(modules: list[ast.Module]):
    """The names in each ``except`` clause, one list per clause."""
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                yield [ast.unparse(t).rpartition(".")[2] for t in types]


def test_each_error_class_is_one_reaction_of_the_program():
    """Each LeandecompError subclass is caught by name somewhere, so it
    marks a failure the program reacts to in its own way; and no ``except``
    names two of the family, which would make one of them redundant."""
    modules = [parse(path) for path in PROGRAM]
    family = error_classes(modules)
    clauses = list(caught_names(modules))
    assert family > {"LeandecompError"}
    never = family - {"LeandecompError"} - {name for names in clauses for name in names}
    assert not never, f"error classes that no except clause names: {sorted(never)}"
    merged = [names for names in clauses if len(family.intersection(names)) > 1]
    assert not merged, f"except clauses that name two error classes: {merged}"
