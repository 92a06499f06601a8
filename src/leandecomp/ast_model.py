"""Structured view of the AST returned by the Lean AST export endpoint.

The endpoint returns a nested JSON syntax tree plus a ``sorries`` list
with goal metadata for each placeholder. This module parses that
payload, enumerates the unproven subgoals (one per ``sorry``, named
after the ``have`` around it), and renders each one as a standalone
theorem that can be proved independently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from .errors import BadSketch

#: Syntax kinds marking a ``have`` tactic and its name.
HAVE_KINDS = frozenset({"Lean.Parser.Tactic.tacticHave_", "Lean.Parser.Term.have"})
HAVE_ID_KIND = "Lean.Parser.Term.haveId"

#: Syntax kinds marking a sorry placeholder.
SORRY_KINDS = frozenset({"Lean.Parser.Tactic.tacticSorry", "Lean.Parser.Term.sorry"})


@dataclass
class AstNode:
    """One node of the exported syntax tree."""

    kind: str
    value: str | None = None
    children: list["AstNode"] = field(default_factory=list)

    def walk(self):
        """Yield this node and all descendants in depth-first source order."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class SorryInfo:
    """Goal metadata for one sorry placeholder, from the ``sorries`` list."""

    goal_type: str
    binders: tuple[tuple[str, str], ...]
    position: tuple[int, int]  # 1-based (line, column)


@dataclass(frozen=True)
class Subgoal:
    """The goal at one ``sorry``, self-contained enough to prove on its own."""

    name: str
    standalone_statement: str


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _parse_node(raw: Any) -> AstNode:
    if isinstance(raw, str):
        return AstNode(kind="atom", value=raw)
    if not isinstance(raw, dict):
        raise BadSketch(f"AST node must be an object or string, got {type(raw).__name__}")
    kind = raw.get("kind")
    value = raw.get("val", raw.get("value"))
    if kind is None and value is None:
        raise BadSketch(f"AST node has neither 'kind' nor 'val': {sorted(raw)}")
    if kind is None:
        kind = "atom"
    if not isinstance(kind, str) or not kind:
        raise BadSketch("AST node 'kind' must be a non-empty string")
    raw_children = raw.get("args", raw.get("children", []))
    if raw_children is None:
        raw_children = []
    if not isinstance(raw_children, list):
        raise BadSketch(f"AST node children must be a list in kind {kind!r}")
    children = [_parse_node(c) for c in raw_children if c is not None]
    return AstNode(kind=kind, value=None if value is None else str(value), children=children)


def _parse_goal(goal: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Split a pretty-printed goal into (target type, hypothesis binders)."""
    if "⊢" in goal:
        context, target = goal.rsplit("⊢", 1)
    else:
        context, target = "", goal
    binders: list[tuple[str, str]] = []
    for line in context.splitlines():
        if not line.strip():
            continue
        if line[0].isspace() and binders:
            # continuation of the previous binder's wrapped type
            name, typ = binders[-1]
            binders[-1] = (name, typ + " " + line.strip())
            continue
        if ":" not in line:
            continue
        names, typ = line.split(":", 1)
        for name in names.split():
            binders.append((name, typ.strip()))
    return target.strip(), tuple(binders)


def _parse_sorry(raw: Any) -> SorryInfo:
    if not isinstance(raw, dict):
        raise BadSketch("sorries entry must be an object")
    goal = raw.get("goal")
    pos = raw.get("pos")
    if not isinstance(goal, str) or not isinstance(pos, dict):
        raise BadSketch("sorries entry needs 'goal' text and 'pos' object")
    try:
        position = (int(pos["line"]), int(pos["column"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadSketch(f"sorries entry has bad position: {pos!r}") from exc
    goal_type, binders = _parse_goal(goal)
    return SorryInfo(goal_type=goal_type, binders=binders, position=position)


def parse_ast(payload: dict[str, Any]) -> tuple[AstNode, list[SorryInfo]]:
    """
    Parse an AST-endpoint payload, ``{"ast": …, "sorries": […]}``, into
    a node tree and sorry metadata.

    Raises BadSketch on missing kinds or non-tree shapes.
    """
    sorries_raw = payload.get("sorries", [])
    if not isinstance(sorries_raw, list):
        raise BadSketch("'sorries' must be a list")
    root = _parse_node(payload.get("ast"))
    sorries = [_parse_sorry(s) for s in sorries_raw]
    return root, sorries


def _have_name(node: AstNode) -> str | None:
    for desc in node.walk():
        if desc.kind == HAVE_ID_KIND:
            for part in desc.walk():
                if part.value:
                    return part.value
    return None


def _sorry_events(root: AstNode) -> list[str | None]:
    """Names of the nearest enclosing have for each sorry, in source order."""
    events: list[str | None] = []

    def visit(node: AstNode, enclosing: str | None) -> None:
        if node.kind in SORRY_KINDS or (node.kind == "atom" and node.value == "sorry"):
            events.append(enclosing)
            return
        if node.kind in HAVE_KINDS:
            enclosing = _have_name(node) or enclosing
        for child in node.children:
            visit(child, enclosing)

    visit(root, None)
    return events


#: The index Lean appends to an inaccessible name (``h✝¹``) when several
#: share its base.
_INDEX = "⁰¹²³⁴⁵⁶⁷⁸⁹"


#: The characters of a name besides word characters. A ``.`` before a
#: name makes it a field (``x.h``); one after it is a projection (``h.1``).
_NAME_CHARS = f"'!?✝{_INDEX}"


def _mentions(goal_type: str, name: str) -> bool:
    pattern = rf"(?<![\w.{_NAME_CHARS}]){re.escape(name)}(?![\w{_NAME_CHARS}])"
    return re.search(pattern, goal_type) is not None


def _render_statement(name: str, binders, goal_type: str) -> str:
    """The subgoal as a theorem proved by ``sorry``: each binder as
    ``(name : type)``, and an anonymous instance (``inst✝``) that no type
    names as ``[type]``. Lean cannot parse any other inaccessible name,
    and renaming it would break the proof spliced back where it is still
    inaccessible: raises BadSketch."""
    rendered = ""
    for binder, typ in binders:
        if "✝" not in binder:
            rendered += f" ({binder} : {_normalize_ws(typ)})"
        elif binder.rstrip(_INDEX) == "inst✝" and not any(
            _mentions(text, binder) for text in (goal_type, *(t for _, t in binders))
        ):
            rendered += f" [{_normalize_ws(typ)}]"
        else:
            raise BadSketch(
                f"the subgoal's hypothesis {binder} has an inaccessible name; name every "
                "hypothesis the subgoal uses (intro n h, induction n with ...)"
            )
    return f"theorem {name}{rendered} : {_normalize_ws(goal_type)} := by\n  sorry"


def extract_subgoals(ast: AstNode, sorries: list[SorryInfo]) -> list[Subgoal]:
    """
    Enumerate unproven subgoals: one per ``sorry``, named after the
    nearest ``have`` around it.

    Subgoals come out in source order, each paired by position with its
    SorryInfo, so the k-th subgoal is the k-th sorry of the sketch.
    Hypotheses naming an earlier sibling subgoal are kept only when this
    subgoal's goal type mentions them, so that proofs of independent
    siblings stay independent.

    Raises BadSketch for a sorry outside any named have, for a
    hypothesis with an inaccessible name other than an instance's, and
    when the tree and the sorries metadata disagree.
    """
    events = _sorry_events(ast)
    ordered = sorted(sorries, key=lambda s: s.position)
    if len(events) != len(ordered):
        raise BadSketch(
            f"AST has {len(events)} sorry nodes but metadata lists {len(ordered)}"
        )
    subgoals: list[Subgoal] = []
    earlier: set[str] = set()
    for name, info in zip(events, ordered):
        if name is None:
            raise BadSketch(
                f"sorry at line {info.position[0]} is not attached to a named have"
            )
        kept = tuple(
            (bname, btype)
            for bname, btype in info.binders
            if bname not in earlier or _mentions(info.goal_type, bname)
        )
        subgoals.append(Subgoal(name, _render_statement(name, kept, info.goal_type)))
        earlier.add(name)
    return subgoals

