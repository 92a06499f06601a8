"""Tree-structured proof state.

Each node is a theorem being proved: the root carries the user's target,
children carry subgoals produced by decomposition. Nodes keep a
never-cleared history of agent rounds and backtracks, from which each
agent's running conversation is derived, and whose fold is the node's
status and the retry counters that drive scheduling. A generated reply
that still awaits its Lean check is a round of its node's history; the
check appends a verdict entry after it. The entry of a failed round
notes what its correction shows: a sketch that verified but cannot be
split into subgoals fails its verdict with that defect as its note. A
search-query round keeps the hint theorems its queries found. Prover
rounds and their verdicts carry the number of their ``pass``, so that
several passes of one node can be open at once, each with at most one
round awaiting its check. The tree persists as a checkpoint journal (a
snapshot line, then one line per save holding what changed) of each
node's structure and history, which a resumed run appends to, and
reconstructs complete proofs from proven subtrees by splicing each
child's proof into its parent's sketch at the child's sorry, each read
from its node's history.
"""

from __future__ import annotations

import copy
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, TextIO

from .config import Limits
from .errors import BadReply, LeandecompError
from .lean_source import (
    LeanSource,
    extract_code_block,
    normalize_preamble,
    splice_sorries,
    split_source,
)
from .ast_model import Subgoal
from .services import VerificationResult

CHECKPOINT_VERSION = 10


class NodeStatus(Enum):
    AWAITING_FORMALIZATION = "AwaitingFormalization"
    AWAITING_SYNTAX_CHECK = "AwaitingSyntaxCheck"
    AWAITING_SEMANTIC_CHECK = "AwaitingSemanticCheck"
    AWAITING_PROOF = "AwaitingProof"
    AWAITING_VERIFICATION = "AwaitingVerification"
    AWAITING_QUERY_GEN = "AwaitingQueryGen"
    AWAITING_SKETCH = "AwaitingSketch"
    AWAITING_SKETCH_CHECK = "AwaitingSketchCheck"
    AWAITING_CHILDREN = "AwaitingChildren"
    PROVEN = "Proven"


#: The status of a node whose round of a role awaits its check (a prover
#: node has one per open pass).
_AWAITING_CHECK = {
    "formalizer": NodeStatus.AWAITING_SYNTAX_CHECK,
    "prover": NodeStatus.AWAITING_VERIFICATION,
    "decomposer": NodeStatus.AWAITING_SKETCH_CHECK,
}

#: The status of a node after a failed and after a passed round of a role
#: other than the prover (a sketch whose check left no goal proves it).
_JUDGED = {
    "formalizer": (NodeStatus.AWAITING_FORMALIZATION, NodeStatus.AWAITING_SEMANTIC_CHECK),
    "semantics": (NodeStatus.AWAITING_FORMALIZATION, NodeStatus.AWAITING_PROOF),
    "search_query": (NodeStatus.AWAITING_SKETCH, NodeStatus.AWAITING_SKETCH),
    "decomposer": (NodeStatus.AWAITING_SKETCH, NodeStatus.AWAITING_CHILDREN),
}


def reply_code(response: str) -> LeanSource:
    """The Lean unit a generated reply proposes: its last fenced block,
    split into preamble and a non-empty declaration body. Raises
    BadReply when there is no such block."""
    source = split_source(extract_code_block(response))
    body = source.body.strip()
    if not body:
        raise BadReply("code block contains no declaration")
    return LeanSource(preamble=source.preamble, body=body)


@dataclass
class Counters:
    formalize_retries: int = 0
    sketch_corrections_used: int = 0
    decompositions_used: int = 0


@dataclass
class ProofNode:
    id: str
    parent: str | None
    depth: int
    status: NodeStatus
    informal_statement: str | None = None
    formal: LeanSource | None = None
    name: str | None = None  # subgoal name when this node came from a have
    children: list[str] = field(default_factory=list)
    history: list[dict[str, Any]] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)


@dataclass
class _Passes:
    """A node's prover passes, as the ``pass`` tags of its history give
    them, plus any opened for a Prove still in flight: every pass number
    opened (``seen``); per open pass its failed rounds (``open``), its
    round awaiting a check (``unjudged``) and the note its next
    correction quotes (``notes``); the number of passes ended by failure
    (``ended``); and the round that verified (``won``).
    A pass ends when it has failed ``prover_self_correction`` rounds, or
    when a round of any pass verifies."""

    seen: set[int] = field(default_factory=set)
    open: dict[int, int] = field(default_factory=dict)
    unjudged: dict[int, dict[str, Any]] = field(default_factory=dict)
    notes: dict[int, str | None] = field(default_factory=dict)
    ended: int = 0
    won: dict[str, Any] | None = None

    @property
    def next(self) -> int:
        """The number of the pass opened next."""
        return max(self.seen, default=0) + 1

    def fold(self, entry: dict[str, Any], per_pass: int) -> None:
        """Apply one history entry of a pass. A ``failed`` of None closes a
        round unchecked: its reply landed, or awaited its check, when
        another pass had already verified. Raises KeyError for an entry of
        no pass or a verdict of no round, and ValueError for a second round
        of a pass awaiting its check."""
        pass_ = entry["pass"]
        if pass_ not in self.seen:
            self.seen.add(pass_)
            if self.won is None:
                self.open[pass_] = 0
        if "prompt" not in entry:
            round_ = self.unjudged.pop(pass_)
        elif "failed" not in entry:
            if pass_ in self.unjudged:
                raise ValueError(f"pass {pass_} has two rounds awaiting a check")
            self.unjudged[pass_] = entry
            return
        else:
            round_ = entry
        if entry["failed"] and pass_ in self.open:  # a lowered per_pass may have ended it
            self.open[pass_] += 1
            self.notes[pass_] = entry.get("note")
            if self.open[pass_] >= per_pass:
                del self.open[pass_]
                self.ended += 1
        elif entry["failed"] is False:
            self.won = round_
            self.open.clear()


class ProofTree:
    """Owner of all nodes, which its methods add, prune and record rounds
    on, of each node's status, counters and prover passes (``passes``),
    which it folds from the node's history, and of the Lean unit that
    each round proposes (``unit``); the orchestrator sets only ``formal``
    and ``name`` itself."""

    def __init__(self, limits: Limits):
        self.limits = limits
        self.nodes: dict[str, ProofNode] = {}
        self.root: str | None = None
        self._seq = 0
        # Per node, the code that the latest round of each prover pass
        # (key: the pass) and of the other roles (key: None) proposes,
        # once parsed; and the node's prover passes.
        self._codes: dict[str, dict[int | None, LeanSource]] = {}
        self._passes: defaultdict[str, _Passes] = defaultdict(_Passes)
        # The checkpoint file this tree last saved to, the handle that
        # appends to it (opened by the first append), and per node the
        # ``_node_fields`` record and the history length that file holds.
        self._journal_path: str | None = None
        self._journal: TextIO | None = None
        self._written: dict[str, tuple[dict[str, Any], int]] = {}

    # ------------------------------------------------------------------ setup

    def _new_id(self) -> str:
        self._seq += 1
        return f"n{self._seq:04d}"

    @classmethod
    def _with_root(cls, limits: Limits, **fields: Any) -> "ProofTree":
        tree = cls(limits)
        root = ProofNode(id=tree._new_id(), parent=None, depth=0, **fields)
        tree.nodes[root.id] = root
        tree.root = root.id
        return tree

    @classmethod
    def from_informal(cls, informal: str, limits: Limits) -> "ProofTree":
        return cls._with_root(
            limits, status=NodeStatus.AWAITING_FORMALIZATION, informal_statement=informal
        )

    @classmethod
    def from_formal(cls, code: str, limits: Limits) -> "ProofTree":
        source = split_source(code)
        formal = LeanSource(preamble=normalize_preamble(source.preamble), body=source.body.strip())
        return cls._with_root(limits, status=NodeStatus.AWAITING_PROOF, formal=formal)

    # ------------------------------------------------------------- navigation

    def node(self, node_id: str) -> ProofNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise LeandecompError(f"no node with id {node_id!r}") from None

    def root_node(self) -> ProofNode:
        assert self.root is not None
        return self.node(self.root)

    def ancestors(self, node_id: str):
        """Yield (distance, ancestor) pairs walking toward the root."""
        node = self.node(node_id)
        distance = 0
        while node.parent is not None:
            node = self.node(node.parent)
            distance += 1
            yield distance, node

    def conversation(
        self, node_id: str, role: str, pass_: int | None = None
    ) -> list[tuple[str, str]]:
        """
        The running conversation the prover or decomposer continues on a
        node, derived from its history as (speaker, text) turns.

        The prover's holds the rounds of pass ``pass_``: each pass starts
        afresh. The decomposer's holds every round, across backtracks.
        Neither holds a round still awaiting its check.
        """
        if role == "prover":
            _require_pass(pass_)
        elif role != "decomposer":
            raise ValueError(f"the {role} agent keeps no conversation")
        unjudged = self.unjudged_round(node_id, pass_)
        return [
            turn
            for e in self.node(node_id).history
            if "prompt" in e and e["role"] == role and e.get("pass") == pass_ and e is not unjudged
            for turn in (("user", e["prompt"]), ("assistant", e["response"]))
        ]

    def unjudged_round(self, node_id: str, pass_: int | None = None) -> dict[str, Any] | None:
        """The generated round of prover pass ``pass_`` still awaiting its
        check, or without a pass the node's last history entry when it is
        a round awaiting its check; None when there is none."""
        if pass_ is not None:
            return self.passes(node_id).unjudged.get(pass_)
        history = self.node(node_id).history
        if history and "prompt" in history[-1] and "failed" not in history[-1]:
            return history[-1]
        return None

    def passes(self, node_id: str) -> _Passes:
        """The node's prover passes, folded from its history as each entry
        is appended (``_append``) and as passes open."""
        return self._passes[node_id]

    def last_round(self, node_id: str) -> dict[str, Any] | None:
        """The node's latest agent round, judged or not: the last history
        entry that carries a prompt and a response; None when it has none."""
        return next((e for e in reversed(self.node(node_id).history) if "prompt" in e), None)

    # -------------------------------------------------------------- mutations

    def add_child(self, parent_id: str, subgoal: Subgoal) -> str:
        """
        Attach a subgoal as a new leaf one level below its parent.

        The child's formal unit is the subgoal's standalone statement
        under the parent's preamble; it starts at AwaitingProof since it is
        already formal, and the parent awaits its children.
        """
        parent = self.node(parent_id)
        child = ProofNode(
            id=self._new_id(),
            parent=parent_id,
            depth=parent.depth + 1,
            status=NodeStatus.AWAITING_PROOF,
            name=subgoal.name,
            formal=LeanSource(preamble=parent.formal.preamble, body=subgoal.standalone_statement),
        )
        self.nodes[child.id] = child
        parent.children.append(child.id)
        parent.status = NodeStatus.AWAITING_CHILDREN
        return child.id

    def open_pass(self, node_id: str, pass_: int) -> None:
        """Open prover pass ``pass_``, the node's next, for its first Prove.
        Raises LeandecompError when the node has opened every pass its
        budget allows."""
        passes = self.passes(node_id)
        if pass_ != passes.next or len(passes.seen) >= self.limits.prover_max_pass:
            raise LeandecompError(f"node {node_id} cannot open prover pass {pass_}")
        passes.seen.add(pass_)
        passes.open[pass_] = 0

    def record_attempt(
        self, node_id: str, role: str, prompt: str, response: str, failed: bool | None,
        pass_: int | None = None, note: str | None = None,
        hints: list[tuple[str, str]] | None = None,
    ) -> None:
        """Log one agent round judged at once, in one history entry (see
        ``_log``), with the hint theorems that its search queries found,
        if any. A prover round of no ``failed`` verdict is a reply that
        landed after another pass verified; it is charged to no budget."""
        entry = {"role": role, "prompt": prompt, "response": response,
                 "failed": failed, "verdict": None}
        if hints:
            entry["hints"] = [list(hint) for hint in hints]
        pass_ = self._log(self.node(node_id), entry, role, pass_, note)
        self._codes.get(node_id, {}).pop(pass_, None)

    def record_reply(
        self, node_id: str, role: str, prompt: str, response: str, pass_: int | None = None
    ) -> None:
        """Log a generated round whose Lean check is still to come, and
        keep the code it proposes for ``unit``. Raises BadReply, logging
        nothing, when the reply proposes no declaration."""
        node = self.node(node_id)
        code = reply_code(response)
        entry = {"role": role, "prompt": prompt, "response": response}
        self._codes.setdefault(node_id, {})[self._log(node, entry, role, pass_)] = code

    def record_verdict(
        self, node_id: str, verdict: VerificationResult, pass_: int | None = None,
        note: str | None = None,
    ) -> None:
        """
        Log the check of the round awaiting it (of prover pass ``pass_``,
        if given), as an entry of its own that repeats no text.

        A round fails when Lean failed it or it is given a ``note``, which
        it keeps for its next correction. A failed prover round consumes
        one self-correction attempt of its pass; the pass ends when its
        budget is spent, and the next pass starts a fresh prover
        conversation. Formalizer and semantics failures consume
        formalization retries; decomposer failures, sketch corrections.
        """
        judged = self.unjudged_round(node_id, pass_)
        if judged is None:
            raise LeandecompError(f"node {node_id} has no round awaiting a check")
        entry = {"failed": not verdict.passed or note is not None,
                 "verdict": {"passed": verdict.passed, "complete": verdict.complete}}
        self._log(self.node(node_id), entry, judged["role"], judged.get("pass"), note)

    def _log(
        self, node: ProofNode, entry: dict[str, Any], role: str, pass_: int | None = None,
        note: str | None = None,
    ) -> int | None:
        """Append a history entry of a ``role`` round (``_append``), and
        return its prover pass: an entry of a prover round carries its
        pass, which it must name, and the entry of a failed round carries
        ``note``, what its correction shows. A verified prover round ends
        every pass: the rounds other passes still have awaiting a check
        are closed unchecked."""
        if role == "prover":
            entry["pass"] = _require_pass(pass_)
        if note is not None and entry.get("failed"):
            entry["note"] = note
        self._append(node, entry)
        if role == "prover" and entry.get("failed") is False:
            for other in list(self.passes(node.id).unjudged):
                self._append(node, {"pass": other, "failed": None, "verdict": None})
        return pass_

    def _append(self, node: ProofNode, entry: dict[str, Any]) -> None:
        """Append a history entry and fold it into the node's status and
        counters, which change nowhere else but where a node gets
        children: after a prover entry the node stands where its passes
        do; another role's round awaits its check, then goes on as
        ``_JUDGED`` says and a failed one is charged to the role's budget;
        a backtrack counts one decomposition and refreshes the sketch
        corrections. Raises ValueError, KeyError or AttributeError for an
        entry out of place, of no known role, or not an object."""
        awaiting = self.unjudged_round(node.id)
        if awaiting is not None and "pass" not in awaiting:  # only its verdict may follow
            if "prompt" in entry or "pass" in entry or "failed" not in entry:
                raise ValueError(f"node {node.id} has a round left unjudged")
            role = awaiting["role"]
        elif "prompt" in entry:
            role = entry["role"]
        else:  # a backtrack, or an entry of a prover pass (``fold`` reads its pass)
            role = "backtrack" if entry.get("backtrack") else "prover"
        node.history.append(entry)
        if role == "prover":
            passes = self.passes(node.id)
            passes.fold(entry, self.limits.prover_self_correction)
            if passes.won is not None:
                status = NodeStatus.PROVEN
            elif passes.open or passes.ended < self.limits.prover_max_pass:
                status = _AWAITING_CHECK[role] if passes.unjudged else NodeStatus.AWAITING_PROOF
            else:
                status = NodeStatus.AWAITING_QUERY_GEN
        elif role == "backtrack":
            node.counters.decompositions_used += 1
            node.counters.sketch_corrections_used = 0
            status = NodeStatus.AWAITING_QUERY_GEN
        elif "failed" not in entry:
            status = _AWAITING_CHECK[role]
        else:
            status = _JUDGED[role][not entry["failed"]]
            if entry["failed"] and role == "decomposer":
                node.counters.sketch_corrections_used += 1
            elif entry["failed"] and role != "search_query":
                node.counters.formalize_retries += 1
            elif role == "decomposer" and entry["verdict"] and entry["verdict"]["complete"]:
                status = NodeStatus.PROVEN
        node.status = status
        if status is NodeStatus.PROVEN:
            self._prove_ancestors(node)

    def _prove_ancestors(self, node: ProofNode) -> None:
        """Prove each ancestor of a proven node, nearest first, that awaits
        its children once all of them are proven."""
        parent = self.nodes.get(node.parent)
        while parent is not None and parent.status is NodeStatus.AWAITING_CHILDREN and all(
            self.nodes[child].status is NodeStatus.PROVEN for child in parent.children
        ):
            parent.status = NodeStatus.PROVEN
            parent = self.nodes.get(parent.parent)

    def find_backtrack_ancestor(self, node_id: str) -> str | None:
        """
        Nearest ancestor at distance >= 2 that can still re-decompose:
        sketch-correction budget not exhausted and decomposition budget
        (same size as the decomposer's correction budget) not spent.
        Returns None when no such ancestor exists.
        """
        budget = self.limits.decomposer_self_correction
        for distance, ancestor in self.ancestors(node_id):
            if distance < 2:
                continue
            if (
                ancestor.counters.sketch_corrections_used < budget
                and ancestor.counters.decompositions_used < budget
            ):
                return ancestor.id
        return None

    def prune_subtree(self, node_id: str) -> None:
        """
        Drop all descendants and queue the node for re-decomposition.

        A backtrack entry (``{"backtrack": true}``) appended to the node's
        history returns it to AwaitingQueryGen with one decomposition
        consumed and a fresh sketch-correction budget; its history, and so
        the decomposer's conversation, is kept for the backtrack prompts.
        Raises LeandecompError when the node's decomposition budget is
        already spent (callers select ancestors with
        find_backtrack_ancestor, which never picks such a node).
        """
        node = self.node(node_id)
        if node.counters.decompositions_used >= self.limits.decomposer_self_correction:
            raise LeandecompError(
                f"node {node_id} has no decomposition budget left to re-decompose"
            )
        stack = list(node.children)
        while stack:
            child_id = stack.pop()
            child = self.nodes.pop(child_id, None)
            self._codes.pop(child_id, None)
            self._passes.pop(child_id, None)
            if child is not None:
                stack.extend(child.children)
        node.children = []
        self._append(node, {"backtrack": True})

    # ---------------------------------------------------------- Lean units

    def unit(self, node_id: str, pass_: int | None = None) -> LeanSource:
        """The Lean unit of a round of the node: with ``pass_``, that
        prover pass's round awaiting its check; else the prover round
        that verified, or failing that the node's latest round. It is
        the declaration the reply proposes, under the node's preamble,
        or while the node has no formal statement, under the
        (formalizer) reply's own preamble, normalized. The reply is
        parsed once: by ``record_reply``, or here, from the history, for
        a round it did not log (after a load)."""
        node = self.node(node_id)
        passes = self.passes(node_id)
        if pass_ is not None:
            round_ = passes.unjudged[pass_]
        else:
            round_ = passes.won or self.last_round(node_id)
        codes = self._codes.setdefault(node_id, {})
        code = codes.get(round_.get("pass"))
        if code is None:
            code = codes[round_.get("pass")] = reply_code(round_["response"])
        if node.formal is None:
            return LeanSource(preamble=normalize_preamble(code.preamble), body=code.body)
        return LeanSource(preamble=node.formal.preamble, body=code.body)

    def check_splice(self, node_id: str, subgoals: list[Subgoal]) -> None:
        """Raise BadSketch unless reconstruction can splice proofs of
        these subgoals into the node's latest sketch: the same splice,
        run on the subgoals' own statements."""
        splice_sorries(self.unit(node_id).body, [s.standalone_statement for s in subgoals])

    def _reconstruct_decl(self, node: ProofNode) -> str:
        if node.status is not NodeStatus.PROVEN:
            raise LeandecompError(f"node {node.id} is {node.status.value}, not Proven")
        if self.last_round(node.id) is None:
            raise LeandecompError(f"proven node {node.id} has no generated round")
        children = [self._reconstruct_decl(self.node(child_id)) for child_id in node.children]
        return splice_sorries(self.unit(node.id).body, children)

    def reconstruct(self, node_id: str) -> str:
        """
        Assemble the complete proof of a proven subtree.

        Each node contributes the declaration of its verified round
        (``unit``): a leaf's proof, or an internal node's sketch with its k-th
        sorry replaced by the proof of its k-th child, reconstructed in
        turn (``splice_sorries``). The result is a full unit under the
        node's preamble.

        Raises LeandecompError if any descendant is not Proven, and
        the LeandecompError of a reply or child proof that does not splice.
        """
        node = self.node(node_id)
        decl = self._reconstruct_decl(node)
        return LeanSource(preamble=node.formal.preamble, body=decl).combined()

    # ------------------------------------------------------------- invariants

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        assert self.root is not None and self.root in self.nodes, "missing root"
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            assert node_id not in seen, f"cycle through {node_id}"
            seen.add(node_id)
            node = self.nodes[node_id]
            for child_id in node.children:
                assert child_id in self.nodes, f"dangling child {child_id}"
                child = self.nodes[child_id]
                assert child.parent == node_id, f"parent link broken at {child_id}"
                assert child.depth == node.depth + 1, f"depth law broken at {child_id}"
                stack.append(child_id)
        assert seen == set(self.nodes), "unreachable nodes present"
        root = self.nodes[self.root]
        assert root.parent is None and root.depth == 0, "root must be depth 0"
        # creation order, which scheduling ties fall back on
        numbers = [int(node_id[1:]) for node_id in self.nodes]
        assert all(a < b for a, b in zip(numbers, numbers[1:])), "node ids out of creation order"
        # Each history folds as on a load to the node's status and counters;
        # budgets are not checked, as a run may resume under lower limits.
        try:
            rebuilt = ProofTree.from_dict(self.to_dict(), self.limits).nodes
        except ValueError as exc:
            raise AssertionError(str(exc)) from None
        for node in self.nodes.values():
            if node.children:
                sketch = self.last_round(node.id)
                assert sketch and sketch["role"] == "decomposer", f"{node.id} lacks a sketch"
            folded = rebuilt[node.id]
            assert (node.status, node.counters) == (folded.status, folded.counters), (
                f"{node.id}: {node.status.value} with {node.counters} is not its history's fold"
            )

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> dict[str, Any]:
        """The checkpoint record of the tree; it shares no object with
        the tree."""
        return {
            "version": CHECKPOINT_VERSION,
            "root": self.root,
            "seq": self._seq,
            "nodes": {
                node.id: {**_node_fields(node), "history": copy.deepcopy(node.history)}
                for node in self.nodes.values()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], limits: Limits) -> "ProofTree":
        """Rebuild a tree, under the run's ``limits``, from a checkpoint
        record of ``CHECKPOINT_VERSION``, folding each node's history into
        its status and counters (``_append``). Raises ValueError for
        another version or any structural defect: a missing node field, a
        history entry the fold cannot read, a passed sketch with no children."""
        _check_version(data)
        try:
            tree = cls(limits)
            tree.root = data["root"]
            tree._seq = int(data["seq"])
            for node_id, raw in data["nodes"].items():
                formal = raw["formal"]
                initial = NodeStatus.AWAITING_PROOF if formal else NodeStatus.AWAITING_FORMALIZATION
                tree.nodes[node_id] = ProofNode(
                    id=node_id,
                    parent=raw["parent"],
                    depth=int(raw["depth"]),
                    status=initial,
                    informal_statement=raw["informal_statement"],
                    formal=None if formal is None else LeanSource(**formal),
                    name=raw["name"],
                    children=list(raw["children"]),
                )
            for node, raw in zip(tree.nodes.values(), data["nodes"].values()):
                for entry in raw["history"]:
                    tree._append(node, entry)
                if node.children:  # before they fold: parents come first
                    node.status = NodeStatus.AWAITING_CHILDREN
                elif node.status is NodeStatus.AWAITING_CHILDREN:
                    raise ValueError(f"node {node.id} awaits children but has none")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint: {exc!r}") from None
        if tree.root not in tree.nodes:
            raise ValueError(f"malformed checkpoint: root {tree.root!r} is not a node")
        return tree

    def save(self, path) -> None:
        """
        Persist the tree to the checkpoint journal at ``path``.

        The first save of this tree to ``path`` writes one snapshot line
        of the whole tree to a temporary file and renames it over
        ``path``, unless ``load`` took it (by absolute path) as journal.
        Every later save appends one line holding only what changed since
        the previous save or load, if anything did: each node's fields
        that differ from its record last written, the new tails of the
        node histories and the ids of removed nodes. A failed write makes
        the next save a snapshot, so a torn line can only be the last one.
        Appends go through one handle, flushed after every line, until
        ``close`` or the next snapshot.
        """
        path = os.path.abspath(path)
        journal, self._journal_path = self._journal_path, None
        if journal == path:
            line = self._delta_line()
            if line is not None:
                if self._journal is None:
                    self._journal = open(path, "a", encoding="utf-8")
                self._journal.write(line)
                self._journal.flush()
            self._journal_path = path
        else:
            self.close()
            temp = path + ".tmp"
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(_json_line(self.to_dict()))
            os.replace(temp, path)
            self._adopt(path)

    def _adopt(self, path: str) -> None:
        """Take ``path``, which holds the tree as it is, as its journal."""
        self._journal_path = path
        self._written = {
            node.id: (_node_fields(node), len(node.history)) for node in self.nodes.values()
        }

    def close(self) -> None:
        """Close the journal handle; a later save reopens it."""
        handle, self._journal = self._journal, None
        if handle is not None:
            handle.close()

    def _delta_line(self) -> str | None:
        """The journal line for what changed since the last save, or None
        when nothing did: the node fields that differ from the record last
        written, and the new history tails. Records what it writes."""
        changes: dict[str, Any] = {}
        for node in self.nodes.values():
            fields = _node_fields(node)
            old_fields, written_history = self._written.get(node.id, ({}, 0))
            if fields == old_fields and written_history == len(node.history):
                continue
            change: dict[str, Any] = {}
            changed_fields = {
                key: value
                for key, value in fields.items()
                if key not in old_fields or old_fields[key] != value
            }
            if changed_fields:
                change["fields"] = changed_fields
            if written_history < len(node.history):
                change["history"] = [written_history, node.history[written_history:]]
            if change:
                changes[node.id] = change
                self._written[node.id] = (fields, len(node.history))
        removed = [node_id for node_id in self._written if node_id not in self.nodes]
        for node_id in removed:
            del self._written[node_id]
        if not changes and not removed:
            return None
        return _json_line({"seq": self._seq, "nodes": changes, "removed": removed})

    @classmethod
    def load(cls, path, limits: Limits = Limits()) -> "ProofTree":
        """
        Read a checkpoint written by ``save`` under the run's ``limits``
        (the packaged ones by default): a snapshot line, then journal
        lines replayed in order. A torn final line (a crash mid-append) is
        dropped; a first line that is not JSON, a file of another version,
        or any other defect, raises ValueError. A file whose lines all
        replayed, ending in a newline, becomes the tree's journal.
        """
        with open(path, "rb") as handle:
            line = handle.readline()
            try:
                data = json.loads(line)
            except ValueError:
                raise ValueError("checkpoint line 1 is not valid JSON") from None
            _check_version(data)
            number = 1
            for next_line in handle:
                if number > 1:
                    _replay(data, line, number, last=False)
                line, number = next_line, number + 1
            intact = number == 1 or _replay(data, line, number, last=True)
        tree = cls.from_dict(data, limits)
        if intact and line.endswith(b"\n"):
            tree._adopt(os.path.abspath(path))
        return tree


def _check_version(data: Any) -> None:
    """Raise ValueError unless ``data`` is a record of this build's
    format: a format change bumps ``CHECKPOINT_VERSION``, and a
    checkpoint of any other version is not read."""
    version = data.get("version") if isinstance(data, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version!r} is not supported: this build reads "
            f"only version {CHECKPOINT_VERSION}; start a new run"
        )


def _require_pass(pass_: int | None) -> int:
    if pass_ is None:
        raise LeandecompError("a prover round must name its pass")
    return pass_


def _node_fields(node: ProofNode) -> dict[str, Any]:
    """A node's checkpoint record without its ``history``, which the
    journal writes as appended tails. Its id is the record's key; its
    status and counters fold from its history on load."""
    return {
        "parent": node.parent,
        "depth": node.depth,
        "informal_statement": node.informal_statement,
        "formal": None
        if node.formal is None
        else {"preamble": node.formal.preamble, "body": node.formal.body},
        "name": node.name,
        "children": list(node.children),
    }


#: Encodes every snapshot and journal line; json.dumps with these
#: options would build a new encoder per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def _json_line(data: dict[str, Any]) -> str:
    return _ENCODER.encode(data) + "\n"


def _replay(data: dict[str, Any], line: bytes, number: int, last: bool) -> bool:
    """Apply journal line ``number`` to a record in place; False if torn."""
    try:
        change = json.loads(line)
    except ValueError:
        if last:
            return False  # torn by a crash mid-append
        raise ValueError(f"checkpoint line {number} is not valid JSON") from None
    try:
        nodes = data["nodes"]
        for node_id in change["removed"]:
            del nodes[node_id]
        for node_id, node_change in change["nodes"].items():
            record = nodes.setdefault(node_id, {"history": []})
            record.update(node_change.get("fields", {}))
            if "history" in node_change:
                start, appended = node_change["history"]
                if start != len(record["history"]):
                    raise ValueError(f"history of {node_id} resumes at {start}, not its end")
                record["history"].extend(appended)
        data["seq"] = change["seq"]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"checkpoint line {number} is malformed: {exc!r}") from None
    return True
