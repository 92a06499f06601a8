"""Tree-structured proof state.

Each node is a theorem being proved: the root carries the user's
target, children carry subgoals produced by decomposition. Nodes track
status, a never-cleared history of agent rounds (from which each
agent's running conversation is derived), and the retry counters that
drive scheduling. A generated reply that still awaits its Lean check is
a round of its node's history; the check appends a verdict entry after
it. Prover rounds and their verdicts carry the number of their
``pass``, so that several passes of one node can be open at once, each
with at most one round awaiting its check. The tree persists as a
checkpoint journal (a snapshot line, then one line per save holding
what changed) and reconstructs
complete proofs from proven subtrees by splicing each child's proof
into its parent's sketch at the child's sorry, each read from its
node's history.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, TextIO

from .config import Limits
from .errors import IncompleteSubtree, LeandecompError, NoCodeBlock, UnknownNode
from .lean_source import (
    LeanSource,
    extract_code_block,
    normalize_preamble,
    splice_sorries,
    split_source,
)
from .ast_model import Subgoal
from .services import VerificationResult

CHECKPOINT_VERSION = 6

#: The prompts of the decomposer entries that note a defect found in a
#: verified sketch, at AST export or at subgoal extraction.
_NOTE_PROMPTS = frozenset({"(ast-export)", "(subgoal-extraction)"})


class NodeStatus(Enum):
    AWAITING_FORMALIZATION = "AwaitingFormalization"
    AWAITING_SYNTAX_CHECK = "AwaitingSyntaxCheck"
    AWAITING_SEMANTIC_CHECK = "AwaitingSemanticCheck"
    AWAITING_PROOF = "AwaitingProof"
    AWAITING_VERIFICATION = "AwaitingVerification"
    AWAITING_AST_PARSE = "AwaitingAstParse"
    AWAITING_QUERY_GEN = "AwaitingQueryGen"
    AWAITING_LOOKUP = "AwaitingLookup"
    AWAITING_SKETCH = "AwaitingSketch"
    AWAITING_SKETCH_CHECK = "AwaitingSketchCheck"
    AWAITING_CHILDREN = "AwaitingChildren"
    PROVEN = "Proven"
    FAILED = "Failed"


#: The statuses in which a node has a generated round awaiting its
#: check (a prover node, one per open pass), and the role that generated it.
_AWAITING_CHECK = {
    NodeStatus.AWAITING_SYNTAX_CHECK: "formalizer",
    NodeStatus.AWAITING_VERIFICATION: "prover",
    NodeStatus.AWAITING_SKETCH_CHECK: "decomposer",
}


def reply_code(response: str) -> LeanSource:
    """The Lean unit a generated reply proposes: its last fenced block,
    split into preamble and a non-empty declaration body. Raises
    NoCodeBlock when there is no such block."""
    source = split_source(extract_code_block(response))
    body = source.body.strip()
    if not body:
        raise NoCodeBlock("code block contains no declaration")
    return LeanSource(preamble=source.preamble, body=body)


@dataclass
class Counters:
    formalize_retries: int = 0
    sketch_corrections_used: int = 0
    decompositions_used: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "Counters":
        return cls(**{k: int(v) for k, v in data.items() if k in vars(cls())})


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
    # working data for the current phase
    hints: list[tuple[str, str]] = field(default_factory=list)
    last_failure: str | None = None  # what the next sketch correction shows


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
        """Apply one history entry. A ``failed`` of None closes a round
        unchecked: its reply landed, or awaited its check, when another
        pass had already verified."""
        pass_ = entry.get("pass")
        if pass_ is None:
            return
        if pass_ not in self.seen:
            self.seen.add(pass_)
            if self.won is None:
                self.open[pass_] = 0
        if "prompt" not in entry:
            round_ = self.unjudged.pop(pass_)
        elif "failed" not in entry:
            self.unjudged[pass_] = entry
            return
        else:
            round_ = entry
        if entry["failed"]:
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
    on, of each node's prover passes (``passes``) and of the Lean unit
    that each round proposes (``unit``); the orchestrator sets
    ``status``, ``formal``, ``hints`` and ``last_failure`` itself."""

    def __init__(self, limits: Limits):
        self.limits = limits
        self.nodes: dict[str, ProofNode] = {}
        self.root: str | None = None
        self._seq = 0
        # Per node, the code that the latest round of each prover pass
        # (key: the pass) and of the other roles (key: None) proposes,
        # once parsed; and the node's prover passes, once derived.
        self._codes: dict[str, dict[int | None, LeanSource]] = {}
        self._passes: dict[str, _Passes] = {}
        # The checkpoint file this tree last saved to, the handle that
        # appends to it (opened by the first append), and per node what
        # that file holds: its ``_node_key``, its fields and the length
        # of its history.
        self._journal_path: str | None = None
        self._journal: TextIO | None = None
        self._written: dict[str, tuple[tuple, dict[str, Any], int]] = {}

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
            raise UnknownNode(f"no node with id {node_id!r}") from None

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
        afresh. The decomposer's holds every round, across backtracks, but
        not the notes of defects found after a sketch verified. Neither
        holds a round still awaiting its check.
        """
        node = self.node(node_id)
        if role == "prover":
            _require_pass(pass_)
            unjudged = self.passes(node_id).unjudged.get(pass_)
            rounds = [e for e in node.history
                      if e.get("pass") == pass_ and "prompt" in e and e is not unjudged]
        elif role == "decomposer":
            unjudged = self.unjudged_round(node_id)
            rounds = [e for e in node.history
                      if "prompt" in e and e["role"] == role and e is not unjudged
                      and e["prompt"] not in _NOTE_PROMPTS]
        else:
            raise ValueError(f"the {role} agent keeps no conversation")
        turns: list[tuple[str, str]] = []
        for entry in rounds:
            turns += [("user", entry["prompt"]), ("assistant", entry["response"])]
        return turns

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
        """The node's prover passes: derived from its history once, then
        kept up to date as rounds are recorded and passes opened."""
        passes = self._passes.get(node_id)
        if passes is None:
            passes = self._passes[node_id] = _Passes()
            for entry in self.node(node_id).history:
                passes.fold(entry, self.limits.prover_self_correction)
        return passes

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
        already formal.
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
    ) -> None:
        """Log one agent round judged at once, in one history entry (see
        ``_log``). A prover round of no ``failed`` verdict is a reply that
        landed after another pass verified; it is charged to no budget."""
        entry = {"role": role, "prompt": prompt, "response": response,
                 "failed": failed, "verdict": None}
        pass_ = self._log(self.node(node_id), entry, role, pass_, note)
        self._codes.get(node_id, {}).pop(pass_, None)

    def record_reply(
        self, node_id: str, role: str, prompt: str, response: str, pass_: int | None = None
    ) -> None:
        """Log a generated round whose Lean check is still to come, keep
        the code it proposes for ``unit`` and move the node to the status
        awaiting that check. Raises NoCodeBlock, logging nothing, when the
        reply proposes no declaration."""
        node = self.node(node_id)
        code = reply_code(response)
        entry = {"role": role, "prompt": prompt, "response": response}
        self._codes.setdefault(node_id, {})[self._log(node, entry, role, pass_)] = code
        node.status = next(s for s, checked in _AWAITING_CHECK.items() if checked == role)

    def record_verdict(
        self, node_id: str, verdict: VerificationResult, pass_: int | None = None,
        note: str | None = None,
    ) -> None:
        """
        Log the check of the round awaiting it (of prover pass ``pass_``,
        if given), as an entry of its own that repeats no text, and apply
        the round's counter rules.

        A failed prover round consumes one self-correction attempt of its
        pass, and keeps ``note`` for the pass's next correction; the pass
        ends when its budget is spent, and the next pass starts a fresh
        prover conversation. Formalizer and semantics failures consume
        formalization retries; decomposer failures consume sketch
        corrections.
        """
        judged = self.unjudged_round(node_id, pass_)
        if judged is None:
            raise LeandecompError(f"node {node_id} has no round awaiting a check")
        entry = {"failed": not verdict.passed,
                 "verdict": {"passed": verdict.passed, "complete": verdict.complete}}
        self._log(self.node(node_id), entry, judged["role"], judged.get("pass"), note)

    def _log(
        self, node: ProofNode, entry: dict[str, Any], role: str, pass_: int | None = None,
        note: str | None = None,
    ) -> int | None:
        """Append a history entry of a ``role`` round, and return its
        prover pass: an entry of a prover round carries its pass, which
        it must name, and, when the round failed, ``note``. A failed
        round of another role is charged to that role's budget. A
        verified prover round ends every pass: the rounds other passes
        still have awaiting a check are closed unchecked."""
        if role == "prover":
            entry["pass"] = _require_pass(pass_)
            if note is not None and entry.get("failed"):
                entry["note"] = note
        passes = self.passes(node.id)
        node.history.append(entry)
        passes.fold(entry, self.limits.prover_self_correction)
        if role == "prover" and entry.get("failed") is False:
            for other in list(passes.unjudged):
                closed = {"pass": other, "failed": None, "verdict": None}
                node.history.append(closed)
                passes.fold(closed, self.limits.prover_self_correction)
        if entry.get("failed") and role in ("formalizer", "semantics"):
            node.counters.formalize_retries += 1
        elif entry.get("failed") and role == "decomposer":
            node.counters.sketch_corrections_used += 1
        return pass_

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

        The node returns to AwaitingQueryGen with one decomposition
        consumed and a fresh sketch-correction budget; its history, and
        so the decomposer's conversation, is kept for the backtrack
        prompts. Raises LeandecompError when the node's decomposition
        budget is already spent (callers select ancestors with
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
        node.status = NodeStatus.AWAITING_QUERY_GEN
        node.counters.decompositions_used += 1
        node.counters.sketch_corrections_used = 0

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
        """Raise SubgoalNotFound unless reconstruction can splice proofs of
        these subgoals into the node's latest sketch: the same splice,
        run on the subgoals' own statements."""
        splice_sorries(self.unit(node_id).body, [s.standalone_statement for s in subgoals])

    def _reconstruct_decl(self, node: ProofNode) -> str:
        if node.status is not NodeStatus.PROVEN:
            raise IncompleteSubtree(f"node {node.id} is {node.status.value}, not Proven")
        if self.last_round(node.id) is None:
            raise IncompleteSubtree(f"proven node {node.id} has no generated round")
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

        Raises IncompleteSubtree if any descendant is not Proven, and
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
        limits = self.limits
        for node in self.nodes.values():
            if node.children:
                sketch = self.last_round(node.id)
                assert sketch and sketch["role"] == "decomposer", f"{node.id} lacks a sketch"
            c = node.counters
            assert c.formalize_retries <= limits.formalizer_max_retries
            assert c.sketch_corrections_used <= limits.decomposer_self_correction
            assert c.decompositions_used <= limits.decomposer_self_correction
            # Per prover pass (None: the other roles) the round awaiting its
            # check and the failed rounds. Another role's round awaiting its
            # check is the last entry, or its verdict follows it.
            unjudged: dict[int | None, dict[str, Any]] = {}
            failed: dict[int, int] = {}
            for entry in node.history:
                pass_ = entry.get("pass")
                assert None not in unjudged or ("prompt" not in entry and pass_ is None), (
                    f"{node.id} has a round left unjudged"
                )
                if "prompt" not in entry:
                    assert unjudged.pop(pass_, None), f"{node.id} has a verdict with no round"
                elif "failed" not in entry:
                    assert pass_ not in unjudged, f"{node.id} has two unjudged rounds in a pass"
                    unjudged[pass_] = entry
                if pass_ is not None:
                    failed[pass_] = failed.get(pass_, 0) + (entry.get("failed") is True)
            assert max(failed.values(), default=0) <= limits.prover_self_correction
            assert len(failed) <= limits.prover_max_pass, f"{node.id} opened too many passes"
            awaiting = {entry["role"] for entry in unjudged.values()}
            assert awaiting == {_AWAITING_CHECK.get(node.status)} - {None}, (
                f"{node.id} is {node.status.value} with rounds awaiting a check by {awaiting}"
            )

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> dict[str, Any]:
        """The checkpoint record of the tree; it shares no object with
        the tree."""
        return {
            "version": CHECKPOINT_VERSION,
            "root": self.root,
            "seq": self._seq,
            "limits": dict(vars(self.limits)),
            "nodes": {
                node.id: {**_node_fields(node), "history": copy.deepcopy(node.history)}
                for node in self.nodes.values()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProofTree":
        """Rebuild a tree from a checkpoint record of any version, 1 to
        6; raises ValueError for any structural defect. The
        ``conversations`` of versions 1 and 2 are derived from
        ``history`` instead, and the ``pending_*`` reply of versions 1 to
        3 becomes the round awaiting its check. The proof, sketch and
        queries that versions 1 to 4 also store are read from
        ``history``. The prover rounds of versions 1 to 5 get their pass
        by order (``_tag_passes``), and a node proving keeps its note in
        its last failed round instead of ``last_failure``."""
        try:
            version = data.get("version")
            if version not in range(1, CHECKPOINT_VERSION + 1):
                raise ValueError(f"unsupported checkpoint version {version!r}")
            tree = cls(Limits(**{k: int(v) for k, v in data["limits"].items()}))
            tree.root = data["root"]
            tree._seq = int(data.get("seq", len(data["nodes"])))
            for node_id, raw in data["nodes"].items():
                formal = raw.get("formal")
                status = NodeStatus(raw["status"])
                history = list(raw.get("history", []))
                if version < 4 and raw.get("pending_response") is not None:
                    history.append({"role": _AWAITING_CHECK[status],
                                    "prompt": raw.get("pending_prompt") or "",
                                    "response": raw["pending_response"]})
                # versions 1 to 4 keep a failed sketch's note apart
                last_failure = raw.get("last_sketch_failure") or raw.get("last_failure")
                if version < 6:
                    # a proving node's note moves to its last failed prover round
                    proving = status in (NodeStatus.AWAITING_PROOF,
                                         NodeStatus.AWAITING_VERIFICATION)
                    note, last_failure = (last_failure, None) if proving else (None, last_failure)
                    history = _tag_passes(history, tree.limits.prover_self_correction, note)
                node = ProofNode(
                    id=node_id,
                    parent=raw.get("parent"),
                    depth=int(raw["depth"]),
                    status=status,
                    informal_statement=raw.get("informal_statement"),
                    formal=None if formal is None else LeanSource(**formal),
                    name=raw.get("name"),
                    children=list(raw.get("children", [])),
                    history=history,
                    counters=Counters.from_dict(raw.get("counters", {})),
                    hints=[tuple(h) for h in raw.get("hints", [])],
                    last_failure=last_failure,
                )
                tree.nodes[node_id] = node
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed checkpoint: {exc!r}") from None
        if tree.root not in tree.nodes:
            raise ValueError(f"malformed checkpoint: root {tree.root!r} is not a node")
        return tree

    def save(self, path) -> None:
        """
        Persist the tree to the checkpoint journal at ``path``.

        The first save of this tree to ``path`` writes one snapshot line
        of the whole tree to a temporary file and renames it over
        ``path``. Every later save appends one line holding only what
        changed since the previous save: changed node fields, the new
        tails of the node histories and the ids of removed nodes. A
        failed write makes the next save a snapshot, so a torn line can
        only be the last one. Appends go through one handle, flushed
        after every line, until ``close`` or the next snapshot.
        """
        path = os.fspath(path)
        journal, self._journal_path = self._journal_path, None
        if journal == path:
            line = self._delta_line()
            if line is not None:
                if self._journal is None:
                    self._journal = open(path, "a", encoding="utf-8")
                self._journal.write(line)
                self._journal.flush()
        else:
            self.close()
            temp = path + ".tmp"
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(_json_line(self.to_dict()))
            os.replace(temp, path)
            self._written = {
                node.id: (_node_key(node), _node_fields(node), len(node.history))
                for node in self.nodes.values()
            }
        self._journal_path = path

    def close(self) -> None:
        """Close the journal handle; a later save reopens it."""
        handle, self._journal = self._journal, None
        if handle is not None:
            handle.close()

    def _delta_line(self) -> str | None:
        """The journal line for what changed since the last save, or
        None when nothing did; records the new state as written."""
        changes: dict[str, Any] = {}
        for node in self.nodes.values():
            node_key = _node_key(node)
            old_key, old_fields, written_history = self._written.get(node.id, ((), {}, 0))
            if node_key == old_key and written_history == len(node.history):
                continue
            fields = old_fields if node_key == old_key else _node_fields(node)
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
                self._written[node.id] = (node_key, fields, len(node.history))
        removed = [node_id for node_id in self._written if node_id not in self.nodes]
        for node_id in removed:
            del self._written[node_id]
        if not changes and not removed:
            return None
        return _json_line({"seq": self._seq, "nodes": changes, "removed": removed})

    @classmethod
    def load(cls, path) -> "ProofTree":
        """
        Read a checkpoint written by ``save``: a snapshot line followed
        by journal lines replayed in order (version 2 to 6), or a
        version-1 file holding one JSON object. A torn final line (a
        crash mid-append) is dropped; any other defect raises ValueError.
        """
        with open(path, "rb") as handle:
            try:
                data = json.loads(handle.readline())
            except ValueError:
                handle.seek(0)
                return cls.from_dict(json.load(handle))  # version 1: one indented object
            if isinstance(data, dict) and data.get("version") in range(2, CHECKPOINT_VERSION + 1):
                pending, number = None, 1
                for line in handle:
                    if pending is not None:
                        _replay(data, pending, number, last=False)
                    pending, number = line, number + 1
                if pending is not None:
                    _replay(data, pending, number, last=True)
        return cls.from_dict(data)


def _require_pass(pass_: int | None) -> int:
    if pass_ is None:
        raise LeandecompError("a prover round must name its pass")
    return pass_


def _tag_passes(
    history: list[dict[str, Any]], per_pass: int, note: str | None
) -> list[dict[str, Any]]:
    """A version-1-to-5 history with each prover round, and its verdict,
    tagged with its pass: the serial run that wrote it opened a new pass
    every ``per_pass`` prover rounds. The last failed prover round keeps
    ``note``, if any, for its pass's next correction."""
    tagged, pass_, rounds = [], None, 0
    for entry in history:
        if "prompt" in entry:
            pass_ = None
            if entry["role"] == "prover":
                pass_, rounds = rounds // per_pass + 1, rounds + 1
        tagged.append(entry if pass_ is None else {**entry, "pass": pass_})
    failed = [entry for entry in tagged if "pass" in entry and entry.get("failed")]
    if note is not None and failed:
        failed[-1]["note"] = note
    return tagged


def _node_key(node: ProofNode) -> tuple:
    """Every value ``_node_fields`` records, as a tuple that is cheaper to
    build and compare: a save skips the nodes whose key is unchanged."""
    return (
        node.parent,
        node.depth,
        node.status,
        node.informal_statement,
        node.formal,
        node.name,
        tuple(node.children),
        tuple(vars(node.counters).values()),
        tuple(map(tuple, node.hints)),
        node.last_failure,
    )


def _node_fields(node: ProofNode) -> dict[str, Any]:
    """A node's checkpoint record without its ``history``, which the
    journal writes as appended tails."""
    return {
        "id": node.id,
        "parent": node.parent,
        "depth": node.depth,
        "status": node.status.value,
        "informal_statement": node.informal_statement,
        "formal": None
        if node.formal is None
        else {"preamble": node.formal.preamble, "body": node.formal.body},
        "name": node.name,
        "children": list(node.children),
        "counters": node.counters.to_dict(),
        "hints": [list(h) for h in node.hints],
        "last_failure": node.last_failure,
    }


#: Encodes every snapshot and journal line; json.dumps with these
#: options would build a new encoder per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def _json_line(data: dict[str, Any]) -> str:
    return _ENCODER.encode(data) + "\n"


def _replay(data: dict[str, Any], line: bytes, number: int, last: bool) -> None:
    """Apply journal line ``number`` to a checkpoint record in place.
    The ``conversations`` tails of version 2 are skipped: they are
    derived from ``history``."""
    try:
        change = json.loads(line)
    except ValueError:
        if last:
            return  # torn by a crash mid-append
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
