"""Tree-structured proof state.

Each node is a theorem being proved: the root carries the user's
target, children carry subgoals produced by decomposition. Nodes track
status, a never-cleared history of agent rounds (from which each
agent's running conversation is derived), and the retry counters that
drive scheduling. A generated reply that still awaits its Lean check is
the last round of its node's history; the check appends a verdict entry
after it. The tree persists as a checkpoint journal (a snapshot
line, then one line per save holding what changed) and reconstructs
complete proofs from proven subtrees by splicing child proof bodies
into parent sketches.
"""

from __future__ import annotations

import copy
import json
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, TextIO

from .config import Limits
from .errors import IncompleteSubtree, LeandecompError, NoByBlock, UnknownNode
from .lean_source import (
    LeanSource,
    extract_proof_body,
    extract_term_value,
    normalize_preamble,
    replace_subgoal,
    split_source,
)
from .ast_model import Subgoal, get_named_subgoal_code
from .services import VerificationResult

CHECKPOINT_VERSION = 4

#: Stages of a verified sketch whose defects are noted in a node's
#: history as decomposer entries with the prompt ``(<stage>)``.
_SKETCH_NOTE_STAGES = ("ast-export", "subgoal-extraction")
_NOTE_PROMPTS = frozenset(f"({stage})" for stage in _SKETCH_NOTE_STAGES)


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


#: The statuses in which a node's last history entry is a generated
#: round awaiting its check, and the role that generated it.
_AWAITING_CHECK = {
    NodeStatus.AWAITING_SYNTAX_CHECK: "formalizer",
    NodeStatus.AWAITING_VERIFICATION: "prover",
    NodeStatus.AWAITING_SKETCH_CHECK: "decomposer",
}


@dataclass
class Counters:
    formalize_retries: int = 0
    self_correction_in_pass: int = 0
    passes_used: int = 0
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
    proof_attempt: str | None = None  # the verified proof of a proven leaf
    sketch: str | None = None
    children: list[str] = field(default_factory=list)
    history: list[dict[str, Any]] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    # working data for the current phase
    queries: list[str] = field(default_factory=list)
    hints: list[tuple[str, str]] = field(default_factory=list)
    last_failure: str | None = None
    last_sketch_failure: str | None = None
    sketch_attempts_total: int = 0
    insertion_seq: int = 0


class ProofTree:
    """Owner of all nodes; every mutation goes through these methods."""

    def __init__(self, limits: Limits):
        self.limits = limits
        self.nodes: dict[str, ProofNode] = {}
        self.root: str | None = None
        self._seq = 0
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
    def from_informal(cls, informal: str, limits: Limits) -> "ProofTree":
        tree = cls(limits)
        node = ProofNode(
            id=tree._new_id(),
            parent=None,
            depth=0,
            status=NodeStatus.AWAITING_FORMALIZATION,
            informal_statement=informal,
            insertion_seq=tree._seq,
        )
        tree.nodes[node.id] = node
        tree.root = node.id
        return tree

    @classmethod
    def from_formal(cls, code: str, limits: Limits, informal: str | None = None) -> "ProofTree":
        tree = cls(limits)
        source = split_source(code)
        node = ProofNode(
            id=tree._new_id(),
            parent=None,
            depth=0,
            status=NodeStatus.AWAITING_PROOF,
            informal_statement=informal,
            formal=LeanSource(
                preamble=normalize_preamble(source.preamble).text, body=source.body.strip()
            ),
            insertion_seq=tree._seq,
        )
        tree.nodes[node.id] = node
        tree.root = node.id
        return tree

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

    def conversation(self, node_id: str, role: str) -> list[tuple[str, str]]:
        """
        The running conversation the prover or decomposer continues on a
        node, derived from its history as (speaker, text) turns.

        The prover's holds the rounds of the current pass: each pass of
        ``prover_self_correction`` failed rounds starts afresh. The
        decomposer's holds every round, across backtracks, but not the
        notes of defects found after a sketch verified. Neither holds a
        round still awaiting its check.
        """
        node = self.node(node_id)
        judged = node.history[:-1] if self.unjudged_round(node_id) else node.history
        rounds = [entry for entry in judged if "prompt" in entry and entry["role"] == role]
        if role == "prover":
            rounds = rounds[node.counters.passes_used * self.limits.prover_self_correction:]
        elif role == "decomposer":
            rounds = [entry for entry in rounds if entry["prompt"] not in _NOTE_PROMPTS]
        else:
            raise ValueError(f"the {role} agent keeps no conversation")
        turns: list[tuple[str, str]] = []
        for entry in rounds:
            turns += [("user", entry["prompt"]), ("assistant", entry["response"])]
        return turns

    def unjudged_round(self, node_id: str) -> dict[str, Any] | None:
        """The node's generated round still awaiting its check (the last
        history entry, when it carries no verdict), or None."""
        history = self.node(node_id).history
        if history and "failed" not in history[-1]:
            return history[-1]
        return None

    def last_round(self, node_id: str) -> dict[str, Any]:
        """The node's latest agent round, judged or not: the last history
        entry that carries a prompt and a response."""
        return next(entry for entry in reversed(self.node(node_id).history) if "prompt" in entry)

    # -------------------------------------------------------------- mutations

    def add_child(self, parent_id: str, subgoal: Subgoal) -> str:
        """
        Attach a subgoal as a new leaf one level below its parent.

        The child's formal unit is the subgoal rendered standalone under
        the parent's normalized preamble; it starts at AwaitingProof
        since it is already formal.
        """
        parent = self.node(parent_id)
        preamble = normalize_preamble(parent.formal.preamble if parent.formal else "")
        code = get_named_subgoal_code(subgoal, preamble)
        source = split_source(code)
        child = ProofNode(
            id=self._new_id(),
            parent=parent_id,
            depth=parent.depth + 1,
            status=NodeStatus.AWAITING_PROOF,
            name=subgoal.name,
            formal=LeanSource(preamble=preamble.text, body=source.body.strip()),
            insertion_seq=self._seq,
        )
        self.nodes[child.id] = child
        parent.children.append(child.id)
        return child.id

    def record_attempt(
        self,
        node_id: str,
        role: str,
        prompt: str,
        response: str,
        verdict: VerificationResult | None = None,
        failed: bool | None = None,
    ) -> None:
        """Log one agent round judged at once, in one history entry, and
        apply the role's counter rules (see ``record_verdict``)."""
        node = self.node(node_id)
        if failed is None:
            failed = verdict is not None and not verdict.passed
        node.history.append(
            {"role": role, "prompt": prompt, "response": response, **_verdict(verdict, failed)}
        )
        self._charge(node, role, failed)

    def record_reply(self, node_id: str, role: str, prompt: str, response: str) -> None:
        """Log a generated round whose Lean check is still to come; it
        stays unjudged until ``record_verdict``."""
        self.node(node_id).history.append({"role": role, "prompt": prompt, "response": response})

    def record_verdict(self, node_id: str, verdict: VerificationResult) -> None:
        """
        Log the check of the round awaiting it, as an entry of its own
        that repeats no text, and apply the round's counter rules.

        A failed prover round consumes one self-correction attempt;
        filling the per-pass budget rolls over into a new pass, which
        starts a fresh prover conversation. Formalizer and semantics
        failures consume formalization retries; decomposer failures
        consume sketch corrections.
        """
        judged = self.unjudged_round(node_id)
        if judged is None:
            raise LeandecompError(f"node {node_id} has no round awaiting a check")
        node = self.node(node_id)
        node.history.append(_verdict(verdict, not verdict.passed))
        self._charge(node, judged["role"], not verdict.passed)

    def _charge(self, node: ProofNode, role: str, failed: bool) -> None:
        if not failed:
            return
        counters = node.counters
        if role == "prover":
            counters.self_correction_in_pass += 1
            if counters.self_correction_in_pass >= self.limits.prover_self_correction:
                counters.passes_used += 1
                counters.self_correction_in_pass = 0
        elif role in ("formalizer", "semantics"):
            counters.formalize_retries += 1
        elif role == "decomposer":
            counters.sketch_corrections_used += 1

    def note_sketch_defect(self, node_id: str, stage: str, message: str) -> None:
        """
        Log a defect found in a verified sketch at ``stage``
        (``ast-export`` or ``subgoal-extraction``) and consume one sketch
        correction. The note is history only: the decomposer's
        conversation leaves it out.
        """
        if stage not in _SKETCH_NOTE_STAGES:
            raise ValueError(f"unknown sketch stage {stage!r}")
        node = self.node(node_id)
        node.history.append(
            {"role": "decomposer", "prompt": f"({stage})", "response": message,
             "failed": True, "verdict": None}
        )
        node.counters.sketch_corrections_used += 1

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
            if child is not None:
                stack.extend(child.children)
        node.children = []
        node.status = NodeStatus.AWAITING_QUERY_GEN
        node.counters.decompositions_used += 1
        node.counters.sketch_corrections_used = 0
        node.sketch = None

    # ---------------------------------------------------------- reconstruction

    def _reconstruct_decl(self, node: ProofNode) -> str:
        if node.status is not NodeStatus.PROVEN:
            raise IncompleteSubtree(f"node {node.id} is {node.status.value}, not Proven")
        if not node.children:
            if node.proof_attempt is None:
                raise IncompleteSubtree(f"proven leaf {node.id} has no proof text")
            return split_source(node.proof_attempt).body.strip() or node.proof_attempt.strip()
        if node.sketch is None:
            raise IncompleteSubtree(f"internal node {node.id} has no sketch")
        text = split_source(node.sketch).body.strip()
        for child_id in node.children:
            child = self.node(child_id)
            child_decl = self._reconstruct_decl(child)
            try:
                body = extract_proof_body(child_decl)
            except NoByBlock:
                # term-mode child proof: keep it a tactic block
                body = "exact (" + extract_term_value(child_decl) + ")"
            if child.name is None:
                raise IncompleteSubtree(f"child {child.id} has no subgoal name")
            text = replace_subgoal(text, child.name, body)
        return text

    def reconstruct(self, node_id: str) -> str:
        """
        Assemble the complete proof of a proven subtree.

        A leaf contributes its verified proof attempt; an internal node
        contributes its sketch with every child's sorry replaced by that
        child's reconstructed proof body. The result is a full unit
        under the node's stored canonical preamble.

        Raises IncompleteSubtree if any descendant is not Proven.
        """
        node = self.node(node_id)
        decl = self._reconstruct_decl(node)
        preamble = normalize_preamble(node.formal.preamble if node.formal else "")
        return preamble.text + "\n\n" + decl

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
        limits = self.limits
        for node in self.nodes.values():
            if node.children:
                assert node.sketch is not None, f"internal node {node.id} lacks a sketch"
            c = node.counters
            assert c.formalize_retries <= limits.formalizer_max_retries
            assert c.self_correction_in_pass <= limits.prover_self_correction
            assert c.passes_used <= limits.prover_max_pass
            assert c.sketch_corrections_used <= limits.decomposer_self_correction
            assert c.decompositions_used <= limits.decomposer_self_correction
            # j: a round judged at once; o, v: a round and the verdict of its check
            shape = "".join(
                "v" if "prompt" not in e else "j" if "failed" in e else "o" for e in node.history
            )
            assert re.fullmatch("(j|ov)*o?", shape), f"{node.id} has a round left unjudged"
            unjudged = self.unjudged_round(node.id)
            assert (unjudged and unjudged["role"]) == _AWAITING_CHECK.get(node.status), (
                f"{node.id} is {node.status.value} with unjudged round {unjudged!r}"
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
        4; raises ValueError for any structural defect. The
        ``conversations`` of versions 1 and 2 are derived from
        ``history`` instead, and the ``pending_*`` reply of versions 1 to
        3 becomes the round awaiting its check."""
        try:
            version = data.get("version")
            if version not in (1, 2, 3, CHECKPOINT_VERSION):
                raise ValueError(f"unsupported checkpoint version {version!r}")
            tree = cls(Limits(**{k: int(v) for k, v in data["limits"].items()}))
            tree.root = data["root"]
            tree._seq = int(data.get("seq", len(data["nodes"])))
            for node_id, raw in data["nodes"].items():
                formal = raw.get("formal")
                status = NodeStatus(raw["status"])
                history = list(raw.get("history", []))
                if version < 4:
                    if raw.get("pending_response") is not None:
                        history.append({"role": _AWAITING_CHECK[status],
                                        "prompt": raw.get("pending_prompt") or "",
                                        "response": raw["pending_response"]})
                    if status is not NodeStatus.PROVEN:
                        raw = {**raw, "proof_attempt": None}  # an unverified attempt
                node = ProofNode(
                    id=node_id,
                    parent=raw.get("parent"),
                    depth=int(raw["depth"]),
                    status=status,
                    informal_statement=raw.get("informal_statement"),
                    formal=None if formal is None else LeanSource(**formal),
                    name=raw.get("name"),
                    proof_attempt=raw.get("proof_attempt"),
                    sketch=raw.get("sketch"),
                    children=list(raw.get("children", [])),
                    history=history,
                    counters=Counters.from_dict(raw.get("counters", {})),
                    queries=list(raw.get("queries", [])),
                    hints=[tuple(h) for h in raw.get("hints", [])],
                    last_failure=raw.get("last_failure"),
                    last_sketch_failure=raw.get("last_sketch_failure"),
                    sketch_attempts_total=int(raw.get("sketch_attempts_total", 0)),
                    insertion_seq=int(raw.get("insertion_seq", 0)),
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
        by journal lines replayed in order (version 2 to 4), or a
        version-1 file holding one JSON object. A torn final line (a
        crash mid-append) is dropped; any other defect raises ValueError.
        """
        with open(path, "rb") as handle:
            try:
                data = json.loads(handle.readline())
            except ValueError:
                handle.seek(0)
                return cls.from_dict(json.load(handle))  # version 1: one indented object
            if isinstance(data, dict) and data.get("version") in (2, 3, CHECKPOINT_VERSION):
                pending, number = None, 1
                for line in handle:
                    if pending is not None:
                        _replay(data, pending, number, last=False)
                    pending, number = line, number + 1
                if pending is not None:
                    _replay(data, pending, number, last=True)
        return cls.from_dict(data)


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
        node.proof_attempt,
        node.sketch,
        tuple(node.children),
        tuple(vars(node.counters).values()),
        tuple(node.queries),
        tuple(map(tuple, node.hints)),
        node.last_failure,
        node.last_sketch_failure,
        node.sketch_attempts_total,
        node.insertion_seq,
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
        "proof_attempt": node.proof_attempt,
        "sketch": node.sketch,
        "children": list(node.children),
        "counters": node.counters.to_dict(),
        "queries": list(node.queries),
        "hints": [list(h) for h in node.hints],
        "last_failure": node.last_failure,
        "last_sketch_failure": node.last_sketch_failure,
        "sketch_attempts_total": node.sketch_attempts_total,
        "insertion_seq": node.insertion_seq,
    }


def _verdict(verdict: VerificationResult | None, failed: bool) -> dict[str, Any]:
    """The judgement fields of a history entry."""
    judged = None if verdict is None else {"passed": verdict.passed, "complete": verdict.complete}
    return {"failed": failed, "verdict": judged}


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
