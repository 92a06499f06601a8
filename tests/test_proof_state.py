import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leandecomp.ast_model import Subgoal, extract_subgoals, parse_ast
from leandecomp.errors import LeandecompError
from leandecomp.lean_source import LeanSource
from leandecomp.proof_state import (
    CHECKPOINT_VERSION,
    Counters,
    NodeStatus,
    ProofNode,
    ProofTree,
    _Passes,
)
from leandecomp.services import VerificationResult
from tests.drivers import record_verified
from tests.fakes import count_sorries, lean_block, packaged_limits
from tests.sample_proofs import (
    CANONICAL_PREAMBLE,
    EVEN_SUM_PROOF,
    INDUCTION_SKETCH,
    INFINITUDE_SKETCH,
    INFINITUDE_SUBGOAL_NAMES,
)
from tests.test_ast_model import load_payload

LIMITS = packaged_limits()

PASS = VerificationResult(passed=True, complete=True)
FAIL = VerificationResult(passed=False, complete=False)


def make_subgoal(name, goal_type="True"):
    return Subgoal(name=name, standalone_statement=f"theorem {name} : {goal_type} := by\n  sorry")


def sketch_tree():
    """Root with the induction sketch adopted and three subgoal children."""
    tree = ProofTree.from_formal(INDUCTION_SKETCH, LIMITS)
    record_verified(tree, tree.root, "decomposer", INDUCTION_SKETCH)
    tree.root_node().status = NodeStatus.AWAITING_CHILDREN
    payload = load_payload("induction_ast.json")
    for subgoal in extract_subgoals(*parse_ast(payload)):
        tree.add_child(tree.root, subgoal)
    return tree


class TestAddChild:
    def test_depth_law(self):
        tree = sketch_tree()
        for child_id in tree.root_node().children:
            assert tree.node(child_id).depth == 1
        tree.validate()

    def test_children_match_extraction_order(self):
        tree = ProofTree.from_formal(INFINITUDE_SKETCH, LIMITS)
        record_verified(tree, tree.root, "decomposer", INFINITUDE_SKETCH)
        subgoals = extract_subgoals(*parse_ast(load_payload("infinitude_ast.json")))
        for subgoal in subgoals:
            tree.add_child(tree.root, subgoal)
        names = [tree.node(c).name for c in tree.root_node().children]
        assert names == INFINITUDE_SUBGOAL_NAMES

    def test_child_is_standalone_formal_unit(self):
        tree = sketch_tree()
        child = tree.node(tree.root_node().children[0])
        assert child.status is NodeStatus.AWAITING_PROOF
        assert child.formal.preamble == CANONICAL_PREAMBLE
        assert child.formal.body == "theorem base_case : 4 ^ 2 ≤ 4 ! := by\n  sorry"

    def test_unknown_parent(self):
        tree = sketch_tree()
        with pytest.raises(LeandecompError, match="no node with id"):
            tree.add_child("n9999", make_subgoal("g"))


class TestRecordAttempt:
    def test_prover_failure_consumes_self_correction(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "prover", "p1", "r1", failed=True, pass_=1)
        assert tree.passes(tree.root).open == {1: 1}  # pass 1, one failed round
        assert tree.passes(tree.root).ended == 0
        assert tree.conversation(tree.root, "prover", 1) == [("user", "p1"), ("assistant", "r1")]

    def test_pass_rollover_resets_conversation(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "prover", "p1", "r1", failed=True, pass_=1)
        tree.record_attempt(tree.root, "prover", "p2", "r2", failed=True, pass_=1)
        root = tree.root_node()
        assert tree.passes(tree.root).ended == 1
        assert tree.passes(tree.root).open == {}
        assert tree.conversation(tree.root, "prover", 2) == []
        # provenance history is never cleared
        assert [h["prompt"] for h in root.history] == ["p1", "p2"]

    def test_success_changes_no_counters(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "prover", "p", "r", failed=False, pass_=1)
        assert tree.root_node().counters == Counters()
        assert tree.passes(tree.root).ended == 0
        assert tree.passes(tree.root).won is tree.root_node().history[-1]

    def test_formalizer_and_semantics_failures_share_budget(self):
        tree = ProofTree.from_informal("prove something", LIMITS)
        tree.record_attempt(tree.root, "formalizer", "p", "r", failed=True)
        tree.record_attempt(tree.root, "semantics", "p", "r", failed=True)
        assert tree.root_node().counters.formalize_retries == 2

    def test_decomposer_failure_consumes_sketch_correction(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "decomposer", "p", "r", failed=True)
        assert tree.root_node().counters.sketch_corrections_used == 1

    def test_sketch_note_is_history_only(self):
        """A sketch that cannot be split fails its own verdict, whose note
        the conversation leaves out: the round is the sketch's alone."""
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "decomposer", "p", "r", failed=True)
        sketch = lean_block("theorem t : True := by\n  exact sorry")
        tree.record_reply(tree.root, "decomposer", "p2", sketch)
        note = "the proof sketch contains no named subgoals"
        tree.record_verdict(tree.root, VerificationResult(passed=True, complete=False), note=note)
        root = tree.root_node()
        assert root.counters.sketch_corrections_used == 2
        assert root.status is NodeStatus.AWAITING_SKETCH
        assert root.history[-1] == {  # Lean passed it; the note fails it
            "failed": True, "verdict": {"passed": True, "complete": False}, "note": note
        }
        assert [entry["prompt"] for entry in root.history if "prompt" in entry] == ["p", "p2"]
        assert tree.conversation(tree.root, "decomposer")[-2:] == [("user", "p2"), ("assistant", sketch)]

    def test_unknown_node(self):
        tree = sketch_tree()
        with pytest.raises(LeandecompError, match="no node with id"):
            tree.record_attempt("nope", "prover", "p", "r", failed=True, pass_=1)

    def test_a_prover_round_must_name_its_pass(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        with pytest.raises(LeandecompError):
            tree.record_attempt(tree.root, "prover", "p", "r", failed=True)
        with pytest.raises(LeandecompError):
            tree.conversation(tree.root, "prover")
        assert tree.root_node().history == []


def prover_round(pass_, failed=None):
    """A prover round of ``pass_``: awaiting its check, or judged at once."""
    round_ = {"role": "prover", "prompt": "p", "response": "r", "pass": pass_}
    if failed is not None:
        round_.update(failed=failed, verdict=None)
    return round_


class TestAwaitingCheck:
    def test_verdict_closes_the_round_and_charges_its_role(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        reply = lean_block("theorem t : True := trivial")
        tree.record_reply(tree.root, "prover", "p1", reply, pass_=1)
        root = tree.root_node()
        root.status = NodeStatus.AWAITING_VERIFICATION
        tree.validate()
        round_ = {"role": "prover", "prompt": "p1", "response": reply, "pass": 1}
        assert tree.unjudged_round(tree.root) == round_
        assert tree.conversation(tree.root, "prover", 1) == []
        assert tree.passes(tree.root).open == {1: 0}
        tree.record_verdict(tree.root, FAIL)
        root.status = NodeStatus.AWAITING_PROOF
        tree.validate()
        assert root.history[-1] == {
            "failed": True, "verdict": {"passed": False, "complete": False}, "pass": 1
        }
        assert tree.unjudged_round(tree.root) is None
        assert tree.passes(tree.root).open == {1: 1}
        assert tree.conversation(tree.root, "prover", 1) == [("user", "p1"), ("assistant", reply)]

    def test_each_pass_judges_its_own_round(self):
        """Two passes each have a round awaiting its check; a verdict
        judges the round of its pass, and a verified round closes the
        other pass's round unchecked."""
        limits = packaged_limits(prover_max_pass=2)
        tree = ProofTree.from_formal("theorem t : True := by sorry", limits)
        root = tree.root_node()
        tree.record_attempt(tree.root, "prover", "p1", "r1", failed=True, pass_=1)
        tree.open_pass(tree.root, 2)
        with pytest.raises(LeandecompError):
            tree.open_pass(tree.root, 3)  # both passes the budget allows are open
        replies = {p: lean_block(f"theorem t : True := by\n  exact t{p}") for p in (1, 2)}
        for p, reply in replies.items():
            tree.record_reply(tree.root, "prover", f"q{p}", reply, pass_=p)
        tree.validate()
        assert tree.passes(tree.root).open == {1: 1, 2: 0}
        assert tree.unit(tree.root, 2).body.endswith("exact t2")
        tree.record_verdict(tree.root, FAIL, pass_=2, note="n2")
        assert tree.passes(tree.root).open == {1: 1, 2: 1}
        assert tree.passes(tree.root).notes[2] == "n2"
        assert tree.conversation(tree.root, "prover", 2) == [("user", "q2"), ("assistant", replies[2])]
        tree.record_reply(tree.root, "prover", "q3", replies[2], pass_=2)
        tree.record_verdict(tree.root, PASS, pass_=1)
        root.status = NodeStatus.PROVEN
        tree.validate()
        assert root.history[-1] == {"pass": 2, "failed": None, "verdict": None}
        assert tree.unit(tree.root).body.endswith("exact t1")
        assert tree.passes(tree.root).open == {} and tree.passes(tree.root).ended == 0
        clone = ProofTree.from_dict(tree.to_dict(), limits)
        assert clone.passes(clone.root) == tree.passes(tree.root)

    def test_no_verdict_without_a_round(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        with pytest.raises(LeandecompError):
            tree.record_verdict(tree.root, PASS)

    @pytest.mark.parametrize(
        "status, history",
        [
            # awaiting verification with every round judged
            ("AwaitingVerification", [{"role": "prover", "prompt": "p", "response": "r"},
                                      {"failed": True, "verdict": None}]),
            # a round awaiting its check on a node that awaits none
            ("AwaitingProof", [{"role": "prover", "prompt": "p", "response": "r"}]),
            # the wrong role awaiting the check
            ("AwaitingVerification", [{"role": "decomposer", "prompt": "p", "response": "r"}]),
            # a round left unjudged under a later one
            ("AwaitingVerification", [{"role": "prover", "prompt": "p", "response": "r"},
                                      {"role": "prover", "prompt": "p", "response": "r"}]),
            # a verdict with no round before it
            ("AwaitingProof", [{"failed": True, "verdict": None}]),
            # two rounds of one pass awaiting their check
            ("AwaitingVerification", [prover_round(1), prover_round(1)]),
            # a pass's round awaiting its check on a node that awaits none
            ("AwaitingProof", [prover_round(1, failed=True), prover_round(2)]),
        ],
    )
    def test_validate_catches_a_misplaced_unjudged_round(self, status, history):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        root = tree.root_node()
        root.status, root.history = NodeStatus(status), history
        with pytest.raises(AssertionError):
            tree.validate()


def chain_tree(depth):
    """Linear chain root -> ... -> leaf with sketches on internal nodes."""
    tree = ProofTree.from_formal("theorem t0 : True := by sorry", LIMITS)
    current = tree.root
    for level in range(1, depth + 1):
        record_verified(tree, current, "decomposer", f"theorem t{level - 1} : True := by\n  sorry")
        current = tree.add_child(current, make_subgoal(f"g{level}"))
    return tree, current


class TestFindBacktrackAncestor:
    def test_grandparent_with_budget(self):
        tree, leaf = chain_tree(4)
        grandparent = tree.node(tree.node(tree.node(leaf).parent).parent)
        grandparent.counters.sketch_corrections_used = 1
        assert tree.find_backtrack_ancestor(leaf) == grandparent.id

    def test_root_has_none(self):
        tree, _ = chain_tree(3)
        assert tree.find_backtrack_ancestor(tree.root) is None

    def test_parent_is_never_returned(self):
        tree, leaf = chain_tree(1)
        # only ancestor is the parent (distance 1)
        assert tree.find_backtrack_ancestor(leaf) is None

    def test_exhausted_grandparent_skipped(self):
        tree, leaf = chain_tree(4)
        parent = tree.node(leaf).parent
        grandparent_id = tree.node(parent).parent
        tree.node(grandparent_id).counters.sketch_corrections_used = (
            LIMITS.decomposer_self_correction
        )
        great_id = tree.node(grandparent_id).parent
        assert tree.find_backtrack_ancestor(leaf) == great_id

    def test_decomposition_budget_also_gates(self):
        tree, leaf = chain_tree(4)
        parent = tree.node(leaf).parent
        grandparent_id = tree.node(parent).parent
        tree.node(grandparent_id).counters.decompositions_used = (
            LIMITS.decomposer_self_correction
        )
        assert tree.find_backtrack_ancestor(leaf) == tree.node(grandparent_id).parent

    def test_all_exhausted_gives_none(self):
        tree, leaf = chain_tree(3)
        for _, ancestor in tree.ancestors(leaf):
            ancestor.counters.sketch_corrections_used = LIMITS.decomposer_self_correction
        assert tree.find_backtrack_ancestor(leaf) is None


class TestPruneSubtree:
    def test_children_removed_and_status_reset(self):
        tree = sketch_tree()
        assert len(tree.nodes) == 4
        tree.prune_subtree(tree.root)
        root = tree.root_node()
        assert len(tree.nodes) == 1
        assert root.children == []
        assert root.status is NodeStatus.AWAITING_QUERY_GEN
        assert root.counters.decompositions_used == 1
        tree.validate()

    def test_nested_levels_all_removed(self):
        tree, leaf = chain_tree(3)
        before = len(tree.nodes)
        assert before == 4
        tree.prune_subtree(tree.root)
        assert len(tree.nodes) == 1
        tree.validate()

    def test_leaf_prune_is_status_reset_only(self):
        tree, leaf = chain_tree(2)
        tree.prune_subtree(leaf)
        assert tree.node(leaf).status is NodeStatus.AWAITING_QUERY_GEN
        assert tree.node(leaf).children == []

    def test_sketch_correction_budget_refreshed(self):
        tree = sketch_tree()
        tree.root_node().counters.sketch_corrections_used = 4
        tree.prune_subtree(tree.root)
        assert tree.root_node().counters.sketch_corrections_used == 0

    def test_conversations_survive_prune(self):
        tree = sketch_tree()
        tree.record_attempt(tree.root, "decomposer", "p", "r", failed=True)
        tree.prune_subtree(tree.root)
        assert tree.conversation(tree.root, "decomposer")


BASE_CASE_PROOF = "theorem base_case : 4 ^ 2 ≤ 4 ! := by\n  norm_num [Nat.factorial]"
INDUCTIVE_STEP_PROOF = (
    "theorem inductive_step : ∀ k ≥ 4, k ^ 2 ≤ k ! → (k + 1) ^ 2 ≤ (k + 1) ! := by\n"
    "  intro k hk ih\n"
    "  nlinarith [ih, Nat.factorial_pos k]"
)
FINAL_PROOF_PROOF = (
    "theorem final_proof : ∀ n ≥ 4, n ^ 2 ≤ n ! := by\n"
    "  exact combined_argument base_case inductive_step"
)

SPLICED_GOLDEN = (
    CANONICAL_PREAMBLE
    + "\n\n"
    + """theorem induction_ineq_nsqlefactn (n : ℕ) (h : 4 ≤ n) : n ^ 2 ≤ n ! := by
  -- Base case
  have base_case : 4 ^ 2 ≤ 4 ! := by
    norm_num [Nat.factorial]

  -- Inductive step
  have inductive_step : ∀ k ≥ 4, k ^ 2 ≤ k ! → (k + 1) ^ 2 ≤ (k + 1) ! := by
    intro k hk ih
    nlinarith [ih, Nat.factorial_pos k]

  -- Combine base case and inductive step
  have final_proof : ∀ n ≥ 4, n ^ 2 ≤ n ! := by
    exact combined_argument base_case inductive_step"""
)


def proven_sketch_tree(unproven=()):
    """The sketch tree with each child, but those named in ``unproven``,
    proven by its prover."""
    tree = sketch_tree()
    proofs = {
        "base_case": BASE_CASE_PROOF,
        "inductive_step": INDUCTIVE_STEP_PROOF,
        "final_proof": FINAL_PROOF_PROOF,
    }
    for child_id in tree.root_node().children:
        child = tree.node(child_id)
        if child.name in unproven:
            continue
        record_verified(tree, child_id, "prover", proofs[child.name])
        child.status = NodeStatus.PROVEN
    tree.root_node().status = NodeStatus.PROVEN
    return tree


class TestReconstruct:
    def test_single_proven_leaf_verbatim(self):
        tree = ProofTree.from_formal(EVEN_SUM_PROOF, LIMITS)
        record_verified(tree, tree.root, "prover", EVEN_SUM_PROOF)
        tree.root_node().status = NodeStatus.PROVEN
        assert tree.reconstruct(tree.root) == EVEN_SUM_PROOF

    def test_spliced_golden(self):
        tree = proven_sketch_tree()
        merged = tree.reconstruct(tree.root)
        assert merged == SPLICED_GOLDEN
        assert count_sorries(merged) == 0

    def test_unproven_child_raises(self):
        tree = proven_sketch_tree()
        tree.node(tree.root_node().children[1]).status = NodeStatus.AWAITING_PROOF
        with pytest.raises(LeandecompError, match="not Proven"):
            tree.reconstruct(tree.root)

    def test_term_mode_child_wrapped_as_exact(self):
        tree = proven_sketch_tree()
        child = tree.node(tree.root_node().children[0])
        record_verified(tree, child.id, "prover", "theorem base_case : 4 ^ 2 ≤ 4 ! := proof_term")
        merged = tree.reconstruct(tree.root)
        assert "have base_case : 4 ^ 2 ≤ 4 ! := by\n    exact (proof_term)" in merged

    def test_grandchild_recursion(self):
        tree = proven_sketch_tree(unproven={"base_case"})
        middle = tree.node(tree.root_node().children[0])
        middle.status = NodeStatus.PROVEN
        record_verified(
            tree,
            middle.id,
            "decomposer",
            "theorem base_case : 4 ^ 2 ≤ 4 ! := by\n"
            "  have tiny : (4 : ℕ) ! = 24 := by\n"
            "    sorry\n"
            "  norm_num [tiny]",
        )
        grandchild_id = tree.add_child(middle.id, make_subgoal("tiny", "(4 : ℕ) ! = 24"))
        grandchild = tree.node(grandchild_id)
        record_verified(tree, grandchild_id, "prover", "theorem tiny : (4 : ℕ) ! = 24 := by\n  decide")
        grandchild.status = NodeStatus.PROVEN
        merged = tree.reconstruct(tree.root)
        assert "have tiny : (4 : ℕ) ! = 24 := by\n      decide" in merged
        assert count_sorries(merged) == 0


#: The node fields that fold from its history, which a checkpoint does
#: not store, and those it stores beside the history.
FOLDED = ("status", "counters")
PERSISTED = [
    f.name for f in dataclasses.fields(ProofNode) if f.name not in ("id", "history", *FOLDED)
]


class TestCheckpoint:
    def test_round_trip_preserves_everything(self):
        tree = proven_sketch_tree()
        clone = ProofTree.from_dict(tree.to_dict(), tree.limits)
        assert clone.to_dict() == tree.to_dict()
        assert clone.reconstruct(clone.root) == tree.reconstruct(tree.root)

    def test_file_round_trip(self, tmp_path):
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        data = json.loads(path.read_text())
        assert data["version"] == CHECKPOINT_VERSION
        clone = ProofTree.load(path)
        assert clone.to_dict() == tree.to_dict()

    def test_a_checkpoint_holds_no_limits_and_loads_under_the_run_s(self, tmp_path):
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        tree.close()
        assert "limits" not in json.loads(path.read_text())
        lowered = packaged_limits(max_depth=3)
        assert ProofTree.load(path, lowered).limits == lowered
        assert ProofTree.load(path).limits == packaged_limits()

    @pytest.mark.parametrize(
        "lowered",
        [
            packaged_limits(prover_self_correction=1),
            packaged_limits(prover_max_pass=1),
            packaged_limits(formalizer_max_retries=1, decomposer_self_correction=1),
        ],
    )
    def test_a_tree_resumed_under_lowered_limits_validates(self, tmp_path, lowered):
        """Pass 1 failed two rounds and pass 2 one, and the root spent two
        formalization retries, sketch corrections and decompositions, all
        within the packaged limits. Loaded under lower ones, the tree is
        valid: the run goes on, or fails on the budget it has spent."""
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        for role in ("formalizer", "semantics"):
            tree.record_attempt(tree.root, role, "p", "r", failed=True)
        for pass_ in (1, 1, 2):
            tree.record_attempt(tree.root, "prover", "p", "r", failed=True, pass_=pass_)
        for _ in range(2):
            tree.prune_subtree(tree.root)
        for _ in range(2):
            tree.record_attempt(tree.root, "decomposer", "p", "r", failed=True)
        assert tree.root_node().counters == Counters(2, 2, 2)
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        tree.close()
        resumed = ProofTree.load(path, lowered)
        resumed.validate()
        assert resumed.to_dict() == tree.to_dict()
        assert resumed.root_node().counters == Counters(2, 2, 2)

    def test_a_failed_round_of_a_pass_that_a_lower_budget_ended_is_folded(self):
        """Two failed rounds of pass 1, folded with a budget of one round
        per pass: the first ends the pass, the second changes no count."""
        passes = _Passes()
        for note in ("first", "second"):
            entry = {"role": "prover", "prompt": "p", "response": "r", "failed": True,
                     "verdict": None, "pass": 1, "note": note}
            passes.fold(entry, per_pass=1)
        assert (passes.seen, passes.open, passes.ended) == ({1}, {}, 1)
        assert passes.notes == {1: "first"}

    def test_failed_append_makes_next_save_a_snapshot(self, tmp_path):
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        path.unlink()
        path.mkdir()  # the next append cannot open the file
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", failed=False)
        with pytest.raises(OSError):
            tree.save(path)
        path.rmdir()
        tree.save(path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        assert ProofTree.load(path).to_dict() == tree.to_dict()

    def test_saving_to_another_path_moves_the_journal(self, tmp_path):
        """Appends follow the latest snapshot: the open journal of the
        previous file is closed, and that file no longer changes."""
        tree = sketch_tree()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        tree.save(first)
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", failed=True)
        tree.save(first)
        kept = first.read_bytes()
        tree.save(second)
        tree.record_attempt(tree.root, "decomposer", "again", "there", failed=False)
        tree.save(second)
        tree.close()
        assert first.read_bytes() == kept
        assert len(second.read_text(encoding="utf-8").splitlines()) == 2
        assert ProofTree.load(second).to_dict() == tree.to_dict()

    @staticmethod
    def journal(path) -> bytes:
        """Save a tree to ``path`` as a snapshot line and one appended
        line; the file's bytes."""
        tree = sketch_tree()
        tree.save(path)
        tree.record_attempt(tree.root_node().children[0], "prover", "p", "r", True, pass_=1)
        tree.save(path)
        tree.close()
        return path.read_bytes()

    def test_a_resume_saved_to_the_file_it_loaded_appends_one_line(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        kept = self.journal(path)
        tree = ProofTree.load(path)
        tree.record_attempt(tree.root_node().children[1], "prover", "p", "r", True, pass_=1)
        tree.save(path)
        tree.close()
        data = path.read_bytes()
        assert data.startswith(kept)
        assert data[len(kept):].count(b"\n") == 1 and data.endswith(b"\n")
        assert ProofTree.load(path).to_dict() == tree.to_dict()

    def test_a_resume_saved_to_the_file_it_loaded_by_another_name_appends(
        self, tmp_path, monkeypatch
    ):
        """``--resume ./run1/checkpoint.json --out run1`` names one file."""
        path = tmp_path / "run1" / "checkpoint.json"
        path.parent.mkdir()
        kept = self.journal(path)
        monkeypatch.chdir(tmp_path)
        tree = ProofTree.load("./run1/checkpoint.json")
        tree.record_attempt(tree.root_node().children[1], "prover", "p", "r", True, pass_=1)
        tree.save(path)
        tree.close()
        data = path.read_bytes()
        assert data.startswith(kept) and data[len(kept):].count(b"\n") == 1

    def test_a_resume_that_changes_nothing_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        kept = self.journal(path)
        tree = ProofTree.load(path)
        tree.save(path)
        tree.save(path)
        tree.close()
        assert path.read_bytes() == kept

    @pytest.mark.parametrize(
        "cut",
        [lambda data: data[:-20], lambda data: data[:-1]],
        ids=["torn-mid-line", "no-final-newline"],
    )
    @pytest.mark.parametrize("changed", [False, True])
    def test_a_resume_from_a_cut_last_line_saves_a_snapshot(self, tmp_path, cut, changed):
        """A last line torn mid-line is dropped, and a complete one that
        lacks its newline is read; an append after either would join it,
        so the next save replaces the file with one snapshot line."""
        path = tmp_path / "checkpoint.json"
        path.write_bytes(cut(self.journal(path)))
        tree = ProofTree.load(path)
        if changed:
            tree.record_attempt(tree.root_node().children[1], "prover", "p", "r", True, pass_=1)
        tree.save(path)
        tree.close()
        data = path.read_bytes()
        assert data.count(b"\n") == 1 and data.endswith(b"\n")
        assert json.loads(data)["version"] == CHECKPOINT_VERSION
        assert ProofTree.load(path).to_dict() == tree.to_dict()

    def test_a_resume_saved_elsewhere_leaves_the_file_it_loaded(self, tmp_path):
        source, target = tmp_path / "a.json", tmp_path / "b.json"
        kept = self.journal(source)
        tree = ProofTree.load(source)
        tree.save(target)
        tree.record_attempt(tree.root_node().children[1], "prover", "p", "r", True, pass_=1)
        tree.save(target)
        tree.close()
        assert source.read_bytes() == kept
        snapshot, appended = target.read_text(encoding="utf-8").splitlines()
        assert json.loads(snapshot)["version"] == CHECKPOINT_VERSION
        assert "version" not in json.loads(appended)
        assert ProofTree.load(target).to_dict() == tree.to_dict()

    def test_to_dict_result_is_not_the_tree(self):
        tree = sketch_tree()
        tree.record_reply(tree.root, "decomposer", "sketch please", lean_block(INDUCTION_SKETCH))
        tree.record_verdict(tree.root, FAIL)
        history = json.loads(json.dumps(tree.root_node().history))
        data = tree.to_dict()
        record = data["nodes"][tree.root]
        record["history"][0]["prompt"] = "edited"
        record["history"][-1]["verdict"]["passed"] = True
        record["history"].append({"role": "prover"})
        assert tree.root_node().history == history

    def test_kept_to_dict_result_does_not_follow_the_tree(self):
        tree = sketch_tree()
        tree.record_reply(tree.root, "decomposer", "sketch please", lean_block(INDUCTION_SKETCH))
        tree.record_verdict(tree.root, FAIL)
        kept = tree.to_dict()
        expected = json.loads(json.dumps(kept))
        tree.record_attempt(tree.root, "decomposer", "again", "there", failed=False)
        tree.root_node().history[-2]["verdict"]["passed"] = True
        assert kept == expected

    def test_every_node_field_is_persisted_and_restored(self, tmp_path):
        """Each ProofNode field but ``history`` (which the journal writes
        as tails) and what folds from it survives to_dict/from_dict and a
        journal append."""
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        node = tree.node(tree.root_node().children[0])
        grandchild = tree.add_child(node.id, make_subgoal("tiny"))
        values = {
            "informal_statement": "informal",
            "formal": LeanSource(preamble="import Foo", body="theorem x : True := by\n  sorry"),
            "name": "renamed",
        }
        for field in dataclasses.fields(ProofNode):
            if field.name in values:
                setattr(node, field.name, values[field.name])
            if field.name in ("history", *FOLDED):
                continue
            default = (
                field.default_factory() if callable(field.default_factory) else field.default
            )
            assert getattr(node, field.name) != default, field.name
        assert node.children == [grandchild] and node.parent and node.depth
        assert ProofTree.from_dict(tree.to_dict(), tree.limits).node(node.id) == node
        tree.save(path)
        tree.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert ProofTree.load(path).node(node.id) == node

    @pytest.mark.parametrize("field", PERSISTED)
    def test_a_change_to_any_one_field_is_appended(self, tmp_path, field):
        """A save appends a node whose only change is one field, so the
        comparison with the record that the last save wrote covers every
        field."""
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        node = tree.node(tree.root_node().children[0])
        changed = {
            "parent": "n9999",
            "depth": 7,
            "informal_statement": "informal",
            "formal": LeanSource(preamble="import Foo", body="theorem x : True := by\n  sorry"),
            "name": "renamed",
            "children": ["n9998"],
        }[field]
        setattr(node, field, changed)
        tree.save(path)
        tree.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert getattr(ProofTree.load(path).node(node.id), field) == getattr(node, field)

    @pytest.mark.parametrize("field", [*PERSISTED, "history"])
    def test_a_node_record_without_a_field_is_malformed(self, field):
        """Every field of a node record is read as required; the record's
        key names the node."""
        data = sketch_tree().to_dict()
        del data["nodes"][data["root"]][field]
        with pytest.raises(ValueError, match="malformed checkpoint"):
            ProofTree.from_dict(data, LIMITS)

    def test_a_passed_sketch_without_children_is_malformed(self):
        """A sketch that passed with goals left gets its children as its
        check lands, so a node that awaits children but has none is not
        a state any run saves: it is rejected, not left stuck."""
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        sketch = lean_block("theorem t : True := by\n  have g : True := by\n    sorry\n  exact g")
        tree.record_reply(tree.root, "decomposer", "p", sketch)
        tree.record_verdict(tree.root, VerificationResult(passed=True, complete=False))
        assert tree.root_node().status is NodeStatus.AWAITING_CHILDREN
        with pytest.raises(ValueError, match=f"node {tree.root} awaits children but has none"):
            ProofTree.from_dict(tree.to_dict(), LIMITS)
        with pytest.raises(AssertionError, match="awaits children but has none"):
            tree.validate()
        tree.add_child(tree.root, make_subgoal("g"))
        tree.validate()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 99, None, "missing"])
    def test_version_guard(self, tmp_path, version):
        """Only CHECKPOINT_VERSION is read, as a record or as a file; the
        error names any other version. A version-1 file is one indented
        object, which is not a checkpoint's first line; a later one is a
        journal whose snapshot line holds the version."""

        def stamped(data):
            data.pop("version")
            return data if version == "missing" else {**data, "version": version}

        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        tree.root_node().name = "appended"
        tree.save(path)
        tree.close()
        if version == 1:
            path.write_text(json.dumps(stamped(tree.to_dict()), indent=2), encoding="utf-8")
        else:
            snapshot, journal = path.read_text(encoding="utf-8").splitlines(keepends=True)
            snapshot = json.dumps(stamped(json.loads(snapshot)))
            path.write_text(snapshot + "\n" + journal, encoding="utf-8")
        named = None if version == "missing" else version
        message = re.escape(
            f"checkpoint version {named!r} is not supported: "
            f"this build reads only version {CHECKPOINT_VERSION}; start a new run"
        )
        with pytest.raises(ValueError, match=message):
            ProofTree.from_dict(stamped(tree.to_dict()), LIMITS)
        if version == 1:
            message = "checkpoint line 1 is not valid JSON"
        with pytest.raises(ValueError, match=message):
            ProofTree.load(path)

    def test_an_indented_record_of_this_version_is_not_a_checkpoint(self, tmp_path):
        """A checkpoint is JSON lines: a record of this version indented
        over several lines is rejected on its first line."""
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(sketch_tree().to_dict(), indent=2), encoding="utf-8")
        with pytest.raises(ValueError, match="checkpoint line 1 is not valid JSON"):
            ProofTree.load(path)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_a_history_tail_that_does_not_start_at_the_end_is_malformed(self, tmp_path, shift):
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", failed=True)
        tree.save(path)
        tree.close()
        snapshot, line = path.read_text(encoding="utf-8").splitlines(keepends=True)
        change = json.loads(line)
        start, appended = change["nodes"][tree.root]["history"]
        change["nodes"][tree.root]["history"] = [start + shift, appended]
        path.write_text(snapshot + json.dumps(change) + "\n", encoding="utf-8")
        message = re.escape(f"history of {tree.root} resumes at {start + shift}, not its end")
        with pytest.raises(ValueError, match=f"checkpoint line 2 is malformed: .*{message}"):
            ProofTree.load(path)


@st.composite
def operation_sequences(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "prune", "fail_prover"]), st.integers(0, 7)),
            max_size=12,
        )
    )


class TestInvariantsUnderMutation:
    @settings(max_examples=60, deadline=None)
    @given(operation_sequences())
    def test_validator_holds_after_every_operation(self, ops):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        counter = 0
        for op, pick in ops:
            node_ids = sorted(tree.nodes)
            target = node_ids[pick % len(node_ids)]
            if op == "add":
                counter += 1
                record_verified(tree, target, "decomposer", "theorem s : True := by\n  sorry")
                tree.add_child(target, make_subgoal(f"g{counter}"))
            elif op == "prune":
                budget_left = (
                    tree.node(target).counters.decompositions_used
                    < LIMITS.decomposer_self_correction
                )
                if budget_left:
                    tree.prune_subtree(target)
                else:
                    with pytest.raises(LeandecompError):
                        tree.prune_subtree(target)
            else:
                # the prover works only on nodes without children
                passes = tree.passes(target)
                if (
                    not tree.node(target).children
                    and passes.ended < LIMITS.prover_max_pass - 1
                ):
                    pass_ = min(passes.open, default=passes.next)
                    tree.record_attempt(target, "prover", "p", "r", failed=True, pass_=pass_)
            tree.validate()
