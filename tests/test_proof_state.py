import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leandecomp.ast_model import Subgoal, extract_subgoals, parse_ast
from leandecomp.config import Limits
from leandecomp.errors import IncompleteSubtree, LeandecompError, UnknownNode
from leandecomp.proof_state import CHECKPOINT_VERSION, NodeStatus, ProofTree
from leandecomp.services import VerificationResult
from tests.fakes import count_sorries
from tests.sample_proofs import (
    CANONICAL_PREAMBLE,
    EVEN_SUM_PROOF,
    INDUCTION_SKETCH,
    INFINITUDE_SKETCH,
    INFINITUDE_SUBGOAL_NAMES,
)
from tests.test_ast_model import load_payload

LIMITS = Limits()

PASS = VerificationResult(passed=True, complete=True)
FAIL = VerificationResult(passed=False, complete=False)


def make_subgoal(name, goal_type="True"):
    return Subgoal(
        name=name,
        goal_type=goal_type,
        context_binders=(),
        standalone_statement=f"theorem {name} : {goal_type} := by\n  sorry",
    )


def sketch_tree():
    """Root with the induction sketch adopted and three subgoal children."""
    tree = ProofTree.from_formal(INDUCTION_SKETCH, LIMITS)
    root = tree.root_node()
    root.sketch = INDUCTION_SKETCH
    root.status = NodeStatus.AWAITING_CHILDREN
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
        tree.root_node().sketch = INFINITUDE_SKETCH
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
        with pytest.raises(UnknownNode):
            tree.add_child("n9999", make_subgoal("g"))


class TestRecordAttempt:
    def test_prover_failure_consumes_self_correction(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "prover", "p1", "r1", FAIL)
        root = tree.root_node()
        assert root.counters.self_correction_in_pass == 1
        assert root.counters.passes_used == 0
        assert tree.conversation(tree.root, "prover") == [("user", "p1"), ("assistant", "r1")]

    def test_pass_rollover_resets_conversation(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "prover", "p1", "r1", FAIL)
        tree.record_attempt(tree.root, "prover", "p2", "r2", FAIL)
        root = tree.root_node()
        assert root.counters.passes_used == 1
        assert root.counters.self_correction_in_pass == 0
        assert tree.conversation(tree.root, "prover") == []
        # provenance history is never cleared
        assert [h["prompt"] for h in root.history] == ["p1", "p2"]

    def test_success_changes_no_counters(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "prover", "p", "r", PASS)
        counters = tree.root_node().counters
        assert counters.self_correction_in_pass == 0 and counters.passes_used == 0

    def test_formalizer_and_semantics_failures_share_budget(self):
        tree = ProofTree.from_informal("prove something", LIMITS)
        tree.record_attempt(tree.root, "formalizer", "p", "r", failed=True)
        tree.record_attempt(tree.root, "semantics", "p", "r", failed=True)
        assert tree.root_node().counters.formalize_retries == 2

    def test_decomposer_failure_consumes_sketch_correction(self):
        tree = ProofTree.from_formal("theorem t : True := by sorry", LIMITS)
        tree.record_attempt(tree.root, "decomposer", "p", "r", FAIL)
        assert tree.root_node().counters.sketch_corrections_used == 1

    def test_sketch_note_is_history_only(self):
        tree = sketch_tree()
        tree.record_attempt(tree.root, "decomposer", "p", "r", FAIL)
        tree.note_sketch_defect(tree.root, "ast-export", "the sketch could not be analyzed")
        root = tree.root_node()
        assert root.counters.sketch_corrections_used == 2
        assert [entry["prompt"] for entry in root.history] == ["p", "(ast-export)"]
        assert tree.conversation(tree.root, "decomposer") == [("user", "p"), ("assistant", "r")]

    def test_unknown_node(self):
        tree = sketch_tree()
        with pytest.raises(UnknownNode):
            tree.record_attempt("nope", "prover", "p", "r", FAIL)


def chain_tree(depth):
    """Linear chain root -> ... -> leaf with sketches on internal nodes."""
    tree = ProofTree.from_formal("theorem t0 : True := by sorry", LIMITS)
    current = tree.root
    for level in range(1, depth + 1):
        tree.node(current).sketch = f"theorem t{level - 1} : True := by\n  sorry"
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
        assert root.sketch is None
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
        tree.record_attempt(tree.root, "decomposer", "p", "r", FAIL)
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


def proven_sketch_tree():
    tree = sketch_tree()
    proofs = {
        "base_case": BASE_CASE_PROOF,
        "inductive_step": INDUCTIVE_STEP_PROOF,
        "final_proof": FINAL_PROOF_PROOF,
    }
    for child_id in tree.root_node().children:
        child = tree.node(child_id)
        child.proof_attempt = proofs[child.name]
        child.status = NodeStatus.PROVEN
    tree.root_node().status = NodeStatus.PROVEN
    return tree


class TestReconstruct:
    def test_single_proven_leaf_verbatim(self):
        tree = ProofTree.from_formal(EVEN_SUM_PROOF, LIMITS)
        root = tree.root_node()
        root.proof_attempt = EVEN_SUM_PROOF
        root.status = NodeStatus.PROVEN
        assert tree.reconstruct(tree.root) == EVEN_SUM_PROOF

    def test_spliced_golden(self):
        tree = proven_sketch_tree()
        merged = tree.reconstruct(tree.root)
        assert merged == SPLICED_GOLDEN
        assert count_sorries(merged) == 0

    def test_unproven_child_raises(self):
        tree = proven_sketch_tree()
        tree.node(tree.root_node().children[1]).status = NodeStatus.AWAITING_PROOF
        with pytest.raises(IncompleteSubtree):
            tree.reconstruct(tree.root)

    def test_term_mode_child_wrapped_as_exact(self):
        tree = proven_sketch_tree()
        child = tree.node(tree.root_node().children[0])
        child.proof_attempt = "theorem base_case : 4 ^ 2 ≤ 4 ! := proof_term"
        merged = tree.reconstruct(tree.root)
        assert "have base_case : 4 ^ 2 ≤ 4 ! := by\n    exact (proof_term)" in merged

    def test_grandchild_recursion(self):
        tree = proven_sketch_tree()
        middle = tree.node(tree.root_node().children[0])
        middle.sketch = (
            "theorem base_case : 4 ^ 2 ≤ 4 ! := by\n"
            "  have tiny : (4 : ℕ) ! = 24 := by\n"
            "    sorry\n"
            "  norm_num [tiny]"
        )
        grandchild_id = tree.add_child(middle.id, make_subgoal("tiny", "(4 : ℕ) ! = 24"))
        grandchild = tree.node(grandchild_id)
        grandchild.proof_attempt = "theorem tiny : (4 : ℕ) ! = 24 := by\n  decide"
        grandchild.status = NodeStatus.PROVEN
        merged = tree.reconstruct(tree.root)
        assert "have tiny : (4 : ℕ) ! = 24 := by\n      decide" in merged
        assert count_sorries(merged) == 0


class TestCheckpoint:
    def test_round_trip_preserves_everything(self):
        tree = proven_sketch_tree()
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", PASS)
        clone = ProofTree.from_dict(tree.to_dict())
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

    def test_failed_append_makes_next_save_a_snapshot(self, tmp_path):
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        path.unlink()
        path.mkdir()  # the next append cannot open the file
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", PASS)
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
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", FAIL)
        tree.save(first)
        kept = first.read_bytes()
        tree.save(second)
        tree.record_attempt(tree.root, "decomposer", "again", "there", PASS)
        tree.save(second)
        tree.close()
        assert first.read_bytes() == kept
        assert len(second.read_text(encoding="utf-8").splitlines()) == 2
        assert ProofTree.load(second).to_dict() == tree.to_dict()

    def test_to_dict_result_is_not_the_tree(self):
        tree = sketch_tree()
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", FAIL)
        history = json.loads(json.dumps(tree.root_node().history))
        data = tree.to_dict()
        record = data["nodes"][tree.root]
        record["history"][0]["prompt"] = "edited"
        record["history"][0]["verdict"]["passed"] = True
        record["history"].append({"role": "prover"})
        data["limits"]["max_depth"] = 0
        assert tree.root_node().history == history
        assert tree.limits == LIMITS

    def test_kept_to_dict_result_does_not_follow_the_tree(self):
        tree = sketch_tree()
        tree.record_attempt(tree.root, "decomposer", "sketch please", "here", FAIL)
        kept = tree.to_dict()
        expected = json.loads(json.dumps(kept))
        tree.record_attempt(tree.root, "decomposer", "again", "there", PASS)
        tree.root_node().history[0]["verdict"]["passed"] = True
        assert kept == expected

    def test_version_guard(self):
        tree = sketch_tree()
        data = tree.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError):
            ProofTree.from_dict(data)


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
                tree.node(target).sketch = "theorem s : True := by\n  sorry"
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
                if (
                    tree.node(target).counters.passes_used
                    < LIMITS.prover_max_pass - 1
                ):
                    tree.record_attempt(target, "prover", "p", "r", FAIL)
            tree.validate()
