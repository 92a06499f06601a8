import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leandecomp.ast_model import Subgoal, extract_subgoals, parse_ast
from leandecomp.config import Limits
from leandecomp.errors import IncompleteSubtree, LeandecompError, UnknownNode
from leandecomp.lean_source import LeanSource
from leandecomp.orchestrator import Action, ActionKind, Orchestrator
from leandecomp.proof_state import CHECKPOINT_VERSION, Counters, NodeStatus, ProofNode, ProofTree
from leandecomp.services import VerificationResult
from tests.drivers import dispatch_now, record_verified
from tests.fakes import RuleVerifier, count_sorries, lean_block, make_backends
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
        with pytest.raises(UnknownNode):
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
        tree = sketch_tree()
        tree.record_attempt(tree.root, "decomposer", "p", "r", failed=True)
        tree.record_attempt(
            tree.root, "decomposer", "(ast-export)", "the sketch could not be analyzed", failed=True
        )
        root = tree.root_node()
        assert root.counters.sketch_corrections_used == 2
        assert [entry["prompt"] for entry in root.history[-2:]] == ["p", "(ast-export)"]
        assert tree.conversation(tree.root, "decomposer")[-2:] == [("user", "p"), ("assistant", "r")]

    def test_unknown_node(self):
        tree = sketch_tree()
        with pytest.raises(UnknownNode):
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
        limits = Limits(prover_max_pass=2)
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
        clone = ProofTree.from_dict(tree.to_dict())
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
            # a pass that failed more rounds than its budget
            ("AwaitingProof", [prover_round(1, failed=True)] * 3),
            # more passes than the budget
            ("AwaitingProof", [prover_round(p, failed=True) for p in range(1, 34)]),
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
        with pytest.raises(IncompleteSubtree):
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


class TestCheckpoint:
    def test_round_trip_preserves_everything(self):
        tree = proven_sketch_tree()
        tree.record_attempt(
            tree.root, "decomposer", "sketch please", lean_block(INDUCTION_SKETCH), failed=False
        )
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
        data["limits"]["max_depth"] = 0
        assert tree.root_node().history == history
        assert tree.limits == LIMITS

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
        as tails) survives to_dict/from_dict and a journal append."""
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        node = tree.node(tree.root_node().children[0])
        grandchild = tree.add_child(node.id, make_subgoal("tiny"))
        values = {
            "status": NodeStatus.PROVEN,
            "informal_statement": "informal",
            "formal": LeanSource(preamble="import Foo", body="theorem x : True := by\n  sorry"),
            "name": "renamed",
            "counters": Counters(1, 1, 1),
            "hints": [("Nat.foo", "theorem Nat.foo : True")],
            "last_failure": "failure",
        }
        for field in dataclasses.fields(ProofNode):
            if field.name in values:
                setattr(node, field.name, values[field.name])
            if field.name == "history":
                continue
            default = (
                field.default_factory() if callable(field.default_factory) else field.default
            )
            assert getattr(node, field.name) != default, field.name
        assert node.children == [grandchild] and node.parent and node.depth
        assert ProofTree.from_dict(tree.to_dict()).node(node.id) == node
        tree.save(path)
        tree.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert ProofTree.load(path).node(node.id) == node

    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(ProofNode) if f.name not in ("id", "history")],
    )
    def test_a_change_to_any_one_field_is_appended(self, tmp_path, field):
        """A save appends a node whose only change is one field, so the
        cheap comparison that lets a save skip unchanged nodes covers
        every field."""
        tree = sketch_tree()
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        node = tree.node(tree.root_node().children[0])
        changed = {
            "parent": "n9999",
            "depth": 7,
            "status": NodeStatus.PROVEN,
            "informal_statement": "informal",
            "formal": LeanSource(preamble="import Foo", body="theorem x : True := by\n  sorry"),
            "name": "renamed",
            "children": ["n9998"],
            "counters": Counters(0, 0, 1),
            "hints": [("Nat.foo", "theorem Nat.foo : True")],
            "last_failure": "failure",
        }[field]
        setattr(node, field, changed)
        tree.save(path)
        tree.close()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert getattr(ProofTree.load(path).node(node.id), field) == getattr(node, field)

    def test_version_3_formalization_awaiting_its_syntax_check(self):
        """The ``pending_*`` reply of a version-3 node becomes the round
        awaiting its check, and the check verifies the statement the
        version-3 ``candidate_formalization`` held."""
        statement = "theorem t : True := by\n  sorry"
        reply = lean_block("import Mathlib\n\n" + statement)
        tree = ProofTree.from_informal("prove something", LIMITS)
        data = tree.to_dict()
        data["version"] = 3
        data["nodes"][tree.root].update(
            status="AwaitingSyntaxCheck",
            name="t",
            proof_attempt=None,
            candidate_formalization=CANONICAL_PREAMBLE + "\n\n" + statement,
            candidate_sketch=None,
            pending_prompt="formalize",
            pending_response=reply,
        )
        migrated = ProofTree.from_dict(data)
        migrated.validate()
        round_ = {"role": "formalizer", "prompt": "formalize", "response": reply}
        assert migrated.root_node().history == [round_]
        assert migrated.unjudged_round(migrated.root) == round_
        assert not any("pending" in key for key in migrated.to_dict()["nodes"][migrated.root])
        verifier = RuleVerifier()
        dispatch_now(
            Orchestrator(migrated, make_backends(), verifier),
            Action(ActionKind.SYNTAX_CHECK, migrated.root),
        )
        assert verifier.checked == [CANONICAL_PREAMBLE + "\n\n" + statement]
        assert migrated.root_node().status is NodeStatus.AWAITING_SEMANTIC_CHECK
        migrated.validate()

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
