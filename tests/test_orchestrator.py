"""Scheduler and coordinator behavior, driven entirely by in-process fakes."""

import json
import random
import re
import sys
import threading
import time
from collections import Counter
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leandecomp.orchestrator as orchestrator_module
import leandecomp.proof_state as proof_state_module
from leandecomp.agents import generate_theorem_name, parse_judgement, parse_search_queries
from leandecomp.ast_model import Subgoal, parse_ast
from leandecomp.config import Limits
from leandecomp.errors import BadReply, ServiceError
from leandecomp.lean_source import extract_code_block
from leandecomp.orchestrator import (
    Action,
    ActionKind,
    Orchestrator,
    Outcome,
    next_action,
)
from leandecomp.proof_state import NodeStatus, ProofTree
from leandecomp.services import TheoremHit

from .ast_builder import build_sketch_payload
from .drivers import (
    FormalizationExhausted,
    dispatch_now,
    ProveOutcome,
    handle_depth_overflow,
    latest_decl,
    record_verified,
    run_decomposition,
    run_formalization,
    run_prover_pass,
)
from .fakes import (
    FAIL_MARKER,
    BuilderAst,
    RuleVerifier,
    ScriptedChat,
    ScriptedSearch,
    count_sorries,
    lean_block,
    make_backends,
    packaged_limits,
)
from .sample_proofs import CANONICAL_PREAMBLE, INFINITUDE_SKETCH, INFINITUDE_SUBGOAL_NAMES

FIXTURES = Path(__file__).parent / "fixtures"

TRUE_THEOREM = "theorem tst : True := by\n  sorry"
TRUE_PROOF = "theorem tst : True := by\n  trivial"
FAILING_PROOF = f"theorem tst : True := by\n  {FAIL_MARKER}"

INFINITUDE_STATEMENT = (
    "theorem infinitude_of_primes : ∀ n : Nat, ∃ p, p > n ∧ Prime p := by\n  sorry"
)

QUERY_RESPONSE = (
    "Let me think about useful lemmas.\n"
    "<search>prime divisor of factorial plus one</search>\n"
    "<search>product of primes in a finite range</search>\n"
    "<search>existence of a prime greater than n</search>\n"
)

#: A chat server's answer to a request it refused for the request itself.
REFUSAL = "POST http://h/v1/chat/completions returned HTTP 400: context length exceeded"

INFORMAL = "The sum of two even numbers is even."
INFORMAL_NAME = generate_theorem_name(INFORMAL)
GOOD_STATEMENT = (
    f"theorem {INFORMAL_NAME} : ∀ m n : ℕ, Even m → Even n → Even (m + n) := by\n  sorry"
)
GOOD_FORMALIZATION = lean_block(CANONICAL_PREAMBLE + "\n\n" + GOOD_STATEMENT)
APPROPRIATE = "Thought: the formalization matches the statement.\nJudgement: Appropriate"
INAPPROPRIATE = "Thought: the quantifiers are wrong.\nJudgement: Inappropriate"


#: A sketch whose second sorry is neither a tactic nor a term, so no
#: proof could be spliced there; the test-side AST export sees only the
#: first, so the sorry count differs from the subgoal count as well.
UNSPLICEABLE_SKETCH = (
    "theorem tst : True := by\n  have s : True := by\n    sorry\n"
    "  have t : True := by\n    exact (sorry)\n  exact s"
)


def formal_tree(statement: str = TRUE_THEOREM, limits: Limits | None = None) -> ProofTree:
    return ProofTree.from_formal(statement, limits or packaged_limits())


def make_subgoal(name: str) -> Subgoal:
    return Subgoal(name=name, standalone_statement=f"theorem {name} : True := by\n  sorry")


def make_orchestrator(tree: ProofTree, **kwargs) -> Orchestrator:
    kwargs.setdefault("backends", make_backends())
    kwargs.setdefault("verifier", RuleVerifier())
    return Orchestrator(tree, **kwargs)


def chain_tree(depth: int, limits: Limits) -> tuple[ProofTree, str]:
    """Root plus a single descendant chain; returns the deepest node id."""
    tree = formal_tree(limits=limits)
    current = tree.root_node()
    for level in range(depth):
        name = f"step{level}"
        record_verified(
            tree,
            current.id,
            "decomposer",
            current.formal.preamble
            + f"\n\ntheorem chain : True := by\n  have {name} : True := by\n    sorry\n"
            + f"  exact {name}",
        )
        child_id = tree.add_child(current.id, make_subgoal(name))
        current.status = NodeStatus.AWAITING_CHILDREN
        current = tree.node(child_id)
    return tree, current.id


def sibling_tree(*names: str) -> tuple[ProofTree, list[str]]:
    """Root decomposed into one child per name; returns the child ids."""
    tree = formal_tree()
    record_verified(tree, tree.root, "decomposer", "theorem tst : True := by\n  sorry")
    children = [tree.add_child(tree.root, make_subgoal(name)) for name in names]
    tree.root_node().status = NodeStatus.AWAITING_CHILDREN
    return tree, children


def fail_a_prover_round(tree: ProofTree, node_id: str) -> None:
    """Open the node's first prover pass and record one failed round in it."""
    tree.open_pass(node_id, 1)
    tree.record_attempt(node_id, "prover", "(prover prompt)", "(reply)", True, 1, "(note)")


def content_keyed_prover() -> ScriptedChat:
    """Prover keyed by the statement inside the prompt, not call order:
    fails the infinitude root, proves anything else by replacing its
    sorry with a closing tactic."""

    def reply(messages):
        fenced = next(
            content for _, content in reversed(messages) if "```lean4" in content
        )
        unit = extract_code_block(fenced)
        if "infinitude_of_primes" in unit:
            return lean_block(unit.replace("sorry", FAIL_MARKER))
        return lean_block(unit.replace("sorry", "aesop"))

    return ScriptedChat(reply)


class AnonymousSorryAst(BuilderAst):
    """Exports a sketch marked ``anonymous`` with its one sorry outside
    any ``have``, as an export of ``exact sorry`` would place it."""

    def fetch_ast(self, code, module_name="User.Code", timeout=300.0):
        if "anonymous" not in code:
            return super().fetch_ast(code, module_name, timeout)
        self.calls += 1
        payload = build_sketch_payload(code)
        tactics = payload["ast"]["args"][1]["args"][3]["args"][1]
        tactics["args"] = [{"kind": "Lean.Parser.Tactic.tacticSorry", "args": [{"val": "sorry"}]}]
        return parse_ast(payload)


class RecordingOrchestrator(Orchestrator):
    """Records every dispatched action plus, for Prove actions, the set
    of depths that still had AwaitingProof nodes at dispatch time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatched: list[Action] = []
        self.prove_depth_snapshots: list[tuple[int, list[int]]] = []

    def dispatch(self, action):
        self.dispatched.append(action)
        if action.kind is ActionKind.PROVE:
            waiting = [
                node.depth
                for node in self.tree.nodes.values()
                if node.status is NodeStatus.AWAITING_PROOF
            ]
            self.prove_depth_snapshots.append(
                (self.tree.node(action.node_id).depth, waiting)
            )
        return super().dispatch(action)


# --------------------------------------------------------------- next_action


class TestNextAction:
    def test_informal_root_formalizes_first(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        action = next_action(tree, open_passes=1)
        assert action.kind is ActionKind.FORMALIZE
        assert action.node_id == tree.root

    def test_prove_beats_sketch_even_at_greater_depth(self):
        tree = formal_tree()
        root = tree.root_node()
        child_id = tree.add_child(root.id, make_subgoal("sub"))
        root.status = NodeStatus.AWAITING_SKETCH
        action = next_action(tree, open_passes=1)
        assert action.kind is ActionKind.PROVE
        assert action.node_id == child_id

    def test_breadth_first_among_prove_candidates(self):
        tree = formal_tree()
        root = tree.root_node()
        record_verified(tree, root.id, "decomposer", "theorem tst : True := by\n  sorry")
        a_id = tree.add_child(root.id, make_subgoal("a"))
        b_id = tree.add_child(root.id, make_subgoal("b"))
        root.status = NodeStatus.AWAITING_CHILDREN
        a = tree.node(a_id)
        record_verified(tree, a_id, "decomposer", "theorem a : True := by\n  sorry")
        deep_id = tree.add_child(a_id, make_subgoal("deep"))
        a.status = NodeStatus.AWAITING_CHILDREN
        # depth-1 b beats depth-2 deep; then insertion order among equals
        action = next_action(tree, open_passes=1)
        assert (action.kind, action.node_id) == (ActionKind.PROVE, b_id)
        tree.node(b_id).status = NodeStatus.PROVEN
        action = next_action(tree, open_passes=1)
        assert (action.kind, action.node_id) == (ActionKind.PROVE, deep_id)

    def test_proven_root_reconstructs(self):
        tree = formal_tree()
        root = tree.root_node()
        root.status = NodeStatus.PROVEN
        record_verified(tree, root.id, "prover", TRUE_PROOF)
        action = next_action(tree, open_passes=1)
        assert action.kind is ActionKind.RECONSTRUCT
        assert action.node_id == root.id

    def test_a_root_out_of_formalization_retries_finishes_with_failure(self):
        """The failure is read from the tree under its limits: with the
        retries spent the root finishes, and under a raised retry budget
        the same root formalizes again."""
        tree = ProofTree.from_informal(INFORMAL, packaged_limits(formalizer_max_retries=3))
        tree.root_node().counters.formalize_retries = 3
        action = next_action(tree, open_passes=1)
        assert action == Action(
            ActionKind.FINISH,
            tree.root,
            Outcome(
                success=False,
                report=f"formalization of node {tree.root} exhausted its 3 retries "
                "without an accepted statement",
            ),
        )
        tree.limits = packaged_limits(formalizer_max_retries=4)
        assert next_action(tree, open_passes=1) == Action(ActionKind.FORMALIZE, tree.root)

    def test_depth_overflow_resolves_to_backtrack(self):
        limits = packaged_limits(max_depth=3)
        tree, deep_id = chain_tree(3, limits)
        tree.node(deep_id).status = NodeStatus.AWAITING_QUERY_GEN
        action = next_action(tree, open_passes=1)
        assert action.kind is ActionKind.BACKTRACK
        grandparent = tree.node(tree.node(tree.node(deep_id).parent).parent)
        assert action.node_id == grandparent.id

    def test_depth_overflow_without_ancestor_finishes(self):
        limits = packaged_limits(max_depth=3)
        tree, deep_id = chain_tree(3, limits)
        deep = tree.node(deep_id)
        deep.status = NodeStatus.AWAITING_QUERY_GEN
        for _, ancestor in tree.ancestors(deep_id):
            ancestor.counters.decompositions_used = limits.decomposer_self_correction
        action = next_action(tree, open_passes=1)
        assert action.kind is ActionKind.FINISH
        assert not action.outcome.success
        assert action.outcome.report == (
            f"node {deep_id} at depth 3 reached the depth limit 3, and "
            "no ancestor has remaining decomposition budget for backtracking"
        )

    def test_waiting_only_tree_finishes_defensively(self):
        tree = formal_tree()
        root = tree.root_node()
        record_verified(tree, root.id, "decomposer", "theorem tst : True := by\n  sorry")
        child_id = tree.add_child(root.id, make_subgoal("done"))
        root.status = NodeStatus.AWAITING_CHILDREN
        tree.node(child_id).status = NodeStatus.PROVEN
        action = next_action(tree, open_passes=1)
        assert action.kind is ActionKind.FINISH
        assert not action.outcome.success

    # The extra prover pass of a node that has failed a round: after every
    # node's regular Prove, ahead of every check and decomposition step.

    def test_a_busy_pass_that_failed_a_round_gets_another_pass(self):
        tree = formal_tree()
        fail_a_prover_round(tree, tree.root)
        busy = frozenset({(tree.root, 1)})
        assert next_action(tree, open_passes=2) == Action(ActionKind.PROVE, tree.root, pass_=1)
        action = next_action(tree, busy=busy, open_passes=2)
        assert action == Action(ActionKind.PROVE, tree.root, pass_=2)

    def test_another_pass_waits_for_every_ready_prove_at_any_depth(self):
        tree, (proving, parent) = sibling_tree("proving", "parent")
        fail_a_prover_round(tree, proving)
        tree.node(parent).status = NodeStatus.AWAITING_CHILDREN
        first, second = (tree.add_child(parent, make_subgoal(name)) for name in ("deep", "deeper"))
        busy = frozenset({(proving, 1)})
        for deep in (first, second):
            assert next_action(tree, busy, open_passes=2) == Action(ActionKind.PROVE, deep, pass_=1)
            busy |= {(deep, 1)}
        assert next_action(tree, busy, open_passes=2) == Action(ActionKind.PROVE, proving, pass_=2)

    def test_another_pass_goes_before_the_checks_of_shallower_nodes(self):
        tree, (verifying, checking, parent) = sibling_tree("verifying", "checking", "parent")
        reply = lean_block("theorem verifying : True := by\n  trivial")
        tree.record_reply(verifying, "prover", "(prover prompt)", reply, 1)
        tree.node(checking).status = NodeStatus.AWAITING_SKETCH_CHECK
        tree.node(parent).status = NodeStatus.AWAITING_CHILDREN
        proving = tree.add_child(parent, make_subgoal("proving"))
        fail_a_prover_round(tree, proving)
        busy = frozenset({(proving, 1)})
        assert next_action(tree, busy, open_passes=2) == Action(ActionKind.PROVE, proving, pass_=2)
        busy |= {(proving, 2)}
        action = next_action(tree, busy, open_passes=2)
        assert action == Action(ActionKind.VERIFY, verifying, pass_=1)
        action = next_action(tree, busy | {(verifying, 1)}, open_passes=2)
        assert action == Action(ActionKind.SKETCH_CHECK, checking)

    def test_another_pass_goes_to_the_shallower_then_the_earlier_node(self):
        tree, (first, second) = sibling_tree("first", "second")
        tree.node(first).status = NodeStatus.AWAITING_CHILDREN
        deep = tree.add_child(first, make_subgoal("deep"))
        shallow = tree.add_child(tree.root, make_subgoal("shallow"))  # created after deep
        for node_id in (second, deep, shallow):
            fail_a_prover_round(tree, node_id)
        busy = frozenset({(second, 1), (deep, 1), (shallow, 1)})
        action = next_action(tree, busy=busy, open_passes=2)
        assert action == Action(ActionKind.PROVE, second, pass_=2)
        tree.node(second).status = NodeStatus.PROVEN
        action = next_action(tree, busy=busy, open_passes=2)
        assert action == Action(ActionKind.PROVE, shallow, pass_=2)

    def test_no_other_pass_with_one_pass_per_node(self):
        tree = formal_tree()
        fail_a_prover_round(tree, tree.root)
        assert next_action(tree, busy=frozenset({(tree.root, 1)}), open_passes=1) is None

    def test_no_other_pass_beyond_the_pass_budget(self):
        tree = formal_tree(limits=packaged_limits(prover_max_pass=2))
        fail_a_prover_round(tree, tree.root)
        tree.open_pass(tree.root, 2)  # its first Prove is in flight
        busy = frozenset({(tree.root, 1), (tree.root, 2)})
        assert next_action(tree, busy=busy, open_passes=3) is None

    def test_no_other_pass_before_a_failed_round(self):
        tree = formal_tree()
        tree.open_pass(tree.root, 1)  # its first Prove is in flight
        assert next_action(tree, busy=frozenset({(tree.root, 1)}), open_passes=2) is None


# ------------------------------------------------------------- formalization


class TestFormalization:
    def test_single_round_success(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        formalizer = ScriptedChat([GOOD_FORMALIZATION])
        semantics = ScriptedChat([APPROPRIATE])
        verifier = RuleVerifier()
        orch = make_orchestrator(
            tree,
            backends=make_backends(formalizer=formalizer, semantics=semantics),
            verifier=verifier,
        )
        run_formalization(orch, tree.root)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_PROOF
        assert root.formal.body == GOOD_STATEMENT
        assert root.formal.preamble == CANONICAL_PREAMBLE
        assert root.name == INFORMAL_NAME
        assert (formalizer.calls, semantics.calls, verifier.calls) == (1, 1, 1)
        prompt = formalizer.transcripts[0][0][1]
        assert INFORMAL in prompt and INFORMAL_NAME in prompt
        check_prompt = semantics.transcripts[0][0][1]
        assert INFORMAL in check_prompt and GOOD_STATEMENT in check_prompt

    def test_syntax_failure_consumes_one_retry(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        bad = lean_block(
            CANONICAL_PREAMBLE + f"\n\ntheorem {INFORMAL_NAME} : {FAIL_MARKER} := by\n  sorry"
        )
        formalizer = ScriptedChat([bad, GOOD_FORMALIZATION])
        semantics = ScriptedChat([APPROPRIATE])
        orch = make_orchestrator(
            tree, backends=make_backends(formalizer=formalizer, semantics=semantics)
        )
        run_formalization(orch, tree.root)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_PROOF
        assert root.counters.formalize_retries == 1
        assert (formalizer.calls, semantics.calls) == (2, 1)

    def test_unfenced_reply_consumes_one_retry(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        formalizer = ScriptedChat(["Here is the theorem, no code though.", GOOD_FORMALIZATION])
        semantics = ScriptedChat([APPROPRIATE])
        orch = make_orchestrator(
            tree, backends=make_backends(formalizer=formalizer, semantics=semantics)
        )
        run_formalization(orch, tree.root)
        assert tree.root_node().counters.formalize_retries == 1
        assert formalizer.calls == 2

    def test_a_refused_request_and_missing_judgement_each_consume_a_retry(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        formalizer = ScriptedChat(lambda messages: GOOD_FORMALIZATION)
        semantics = ScriptedChat([BadReply(REFUSAL), "Looks fine to me.", APPROPRIATE])
        orch = make_orchestrator(
            tree, backends=make_backends(formalizer=formalizer, semantics=semantics)
        )
        run_formalization(orch, tree.root)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_PROOF
        assert root.counters.formalize_retries == 2
        assert (formalizer.calls, semantics.calls) == (3, 3)
        judged = [(e["response"], e["failed"]) for e in root.history if e.get("role") == "semantics"]
        assert judged == [
            (f"(request refused: {REFUSAL})", True),
            ("Looks fine to me.", True),
            (APPROPRIATE, False),
        ]

    def test_semantic_veto_exhausts_after_ten_rounds(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        formalizer = ScriptedChat(lambda messages: GOOD_FORMALIZATION)
        semantics = ScriptedChat(lambda messages: INAPPROPRIATE)
        orch = make_orchestrator(
            tree, backends=make_backends(formalizer=formalizer, semantics=semantics)
        )
        report = f"formalization of node {tree.root} exhausted its 10 retries"
        with pytest.raises(FormalizationExhausted, match=f"^{report} without an accepted statement$"):
            run_formalization(orch, tree.root)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_FORMALIZATION
        assert next_action(tree, open_passes=1).kind is ActionKind.FINISH
        assert (formalizer.calls, semantics.calls) == (10, 10)
        assert root.counters.formalize_retries == 10

    def test_run_surfaces_formalization_failure(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        orch = make_orchestrator(
            tree,
            backends=make_backends(
                formalizer=ScriptedChat(lambda messages: GOOD_FORMALIZATION),
                semantics=ScriptedChat(lambda messages: INAPPROPRIATE),
            ),
        )
        outcome = orch.run()
        assert not outcome.success
        assert "10" in outcome.report and "retries" in outcome.report


# ------------------------------------------------------------- prover loop


class TestProverLoop:
    def test_success_on_first_attempt(self):
        tree = formal_tree()
        prover = ScriptedChat([lean_block(TRUE_PROOF)])
        verifier = RuleVerifier()
        orch = make_orchestrator(tree, backends=make_backends(prover=prover), verifier=verifier)
        assert run_prover_pass(orch, tree.root) is ProveOutcome.PROVEN
        root = tree.root_node()
        assert root.status is NodeStatus.PROVEN
        assert latest_decl(tree, root.id) == TRUE_PROOF
        assert prover.calls == 1
        assert verifier.checked[0].startswith("import Mathlib")
        initial_prompt = prover.transcripts[0][0][1]
        assert initial_prompt.startswith("Complete the following Lean 4 code:")
        assert CANONICAL_PREAMBLE in initial_prompt

    def test_two_failures_roll_into_fresh_pass(self):
        tree = formal_tree()
        prover = ScriptedChat(
            [lean_block(FAILING_PROOF), lean_block(FAILING_PROOF), lean_block(TRUE_PROOF)]
        )
        orch = make_orchestrator(tree, backends=make_backends(prover=prover))
        assert run_prover_pass(orch, tree.root) is ProveOutcome.PROVEN
        root = tree.root_node()
        assert tree.passes(root.id).ended == 1
        assert prover.calls == 3
        correction = prover.transcripts[1][-1][1]
        assert correction.startswith("The proof (Round 1) is not correct.")
        assert FAIL_MARKER in correction and "Errors:" in correction
        # third attempt starts a new pass: fresh single-message conversation
        assert len(prover.transcripts[2]) == 1
        assert prover.transcripts[2][0][1].startswith("Complete the following Lean 4 code:")

    def test_always_failing_prover_spends_sixty_four_calls(self):
        tree = formal_tree(limits=packaged_limits(prover_self_correction=2, prover_max_pass=32))
        prover = ScriptedChat(lambda messages: lean_block(FAILING_PROOF))
        orch = make_orchestrator(tree, backends=make_backends(prover=prover))
        assert run_prover_pass(orch, tree.root) is ProveOutcome.NEEDS_DECOMPOSITION
        assert prover.calls == 64
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_QUERY_GEN
        assert tree.passes(root.id).ended == 32

    def test_small_pass_budget_spends_six_calls(self):
        tree = formal_tree(limits=packaged_limits(prover_self_correction=2, prover_max_pass=3))
        prover = ScriptedChat(lambda messages: lean_block(FAILING_PROOF))
        orch = make_orchestrator(tree, backends=make_backends(prover=prover))
        assert run_prover_pass(orch, tree.root) is ProveOutcome.NEEDS_DECOMPOSITION
        assert prover.calls == 6

    def test_sorry_in_accepted_proof_counts_as_failure(self):
        tree = formal_tree()
        prover = ScriptedChat([lean_block(TRUE_THEOREM), lean_block(TRUE_PROOF)])
        orch = make_orchestrator(tree, backends=make_backends(prover=prover))
        assert run_prover_pass(orch, tree.root) is ProveOutcome.PROVEN
        correction = prover.transcripts[1][-1][1]
        assert "must not contain sorry or admit" in correction

    def test_a_refused_request_is_a_recorded_failure(self):
        tree = formal_tree()
        prover = ScriptedChat([BadReply(REFUSAL), lean_block(TRUE_PROOF)])
        orch = make_orchestrator(tree, backends=make_backends(prover=prover))
        assert run_prover_pass(orch, tree.root) is ProveOutcome.PROVEN
        root = tree.root_node()
        assert root.history[0]["failed"] is True
        assert root.history[0]["response"] == f"(request refused: {REFUSAL})"
        assert prover.calls == 2
        assert prover.transcripts[1][1] == ("assistant", f"(request refused: {REFUSAL})")
        assert "did not contain a fenced Lean code block" in prover.transcripts[1][-1][1]

    def test_a_refusal_never_parses_as_a_reply(self):
        """A refusal that echoes a fenced block, a Judgement line and a
        search tag still stands in as a reply that no role's parser
        accepts."""
        refusal = (
            f"{REFUSAL}\n```lean4\ntheorem x : True := trivial\n```\n"
            "Judgement: Appropriate\n<search>q</search>"
        )
        prover = ScriptedChat([BadReply(refusal)])
        orch = make_orchestrator(formal_tree(), backends=make_backends(prover=prover))
        reply = orch._ask("prover", [("user", "prompt")])
        assert reply.startswith(f"(request refused: {REFUSAL} ```lean4 theorem x")
        for parse in (extract_code_block, parse_judgement, parse_search_queries):
            with pytest.raises(BadReply):
                parse(reply)


# ------------------------------------------------------------ decomposition


class TestDecomposition:
    def decompose(self, tree, decomposer, search_query=None, search=None, ast=None):
        tree.root_node().status = NodeStatus.AWAITING_QUERY_GEN
        orch = make_orchestrator(
            tree,
            backends=make_backends(
                decomposer=decomposer,
                search_query=search_query or ScriptedChat([QUERY_RESPONSE]),
            ),
            ast_client=ast or BuilderAst(),
            search_client=search,
        )
        run_decomposition(orch, tree.root)
        return orch

    def test_infinitude_sketch_yields_five_children_in_order(self):
        tree = formal_tree(INFINITUDE_STATEMENT)
        decomposer = ScriptedChat([lean_block(INFINITUDE_SKETCH)])
        hits = [
            TheoremHit(
                full_name="Nat.exists_infinite_primes",
                statement="theorem Nat.exists_infinite_primes (n : ℕ) : ∃ p, n ≤ p ∧ p.Prime",
                source_package="Mathlib",
                score=9.0,
            )
        ]
        search = ScriptedSearch(hits=hits)
        orch = self.decompose(tree, decomposer, search=search)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_CHILDREN
        names = [tree.node(cid).name for cid in root.children]
        assert names == INFINITUDE_SUBGOAL_NAMES
        for cid in root.children:
            child = tree.node(cid)
            assert child.status is NodeStatus.AWAITING_PROOF
            assert child.depth == 1
            assert child.formal.preamble == CANONICAL_PREAMBLE
            assert child.formal.body.startswith(f"theorem {child.name}")
        assert search.seen_queries == [
            [
                "prime divisor of factorial plus one",
                "product of primes in a finite range",
                "existence of a prime greater than n",
            ]
        ]
        sketch_prompt = decomposer.transcripts[0][-1][1]
        assert "Potentially useful theorems:" in sketch_prompt
        assert "Nat.exists_infinite_primes" in sketch_prompt
        assert "have conclusion" in latest_decl(tree, root.id)
        tree.validate()

    def test_six_bad_sketches_fail_the_run(self):
        tree = formal_tree()
        tree.root_node().status = NodeStatus.AWAITING_QUERY_GEN
        decomposer = ScriptedChat(
            lambda messages: lean_block(
                f"theorem tst : True := by\n  have step : True := by\n    {FAIL_MARKER}\n  exact step"
            )
        )
        orch = make_orchestrator(
            tree,
            backends=make_backends(
                decomposer=decomposer, search_query=ScriptedChat([QUERY_RESPONSE])
            ),
            ast_client=BuilderAst(),
        )
        outcome = orch.run()
        assert not outcome.success
        assert decomposer.calls == 6
        assert outcome.report == (
            f"node {tree.root} at depth 0 spent its sketch-correction budget (6), and "
            "no ancestor has remaining decomposition budget for backtracking"
        )
        assert next_action(tree, open_passes=1) == Action(ActionKind.FINISH, tree.root, outcome)
        for round_num in range(1, 6):
            prompt = decomposer.transcripts[round_num][-1][1]
            assert prompt.startswith(f"The proof sketch (Round {round_num}) is not correct.")

    def test_ast_export_failure_consumes_a_correction(self):
        tree = formal_tree(INFINITUDE_STATEMENT)
        poisoned = INFINITUDE_SKETCH + "\n-- BADAST"
        decomposer = ScriptedChat([lean_block(poisoned), lean_block(INFINITUDE_SKETCH)])
        ast = BuilderAst(fail_for=("BADAST",))
        self.decompose(tree, decomposer, ast=ast)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_CHILDREN
        assert root.counters.sketch_corrections_used == 1
        assert ast.calls == 2
        correction = decomposer.transcripts[1][-1][1]
        assert "could not be analyzed" in correction

    def test_a_refused_request_and_unfenced_reply_each_consume_a_correction(self):
        tree = formal_tree()
        sketch = "theorem tst : True := by\n  have step : True := by\n    sorry\n  exact step"
        decomposer = ScriptedChat(
            [BadReply(REFUSAL), "A sketch without code.", lean_block(sketch)]
        )
        self.decompose(tree, decomposer)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_CHILDREN
        assert root.counters.sketch_corrections_used == 2
        assert decomposer.transcripts[1][-1][1].startswith("The proof sketch (Round 1) is not correct.")
        assert decomposer.transcripts[1][-2] == ("assistant", f"(request refused: {REFUSAL})")
        assert "did not contain a fenced Lean code block" in decomposer.transcripts[1][-1][1]
        assert decomposer.transcripts[2][-1][1].startswith("The proof sketch (Round 2) is not correct.")
        assert "did not contain a fenced Lean code block" in decomposer.transcripts[2][-1][1]

    @pytest.mark.parametrize(
        "defective, note",
        [
            (
                "theorem tst : True := by\n  have lone : True := by\n    sorry\n  exact lone -- anonymous",
                "is not attached to a named have",
            ),
            ("theorem tst : True := by\n  exact sorry", "contains no named subgoals"),
            (UNSPLICEABLE_SKETCH, "the sketch's sorry count, 2, is not its subgoal count, 1"),
        ],
        ids=["sorry-outside-a-have", "no-named-subgoal", "does-not-splice"],
    )
    def test_subgoal_extraction_defect_consumes_a_correction(self, defective, note):
        tree = formal_tree()
        sketch = "theorem tst : True := by\n  have step : True := by\n    sorry\n  exact step"
        decomposer = ScriptedChat([lean_block(defective), lean_block(sketch)])
        self.decompose(tree, decomposer, ast=AnonymousSorryAst())
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_CHILDREN
        assert [tree.node(c).name for c in root.children] == ["step"]
        assert root.counters.sketch_corrections_used == 1
        failed = [e for e in root.history if e.get("failed")]  # the sketch's own verdict
        assert len(failed) == 1 and "prompt" not in failed[0] and note in failed[0]["note"]
        assert failed[0]["verdict"] == {"passed": True, "complete": False}
        correction = decomposer.transcripts[1]
        assert correction[-1][1].startswith("The proof sketch (Round 1) is not correct.")
        assert note in correction[-1][1]
        assert correction[:-1] == decomposer.transcripts[0] + [("assistant", lean_block(defective))]

    def test_a_sketch_repeating_a_have_name_gets_a_child_per_have(self):
        """Splicing is by position, so names need not be distinct: each
        ``have twice`` becomes a child, each child's proof lands at its
        own sorry, and the final unit verifies."""
        tree = formal_tree()
        tree.root_node().status = NodeStatus.AWAITING_QUERY_GEN
        sketch = (
            "theorem tst : True := by\n  have twice : True := by\n    sorry\n"
            "  have twice : True := by\n    sorry\n  exact twice"
        )
        verifier = RuleVerifier()
        outcome = make_orchestrator(
            tree,
            backends=make_backends(
                decomposer=ScriptedChat([lean_block(sketch)]),
                search_query=ScriptedChat([QUERY_RESPONSE]),
                prover=content_keyed_prover(),
            ),
            verifier=verifier,
            ast_client=BuilderAst(),
        ).run()
        assert outcome.success
        root = tree.root_node()
        assert [tree.node(c).name for c in root.children] == ["twice", "twice"]
        assert root.counters.sketch_corrections_used == 0
        assert outcome.proof.endswith(sketch.replace("sorry", "aesop"))
        assert verifier.checked[-1] == outcome.proof

    @pytest.mark.parametrize(
        "replies, asked",
        [
            ([BadReply(REFUSAL), BadReply(REFUSAL)], None),
            (["no tags here", QUERY_RESPONSE], ["prime divisor of factorial plus one",
                                                "product of primes in a finite range",
                                                "existence of a prime greater than n"]),
        ],
        ids=["refused-twice", "queries-of-the-re-ask"],
    )
    def test_gen_queries_searches_with_the_queries_of_its_last_reply(
        self, tmp_path, replies, asked
    ):
        """One GenQueries asks for queries, re-asks once, and searches with
        the queries of the reply that gave them; a refused request is
        re-asked as an unparsable reply is, and two search nothing. The
        hints sit on that reply's entry only, and survive a save and a
        load."""
        tree = formal_tree()
        tree.root_node().status = NodeStatus.AWAITING_QUERY_GEN
        search_query = ScriptedChat(list(replies))
        hit = TheoremHit("Nat.foo", "theorem Nat.foo : True", "Mathlib", 1.0)
        search = ScriptedSearch(hits=[hit])
        orch = make_orchestrator(
            tree, backends=make_backends(search_query=search_query), search_client=search
        )
        dispatch_now(orch, Action(ActionKind.GEN_QUERIES, tree.root))
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_SKETCH
        assert search_query.calls == len(replies)
        assert search.seen_queries == ([] if asked is None else [asked])
        hints = [e.get("hints") for e in root.history]
        assert hints == [None] * (len(replies) - 1) + [
            None if asked is None else [["Nat.foo", "theorem Nat.foo : True"]]
        ]
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        tree.close()
        assert ProofTree.load(path).root_node().history == root.history

    @pytest.mark.parametrize("decompositions", [0, 1], ids=["initial", "backtrack"])
    def test_a_sketch_resumed_after_its_queries_landed_sends_the_same_prompt(
        self, tmp_path, decompositions
    ):
        """The sketch reads its hints from the history: a run whose
        journal is cut once GenQueries has landed resumes to the same
        sketch prompt as the run that went on."""
        tree = formal_tree()
        for _ in range(decompositions):
            tree.prune_subtree(tree.root)
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        hit = TheoremHit("Nat.foo", "theorem Nat.foo : True", "Mathlib", 1.0)
        orch = make_orchestrator(
            tree,
            backends=make_backends(search_query=ScriptedChat([QUERY_RESPONSE])),
            search_client=ScriptedSearch(hits=[hit]),
        )
        dispatch_now(orch, Action(ActionKind.GEN_QUERIES, tree.root))
        tree.save(path)  # the journal line of the landed GenQueries
        tree.close()
        sketch = "theorem tst : True := by\n  have step : True := by\n    sorry\n  exact step"
        transcripts = []
        for tree_ in (tree, ProofTree.load(path)):
            decomposer = ScriptedChat([lean_block(sketch)])
            orch = make_orchestrator(tree_, backends=make_backends(decomposer=decomposer))
            dispatch_now(orch, Action(ActionKind.SKETCH, tree_.root))
            transcripts += decomposer.transcripts
        went_on, resumed = transcripts
        assert resumed == went_on
        assert "- Nat.foo : theorem Nat.foo : True" in went_on[-1][1]

    def test_each_failed_sketch_keeps_its_note_and_the_correction_shows_the_last(self):
        tree = formal_tree()
        sketch = "theorem tst : True := by\n  have step : True := by\n    {}\n  exact step"
        failing, good = lean_block(sketch.format(FAIL_MARKER)), lean_block(sketch.format("sorry"))
        decomposer = ScriptedChat([failing, "A sketch without code.", good])
        self.decompose(tree, decomposer)
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_CHILDREN
        first, second = [entry["note"] for entry in root.history if "note" in entry]
        assert f"unknown identifier '{FAIL_MARKER}'" in first
        assert second == "the completion did not contain a fenced Lean code block"
        correction = decomposer.transcripts[2][-1][1]
        assert correction.startswith("The proof sketch (Round 2) is not correct.")
        assert second in correction and first not in correction

    def test_complete_sketch_is_adopted_as_proof(self):
        tree = formal_tree()
        full_proof = "theorem tst : True := by\n  have done : True := trivial\n  exact done"
        decomposer = ScriptedChat([lean_block(full_proof)])
        self.decompose(tree, decomposer)
        root = tree.root_node()
        assert root.status is NodeStatus.PROVEN
        assert latest_decl(tree, root.id) == full_proof
        assert root.children == []

    def test_query_reask_then_sketch_without_hints(self):
        tree = formal_tree()
        search_query = ScriptedChat(["no tags here", "still no tags"])
        sketch = "theorem tst : True := by\n  have step : True := by\n    sorry\n  exact step"
        decomposer = ScriptedChat([lean_block(sketch)])
        search = ScriptedSearch(hits=[])
        self.decompose(tree, decomposer, search_query=search_query, search=search)
        assert search_query.calls == 2
        assert len(search_query.transcripts[1]) == 3  # re-ask carries the bad reply
        assert search.calls == 0  # no queries -> no lookup
        prompt = decomposer.transcripts[0][-1][1]
        assert "(no potentially useful theorems were found)" in prompt
        assert tree.root_node().status is NodeStatus.AWAITING_CHILDREN


# ------------------------------------------------------------- backtracking


class TestBacktracking:
    def test_depth_overflow_prunes_grandparent(self):
        limits = packaged_limits(max_depth=3)
        tree, deep_id = chain_tree(3, limits)
        tree.node(deep_id).status = NodeStatus.AWAITING_QUERY_GEN
        grandparent_id = tree.node(tree.node(deep_id).parent).parent
        orch = make_orchestrator(tree)
        action = handle_depth_overflow(orch, deep_id)
        assert action == Action(ActionKind.BACKTRACK, grandparent_id)
        assert deep_id not in tree.nodes
        grandparent = tree.node(grandparent_id)
        assert grandparent.status is NodeStatus.AWAITING_QUERY_GEN
        assert grandparent.children == []
        assert grandparent.counters.decompositions_used == 1
        tree.validate()

    def test_depth_overflow_without_ancestor_fails_run(self):
        limits = packaged_limits(max_depth=3)
        tree, deep_id = chain_tree(3, limits)
        tree.node(deep_id).status = NodeStatus.AWAITING_QUERY_GEN
        for _, ancestor in tree.ancestors(deep_id):
            ancestor.counters.decompositions_used = limits.decomposer_self_correction
        orch = make_orchestrator(tree)
        action = handle_depth_overflow(orch, deep_id)
        assert action.kind is ActionKind.FINISH
        assert action.outcome == Outcome(
            success=False,
            report=f"node {deep_id} at depth 3 reached the depth limit 3, and "
            "no ancestor has remaining decomposition budget for backtracking",
        )
        assert next_action(tree, open_passes=1) == action  # the tree stays failed

    def test_backtracked_node_uses_backtrack_prompts(self):
        limits = packaged_limits(max_depth=3)
        tree, deep_id = chain_tree(3, limits)
        tree.node(deep_id).status = NodeStatus.AWAITING_QUERY_GEN
        search_query = ScriptedChat([QUERY_RESPONSE])
        sketch = (
            "theorem step0 : True := by\n  have retry : True := by\n    sorry\n  exact retry"
        )
        decomposer = ScriptedChat([lean_block(sketch)])
        orch = make_orchestrator(
            tree,
            backends=make_backends(decomposer=decomposer, search_query=search_query),
            ast_client=BuilderAst(),
        )
        action = handle_depth_overflow(orch, deep_id)
        target = tree.node(action.node_id)
        run_decomposition(orch, target.id)
        query_prompt = search_query.transcripts[0][-1][1]
        assert "**IMPORTANT**: A previous attempt to prove this theorem failed." in query_prompt
        sketch_prompt = decomposer.transcripts[0][-1][1]
        assert "COMPLETELY DIFFERENT decomposition strategy" in sketch_prompt
        assert "(Round 1)" in sketch_prompt
        assert target.status is NodeStatus.AWAITING_CHILDREN

    def test_exhausted_sketch_budget_backtracks_midrun(self):
        limits = packaged_limits(max_depth=10, decomposer_self_correction=2)
        tree, deep_id = chain_tree(2, limits)
        deep = tree.node(deep_id)
        deep.status = NodeStatus.AWAITING_QUERY_GEN
        bad_sketch = (
            f"theorem step1 : True := by\n  have s : True := by\n    {FAIL_MARKER}\n  exact s"
        )
        decomposer = ScriptedChat(lambda messages: lean_block(bad_sketch))
        orch = make_orchestrator(
            tree,
            backends=make_backends(
                decomposer=decomposer, search_query=ScriptedChat(lambda m: QUERY_RESPONSE)
            ),
            ast_client=BuilderAst(),
        )
        run_decomposition(orch, deep_id)
        # two failed sketches exhaust the budget; the root (distance 2) is pruned
        assert deep_id not in tree.nodes
        root = tree.root_node()
        assert root.status is NodeStatus.AWAITING_QUERY_GEN
        assert root.counters.decompositions_used == 1
        assert decomposer.calls == 2

    def test_a_spent_sketch_budget_logs_its_backtrack_and_names_its_cause(self, tmp_path):
        """Through ``run``: the backtrack that a spent sketch budget
        performs is a line of the run log, the first action after the
        failed check's own line. When the root's budget is spent too,
        the report names that budget."""
        limits = packaged_limits(max_depth=10, decomposer_self_correction=2)
        tree, deep_id = chain_tree(2, limits)
        tree.node(deep_id).status = NodeStatus.AWAITING_QUERY_GEN
        bad_sketch = (
            f"theorem step1 : True := by\n  have s : True := by\n    {FAIL_MARKER}\n  exact s"
        )
        log = tmp_path / "run.jsonl"
        outcome = make_orchestrator(
            tree,
            backends=make_backends(
                decomposer=ScriptedChat(lambda messages: lean_block(bad_sketch)),
                search_query=ScriptedChat(lambda m: QUERY_RESPONSE),
            ),
            ast_client=BuilderAst(),
            run_log_path=log,
        ).run()
        lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        steps = [(line["node"], line["action"], line["outcome"]) for line in lines]
        backtrack = (tree.root, "Backtrack", "AwaitingQueryGen")
        assert steps.count(backtrack) == 1
        at = steps.index(backtrack)
        assert steps[at - 1 : at + 2] == [
            (deep_id, "SketchCheck", "AwaitingSketch"),
            backtrack,
            (tree.root, "GenQueries", "AwaitingSketch"),
        ]
        assert steps[-2:] == [
            (tree.root, "SketchCheck", "AwaitingSketch"),
            (tree.root, "Finish", "failure"),
        ]
        assert not outcome.success
        assert outcome.report == (
            f"node {tree.root} at depth 0 spent its sketch-correction budget (2), and "
            "no ancestor has remaining decomposition budget for backtracking"
        )


# ------------------------------------------------------ failed-round rule

EDGE_LIMITS = packaged_limits(
    formalizer_max_retries=2,
    prover_self_correction=2,
    prover_max_pass=1,
    decomposer_self_correction=2,
    max_depth=10,
)
BAD_FORMALIZATION = lean_block(
    CANONICAL_PREAMBLE + f"\n\ntheorem {INFORMAL_NAME} : {FAIL_MARKER} := by\n  sorry"
)
STEP_SKETCH = "theorem step1 : True := by\n  have s : True := by\n    {}\n  exact s"

#: The first failed round of each phase: a Lean error.
FIRST_FAILURES = {
    "formalization": {"formalizer": BAD_FORMALIZATION},
    "proving": {"prover": lean_block(FAILING_PROOF)},
    "sketching": {"decomposer": lean_block(STEP_SKETCH.format(FAIL_MARKER))},
}

#: Each failure kind of each role, as the replies of the round that spends
#: the last unit of its phase's budget, with the note its entry then holds.
LAST_FAILURES = {
    "formalizer-refused": (
        "formalization",
        {"formalizer": BadReply(REFUSAL)},
        "did not contain a fenced Lean code block",
    ),
    "formalizer-unfenced": (
        "formalization",
        {"formalizer": "No code here."},
        "did not contain a fenced Lean code block",
    ),
    "formalizer-lean-error": ("formalization", {"formalizer": BAD_FORMALIZATION}, None),
    "semantics-refused": (
        "formalization",
        {"formalizer": GOOD_FORMALIZATION, "semantics": BadReply(REFUSAL)},
        None,
    ),
    "semantics-no-judgement": (
        "formalization",
        {"formalizer": GOOD_FORMALIZATION, "semantics": "Looks fine to me."},
        None,
    ),
    "prover-refused": (
        "proving", {"prover": BadReply(REFUSAL)}, "did not contain a fenced Lean code block"
    ),
    "prover-unfenced": (
        "proving", {"prover": "No code here."}, "did not contain a fenced Lean code block"
    ),
    "prover-header-only": (
        "proving",
        {"prover": lean_block("import Mathlib\nopen Nat")},
        "did not contain a fenced Lean code block",
    ),
    "prover-lean-error": (
        "proving", {"prover": lean_block(FAILING_PROOF)}, f"unknown identifier '{FAIL_MARKER}'"
    ),
    "prover-sorry-only": (
        "proving", {"prover": lean_block(TRUE_THEOREM)}, "must not contain sorry or admit"
    ),
    "decomposer-refused": (
        "sketching",
        {"decomposer": BadReply(REFUSAL)},
        "did not contain a fenced Lean code block",
    ),
    "decomposer-unfenced": (
        "sketching", {"decomposer": "No code here."}, "did not contain a fenced Lean code block"
    ),
    "sketch-lean-error": (
        "sketching",
        {"decomposer": lean_block(STEP_SKETCH.format(FAIL_MARKER))},
        f"unknown identifier '{FAIL_MARKER}'",
    ),
    "ast-export-defect": (
        "sketching",
        {"decomposer": lean_block(STEP_SKETCH.format("sorry") + "\n-- BADAST")},
        "the proof sketch could not be analyzed",
    ),
    "extraction-defect": (
        "sketching",
        {"decomposer": lean_block("theorem step1 : True := by\n  exact sorry")},
        "the proof sketch contains no named subgoals",
    ),
    "splice-defect": (
        "sketching",
        {"decomposer": lean_block(UNSPLICEABLE_SKETCH.replace("tst", "step1"))},
        "the proof sketch could not be decomposed: the sketch's sorry count, 2,",
    ),
}


class TestFailedRoundAtTheBudgetEdge:
    @pytest.mark.parametrize("case", list(LAST_FAILURES))
    def test_the_last_unit_of_a_budget_ends_as_a_failed_lean_check_does(self, case):
        """Whatever went wrong, a failed round that spends the last unit
        of its budget fails the run (formalization), moves the node on
        to decomposition (proving) or backtracks (sketching)."""
        phase, last, note = LAST_FAILURES[case]
        first = FIRST_FAILURES[phase]
        scripts = {
            role: [reply for reply in (first.get(role), last.get(role)) if reply is not None]
            for role in {*first, *last}
        }
        backends = {role: ScriptedChat(list(script)) for role, script in scripts.items()}
        backends["search_query"] = ScriptedChat(lambda messages: QUERY_RESPONSE)
        if phase == "formalization":
            tree = ProofTree.from_informal(INFORMAL, EDGE_LIMITS)
            node_id = tree.root
        elif phase == "proving":
            tree = formal_tree(limits=EDGE_LIMITS)
            node_id = tree.root
        else:
            tree, node_id = chain_tree(2, EDGE_LIMITS)
            tree.node(node_id).status = NodeStatus.AWAITING_QUERY_GEN
        node = tree.node(node_id)
        orch = make_orchestrator(
            tree,
            backends=make_backends(**backends),
            ast_client=BuilderAst(fail_for=("BADAST",)),
        )
        if phase == "formalization":
            with pytest.raises(FormalizationExhausted, match="exhausted its 2 retries"):
                run_formalization(orch, node_id)
            assert node.status is NodeStatus.AWAITING_FORMALIZATION
            assert next_action(tree, open_passes=1).kind is ActionKind.FINISH
            assert node.counters.formalize_retries == 2
        elif phase == "proving":
            assert run_prover_pass(orch, node_id) is ProveOutcome.NEEDS_DECOMPOSITION
            assert node.status is NodeStatus.AWAITING_QUERY_GEN
            assert tree.passes(node.id).ended == 1
        else:
            run_decomposition(orch, node_id)
            assert node_id not in tree.nodes  # the root, two levels up, was pruned
            assert node.counters.sketch_corrections_used == 2
            root = tree.root_node()
            assert root.status is NodeStatus.AWAITING_QUERY_GEN
            assert root.counters.decompositions_used == 1
            tree.validate()
        for role, script in scripts.items():
            assert backends[role].calls == len(script), role
        failure = node.history[-1].get("note")  # the failed round's entry keeps its note
        if note is None:
            assert failure is None
        else:
            assert note in failure


# ------------------------------------------------------------- full runs


class TestRun:
    def test_formal_trivial_success(self, tmp_path):
        tree = formal_tree("theorem t : True := by sorry")
        prover = ScriptedChat([lean_block("theorem t : True := by\n  trivial")])
        verifier = RuleVerifier()
        log_path = tmp_path / "run.jsonl"
        checkpoint_path = tmp_path / "checkpoint.json"
        orch = make_orchestrator(
            tree,
            backends=make_backends(prover=prover),
            verifier=verifier,
            run_log_path=log_path,
            checkpoint_path=checkpoint_path,
        )
        outcome = orch.run()
        assert outcome.success
        assert outcome.proof.startswith("import Mathlib")
        assert "trivial" in outcome.proof
        assert count_sorries(outcome.proof) == 0
        assert verifier.calls == 2  # attempt verification plus the final gate
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert all({"ts", "node", "action", "outcome"} <= set(e) for e in entries)
        assert entries[-1]["action"] == "Finish"
        assert entries[-1]["outcome"] == "success"
        restored = ProofTree.load(checkpoint_path)
        assert restored.root_node().status is NodeStatus.PROVEN

    @pytest.mark.parametrize(
        "sketch, spliced",
        [
            (
                "theorem tst : True := by\n  have step0 : True := sorry\n  exact step0",
                "theorem tst : True := by\n  have step0 : True := by trivial\n  exact step0",
            ),
            (
                "theorem tst : True := by\n  have step0 : 1 = 1 ∧ True := by\n"
                "    refine ⟨rfl, ?_⟩\n    sorry\n  exact step0.2",
                "theorem tst : True := by\n  have step0 : 1 = 1 ∧ True := by\n"
                "    refine ⟨rfl, ?_⟩\n    trivial\n  exact step0.2",
            ),
        ],
        ids=["term-mode-sorry", "sorry-after-tactics"],
    )
    def test_a_child_proof_splices_at_its_sorry(self, tmp_path, sketch, spliced):
        tree = formal_tree()
        root = tree.root_node()
        record_verified(tree, root.id, "decomposer", sketch)
        child = tree.node(tree.add_child(root.id, make_subgoal("step0")))
        record_verified(tree, child.id, "prover", "theorem step0 : True := by\n  trivial")
        child.status = root.status = NodeStatus.PROVEN
        verifier = RuleVerifier()
        outcome = make_orchestrator(
            tree, verifier=verifier, checkpoint_path=tmp_path / "checkpoint.json"
        ).run()
        assert outcome.success
        assert outcome.proof == root.formal.preamble + "\n\n" + spliced
        assert verifier.checked == [outcome.proof]  # the final unit, verified once

    def test_informal_statement_end_to_end(self):
        tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        proof = GOOD_STATEMENT.replace("sorry", "exact fun m n hm hn => hm.add hn")
        orch = make_orchestrator(
            tree,
            backends=make_backends(
                formalizer=ScriptedChat([GOOD_FORMALIZATION]),
                semantics=ScriptedChat([APPROPRIATE]),
                prover=ScriptedChat([lean_block(proof)]),
            ),
        )
        outcome = orch.run()
        assert outcome.success
        assert outcome.proof.startswith(CANONICAL_PREAMBLE)
        assert f"theorem {INFORMAL_NAME}" in outcome.proof

    def infinitude_orchestrator(self, tmp_path=None, workers=1, cls=Orchestrator):
        limits = packaged_limits(prover_self_correction=1, prover_max_pass=1)
        tree = formal_tree(INFINITUDE_STATEMENT, limits=limits)
        prover = content_keyed_prover()
        decomposer = ScriptedChat([lean_block(INFINITUDE_SKETCH)])
        search_query = ScriptedChat([QUERY_RESPONSE])
        orch = cls(
            tree,
            backends=make_backends(
                prover=prover, decomposer=decomposer, search_query=search_query
            ),
            verifier=RuleVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=workers,
            run_log_path=None if tmp_path is None else tmp_path / "run.jsonl",
            checkpoint_path=None if tmp_path is None else tmp_path / "checkpoint.json",
        )
        return orch, prover

    def test_infinitude_recursion_end_to_end(self, tmp_path):
        orch, prover = self.infinitude_orchestrator(tmp_path, cls=RecordingOrchestrator)
        outcome = orch.run()
        assert outcome.success
        assert count_sorries(outcome.proof) == 0
        for name in INFINITUDE_SUBGOAL_NAMES:
            assert f"have {name}" in outcome.proof
        assert outcome.proof.count("aesop") == len(INFINITUDE_SUBGOAL_NAMES)
        assert prover.calls == 1 + len(INFINITUDE_SUBGOAL_NAMES)
        # scheduling stayed breadth-first for every Prove dispatch
        for depth, waiting in orch.prove_depth_snapshots:
            assert depth == min(waiting)
        restored = ProofTree.load(tmp_path / "checkpoint.json", orch.tree.limits)
        assert restored.root_node().status is NodeStatus.PROVEN
        assert len(restored.root_node().children) == 5

    def test_parallel_workers_batch_sibling_work(self):
        """Sibling proofs whose Proves one dispatch pass started share a
        verify request: at four workers the first four subgoals go
        together, and the fifth, whose Prove started once a slot freed,
        goes alone."""
        orch, prover = self.infinitude_orchestrator(workers=4)
        outcome = orch.run()
        assert outcome.success
        assert prover.calls == 6
        # the root's proof, its sketch, four siblings, the fifth, the final check
        assert sorted(orch.verifier.batch_sizes) == [1, 1, 1, 1, 4]

    def test_resume_from_checkpoint(self, tmp_path):
        limits = packaged_limits(prover_self_correction=1, prover_max_pass=1)
        tree = formal_tree(INFINITUDE_STATEMENT, limits=limits)
        failing_prover = ScriptedChat(
            [lean_block(INFINITUDE_STATEMENT.replace("sorry", FAIL_MARKER))]
        )
        first = make_orchestrator(tree, backends=make_backends(prover=failing_prover))
        assert run_prover_pass(first, tree.root) is ProveOutcome.NEEDS_DECOMPOSITION
        checkpoint = tmp_path / "checkpoint.json"
        tree.save(checkpoint)

        resumed_tree = ProofTree.load(checkpoint, limits)
        root = resumed_tree.root_node()
        assert root.status is NodeStatus.AWAITING_QUERY_GEN
        assert resumed_tree.passes(root.id).ended == 1
        outcome = self.decomposing_orchestrator(resumed_tree).run()
        assert outcome.success
        assert count_sorries(outcome.proof) == 0

    @staticmethod
    def decomposing_orchestrator(tree):
        """Fakes that decompose the infinitude root and prove its subgoals."""
        return Orchestrator(
            tree,
            backends=make_backends(
                prover=content_keyed_prover(),
                decomposer=ScriptedChat([lean_block(INFINITUDE_SKETCH)]),
                search_query=ScriptedChat([QUERY_RESPONSE]),
            ),
            verifier=RuleVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
        )

    def test_sibling_order_independence(self):
        """Proving siblings in any serial order produces the same final
        statuses, because the scripted prover keys on content."""
        final_statuses = []
        for order in (list(range(5)), list(reversed(range(5)))):
            orch, _ = self.infinitude_orchestrator()
            tree = orch.tree
            tree.root_node().status = NodeStatus.AWAITING_QUERY_GEN
            run_decomposition(orch, tree.root)
            children = list(tree.root_node().children)
            for index in order:
                assert run_prover_pass(orch, children[index]) is ProveOutcome.PROVEN
            final_statuses.append(
                {tree.node(cid).name: tree.node(cid).status for cid in children}
            )
        assert final_statuses[0] == final_statuses[1]


# -------------------------------------------------------- checkpoint journal

#: Two prover passes of two rounds, so that a failing node's prover
#: conversation is replaced once a pass is spent; two decompositions per
#: node; subgoals of subgoals at the depth limit, so that a hard
#: grandchild backtracks to the root and prunes its subtree.
JOURNAL_LIMITS = packaged_limits(
    prover_self_correction=2, prover_max_pass=2, decomposer_self_correction=2, max_depth=2
)

#: Subgoal names the scripted prover may be told to fail on, besides the
#: root ``tst``, which it always fails on. A sketch of ``x`` has subgoals
#: ``x_a`` and ``x_b``, or ``x_c`` and ``x_d`` (``x_e`` and ``x_f``) after
#: one (two) backtracks to ``x``.
HARD_SUBGOALS = ["tst_a", "tst_b", "tst_a_a", "tst_b_b", "tst_c", "tst_c_a", "tst_d",
                 "tst_e", "tst_e_a"]

#: Every name a subgoal of the journal scenario can have.
EVERY_SUBGOAL = frozenset(
    [f"tst_{x}" for x in "abcdef"] + [f"tst_{x}_{y}" for x in "abcdef" for y in "abcdef"]
)


def journal_sketch(messages):
    """The journal scenario's decomposer reply, keyed on content."""
    text = "\n".join(content for _, content in messages)
    name = re.search(r"theorem (tst\w*)", text).group(1)
    first, second = ("ab", "cd", "ef")[text.count("COMPLETELY DIFFERENT")]
    return lean_block(
        f"theorem {name} : True := by\n"
        f"  have {name}_{first} : True := by\n    sorry\n"
        f"  have {name}_{second} : True := by\n    sorry\n"
        f"  exact {name}_{first}"
    )


def journal_backends(hard: frozenset[str]):
    """Stateless scripted chat keyed on content, so that a resumed run
    gets the same replies as the uninterrupted one."""

    def prove(messages):
        unit = extract_code_block(messages[0][1])  # each pass opens with the statement
        name = re.search(r"theorem (\w+)", unit).group(1)
        return lean_block(unit.replace("sorry", FAIL_MARKER if name in hard else "trivial"))

    return make_backends(
        prover=ScriptedChat(prove),
        decomposer=ScriptedChat(journal_sketch),
        search_query=ScriptedChat(lambda messages: QUERY_RESPONSE),
    )


#: The statuses in which a node's Lean unit is read: for its Lean check
#: (with its AST export, for a sketch) or the reconstruction.
UNIT_STATUSES = frozenset(
    {
        NodeStatus.AWAITING_SYNTAX_CHECK,
        NodeStatus.AWAITING_VERIFICATION,
        NodeStatus.AWAITING_SKETCH_CHECK,
        NodeStatus.PROVEN,
    }
)


def lean_units(tree: ProofTree) -> dict:
    """The unit of every node in one of ``UNIT_STATUSES``, and of each
    prover round awaiting its check."""
    units = {
        node.id: tree.unit(node.id)
        for node in tree.nodes.values()
        if node.status in UNIT_STATUSES
    }
    for node in tree.nodes.values():
        for pass_ in tree.passes(node.id).unjudged:
            units[node.id, pass_] = tree.unit(node.id, pass_)
    return units


class JournalCheckingOrchestrator(Orchestrator):
    """Checks the checkpoint journal after every save, and keeps two
    copies of the file, with the tree state and the Lean units from
    before that save: one cut at a drawn byte inside the line it
    appended, and one cut at the start of that line."""

    def __init__(self, *args, draw_cut, **kwargs):
        super().__init__(*args, **kwargs)
        self.draw_cut = draw_cut
        self.cuts: list[tuple[bytes, dict, dict]] = []
        self.saved_state: dict | None = None
        self.saved_units: dict = {}
        self.saved_size = 0

    def _persist(self):
        super()._persist()
        self.tree.validate()
        state = self.tree.to_dict()
        assert ProofTree.load(self.checkpoint_path).to_dict() == state
        data = self.checkpoint_path.read_bytes()
        if self.saved_state is not None and len(data) > self.saved_size:
            # up to the last line's final byte before its newline
            cut = self.draw_cut(self.saved_size, len(data) - 2)
            for end in (cut, self.saved_size):
                self.cuts.append((data[:end], self.saved_state, self.saved_units))
        self.saved_state, self.saved_size = state, len(data)
        self.saved_units = lean_units(self.tree)


class TestCheckpointJournal:
    @settings(max_examples=10, deadline=None)
    @given(
        hard=st.frozensets(st.sampled_from(HARD_SUBGOALS)),
        workers=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_every_cut_reloads_and_resumes_to_the_same_outcome(
        self, tmp_path_factory, hard, workers, data
    ):
        self.resume_every_cut(
            tmp_path_factory.mktemp("journal"),
            hard,
            workers,
            lambda low, high: data.draw(st.integers(low, high)),
        )

    def test_cuts_with_two_passes_open_resume_to_the_same_outcome(self, tmp_path):
        """At two workers the root, which fails every round, proves in
        two passes at once; a cut while both are open resumes too."""
        rng = random.Random(17)
        _, cuts = self.resume_every_cut(tmp_path, frozenset({"tst_a"}), 2, rng.randint)
        assert any(
            len(ProofTree.from_dict(state, JOURNAL_LIMITS).passes(state["root"]).open) == 2
            for _, state, _ in cuts
        )

    @pytest.mark.parametrize(
        "hard, fail_for, report",
        [
            (
                EVERY_SUBGOAL,
                (),
                r"node n\d{4} at depth 2 reached the depth limit 2, and "
                "no ancestor has remaining decomposition budget for backtracking",
            ),
            (
                frozenset(),
                ("tst_a",),
                r"node n0001 at depth 0 spent its sketch-correction budget \(2\), and "
                "no ancestor has remaining decomposition budget for backtracking",
            ),
        ],
        ids=["depth-limit", "sketch-budget"],
    )
    @pytest.mark.parametrize("workers", [1, 3])
    def test_cuts_of_a_failing_run_resume_to_its_failure(
        self, tmp_path, hard, fail_for, report, workers
    ):
        """Every subgoal fails, so the backtracks spend the root's
        decomposition budget; or every export of the root's sketch fails,
        so the root spends its sketch-correction budget. The run fails,
        and every cut resumes, under the same limits, to that failure,
        report included."""
        outcome, cuts = self.resume_every_cut(
            tmp_path, hard, workers, random.Random(29).randint, fail_for
        )
        assert not outcome.success and re.fullmatch(report, outcome.report)
        assert len(cuts) > 20  # two cuts per appended save, so more than 10 saves

    @staticmethod
    def resume_every_cut(directory, hard, workers, draw_cut, fail_for=()):
        """Run the journal scenario, with ``tst`` hard as well and the AST
        export failing for sketches that name any of ``fail_for``,
        cutting the checkpoint inside and before each line a save
        appends, and after the last; every cut reloads to the state saved
        before it and resumes to the same outcome. A resume from a cut at
        a line boundary appends to the cut, and its file reloads to the
        tree it ran. Returns the outcome and the cuts the run kept."""

        def orchestrator(tree, cls=Orchestrator, **kwargs):
            return cls(
                tree,
                backends=journal_backends(hard | {"tst"}),
                verifier=RuleVerifier(),
                ast_client=BuilderAst(fail_for=fail_for),
                search_client=ScriptedSearch(),
                workers=workers,
                **kwargs,
            )

        run = orchestrator(
            formal_tree(limits=JOURNAL_LIMITS),
            cls=JournalCheckingOrchestrator,
            checkpoint_path=directory / "checkpoint.json",
            draw_cut=draw_cut,
        )
        outcome = run.run()
        final = (run.checkpoint_path.read_bytes(), run.saved_state, run.saved_units)
        for number, (cut, state, units) in enumerate([*run.cuts, final]):
            path = directory / f"cut{number}.json"
            path.write_bytes(cut)
            resumed = ProofTree.load(path, JOURNAL_LIMITS)
            resumed.validate()
            assert resumed.to_dict() == state
            assert lean_units(resumed) == units
            assert orchestrator(resumed, checkpoint_path=path).run() == outcome
            if cut.endswith(b"\n"):
                assert path.read_bytes().startswith(cut)
                reloaded = ProofTree.load(path, JOURNAL_LIMITS)
                reloaded.validate()
                assert reloaded.to_dict() == resumed.to_dict()
        return outcome, run.cuts


class TestResumeUnderLoweredProverLimits:
    """Limits come from the run, not the checkpoint, so a resume may
    lower the prover's budgets below what the history has spent."""

    @staticmethod
    def resumed(tmp_path, ran: Limits, failed_per_pass: list[int], limits: Limits) -> ProofTree:
        """A checkpoint of a root that failed ``failed_per_pass[k]``
        prover rounds in pass k + 1 under ``ran``, loaded under
        ``limits``."""
        tree = formal_tree(limits=ran)
        for pass_, failures in enumerate(failed_per_pass, 1):
            tree.open_pass(tree.root, pass_)
            for _ in range(failures):
                tree.record_attempt(tree.root, "prover", "(prompt)", "(reply)", True, pass_, "(n)")
        path = tmp_path / "checkpoint.json"
        tree.save(path)
        tree.close()
        return ProofTree.load(path, limits)

    def test_a_pass_past_the_lowered_correction_budget_ends_once(self, tmp_path):
        tree = self.resumed(
            tmp_path,
            packaged_limits(prover_self_correction=2),
            [2],
            packaged_limits(prover_self_correction=1),
        )
        passes = tree.passes(tree.root)
        assert (passes.open, passes.ended) == ({}, 1)
        prover = ScriptedChat([lean_block(TRUE_PROOF)])
        outcome = make_orchestrator(tree, backends=make_backends(prover=prover)).run()
        assert outcome.success
        assert prover.transcripts[0][0][1].startswith("Complete the following Lean 4 code:")
        assert [e["pass"] for e in tree.root_node().history if "prompt" in e] == [1, 1, 2]

    @pytest.mark.parametrize("max_depth", [20, 0])
    def test_a_node_whose_passes_a_lowered_budget_has_spent_goes_on_to_decompose(
        self, tmp_path, max_depth
    ):
        """Three passes ended under a budget of four; under a budget of
        two the root opens no pass, and decomposes, or at the depth
        limit fails with the report of that limit."""
        ran = packaged_limits(prover_self_correction=1, prover_max_pass=4)
        limits = packaged_limits(prover_self_correction=1, prover_max_pass=2, max_depth=max_depth)
        tree = self.resumed(tmp_path, ran, [1, 1, 1], limits)
        assert tree.root_node().status is NodeStatus.AWAITING_QUERY_GEN
        prover = ScriptedChat([lean_block("theorem step : True := by\n  trivial")])
        sketch = "theorem tst : True := by\n  have step : True := by\n    sorry\n  exact step"
        outcome = make_orchestrator(
            tree,
            backends=make_backends(
                prover=prover,
                decomposer=ScriptedChat([lean_block(sketch)]),
                search_query=ScriptedChat([QUERY_RESPONSE]),
            ),
            ast_client=BuilderAst(),
        ).run()
        assert len([e for e in tree.root_node().history if e.get("role") == "prover"]) == 3
        if max_depth:
            assert outcome.success and prover.calls == 1  # the subgoal's proof
        else:
            assert outcome == Outcome(
                success=False,
                report=f"node {tree.root} at depth 0 reached the depth limit 0, and "
                "no ancestor has remaining decomposition budget for backtracking",
            )
            assert prover.calls == 0


class Stopped(Exception):
    """Stops a run where a crash would."""


class TestResumeUnderARaisedPassBudget:
    """A node whose prover passes have all ended, but that has not begun
    decomposing, proves again when a resume raises ``prover_max_pass``;
    one with a search-query round keeps decomposing."""

    @staticmethod
    def limits(max_pass: int) -> Limits:
        return packaged_limits(
            prover_self_correction=2, prover_max_pass=max_pass, decomposer_self_correction=2,
            max_depth=2,
        )

    @staticmethod
    def services() -> dict:
        """The journal scenario's services, with the root ``tst`` hard."""
        return {
            "backends": journal_backends(frozenset({"tst"})),
            "verifier": RuleVerifier(),
            "ast_client": BuilderAst(),
            "search_client": ScriptedSearch(),
        }

    @staticmethod
    def requests(services: dict) -> list:
        """Every request the services received, in order per service."""
        chats = [services["backends"][role].transcripts
                 for role in ("prover", "search_query", "decomposer")]
        return [*chats, services["verifier"].checked, services["ast_client"].seen,
                services["search_client"].seen_queries]

    @pytest.mark.parametrize(
        "stop_at, status, went_on_under",
        [
            (ActionKind.GEN_QUERIES, NodeStatus.AWAITING_PROOF, 2),
            (ActionKind.SKETCH, NodeStatus.AWAITING_SKETCH, 1),
        ],
        ids=["awaiting-queries", "decomposing"],
    )
    def test_a_resume_makes_the_requests_of_one_run(
        self, tmp_path, stop_at, status, went_on_under
    ):
        """At one worker, the root's one pass ends under ``max_pass=1``,
        and the run stops as it would dispatch ``stop_at``. Resumed under
        ``max_pass=2``, the root awaiting query generation opens its
        second pass, and one that has its queries goes on to sketch: the
        two runs make the requests of one uninterrupted run under the
        budget that the root went on under."""
        uninterrupted = self.services()
        Orchestrator(formal_tree(limits=self.limits(went_on_under)), **uninterrupted).run()
        def stop(orch, action):
            if action.kind is stop_at:  # before its call is handed to a worker
                raise Stopped(action)

        services, path = self.services(), tmp_path / "checkpoint.json"
        with pytest.raises(Stopped):
            HookedOrchestrator(
                formal_tree(limits=self.limits(1)), checkpoint_path=path, on_dispatch=stop,
                **services,
            ).run()
        resumed = ProofTree.load(path, self.limits(2))
        assert resumed.root_node().status is status
        assert Orchestrator(resumed, checkpoint_path=path, **services).run().success
        assert self.requests(services) == self.requests(uninterrupted)


# ------------------------------------------------- conversations from history

#: The root rolls a prover pass over; the hard grandchild ``tst_a_a``
#: backtracks to the root, whose second sketch continues its first.
GOLDEN_HARD = frozenset({"tst", "tst_a", "tst_a_a"})


def golden_run(
    tree=None,
    checkpoint_path=None,
    hard=GOLDEN_HARD,
    decomposer=None,
    ast_client=None,
    run_log_path=None,
):
    """Run the journal scenario serially; returns (outcome, backends)."""
    backends = journal_backends(hard)
    if decomposer is not None:
        backends["decomposer"] = decomposer
    outcome = Orchestrator(
        tree or formal_tree(limits=JOURNAL_LIMITS),
        backends=backends,
        verifier=RuleVerifier(),
        ast_client=ast_client or BuilderAst(),
        search_client=ScriptedSearch(),
        checkpoint_path=checkpoint_path,
        run_log_path=run_log_path,
    ).run()
    return outcome, backends


class TestSerialSchedule:
    def test_one_worker_keeps_the_recorded_action_sequence(self, tmp_path):
        """At one worker the journal scenario dispatches exactly the
        (node, action, outcome) sequence recorded from the scheduler that
        ran every action on the coordinator (fixture written by it)."""
        log = tmp_path / "run.jsonl"
        outcome, _ = golden_run(run_log_path=log)
        assert outcome.success
        entries = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        recorded = json.loads((FIXTURES / "serial_schedule.json").read_text(encoding="utf-8"))
        assert [[e["node"], e["action"], e["outcome"]] for e in entries] == recorded


class LeanServer(RuleVerifier):
    """One fake for both Lean endpoints, as one VerifierClient serves
    both: notes each request as (endpoint, units) in the list of the
    worker call that made it (``CallNotingOrchestrator``), and goes down
    at the export numbered ``down_at`` (from 1), once."""

    def __init__(self, down_at=None):
        super().__init__()
        self.ast = BuilderAst()
        self.calls_made: list[list] = []
        self.exports = 0
        self.down_at = down_at

    def verify_batch(self, codes, timeout: float = 300.0):
        self.calls_made[-1].append(("check", tuple(codes)))
        return super().verify_batch(codes, timeout)

    def fetch_ast(self, code, module_name="User.Code", timeout: float = 300.0):
        self.calls_made[-1].append(("export", (code,)))
        self.exports += 1
        if self.exports == self.down_at:
            raise ServiceError("Lean server scripted as unavailable")
        return self.ast.fetch_ast(code)


class CallNotingOrchestrator(Orchestrator):
    """Opens a new request list on its ``LeanServer`` per worker call."""

    def _remote(self, calls):
        self.verifier.calls_made.append([])
        return super()._remote(calls)


class TestSketchCheckWithExport:
    @staticmethod
    def run(lean: LeanServer, backends=None, tree=None, **kwargs):
        return CallNotingOrchestrator(
            tree or formal_tree(limits=JOURNAL_LIMITS),
            backends=backends or journal_backends(GOLDEN_HARD),
            verifier=lean,
            ast_client=lean,
            search_client=ScriptedSearch(),
            **kwargs,
        ).run()

    def test_a_sketch_is_checked_and_exported_in_one_call(self, tmp_path):
        """At one worker, the Lean server sees each sketch's check and
        then its export, in one worker call; no run.jsonl line is a
        separate export."""
        lean, log = LeanServer(), tmp_path / "run.jsonl"
        assert self.run(lean, run_log_path=log).success
        entries = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert "ParseAst" not in {entry["action"] for entry in entries}
        sketch_checks = [e["outcome"] for e in entries if e["action"] == "SketchCheck"]
        assert sketch_checks == ["AwaitingChildren"] * 3
        exporting = [call for call in lean.calls_made if "export" in {kind for kind, _ in call}]
        assert len(exporting) == lean.ast.calls == 3
        for call in exporting:
            sketch = call[0][1][0]
            assert call == [("check", (sketch,)), ("export", (sketch,))]
            assert count_sorries(sketch) > 0

    def test_a_lean_outage_on_the_export_resumes_with_one_more_check(self, tmp_path):
        """The export of the second sketch fails: the run aborts before
        the sketch's verdict is recorded, so the resume checks it again.
        The two runs make the requests of one uninterrupted run plus that
        sketch check, and no other."""
        uninterrupted, expected_backends = LeanServer(), journal_backends(GOLDEN_HARD)
        expected = self.run(uninterrupted, expected_backends)
        lean, backends = LeanServer(down_at=2), journal_backends(GOLDEN_HARD)
        path = tmp_path / "checkpoint.json"
        with pytest.raises(ServiceError, match="scripted as unavailable"):
            self.run(lean, backends, checkpoint_path=path)
        crashed_checks = list(lean.checked)
        tree = ProofTree.load(path, JOURNAL_LIMITS)
        [waiting] = [n for n in tree.nodes.values() if n.status is NodeStatus.AWAITING_SKETCH_CHECK]
        assert crashed_checks[-1] == tree.unit(waiting.id).combined()
        assert self.run(lean, backends, tree=tree, checkpoint_path=path) == expected
        assert lean.checked == crashed_checks + uninterrupted.checked[len(crashed_checks) - 1:]
        assert lean.ast.seen == uninterrupted.ast.seen
        assert lean.exports == uninterrupted.exports + 1  # the one the outage took
        for role in ("prover", "search_query", "decomposer"):
            assert backends[role].transcripts == expected_backends[role].transcripts, role


class TestRunLogFormat:
    def test_every_line_is_the_json_of_its_four_fields(self, tmp_path):
        """Each run.jsonl line of the journal scenario holds ts, node,
        action and outcome, in that order, with an ISO-8601 UTC time,
        byte-equal to what json.dumps writes for it."""
        log = tmp_path / "run.jsonl"
        outcome, _ = golden_run(run_log_path=log)
        assert outcome.success
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert list(entry) == ["ts", "node", "action", "outcome"]
            assert datetime.fromisoformat(entry["ts"]).utcoffset() == timedelta(0)
            assert line == json.dumps(entry, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("node_id", [None, 'n"1\\2', "nα\n\t\x01"])
    def test_a_node_id_is_escaped_as_json_escapes_it(self, tmp_path, node_id):
        log = tmp_path / "run.jsonl"
        orch = make_orchestrator(formal_tree(), run_log_path=log)
        try:
            orch._log(Action(ActionKind.BACKTRACK, node_id), None)
        finally:
            orch._run_log.close()
        (line,) = log.read_text(encoding="utf-8").splitlines(keepends=True)
        entry = json.loads(line)
        assert entry["node"] == node_id and entry["outcome"] == "pruned"
        assert line == json.dumps(entry, ensure_ascii=False) + "\n"

    def test_enum_values_need_no_escaping(self):
        for value in [kind.value for kind in ActionKind] + [s.value for s in NodeStatus]:
            assert json.dumps(value, ensure_ascii=False) == f'"{value}"'


class TestDerivedConversations:
    def test_backends_receive_the_golden_messages(self, tmp_path):
        """The prover, decomposer and search-query backends receive
        exactly the messages recorded from the code that stored each
        conversation beside the history (fixture written by it)."""
        checkpoint = tmp_path / "checkpoint.json"
        outcome, backends = golden_run(checkpoint_path=checkpoint)
        assert outcome.success
        golden = json.loads(
            (FIXTURES / "journal_backend_messages.json").read_text(encoding="utf-8")
        )
        for role, transcripts in golden.items():
            received = backends[role].transcripts
            assert [[list(turn) for turn in messages] for messages in received] == transcripts
        snapshot, *journal = map(json.loads, checkpoint.read_text(encoding="utf-8").splitlines())
        records = [*snapshot["nodes"].values()] + [
            change for line in journal for change in line["nodes"].values()
        ]
        assert journal and not any("conversations" in record for record in records)

    def test_each_generated_reply_is_stored_once(self, tmp_path):
        """A reply is written once, as its round in the history; the
        verdict entry its check appends repeats none of its text."""
        checkpoint = tmp_path / "checkpoint.json"
        outcome, backends = golden_run(checkpoint_path=checkpoint)
        assert outcome.success
        text = checkpoint.read_text(encoding="utf-8")
        generated = Counter(
            reply
            for backend in backends.values()
            if isinstance(backend, ScriptedChat)
            for reply in backend.replies
        )
        assert generated
        for reply, times in generated.items():
            assert text.count(json.dumps(reply, ensure_ascii=False)) == times, reply

    def test_each_generated_reply_is_parsed_once(self, monkeypatch):
        """Over a whole run, reconstruction included, the code of each
        reply is parsed at most once, and only the formal input's
        preamble is normalized."""
        calls = Counter()

        def counted(name):
            function = getattr(proof_state_module, name)

            def call(*args):
                calls[name] += 1
                return function(*args)

            for module in (proof_state_module, orchestrator_module):
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, call)

        counted("reply_code")
        counted("normalize_preamble")
        outcome, backends = golden_run()
        assert outcome.success
        fenced = [
            reply
            for backend in backends.values()
            if isinstance(backend, ScriptedChat)
            for reply in backend.replies
            if "```lean" in reply
        ]
        assert fenced and calls["reply_code"] <= len(fenced)
        assert calls["normalize_preamble"] == 1

    def test_each_verified_declaration_is_stored_once(self, tmp_path):
        """A proven node's declaration is stored only in the history
        round that proposed it; no node field repeats it."""
        checkpoint = tmp_path / "checkpoint.json"
        tree = formal_tree(limits=JOURNAL_LIMITS)
        outcome, _ = golden_run(tree, checkpoint_path=checkpoint)
        assert outcome.success
        text = checkpoint.read_text(encoding="utf-8")
        proven = [node.id for node in tree.nodes.values() if node.status is NodeStatus.PROVEN]
        assert len(proven) > 1 and tree.root in proven
        for node_id in proven:
            escaped = json.dumps(latest_decl(tree, node_id), ensure_ascii=False)[1:-1]
            assert text.count(escaped) == 1, node_id

    def test_sketch_note_never_reaches_the_decomposer(self):
        """An AST-export failure is the note of the sketch's failed
        verdict, but the correction sketch that follows continues only
        the real round."""
        sketch = "theorem tst : True := by\n  have tst_a : True := by\n    sorry\n  exact tst_a"
        first = lean_block(sketch + "\n-- unexportable")
        decomposer = ScriptedChat([first, lean_block(sketch)])
        tree = formal_tree(limits=JOURNAL_LIMITS)
        outcome, _ = golden_run(
            tree,
            hard=frozenset({"tst"}),
            decomposer=decomposer,
            ast_client=BuilderAst(fail_for=["unexportable"]),
        )
        assert outcome.success
        notes = [e for e in tree.root_node().history if "could not be analyzed" in e.get("note", "")]
        assert len(notes) == 1 and "prompt" not in notes[0]  # the sketch's own verdict
        opening, correction = decomposer.transcripts
        assert correction[:-1] == opening + [("assistant", first)]
        assert "could not be analyzed" in correction[-1][1]


# ------------------------------------------------------------ run resources


class ThreadNotingChat:
    """Delegates to a chat backend, noting the thread of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.threads: list[threading.Thread] = []

    def complete(self, messages):
        self.threads.append(threading.current_thread())
        return self.inner.complete(messages)


class OutageVerifier(RuleVerifier):
    """Goes down at the first batch of more than one unit, that is, at
    the first verification of a sibling wave."""

    def verify_batch(self, codes, timeout: float = 300.0):
        if len(codes) > 1:
            raise ServiceError("verifier scripted as unavailable")
        return super().verify_batch(codes, timeout)


@pytest.fixture
def opened(monkeypatch):
    """Every file handle the orchestrator and the proof tree open."""
    handles = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        handles.append(handle)
        return handle

    for module in (orchestrator_module, proof_state_module):
        monkeypatch.setattr(module, "open", recording_open, raising=False)
    return handles


class TestRunResources:
    WORKERS = 3

    def run_journal_scenario(self, directory, verifier=None, tree=None):
        """The journal scenario on three workers; returns the outcome
        (or the exception raised) and the prover's call threads."""
        directory.mkdir(exist_ok=True)
        backends = journal_backends(GOLDEN_HARD)
        prover = backends["prover"] = ThreadNotingChat(backends["prover"])
        orch = Orchestrator(
            tree or formal_tree(limits=JOURNAL_LIMITS),
            backends=backends,
            verifier=verifier or RuleVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=self.WORKERS,
            run_log_path=directory / "run.jsonl",
            checkpoint_path=directory / "checkpoint.json",
        )
        try:
            return orch.run(), prover.threads
        except ServiceError as exc:
            return exc, prover.threads

    @staticmethod
    def assert_released(threads, handles):
        assert threads and not any(thread.is_alive() for thread in threads)
        assert handles and all(handle.closed for handle in handles)
        for name in ("checkpoint.json", "run.jsonl"):
            appending = [h for h in handles if Path(h.name).name == name and "a" in h.mode]
            assert len(appending) == 1, name  # one handle for the whole run

    def test_one_pool_serves_every_wave(self, tmp_path, opened):
        outcome, threads = self.run_journal_scenario(tmp_path)
        assert outcome.success
        # the root alone takes four one-node waves before it decomposes
        assert len(threads) > self.WORKERS
        assert len({thread.name for thread in threads}) <= self.WORKERS
        self.assert_released(threads, opened)

    def test_outage_releases_the_run_and_its_checkpoint_resumes(self, tmp_path, opened):
        expected, _ = self.run_journal_scenario(tmp_path / "uninterrupted")
        opened.clear()
        crashed = tmp_path / "crashed"
        error, threads = self.run_journal_scenario(crashed, OutageVerifier())
        assert isinstance(error, ServiceError)
        self.assert_released(threads, opened)
        resumed, _ = self.run_journal_scenario(
            crashed, tree=ProofTree.load(crashed / "checkpoint.json", JOURNAL_LIMITS)
        )
        assert expected.success and resumed == expected


class TestFailedFinalWrite:
    def test_workers_and_handles_are_released_when_the_last_save_fails(
        self, tmp_path, opened
    ):
        """The journal write after the run has finished raises; run()
        raises it, with every worker stopped and both handles closed."""
        tree = formal_tree(limits=JOURNAL_LIMITS)
        save = tree.save

        def failing_save(path):
            if tree.root_node().status is NodeStatus.PROVEN:
                raise OSError("no space left on device")
            save(path)

        tree.save = failing_save
        before = set(threading.enumerate())
        orch = Orchestrator(
            tree,
            backends=journal_backends(GOLDEN_HARD),
            verifier=RuleVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=3,
            run_log_path=tmp_path / "run.jsonl",
            checkpoint_path=tmp_path / "checkpoint.json",
        )
        with pytest.raises(OSError, match="no space left"):
            orch.run()
        assert not [thread for thread in threading.enumerate() if thread not in before]
        names = {Path(handle.name).name for handle in opened}
        assert {"checkpoint.json", "run.jsonl"} <= names
        assert all(handle.closed for handle in opened)


# ------------------------------------------------------ completion scheduler


class GatedChat:
    """Answers like ``inner``, but a call about theorem ``name`` first
    sets ``started[name]`` and then waits until ``gates[name]`` is set."""

    def __init__(self, inner, names):
        self.inner = inner
        self.started = {name: threading.Event() for name in names}
        self.gates = {name: threading.Event() for name in names}

    def complete(self, messages):
        text = "\n".join(content for _, content in messages)
        for name, gate in self.gates.items():
            if f"theorem {name} :" in text:
                self.started[name].set()
                assert gate.wait(timeout=10), f"the call about {name} was never released"
        return self.inner.complete(messages)


class BatchRecordingVerifier(RuleVerifier):
    def __init__(self):
        super().__init__()
        self.batches: list[list[str]] = []

    def verify_batch(self, codes, timeout: float = 300.0):
        self.batches.append(list(codes))
        return super().verify_batch(codes, timeout)


class HookedOrchestrator(Orchestrator):
    """Calls ``on_dispatch(self, action)`` after every dispatched action,
    and ``on_wait(self)`` whenever the coordinator is about to wait for
    a call to land."""

    def __init__(self, *args, on_dispatch=None, on_wait=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_dispatch = on_dispatch or (lambda orch, action: None)
        self.on_wait = on_wait or (lambda orch: None)

    def dispatch(self, action):
        outcome = super().dispatch(action)
        self.on_dispatch(self, action)
        return outcome

    def _apply_landed(self):
        self.on_wait(self)
        return super()._apply_landed()


def named(tree: ProofTree, name: str):
    return next((node for node in tree.nodes.values() if node.name == name), None)


def brood_backends(hard, names):
    """The journal scenario's backends, with a decomposer that splits the
    root into one subgoal per name."""
    haves = "".join(f"  have {name} : True := by\n    sorry\n" for name in names)
    sketch = lean_block(f"theorem tst : True := by\n{haves}  exact {names[0]}")
    return {**journal_backends(hard), "decomposer": ScriptedChat(lambda messages: sketch)}


class TestCompletionScheduler:
    """Two workers over the journal scenario, with some calls held back
    by events, so that the order in which results land is fixed."""

    @staticmethod
    def orchestrator(hard, role, gated, directory=None, **hooks):
        """Returns the orchestrator and the gated backend of ``role``."""
        backends = journal_backends(hard)
        chat = backends[role] = GatedChat(backends[role], gated)
        if "tst_a" in gated and "tst_b" in gated:
            # tst_a's call answers only once tst_b's is in flight
            chat.gates["tst_a"] = chat.started["tst_b"]
        orch = HookedOrchestrator(
            formal_tree(limits=JOURNAL_LIMITS),
            backends=backends,
            verifier=BatchRecordingVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=2,
            run_log_path=None if directory is None else directory / "run.jsonl",
            checkpoint_path=None if directory is None else directory / "checkpoint.json",
            **hooks,
        )
        return orch, chat

    def test_siblings_dispatched_together_share_a_verify_request(self):
        """The prover's reply for tst_a is held until tst_b's reply has
        been applied and the coordinator waits again; tst_b's Verify
        waits for it, and both go in one request."""

        def on_wait(orch):
            sibling = named(orch.tree, "tst_b")
            if sibling is not None and sibling.status is NodeStatus.AWAITING_VERIFICATION:
                prover.gates["tst_a"].set()

        orch, prover = self.orchestrator(frozenset({"tst"}), "prover", ["tst_a"], on_wait=on_wait)
        assert orch.run().success
        verified = [
            {name for name in ("tst_a", "tst_b") if any(f"theorem {name} :" in u for u in batch)}
            for batch in orch.verifier.batches
        ]
        assert {"tst_a", "tst_b"} in verified
        assert {"tst_a"} not in verified and {"tst_b"} not in verified

    def test_siblings_failing_every_round_open_second_passes_and_share_a_check(self):
        """Three siblings fail every prover round. tst_c's first Prove is
        held until a sibling opens a second pass beside its first, which
        it does ahead of the siblings' ready checks; the replies wait
        behind those passes, and one request checks those of all three."""
        names = ["tst_a", "tst_b", "tst_c"]
        overlapping = set()

        def on_dispatch(orch, action):
            node = orch.tree.nodes.get(action.node_id)
            if action.kind is ActionKind.PROVE and node.depth == 1:
                if len(orch.tree.passes(node.id).open) == 2:
                    overlapping.add(node.name)
                    prover.gates["tst_c"].set()

        backends = brood_backends(frozenset(["tst", *names]), names)
        prover = backends["prover"] = GatedChat(backends["prover"], ["tst_c"])
        limits = packaged_limits(prover_self_correction=2, prover_max_pass=2, max_depth=1)
        orch = HookedOrchestrator(
            formal_tree(limits=limits),
            backends=backends,
            verifier=BatchRecordingVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=2,
            on_dispatch=on_dispatch,
        )
        outcome = orch.run()
        assert not outcome.success and "reached the depth limit 1" in outcome.report
        assert overlapping
        checked = [
            {name for name in names if any(f"theorem {name} :" in unit for unit in batch)}
            for batch in orch.verifier.batches
        ]
        assert set(names) in checked

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_sibling_proven_after_a_failed_round_costs_at_most_workers_minus_one_more_calls(
        self, workers
    ):
        """tst_a fails its first prover round and every later reply of it
        would prove it, while tst_b and tst_c prove at once beside it.
        tst_a's further passes open ahead of its check and cost at most
        ``workers - 1`` calls beyond its two; the proof reconstructs."""
        names = ["tst_a", "tst_b", "tst_c"]
        backends = brood_backends(frozenset({"tst"}), names)
        rounds, lock = Counter(), threading.Lock()

        def prove(messages):
            unit = extract_code_block(messages[0][1])
            name = re.search(r"theorem (\w+)", unit).group(1)
            with lock:
                rounds[name] += 1
                failing = name == "tst" or (name, rounds[name]) == ("tst_a", 1)
            return lean_block(unit.replace("sorry", FAIL_MARKER if failing else "trivial"))

        backends["prover"] = ScriptedChat(prove)
        limits = packaged_limits(prover_self_correction=2, prover_max_pass=4, max_depth=1)
        orch = make_orchestrator(
            formal_tree(limits=limits),
            backends=backends,
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=workers,
        )
        assert orch.run().success
        assert rounds["tst_b"] == rounds["tst_c"] == 1
        assert 2 <= rounds["tst_a"] <= 2 + workers - 1
        orch.tree.validate()

    def test_deeper_prove_starts_while_a_sibling_of_its_parent_sketches(self):
        """tst_b's decomposer call is held; tst_a's subgoals are
        dispatched for proof meanwhile, and that releases it."""
        seen = []

        def on_dispatch(orch, action):
            if action.kind is ActionKind.PROVE and orch.tree.node(action.node_id).depth == 2:
                gate = decomposer.gates["tst_b"]
                seen.append(decomposer.started["tst_b"].is_set() and not gate.is_set())
                gate.set()

        hard = frozenset({"tst", "tst_a", "tst_b"})
        orch, decomposer = self.orchestrator(
            hard, "decomposer", ["tst_a", "tst_b"], on_dispatch=on_dispatch
        )
        assert orch.run().success
        assert seen and seen[0], "a depth-2 Prove waited for tst_b's decomposer call"

    def test_a_reply_for_a_pruned_node_is_dropped(self, tmp_path):
        """tst_b's decomposer call is in flight when tst_a_a overflows the
        depth limit and the root's subtree is pruned; its reply is then
        released, and nothing of it is recorded."""
        pruned_in_flight = []

        def on_dispatch(orch, action):
            if action.kind is ActionKind.BACKTRACK:
                gate = decomposer.gates["tst_b"]
                pruned_in_flight.append(decomposer.started["tst_b"].is_set() and not gate.is_set())
                gate.set()

        hard = frozenset({"tst", "tst_a", "tst_b", "tst_a_a"})
        orch, decomposer = self.orchestrator(
            hard, "decomposer", ["tst_a", "tst_b"], tmp_path, on_dispatch=on_dispatch
        )
        assert orch.run().success
        assert pruned_in_flight == [True]
        dropped = next(r for r in decomposer.inner.replies if "theorem tst_b :" in r)
        orch.tree.validate()
        assert not any(
            entry.get("response") == dropped
            for node in orch.tree.nodes.values()
            for entry in node.history
        )
        assert json.dumps(dropped, ensure_ascii=False) not in (
            tmp_path / "checkpoint.json"
        ).read_text(encoding="utf-8")
        restored = ProofTree.load(tmp_path / "checkpoint.json", orch.tree.limits)
        restored.validate()
        assert restored.to_dict() == orch.tree.to_dict()
        entries = [json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()]
        assert {"action": "Sketch", "outcome": "pruned"} in [
            {"action": e["action"], "outcome": e["outcome"]} for e in entries
        ]

    def test_a_result_landing_in_the_batch_that_fails_the_run_is_recorded(self, tmp_path):
        """tst_a's sketches never export, so its last sketch check fails at
        the export and spends its sketch-correction budget; at depth 1 it
        has no ancestor to backtrack to, and the run fails. tst_b_a's Prove
        is held until that check has landed, and lands in the same batch
        after it: it is recorded, since the failure is read from the tree
        only when the next action is chosen, and that action is the
        Finish."""
        released = []

        def landed_count(orch, count):
            deadline = time.monotonic() + 10
            while orch._landed.qsize() < count:
                assert time.monotonic() < deadline, "a call in flight never landed"
                time.sleep(0.005)

        def on_wait(orch):
            node = named(orch.tree, "tst_a")
            gate = prover.gates["tst_b_a"]
            if (
                node is None
                or gate.is_set()
                or node.counters.sketch_corrections_used != limits.decomposer_self_correction - 1
                or ActionKind.SKETCH_CHECK not in [a.kind for a in in_flight(orch, node.id)]
            ):
                return
            released.append(prover.started["tst_b_a"].is_set())
            landed_count(orch, len(orch._inflight) - 1)  # all but the held Prove
            gate.set()
            landed_count(orch, len(orch._inflight))

        limits = JOURNAL_LIMITS
        backends = journal_backends(frozenset({"tst", "tst_a", "tst_b"}))
        prover = backends["prover"] = GatedChat(backends["prover"], ["tst_b_a"])
        orch = HookedOrchestrator(
            formal_tree(limits=limits),
            backends=backends,
            verifier=RuleVerifier(),
            ast_client=BuilderAst(fail_for=["tst_a_a"]),
            search_client=ScriptedSearch(),
            workers=2,
            run_log_path=tmp_path / "run.jsonl",
            checkpoint_path=tmp_path / "checkpoint.json",
            on_wait=on_wait,
        )
        outcome = orch.run()
        assert released == [True]
        assert not outcome.success
        failed = named(orch.tree, "tst_a")
        assert outcome.report == (
            f"node {failed.id} at depth 1 spent its sketch-correction budget (2), and "
            "no ancestor has remaining decomposition budget for backtracking"
        )
        late = named(orch.tree, "tst_b_a")
        recorded = next(r for r in prover.inner.replies if "theorem tst_b_a :" in r)
        assert [e["response"] for e in late.history] == [recorded]
        assert late.status is NodeStatus.AWAITING_VERIFICATION
        assert json.dumps(recorded, ensure_ascii=False) in (
            tmp_path / "checkpoint.json"
        ).read_text(encoding="utf-8")
        restored = ProofTree.load(tmp_path / "checkpoint.json", limits)
        assert restored.to_dict() == orch.tree.to_dict()
        assert next_action(restored, open_passes=2) == Action(ActionKind.FINISH, failed.id, outcome)
        entries = [json.loads(line) for line in (tmp_path / "run.jsonl").read_text().splitlines()]
        assert [(e["node"], e["action"], e["outcome"]) for e in entries[-3:]] == [
            (failed.id, "SketchCheck", "AwaitingSketch"),
            (late.id, "Prove", "AwaitingVerification"),
            (failed.id, "Finish", "failure"),
        ]


# ------------------------------------------------------ overlapping passes


class PairedCalls:
    """Answers like ``inner``; the calls numbered in ``paired`` (from 1)
    each wait until the others are in flight too, and keep their
    messages in ``pair``."""

    def __init__(self, inner, paired=(2, 3)):
        self.inner = inner
        self.paired = paired
        self.calls = 0
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(len(paired), timeout=10)
        self.pair: list = []

    def complete(self, messages):
        with self.lock:
            self.calls += 1
            number = self.calls
        if number in self.paired:
            self.barrier.wait()
            self.pair.append(messages)
        return self.inner.complete(messages)


def in_flight(orch, node_id):
    """The actions of the node whose calls are in flight."""
    return [a for _, group in orch._inflight.values() for a, _ in group if a.node_id == node_id]


LATE_PROOF = "theorem tst : True := by\n  exact True.intro"


class LateSecondPass:
    """The root's prover, by round. Pass 1 fails, then proves the root
    with its correction, sent once pass 2's correction is in flight.
    Pass 2 opens with a reply without code, and its correction answers
    ``LATE_PROOF`` once ``release`` is set."""

    def __init__(self):
        self.release = threading.Event()
        self.correcting = threading.Event()
        self.lock = threading.Lock()
        self.openings = 0

    def complete(self, messages):
        if len(messages) == 1:
            with self.lock:
                self.openings += 1
                if self.openings == 1:
                    return lean_block(FAILING_PROOF)
            return "No code here."
        if "did not contain a fenced Lean code block" in messages[-1][1]:
            self.correcting.set()
            assert self.release.wait(timeout=10), "the late reply was never released"
            return lean_block(LATE_PROOF)
        assert self.correcting.wait(timeout=10), "pass 2 never sent its correction"
        return lean_block(TRUE_PROOF)


class TestOverlappingPasses:
    """Two workers; a node's prover passes overlap once it has failed a
    round, and the budgets stay exact."""

    def test_a_second_pass_opens_beside_the_first_pass_correction(self):
        """The root fails its first round; its second and third prover
        calls, pass 1's correction and pass 2's opening, are in flight
        together (each waits for the other)."""
        backends = journal_backends(frozenset({"tst"}))
        prover = backends["prover"] = PairedCalls(backends["prover"])
        tree = formal_tree(limits=JOURNAL_LIMITS)
        orch = Orchestrator(
            tree,
            backends=backends,
            verifier=RuleVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=2,
        )
        assert orch.run().success
        opening, correction = sorted(prover.pair, key=len)
        assert len(opening) == 1 and opening[0][1].startswith("Complete the following")
        assert len(correction) == 3
        assert correction[-1][1].startswith("The proof (Round 1) is not correct.")
        root = tree.root_node()
        assert sorted(e["pass"] for e in root.history if e.get("role") == "prover") == [1, 1, 2, 2]
        assert prover.inner.calls == 2 * 2 + 2  # the root's budget, then tst_a and tst_b
        tree.validate()

    def test_an_unprovable_node_spends_its_budget_before_it_decomposes(self):
        """The root fails every round of three passes of two: it makes
        exactly six prover calls, with two passes, never more, open at
        once, and it generates search queries only once its last pass has
        ended."""
        limits = packaged_limits(
            prover_self_correction=2, prover_max_pass=3, decomposer_self_correction=2, max_depth=2
        )
        open_passes, decomposing = [], []

        def on_dispatch(orch, action):
            if action.node_id != orch.tree.root:
                return
            if action.kind is ActionKind.PROVE:
                open_passes.append(len(orch.tree.passes(action.node_id).open))
            elif action.kind is ActionKind.GEN_QUERIES:
                passes = orch.tree.passes(action.node_id)
                root_calls = sum("theorem tst :" in m[0][1] for m in prover.transcripts)
                decomposing.append(
                    (in_flight(orch, action.node_id), passes.open, passes.unjudged, root_calls)
                )

        backends = journal_backends(frozenset({"tst"}))
        prover = backends["prover"]
        tree = formal_tree(limits=limits)
        orch = HookedOrchestrator(
            tree,
            backends=backends,
            verifier=RuleVerifier(),
            ast_client=BuilderAst(),
            search_client=ScriptedSearch(),
            workers=2,
            on_dispatch=on_dispatch,
        )
        assert orch.run().success
        assert decomposing == [([], {}, {}, 6)]
        assert max(open_passes) == 2
        assert tree.passes(tree.root).ended == 3

    def test_a_reply_landing_after_another_pass_proved_the_node_is_never_checked(
        self, tmp_path
    ):
        """Pass 1's correction proves the root while pass 2's correction
        is in flight. Its reply lands before the final check returns: it
        is recorded, unchecked, and never sent to the verifier, and the
        proof (which the CLI writes to proof.lean) and the checkpoint's
        unit hold pass 1's proof."""
        prover = LateSecondPass()
        recorded = threading.Event()

        class HeldFinalCheck(RuleVerifier):
            def verify_batch(self, codes, timeout: float = 300.0):
                if len(self.checked) == 2:  # after the root's two proofs: the final unit
                    assert recorded.wait(timeout=10), "the late reply was never recorded"
                return super().verify_batch(codes, timeout)

        def on_wait(orch):
            root = orch.tree.root_node()
            if root.status is NodeStatus.PROVEN:
                prover.release.set()
            if any(e.get("failed", False) is None for e in root.history):
                recorded.set()

        tree = formal_tree(limits=JOURNAL_LIMITS)
        verifier = HeldFinalCheck()
        outcome = HookedOrchestrator(
            tree,
            backends=make_backends(prover=prover),
            verifier=verifier,
            workers=2,
            checkpoint_path=tmp_path / "checkpoint.json",
            on_wait=on_wait,
        ).run()
        assert outcome.success
        assert outcome.proof.endswith(TRUE_PROOF)
        late = [e for e in tree.root_node().history if e.get("response") == lean_block(LATE_PROOF)]
        assert [(e["pass"], e["failed"]) for e in late] == [(2, None)]
        assert len(verifier.checked) == 3
        assert not any("True.intro" in unit for unit in verifier.checked)
        tree.validate()
        restored = ProofTree.load(tmp_path / "checkpoint.json", tree.limits)
        restored.validate()
        assert restored.unit(restored.root).body == TRUE_PROOF
        assert restored.reconstruct(restored.root) == outcome.proof

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("proving_reply", [2, 3])
    def test_a_node_proven_after_a_failed_round_costs_at_most_workers_minus_one_more_calls(
        self, workers, proving_reply
    ):
        """The root's prover replies fail until its ``proving_reply``-th,
        in whichever pass that reply falls; every later reply would pass
        too. One worker makes exactly ``proving_reply`` prover calls.
        More workers open extra passes beside the first pass's
        correction: the overlap costs up to ``workers - 1`` more calls,
        whose replies are spent, and the proof still reconstructs."""
        failing, passing = lean_block(FAILING_PROOF), lean_block(TRUE_PROOF)
        prover = ScriptedChat([failing] * (proving_reply - 1) + [passing] * 8)
        tree = formal_tree(limits=packaged_limits(prover_self_correction=2, prover_max_pass=4))
        orch = make_orchestrator(tree, backends=make_backends(prover=prover), workers=workers)
        outcome = orch.run()
        assert outcome.success and outcome.proof.endswith(TRUE_PROOF)
        if workers == 1:
            assert prover.calls == proving_reply
        assert proving_reply <= prover.calls <= proving_reply + workers - 1
        tree.validate()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_more_workers_make_the_same_calls_with_the_same_prompts(self, seed):
        """Criterion 8's randomized trees with three passes of two
        rounds: every node's verdicts are uniform, so at two and four
        workers the (role, theorem) calls and their messages, and the
        units verified, are those of one worker."""
        calls = [random_tree_calls(seed, workers) for workers in (1, 2, 4)]
        assert calls[1] == calls[0] and calls[2] == calls[0]


class HeldSecondPass:
    """The root's prover, by round. Pass 1 opens with a failing proof and
    proves the root with its correction. Pass 2's opening answers only
    once ``checked`` is set, and then once ``release`` is."""

    def __init__(self):
        self.checked = threading.Event()
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.openings = 0

    def complete(self, messages):
        if len(messages) > 1:
            return lean_block(TRUE_PROOF)
        with self.lock:
            self.openings += 1
            if self.openings == 1:
                return lean_block(FAILING_PROOF)
        assert self.checked.wait(timeout=10), "pass 1's reply waited for pass 2's Prove"
        assert self.release.wait(timeout=10), "pass 2's reply was never released"
        return lean_block(LATE_PROOF)


class TestIndependentPasses:
    """A reply's check waits for no Prove of another pass of its node."""

    def test_a_reply_is_checked_while_another_pass_of_its_node_proves(self):
        """Two workers on a lone root that has failed a round: pass 1's
        correction and pass 2's opening are dispatched together. Pass 2's
        Prove is held until the verifier has received pass 1's reply, so
        that reply's check cannot wait for it. The check proves the root,
        alone in its request; pass 2's reply is never checked."""
        prover = HeldSecondPass()

        class Verifier(RuleVerifier):
            def verify_batch(self, codes, timeout: float = 300.0):
                if any(code.endswith(TRUE_PROOF) for code in codes):
                    prover.checked.set()
                return super().verify_batch(codes, timeout)

        def on_wait(orch):
            if orch.tree.root_node().status is NodeStatus.PROVEN:
                prover.release.set()

        tree = formal_tree(limits=JOURNAL_LIMITS)
        verifier = Verifier()
        outcome = HookedOrchestrator(
            tree,
            backends=make_backends(prover=prover),
            verifier=verifier,
            workers=2,
            on_wait=on_wait,
        ).run()
        assert outcome.success and outcome.proof.endswith(TRUE_PROOF)
        assert prover.openings == 2
        assert verifier.batch_sizes == [1, 1, 1]  # pass 1's two replies, then the final unit
        assert not any("True.intro" in unit for unit in verifier.checked)
        tree.validate()


def random_tree_calls(seed: int, workers: int) -> Counter:
    """Run criterion 8's randomized scenario (nodes named ``_split`` fail
    every prover round and decompose into a seeded brood; ``_leaf``
    nodes prove at once) at ``workers``; returns every remote call as
    (role, theorem, messages or unit)."""
    limits = packaged_limits(prover_self_correction=2, prover_max_pass=3, max_depth=6)
    tree = ProofTree.from_formal(f"theorem g{seed}_split : True := by\n  sorry", limits)

    def prove(messages):
        unit = extract_code_block(messages[0][1])
        tactic = FAIL_MARKER if re.search(r"theorem \w+_split ", unit) else "aesop"
        return lean_block(unit.replace("sorry", tactic))

    def sketch(messages):
        name = re.search(r"theorem (g\w+_split)", messages[-1][1]).group(1)
        base = name.rsplit("_", 1)[0]
        rng = random.Random(f"{seed}:{name}")
        blocks = [
            f"  have {base}c{index}_{kind} : True := by\n    sorry"
            for index in range(rng.randint(1, 3))
            for kind in ["split" if base.count("c") < 3 and rng.random() < 0.4 else "leaf"]
        ]
        return lean_block(f"theorem {name} : True := by\n" + "\n".join(blocks) + "\n  exact trivial")

    backends = make_backends(
        prover=ScriptedChat(prove),
        decomposer=ScriptedChat(sketch),
        search_query=ScriptedChat(lambda messages: QUERY_RESPONSE),
    )
    verifier = RuleVerifier()
    outcome = Orchestrator(
        tree, backends=backends, verifier=verifier, ast_client=BuilderAst(), workers=workers
    ).run()
    assert outcome.success and count_sorries(outcome.proof) == 0
    tree.validate()
    theorem = re.compile(r"theorem (\w+)")
    made = Counter(
        (role, theorem.search(messages[0][1]).group(1), tuple(messages))
        for role, backend in backends.items()
        if isinstance(backend, ScriptedChat)
        for messages in backend.transcripts
    )
    made.update(("verifier", theorem.search(unit).group(1), unit) for unit in verifier.checked)
    return made


class Recorded:
    """Proxies ``inner``, appending the name of every method called on
    it to ``calls`` as the call starts."""

    def __init__(self, inner, calls: list[str]):
        self.inner = inner
        self.calls = calls

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return recorded


def chat_calls(*backend_sets) -> Counter:
    """Every call the scripted chat backends received, as (role, messages)."""
    return Counter(
        (role, tuple(messages))
        for backends in backend_sets
        for role, backend in backends.items()
        if isinstance(backend, ScriptedChat)
        for messages in backend.transcripts
    )


class TestHandOffUnderFailure:
    HARD = frozenset({"tst", "tst_a", "tst_b"})

    def test_an_outage_waits_for_the_held_call_and_records_its_reply(self, tmp_path):
        """Two workers. tst_a_a's prover call is held in flight when a
        verify request fails, and released once the outage has landed.
        run() raises the outage only after the held reply is recorded and
        written; nothing is called after the outage, and no thread is
        left. The resume makes no second call for tst_a_a: the two runs
        make the chat calls of one uninterrupted run."""
        calls: list[str] = []
        crashed = journal_backends(self.HARD)
        answers = crashed["prover"]

        class LateAnswer:
            """Takes a moment to answer once released, so that a run
            that does not wait for its workers returns first."""

            def complete(self, messages):
                if held.is_set():
                    time.sleep(0.05)
                return answers.complete(messages)

        prover = GatedChat(LateAnswer(), ["tst_a_a"])
        held = prover.gates["tst_a_a"]

        class HeldCallOutage(RuleVerifier):
            def verify_batch(self, codes, timeout: float = 300.0):
                if prover.started["tst_a_a"].is_set() and not held.is_set():
                    calls.append("outage")
                    raise ServiceError("verifier scripted as unavailable")
                return super().verify_batch(codes, timeout)

        class ReleasingOrchestrator(Orchestrator):
            def _take_back(self):
                super()._take_back()
                held.set()  # the outage has landed

        backends = {role: Recorded(chat, calls) for role, chat in crashed.items()}
        backends["prover"] = Recorded(prover, calls)
        path = tmp_path / "checkpoint.json"
        orch = ReleasingOrchestrator(
            formal_tree(limits=JOURNAL_LIMITS),
            backends=backends,
            verifier=Recorded(HeldCallOutage(), calls),
            ast_client=Recorded(BuilderAst(), calls),
            search_client=Recorded(ScriptedSearch(), calls),
            workers=2,
            checkpoint_path=path,
        )
        before = set(threading.enumerate())
        with pytest.raises(ServiceError, match="verifier scripted as unavailable"):
            orch.run()
        assert not [thread for thread in threading.enumerate() if thread not in before]
        assert calls.count("outage") == 1
        assert calls[calls.index("outage") + 1 :] == []
        reply = next(r for r in answers.replies if "theorem tst_a_a :" in r)
        node = named(orch.tree, "tst_a_a")
        assert node is not None and node.status is NodeStatus.AWAITING_VERIFICATION
        assert [entry.get("response") for entry in node.history] == [reply]
        restored = named(ProofTree.load(path, JOURNAL_LIMITS), "tst_a_a")
        assert restored.history == node.history

        def run(tree, backends, **kwargs):
            return Orchestrator(
                tree, backends=backends, verifier=RuleVerifier(), ast_client=BuilderAst(),
                search_client=ScriptedSearch(), workers=2, **kwargs,
            ).run()

        resumed, uninterrupted = journal_backends(self.HARD), journal_backends(self.HARD)
        outcome = run(ProofTree.load(path, JOURNAL_LIMITS), resumed, checkpoint_path=path)
        expected = run(formal_tree(limits=JOURNAL_LIMITS), uninterrupted)
        assert expected.success and outcome == expected
        made = chat_calls(crashed, resumed)
        assert sum(n for (_, messages), n in made.items() if "tst_a_a :" in messages[0][1]) == 1
        assert made == chat_calls(uninterrupted)


class TestOutage:
    """Any service outage aborts the run resumably; a refused request
    fails its round."""

    def test_a_prover_outage_aborts_with_no_history_entry_and_resumes(self, tmp_path):
        """Two passes of one round and a depth limit of 0, as a dead
        prover server would meet them: the run raises the outage with
        nothing recorded, and its one-line checkpoint resumes, against a
        prover that answers, to the calls of one uninterrupted run."""
        limits = packaged_limits(prover_self_correction=1, prover_max_pass=2, max_depth=0)
        path = tmp_path / "checkpoint.json"
        dead = ScriptedChat(lambda messages: ServiceError("connection refused"))
        tree = formal_tree(limits=limits)
        with pytest.raises(ServiceError, match="connection refused"):
            make_orchestrator(
                tree, backends=make_backends(prover=dead), checkpoint_path=path
            ).run()
        assert dead.calls == 1
        assert tree.root_node().history == []
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

        def prover():
            return ScriptedChat([lean_block(FAILING_PROOF), lean_block(TRUE_PROOF)])

        resumed, resumed_lean = prover(), RuleVerifier()
        outcome = make_orchestrator(
            ProofTree.load(path, limits), backends=make_backends(prover=resumed),
            verifier=resumed_lean, checkpoint_path=path,
        ).run()
        expected, expected_lean = prover(), RuleVerifier()
        uninterrupted = make_orchestrator(
            formal_tree(limits=limits), backends=make_backends(prover=expected),
            verifier=expected_lean,
        ).run()
        assert uninterrupted.success and outcome == uninterrupted
        assert resumed.transcripts == expected.transcripts
        assert resumed_lean.checked == expected_lean.checked

    @pytest.mark.parametrize("role", ["formalizer", "semantics", "search_query", "decomposer"])
    def test_an_outage_of_any_chat_role_aborts_with_no_history_entry(self, tmp_path, role):
        """Each role's outage raises out of run() and spends no budget."""
        if role in ("formalizer", "semantics"):
            tree = ProofTree.from_informal(INFORMAL, packaged_limits())
        else:
            tree = formal_tree()
            tree.root_node().status = NodeStatus.AWAITING_QUERY_GEN
        scripts = {
            "formalizer": ScriptedChat(lambda messages: GOOD_FORMALIZATION),
            "search_query": ScriptedChat(lambda messages: QUERY_RESPONSE),
            role: ScriptedChat(lambda messages: ServiceError(f"{role} down")),
        }
        orch = make_orchestrator(
            tree, backends=make_backends(**scripts), ast_client=BuilderAst(),
            checkpoint_path=tmp_path / "checkpoint.json",
        )
        with pytest.raises(ServiceError, match=f"{role} down"):
            orch.run()
        root = ProofTree.load(tmp_path / "checkpoint.json", tree.limits).root_node()
        assert not [entry for entry in root.history if entry.get("role") == role]
        assert scripts[role].calls == 1

    def test_sibling_replies_in_flight_at_an_outage_are_kept(self, tmp_path):
        """Four workers on two cores, threads switching as often as the
        interpreter allows. The root decomposes into four subgoals whose
        Proves go out together; the prover is down for tst_d's and slow
        for the others, which land after the outage. They are recorded,
        so the run and its resume make the chat calls of one
        uninterrupted run."""
        names = ["tst_a", "tst_b", "tst_c", "tst_d"]

        class DownForD:
            def __init__(self, inner):
                self.inner, self.down = inner, True

            def complete(self, messages):
                if "theorem tst_d :" in messages[0][1] and self.down:
                    self.down = False
                    raise ServiceError("prover scripted as unavailable")
                if "theorem tst_" in messages[0][1]:
                    time.sleep(0.05)  # lands after tst_d's outage
                return self.inner.complete(messages)

        def run(tree, backends, **kwargs):
            return Orchestrator(
                tree, backends=backends, verifier=RuleVerifier(), ast_client=BuilderAst(),
                search_client=ScriptedSearch(), workers=4, **kwargs,
            ).run()

        path = tmp_path / "checkpoint.json"
        crashed, resumed, uninterrupted = (
            brood_backends(frozenset({"tst"}), names) for _ in range(3)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(ServiceError, match="scripted as unavailable"):
                run(
                    formal_tree(limits=JOURNAL_LIMITS),
                    {**crashed, "prover": DownForD(crashed["prover"])},
                    checkpoint_path=path,
                )
            tree = ProofTree.load(path, JOURNAL_LIMITS)
            landed = {node.name: node.status for node in tree.nodes.values() if node.depth == 1}
            outcome = run(tree, resumed, checkpoint_path=path)
        finally:
            sys.setswitchinterval(interval)
        assert landed == {
            **dict.fromkeys(names[:3], NodeStatus.AWAITING_VERIFICATION),
            "tst_d": NodeStatus.AWAITING_PROOF,
        }
        expected = run(formal_tree(limits=JOURNAL_LIMITS), uninterrupted)
        assert expected.success and outcome == expected
        assert chat_calls(crashed, resumed) == chat_calls(uninterrupted)
