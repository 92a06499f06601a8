"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line. Criteria 9 and 10 exercise live servers and are
skipped unless LEANDECOMP_LIVE_TESTS=1 is set in the environment.
"""

import configparser
import json
import os
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from leandecomp.agents import PromptKind, render_prompt
from leandecomp.ast_model import Subgoal, extract_subgoals, parse_ast
from leandecomp.config import Limits, load, load_config, packaged_defaults
from leandecomp.lean_source import extract_code_block
from leandecomp.orchestrator import ActionKind, Orchestrator, next_action
from leandecomp.proof_state import NodeStatus, ProofTree
from leandecomp.services import VerifierClient

from .drivers import (
    FormalizationExhausted,
    ProveOutcome,
    handle_depth_overflow,
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
    count_sorries,
    lean_block,
    make_backends,
    packaged_limits,
)
from .sample_proofs import (
    CANONICAL_PREAMBLE,
    EVEN_SUM_PROOF,
    INDUCTION_SKETCH,
    INFINITUDE_SKETCH,
    INFINITUDE_SUBGOAL_NAMES,
)
from .test_agents import FULL_VARS, SENTINELS

FIXTURES = Path(__file__).parent / "fixtures"

QUERY_RESPONSE = (
    "<search>first query</search>\n"
    "<search>second query</search>\n"
    "<search>third query</search>\n"
)


@contextmanager
def criterion(capsys, number, title):
    """Print exactly one line for the criterion, whatever happens."""
    try:
        yield
    except BaseException as exc:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {number}: {title} ({type(exc).__name__}: {exc})")
        raise
    with capsys.disabled():
        print(f"\n[PASS] criterion {number}: {title}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_subgoal_extraction_oracle(capsys):
    with criterion(capsys, 1, "frozen-AST subgoal extraction, ordered, <1s"):
        payload = json.loads((FIXTURES / "infinitude_ast.json").read_text())
        started = time.perf_counter()
        root, sorries = parse_ast(payload)
        subgoals = extract_subgoals(root, sorries)
        elapsed = time.perf_counter() - started
        names = [s.name for s in subgoals]
        assert names == INFINITUDE_SUBGOAL_NAMES, names
        assert elapsed < 1.0, f"extraction took {elapsed:.3f}s"


# --------------------------------------------------------------- criterion 2

# Each case: (sketch body, leaf proofs by subgoal name, hand-spliced golden
# body). Goldens are written out under the splice rule: a child's tactic
# block replaces its `sorry`, re-indented two columns under the `have`.

BLOCK_CASES = [
    (
        "inline-single-line",
        "theorem s3 : True := by\n  have h1 : True := by sorry\n  exact h1",
        {"h1": "theorem h1 : True := by\n  trivial"},
        "theorem s3 : True := by\n  have h1 : True := by trivial\n  exact h1",
    ),
    (
        "inline-multi-line",
        "theorem s4 : True := by\n  have h1 : True := by sorry\n  exact h1",
        {"h1": "theorem h1 : True := by\n  have t : 1 = 1 := rfl\n  trivial"},
        "theorem s4 : True := by\n"
        "  have h1 : True := by\n"
        "    have t : 1 = 1 := rfl\n"
        "    trivial\n"
        "  exact h1",
    ),
    (
        "term-mode-child",
        "theorem s5 : True := by\n  have h1 : True := by sorry\n  exact h1",
        {"h1": "theorem h1 : True := trivial"},
        "theorem s5 : True := by\n  have h1 : True := by exact (trivial)\n  exact h1",
    ),
    (
        "two-subgoals",
        "theorem s6 (p q : Prop) (hp : p) (hq : q) : p ∧ q := by\n"
        "  have left : p := by\n"
        "    sorry\n"
        "  have right : q := by\n"
        "    sorry\n"
        "  exact ⟨left, right⟩",
        {
            "left": "theorem left (p : Prop) (hp : p) : p := by\n  exact hp",
            "right": "theorem right (q : Prop) (hq : q) : q := by\n  exact hq",
        },
        "theorem s6 (p q : Prop) (hp : p) (hq : q) : p ∧ q := by\n"
        "  have left : p := by\n"
        "    exact hp\n"
        "  have right : q := by\n"
        "    exact hq\n"
        "  exact ⟨left, right⟩",
    ),
    (
        "relative-indent-preserved",
        "theorem s7 (h : True ∧ True) : True := by\n"
        "  have h1 : True := by\n"
        "    sorry\n"
        "  exact h1",
        {
            "h1": "theorem h1 (h : True ∧ True) : True := by\n"
            "  cases h with\n"
            "  | intro a b =>\n"
            "    exact a"
        },
        "theorem s7 (h : True ∧ True) : True := by\n"
        "  have h1 : True := by\n"
        "    cases h with\n"
        "    | intro a b =>\n"
        "      exact a\n"
        "  exact h1",
    ),
    (
        "deeply-indented-have",
        "theorem s8 : True := by\n"
        "  refine ?h\n"
        "  case h =>\n"
        "    have inner : True := by\n"
        "      sorry\n"
        "    exact inner",
        {"inner": "theorem inner : True := by\n  trivial"},
        "theorem s8 : True := by\n"
        "  refine ?h\n"
        "  case h =>\n"
        "    have inner : True := by\n"
        "      trivial\n"
        "    exact inner",
    ),
    (
        "even-sum-shaped",
        "theorem even_sum : ∀ m n : ℕ, Even m → Even n → Even (m + n) := by\n"
        "  intro m n hm hn\n"
        "  have h_main : Even (m + n) := by\n"
        "    sorry\n"
        "  exact h_main",
        {
            "h_main": "theorem h_main (m n : ℕ) (hm : Even m) (hn : Even n) : "
            "Even (m + n) := by\n  exact hm.add hn"
        },
        "theorem even_sum : ∀ m n : ℕ, Even m → Even n → Even (m + n) := by\n"
        "  intro m n hm hn\n"
        "  have h_main : Even (m + n) := by\n"
        "    exact hm.add hn\n"
        "  exact h_main",
    ),
    (
        "blank-line-in-child",
        "theorem s11 : True := by\n  have h1 : True := by\n    sorry\n  exact h1",
        {"h1": "theorem h1 : True := by\n  constructor\n\n  -- done below\n  trivial"},
        "theorem s11 : True := by\n"
        "  have h1 : True := by\n"
        "    constructor\n"
        "\n"
        "    -- done below\n"
        "    trivial\n"
        "  exact h1",
    ),
]


def _leaf(name: str, goal: str = "True") -> Subgoal:
    return Subgoal(name=name, standalone_statement=f"theorem {name} : {goal} := by\n  sorry")


def _reconstruct(sketch_body: str, leaf_proofs: dict[str, str]) -> str:
    statement = sketch_body.splitlines()[0] + "\n  sorry"
    tree = ProofTree.from_formal(CANONICAL_PREAMBLE + "\n\n" + statement, packaged_limits())
    root = tree.root_node()
    record_verified(tree, root.id, "decomposer", CANONICAL_PREAMBLE + "\n\n" + sketch_body)
    for name, decl in leaf_proofs.items():
        child = tree.node(tree.add_child(root.id, _leaf(name)))
        record_verified(tree, child.id, "prover", decl)
        child.status = NodeStatus.PROVEN
    root.status = NodeStatus.PROVEN
    tree.validate()
    return tree.reconstruct(tree.root)


def test_criterion_2_reconstruction_against_goldens(capsys):
    with criterion(capsys, 2, "reconstruction matches hand-spliced goldens, 0 sorries"):
        cases_run = 0

        # Synthetic corpus with literal goldens.
        for label, sketch_body, leaf_proofs, golden_body in BLOCK_CASES:
            result = _reconstruct(sketch_body, leaf_proofs)
            expected = CANONICAL_PREAMBLE + "\n\n" + golden_body
            assert result == expected, f"{label}: byte diff\n{result!r}\n{expected!r}"
            assert count_sorries(result) == 0, label
            cases_run += 1

        # Infinitude-of-primes listing: golden built positionally (each
        # sorry line replaced in order), cross-checking the name-based
        # splicer against an order-based one.
        bodies = {name: f"simp_all [{name}]" for name in INFINITUDE_SUBGOAL_NAMES}
        proofs = {
            name: f"theorem {name} : True := by\n  {body}"
            for name, body in bodies.items()
        }
        golden = INFINITUDE_SKETCH
        for name in INFINITUDE_SUBGOAL_NAMES:
            golden = golden.replace("    sorry", "    " + bodies[name], 1)
        sketch_body = INFINITUDE_SKETCH.split("\n\n", 3)[-1]
        result = _reconstruct(sketch_body, proofs)
        assert result == golden
        assert count_sorries(result) == 0
        for body in bodies.values():
            assert body in result
        cases_run += 1

        # Induction sketch from the decomposer prompt's worked example.
        induction_names = ["base_case", "inductive_step", "final_proof"]
        bodies = {name: f"norm_num [{name}]" for name in induction_names}
        proofs = {
            name: f"theorem {name} : True := by\n  {body}"
            for name, body in bodies.items()
        }
        golden_body = INDUCTION_SKETCH
        for name in induction_names:
            golden_body = golden_body.replace("    sorry", "    " + bodies[name], 1)
        result = _reconstruct(INDUCTION_SKETCH, proofs)
        assert result == CANONICAL_PREAMBLE + "\n\n" + golden_body
        assert count_sorries(result) == 0
        cases_run += 1

        # Two-level recursion: the middle node is itself decomposed.
        tree = ProofTree.from_formal(
            CANONICAL_PREAMBLE + "\n\ntheorem s9 : True := by\n  sorry", packaged_limits()
        )
        root = tree.root_node()
        record_verified(
            tree,
            root.id,
            "decomposer",
            CANONICAL_PREAMBLE
            + "\n\ntheorem s9 : True := by\n  have mid : True := by\n    sorry\n  exact mid",
        )
        mid = tree.node(tree.add_child(root.id, _leaf("mid")))
        record_verified(
            tree,
            mid.id,
            "decomposer",
            CANONICAL_PREAMBLE
            + "\n\ntheorem mid : True := by\n  have leaf : True := by\n    sorry\n  exact leaf",
        )
        leaf = tree.node(tree.add_child(mid.id, _leaf("leaf")))
        record_verified(tree, leaf.id, "prover", "theorem leaf : True := by\n  trivial")
        leaf.status = NodeStatus.PROVEN
        mid.status = NodeStatus.PROVEN
        root.status = NodeStatus.PROVEN
        tree.validate()
        result = tree.reconstruct(tree.root)
        golden_body = (
            "theorem s9 : True := by\n"
            "  have mid : True := by\n"
            "    have leaf : True := by\n"
            "      trivial\n"
            "    exact leaf\n"
            "  exact mid"
        )
        assert result == CANONICAL_PREAMBLE + "\n\n" + golden_body
        assert count_sorries(result) == 0
        cases_run += 1

        assert cases_run >= 10, f"corpus has only {cases_run} fixtures"


# --------------------------------------------------------------- criterion 3


def _exhaust_prover(self_correction: int, max_pass: int) -> int:
    limits = packaged_limits(prover_self_correction=self_correction, prover_max_pass=max_pass)
    tree = ProofTree.from_formal("theorem t : True := by\n  sorry", limits)
    prover = ScriptedChat(
        lambda messages: lean_block(f"theorem t : True := by\n  {FAIL_MARKER}")
    )
    orch = Orchestrator(tree, backends=make_backends(prover=prover), verifier=RuleVerifier())
    assert run_prover_pass(orch, tree.root) is ProveOutcome.NEEDS_DECOMPOSITION
    return prover.calls


def test_criterion_3_prover_counter_semantics(capsys):
    with criterion(capsys, 3, "always-failing prover: (2,32)=64 calls, (2,3)=6 calls"):
        assert _exhaust_prover(2, 32) == 64
        assert _exhaust_prover(2, 3) == 6


# --------------------------------------------------------------- criterion 4


def _chain(depth: int, limits: Limits) -> tuple[ProofTree, str]:
    tree = ProofTree.from_formal("theorem chain : True := by\n  sorry", limits)
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
        child_id = tree.add_child(current.id, _leaf(name))
        current.status = NodeStatus.AWAITING_CHILDREN
        current = tree.node(child_id)
    current.status = NodeStatus.AWAITING_QUERY_GEN
    return tree, current.id


def test_criterion_4_backtracking(capsys):
    with criterion(capsys, 4, "depth overflow prunes + backtrack prompts; else documented failure"):
        # Fresh grandparent: prune and re-decompose with the backtrack prompts.
        limits = packaged_limits(max_depth=3)
        tree, deep_id = _chain(3, limits)
        grandparent_id = tree.node(tree.node(deep_id).parent).parent
        search_query = ScriptedChat([QUERY_RESPONSE])
        decomposer = ScriptedChat(
            [
                lean_block(
                    "theorem step0 : True := by\n"
                    "  have alt : True := by\n    sorry\n  exact alt"
                )
            ]
        )
        orch = Orchestrator(
            tree,
            backends=make_backends(decomposer=decomposer, search_query=search_query),
            verifier=RuleVerifier(),
            ast_client=BuilderAst(),
        )
        action = handle_depth_overflow(orch, deep_id)
        assert action.kind is ActionKind.BACKTRACK
        assert action.node_id == grandparent_id
        assert deep_id not in tree.nodes
        grandparent = tree.node(grandparent_id)
        assert grandparent.children == []
        assert grandparent.counters.decompositions_used == 1
        run_decomposition(orch, grandparent_id)
        assert "A previous attempt to prove this theorem failed" in (
            search_query.transcripts[0][-1][1]
        )
        sketch_prompt = decomposer.transcripts[0][-1][1]
        assert "COMPLETELY DIFFERENT decomposition strategy" in sketch_prompt
        assert grandparent.status is NodeStatus.AWAITING_CHILDREN

        # No eligible ancestor: the run fails with the documented report.
        tree2, deep2 = _chain(3, limits)
        for _, ancestor in tree2.ancestors(deep2):
            ancestor.counters.decompositions_used = limits.decomposer_self_correction
        orch2 = Orchestrator(
            tree2, backends=make_backends(), verifier=RuleVerifier()
        )
        action2 = handle_depth_overflow(orch2, deep2)
        assert action2.kind is ActionKind.FINISH
        assert not action2.outcome.success
        assert "no ancestor has remaining decomposition budget" in action2.outcome.report
        assert next_action(tree2, open_passes=1) == action2


# --------------------------------------------------------------- criterion 5


def test_criterion_5_formalization_retry_budget(capsys):
    with criterion(capsys, 5, "always-Inappropriate checker: exactly 10 rounds then exhaustion"):
        tree = ProofTree.from_informal("The sum of two even numbers is even.", packaged_limits())
        statement = (
            CANONICAL_PREAMBLE + "\n\ntheorem even_sum : True := by\n  sorry"
        )
        formalizer = ScriptedChat(lambda messages: lean_block(statement))
        semantics = ScriptedChat(lambda messages: "Judgement: Inappropriate")
        orch = Orchestrator(
            tree,
            backends=make_backends(formalizer=formalizer, semantics=semantics),
            verifier=RuleVerifier(),
        )
        with pytest.raises(FormalizationExhausted):
            run_formalization(orch, tree.root)
        assert formalizer.calls == 10
        assert semantics.calls == 10
        assert next_action(tree, open_passes=1).outcome.report == (
            f"formalization of node {tree.root} exhausted its 10 retries "
            "without an accepted statement"
        )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_prompt_goldens(capsys):
    with criterion(capsys, 6, "all nine prompts carry their sentinels, no stray placeholders"):
        assert len(PromptKind) == 9
        for kind in PromptKind:
            rendered = render_prompt(kind, **FULL_VARS)
            assert SENTINELS[kind] in rendered, kind
            assert "{{" not in rendered and "}}" not in rendered, kind


# --------------------------------------------------------------- criterion 7

EXPECTED_DEFAULTS = {
    "FORMALIZER_AGENT_LLM": {
        "model": "kdavis/goedel-formalizer-v2:32b",
        "url": "http://localhost:11434/v1",
        "api_key": "ollama",
        "max_tokens": "50000",
        "max_retries": "10",
        "max_remote_retries": "5",
    },
    "PROVER_AGENT_LLM": {
        "model": "kdavis/Goedel-Prover-V2:32b",
        "url": "http://localhost:11434/v1",
        "api_key": "ollama",
        "max_tokens": "50000",
        "max_self_correction_attempts": "2",
        "max_depth": "20",
        "max_pass": "32",
        "max_remote_retries": "5",
    },
    "SEMANTICS_AGENT_LLM": {
        "model": "qwen3:30b",
        "url": "http://localhost:11434/v1",
        "api_key": "ollama",
        "max_tokens": "50000",
        "max_remote_retries": "5",
    },
    "SEARCH_QUERY_AGENT_LLM": {
        "model": "qwen3:30b",
        "url": "http://localhost:11434/v1",
        "api_key": "ollama",
        "max_tokens": "50000",
        "max_remote_retries": "5",
    },
    "DECOMPOSER_AGENT_LLM": {
        "model": "gpt-5-2025-08-07",
        "url": "https://api.openai.com/v1",
        "max_completion_tokens": "50000",
        "max_remote_retries": "5",
        "max_self_correction_attempts": "6",
    },
    "KIMINA_LEAN_SERVER": {
        "url": "http://0.0.0.0:8000",
        "max_retries": "5",
        "verify_path": "/api/check",
    },
    "LEAN_EXPLORE_SERVER": {
        "url": "http://localhost:8001/api/v1",
        "package_filters": "Mathlib,Batteries,Std,Init,Lean",
        "max_retries": "5",
        "hint_cap": "20",
    },
}


def test_criterion_7_config_precedence_matrix(capsys, tmp_path):
    with criterion(capsys, 7, "env > file > defaults for every option; defaults as documented"):
        defaults_text = packaged_defaults()
        parser = configparser.RawConfigParser()
        parser.read_string(defaults_text)
        onboard = {
            section: dict(parser.items(section)) for section in parser.sections()
        }
        assert onboard == EXPECTED_DEFAULTS

        for section, options in onboard.items():
            for option, default_value in options.items():
                ini_path = tmp_path / f"{section}_{option}.ini"
                ini_path.write_text(f"[{section}]\n{option} = from-file\n")
                env = {f"{section}__{option.upper()}": "from-env"}

                assert load(defaults_text, None, {}).get(section, option) == default_value
                assert load(defaults_text, ini_path, {}).get(section, option) == "from-file"
                assert load(defaults_text, ini_path, env).get(section, option) == "from-env"
                assert load(defaults_text, None, env).get(section, option) == "from-env"


# --------------------------------------------------------------- criterion 8


class _SchedulingProbe(Orchestrator):
    """Asserts, at every Prove dispatch, that no shallower node is still
    awaiting proof."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prove_dispatches = 0

    def dispatch(self, action):
        if action.kind is ActionKind.PROVE:
            depth = self.tree.node(action.node_id).depth
            waiting = [
                node.depth
                for node in self.tree.nodes.values()
                if node.status is NodeStatus.AWAITING_PROOF
            ]
            assert depth == min(waiting), (
                f"scheduled depth-{depth} Prove while depth-{min(waiting)} waits"
            )
            self.prove_dispatches += 1
        return super().dispatch(action)


def _random_scripted_run(seed: int) -> int:
    """One randomized run: nodes whose names end in _split always fail
    direct proof and decompose into a seeded-random brood; _leaf nodes
    prove immediately. Returns the number of Prove dispatches."""
    limits = packaged_limits(prover_self_correction=1, prover_max_pass=1, max_depth=6)
    root_name = f"g{seed}_split"
    tree = ProofTree.from_formal(f"theorem {root_name} : True := by\n  sorry", limits)

    def prover_reply(messages):
        fenced = next(c for _, c in reversed(messages) if "```lean4" in c)
        unit = extract_code_block(fenced)
        name = re.search(r"theorem (\w+)", unit).group(1)
        if name.endswith("_split"):
            return lean_block(unit.replace("sorry", FAIL_MARKER))
        return lean_block(unit.replace("sorry", "aesop"))

    def decomposer_reply(messages):
        prompt = messages[-1][1]
        name = re.search(r"theorem (g\w+_split)", prompt).group(1)
        base = name.rsplit("_", 1)[0]
        depth = base.count("c")
        rng = random.Random(f"{seed}:{name}")
        blocks = []
        for index in range(rng.randint(1, 3)):
            kind = "split" if depth < 3 and rng.random() < 0.4 else "leaf"
            child = f"{base}c{index}_{kind}"
            blocks.append(f"  have {child} : True := by\n    sorry")
        sketch = f"theorem {name} : True := by\n" + "\n".join(blocks) + "\n  exact trivial"
        return lean_block(sketch)

    orch = _SchedulingProbe(
        tree,
        backends=make_backends(
            prover=ScriptedChat(prover_reply),
            decomposer=ScriptedChat(decomposer_reply),
            search_query=ScriptedChat(lambda messages: QUERY_RESPONSE),
        ),
        verifier=RuleVerifier(),
        ast_client=BuilderAst(),
    )
    outcome = orch.run()
    assert outcome.success, f"seed {seed} failed: {outcome.report}"
    assert count_sorries(outcome.proof) == 0
    tree.validate()
    return orch.prove_dispatches


def test_criterion_8_breadth_first_scheduling(capsys):
    with criterion(capsys, 8, "100 randomized runs schedule Prove breadth-first"):
        total = sum(_random_scripted_run(seed) for seed in range(100))
        assert total >= 300, "randomization produced implausibly little work"


# ---------------------------------------------------- criteria 9/10 (live)

LIVE = os.environ.get("LEANDECOMP_LIVE_TESTS") == "1"


def _skip_live(capsys, number, title):
    with capsys.disabled():
        print(f"\n[SKIP] criterion {number}: {title} (set LEANDECOMP_LIVE_TESTS=1)")
    pytest.skip("live servers not configured")


def test_criterion_9_live_verification(capsys):
    if not LIVE:
        _skip_live(capsys, 9, "live verifier on the worked example")
        return
    with criterion(capsys, 9, "live verifier: proof complete, sketch passed/incomplete"):
        client = VerifierClient(load_config().verifier())
        proof_result, sketch_result = client.verify_batch([EVEN_SUM_PROOF, INFINITUDE_SKETCH])
        assert proof_result.passed and proof_result.complete
        assert sketch_result.passed and not sketch_result.complete
        assert count_sorries(INFINITUDE_SKETCH) == 5


def test_criterion_10_live_ast_extraction(capsys):
    if not LIVE:
        _skip_live(capsys, 10, "live AST export on the worked sketch")
        return
    with criterion(capsys, 10, "live AST export matches the frozen fixture's subgoals"):
        client = VerifierClient(load_config().verifier())
        root, sorries = client.fetch_ast(INFINITUDE_SKETCH)
        names = [s.name for s in extract_subgoals(root, sorries)]
        assert names == INFINITUDE_SUBGOAL_NAMES
