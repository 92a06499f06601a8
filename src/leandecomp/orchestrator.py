"""Supervisor state machine driving the proof search.

A single coordinator owns the proof tree and repeatedly asks
``next_action`` for the highest-priority piece of work: formalizing the
root, syntax/semantics-validating a formalization, proving and
verifying leaves, and — when direct proving exhausts its passes —
generating search queries, retrieving hint theorems, sketching a
decomposition, checking the sketch, and recursing into extracted
subgoals. Equal-priority work is ordered by depth then insertion, so
subgoals are processed breadth-first. Nodes that exceed the depth limit
or exhaust their sketch-correction budget trigger a backtrack: the
nearest grandparent-or-higher ancestor with remaining budget is pruned
and re-decomposed with the alternative-strategy prompts.

Remote calls for sibling Prove/Verify actions may run on one bounded
worker pool that lives as long as the run; all tree mutations happen
sequentially on the coordinator.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Mapping, TextIO

from .agents import (
    PromptKind,
    PromptVars,
    Verdict,
    build_error_annotation,
    format_theorem_hints,
    generate_theorem_name,
    parse_judgement,
    parse_search_queries,
    render_prompt,
)
from .ast_model import extract_subgoals
from .config import Limits
from .errors import (
    AnonymousSorry,
    AstExportFailed,
    BadResponse,
    IncompleteSubtree,
    LeandecompError,
    MalformedAst,
    NoCodeBlock,
    NoJudgement,
    NoQueries,
    RemoteExhausted,
    ServiceUnavailable,
)
from .lean_source import LeanSource, extract_code_block, normalize_preamble, split_source
from .proof_state import NodeStatus, ProofNode, ProofTree
from .services import LeanError, VerificationResult


class ActionKind(Enum):
    FORMALIZE = "Formalize"
    SYNTAX_CHECK = "SyntaxCheck"
    SEMANTIC_CHECK = "SemanticCheck"
    PROVE = "Prove"
    VERIFY = "Verify"
    PARSE_AST = "ParseAst"
    GEN_QUERIES = "GenQueries"
    LOOKUP = "Lookup"
    SKETCH = "Sketch"
    SKETCH_CHECK = "SketchCheck"
    EXTRACT_SUBGOALS = "ExtractSubgoals"
    BACKTRACK = "Backtrack"
    RECONSTRUCT = "Reconstruct"
    FINISH = "Finish"


@dataclass(frozen=True)
class Outcome:
    """Final result of a run: a verified proof or a failure report."""

    success: bool
    proof: str | None = None
    report: str | None = None


@dataclass(frozen=True)
class Action:
    """One unit of work chosen by the scheduler.

    ``node_id`` is the acting node — for BACKTRACK it is the ancestor
    being re-decomposed; FINISH carries the terminal outcome instead.
    """

    kind: ActionKind
    node_id: str | None
    outcome: Outcome | None = None


def _candidate(
    node: ProofNode, limits: Limits, ast_ready: frozenset[str]
) -> tuple[int, ActionKind] | None:
    """Priority (lower = sooner) and action kind for one node, or None
    when the node has no work of its own (terminal or waiting on
    children)."""
    status = node.status
    if status is NodeStatus.AWAITING_FORMALIZATION:
        return 1, ActionKind.FORMALIZE
    if status is NodeStatus.AWAITING_SYNTAX_CHECK:
        return 2, ActionKind.SYNTAX_CHECK
    if status is NodeStatus.AWAITING_SEMANTIC_CHECK:
        return 3, ActionKind.SEMANTIC_CHECK
    if status is NodeStatus.AWAITING_PROOF:
        return 4, ActionKind.PROVE
    if status is NodeStatus.AWAITING_VERIFICATION:
        return 5, ActionKind.VERIFY
    if status is NodeStatus.AWAITING_AST_PARSE:
        if node.id in ast_ready:
            # recursion (creating children) has the lowest priority
            return 11, ActionKind.EXTRACT_SUBGOALS
        return 6, ActionKind.PARSE_AST
    if status is NodeStatus.AWAITING_QUERY_GEN:
        if node.depth >= limits.max_depth:
            return 7, ActionKind.BACKTRACK
        return 7, ActionKind.GEN_QUERIES
    if status is NodeStatus.AWAITING_LOOKUP:
        return 8, ActionKind.LOOKUP
    if status is NodeStatus.AWAITING_SKETCH:
        return 9, ActionKind.SKETCH
    if status is NodeStatus.AWAITING_SKETCH_CHECK:
        return 10, ActionKind.SKETCH_CHECK
    return None


def _resolve_backtrack(tree: ProofTree, node: ProofNode) -> Action:
    """Turn a depth-overflowing node into a Backtrack on its eligible
    ancestor, or a failure Finish when no ancestor has budget left."""
    ancestor_id = tree.find_backtrack_ancestor(node.id)
    if ancestor_id is None:
        report = (
            f"node {node.id} at depth {node.depth} needs decomposition but cannot: "
            "no ancestor has remaining decomposition budget for backtracking"
        )
        return Action(ActionKind.FINISH, node.id, Outcome(success=False, report=report))
    return Action(ActionKind.BACKTRACK, ancestor_id)


def next_action(
    tree: ProofTree, limits: Limits, ast_ready: frozenset[str] = frozenset()
) -> Action:
    """
    Choose the next action for the tree (pure; no mutation).

    Priority order: formalize > syntax check > semantic check > prove >
    verify > AST parse > query generation > lookup > sketch > sketch
    check > subgoal extraction. Among equal priorities the lowest depth
    wins, then insertion order — so all subgoals at one depth are
    processed before any at the next (breadth-first).

    ``ast_ready`` names nodes whose AST export is already in hand, for
    which the parse step is replaced by extraction. A Proven root maps
    to Reconstruct, a Failed root to Finish(failure).
    """
    root = tree.root_node()
    if root.status is NodeStatus.PROVEN:
        return Action(ActionKind.RECONSTRUCT, root.id)
    if root.status is NodeStatus.FAILED:
        return Action(
            ActionKind.FINISH,
            root.id,
            Outcome(success=False, report="proof search failed; see the run history"),
        )
    best: tuple[tuple[int, int, int], ProofNode, ActionKind] | None = None
    for node in tree.nodes.values():
        entry = _candidate(node, limits, ast_ready)
        if entry is None:
            continue
        priority, kind = entry
        key = (priority, node.depth, node.insertion_seq)
        if best is None or key < best[0]:
            best = (key, node, kind)
    if best is None:
        return Action(
            ActionKind.FINISH,
            root.id,
            Outcome(success=False, report="no actionable nodes remain"),
        )
    _, node, kind = best
    if kind is ActionKind.BACKTRACK:
        return _resolve_backtrack(tree, node)
    return Action(kind, node.id)


class Orchestrator:
    """Coordinator that executes actions against the proof tree.

    ``backends`` maps the five agent roles — formalizer, prover,
    semantics, search_query, decomposer — to chat backends exposing
    ``complete(messages) -> str``. ``verifier`` checks Lean units,
    ``ast_client`` exports sketch ASTs (one VerifierClient does both),
    ``search_client`` retrieves hint theorems (both optional until
    decomposition is reached).
    """

    def __init__(
        self,
        tree: ProofTree,
        backends: Mapping[str, object],
        verifier,
        ast_client=None,
        search_client=None,
        workers: int = 1,
        run_log_path=None,
        checkpoint_path=None,
    ):
        self.tree = tree
        self.limits = tree.limits
        self.backends = dict(backends)
        self.verifier = verifier
        self.ast_client = ast_client
        self.search_client = search_client
        self.workers = max(1, int(workers))
        self.run_log_path = run_log_path
        self.checkpoint_path = checkpoint_path
        # AST exports are cheap to refetch, so they live outside the
        # checkpoint; a resumed run re-issues ParseAst where needed.
        self._ast_cache: dict[str, tuple[object, list]] = {}
        self._failure_reason: str | None = None
        # Held only while ``run`` executes.
        self._pool: ThreadPoolExecutor | None = None
        self._run_log: TextIO | None = None

    # ------------------------------------------------------------- main loop

    def run(self) -> Outcome:
        """Dispatch actions until the run finishes; returns the outcome.

        The worker pool, the run-log handle and the checkpoint journal
        handle are released when the run returns or raises.
        """
        if self.workers > 1:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            while True:
                action = next_action(self.tree, self.limits, frozenset(self._ast_cache))
                if (
                    self._pool is not None
                    and action.kind in (ActionKind.PROVE, ActionKind.VERIFY)
                    and action.node_id is not None
                ):
                    self._dispatch_parallel(action)
                    self._checkpoint()
                    continue
                try:
                    outcome = self.dispatch(action)
                finally:
                    self._checkpoint()
                self._log(action, outcome)
                if outcome is not None:
                    if action.kind is not ActionKind.FINISH:
                        self._log(Action(ActionKind.FINISH, self.tree.root, outcome), outcome)
                    return outcome
        finally:
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
                self._pool = None
            if self._run_log is not None:
                self._run_log.close()
                self._run_log = None
            self.tree.close()

    def dispatch(self, action: Action) -> Outcome | None:
        """Execute one action; returns the final Outcome when the
        action terminates the run (Finish or Reconstruct), else None."""
        kind = action.kind
        if kind is ActionKind.FINISH:
            outcome = action.outcome or Outcome(success=False, report="no work remains")
            if not outcome.success:
                if action.node_id is not None and action.node_id in self.tree.nodes:
                    target = self.tree.node(action.node_id)
                else:
                    target = self.tree.root_node()
                self._fail_run(target, outcome.report or "proof search failed")
                outcome = Outcome(success=False, proof=outcome.proof, report=self._failure_reason)
            return outcome
        if kind is ActionKind.BACKTRACK:
            self.tree.prune_subtree(action.node_id)
            self._purge_ast_cache()
            return None
        node = self.tree.node(action.node_id)
        if kind is ActionKind.RECONSTRUCT:
            return self._do_reconstruct(node)
        handler = {
            ActionKind.FORMALIZE: self._do_formalize,
            ActionKind.SYNTAX_CHECK: self._do_syntax_check,
            ActionKind.SEMANTIC_CHECK: self._do_semantic_check,
            ActionKind.PROVE: self._do_prove,
            ActionKind.VERIFY: self._do_verify,
            ActionKind.PARSE_AST: self._do_parse_ast,
            ActionKind.GEN_QUERIES: self._do_gen_queries,
            ActionKind.LOOKUP: self._do_lookup,
            ActionKind.SKETCH: self._do_sketch,
            ActionKind.SKETCH_CHECK: self._do_sketch_check,
            ActionKind.EXTRACT_SUBGOALS: self._do_extract_subgoals,
        }[kind]
        handler(node)
        return None

    # ----------------------------------------------------------- scheduling

    def _dispatch_parallel(self, action: Action) -> None:
        """Run every same-depth sibling of a Prove/Verify action on the
        run's worker pool; results are applied sequentially in insertion
        order so mutation stays on the coordinator."""
        status = (
            NodeStatus.AWAITING_PROOF
            if action.kind is ActionKind.PROVE
            else NodeStatus.AWAITING_VERIFICATION
        )
        depth = self.tree.node(action.node_id).depth
        peers = sorted(
            (n for n in self.tree.nodes.values() if n.status is status and n.depth == depth),
            key=lambda n: n.insertion_seq,
        )
        if action.kind is ActionKind.PROVE:
            prepared = [(node, self._prepare_prove(node)) for node in peers]
            futures = [
                self._pool.submit(self._complete, "prover", messages)
                for _, (_, messages) in prepared
            ]
            results = []
            for future in futures:
                try:
                    results.append(future.result())
                except (RemoteExhausted, BadResponse) as exc:
                    results.append(exc)
            for (node, (prompt, _)), result in zip(prepared, results):
                if isinstance(result, Exception):
                    self._prover_failure(
                        node,
                        prompt,
                        f"(backend failure: {result})",
                        "the prover backend failed to respond",
                    )
                else:
                    self._apply_prover_response(node, prompt, result)
        else:
            units = [self._verification_unit(node) for node in peers]
            results = self.verifier.verify_batch(units)
            for node, result in zip(peers, results):
                self._apply_verification(node, result)
        for node in peers:
            self._log(Action(action.kind, node.id), None)

    # -------------------------------------------------------- formalization

    def _do_formalize(self, node: ProofNode) -> None:
        if node.name is None:
            node.name = generate_theorem_name(node.informal_statement or "")
        prompt = render_prompt(
            PromptKind.FORMALIZER,
            PromptVars(
                formal_statement_name=node.name,
                informal_statement=node.informal_statement or "",
            ),
        )
        try:
            response = self._complete("formalizer", [("user", prompt)])
        except (RemoteExhausted, BadResponse) as exc:
            self._formalization_failure(node, "formalizer", prompt, f"(backend failure: {exc})")
            return
        try:
            source = split_source(extract_code_block(response))
            body = source.body.strip()
            if not body:
                raise NoCodeBlock("code block contains no declaration")
        except NoCodeBlock:
            self._formalization_failure(node, "formalizer", prompt, response)
            return
        preamble = normalize_preamble(source.preamble).text
        node.candidate_formalization = preamble + "\n\n" + body
        node.pending_prompt = prompt
        node.pending_response = response
        node.status = NodeStatus.AWAITING_SYNTAX_CHECK

    def _do_syntax_check(self, node: ProofNode) -> None:
        result = self.verifier.verify_code(node.candidate_formalization)
        prompt = node.pending_prompt or ""
        response = node.pending_response or ""
        if result.passed:
            self.tree.record_attempt(node.id, "formalizer", prompt, response, verdict=result)
            node.pending_prompt = node.pending_response = None
            node.status = NodeStatus.AWAITING_SEMANTIC_CHECK
        else:
            self._formalization_failure(node, "formalizer", prompt, response, verdict=result)

    def _do_semantic_check(self, node: ProofNode) -> None:
        body = split_source(node.candidate_formalization).body.strip()
        prompt = render_prompt(
            PromptKind.SEMANTIC_CHECK,
            PromptVars(
                informal_statement=node.informal_statement or "",
                formal_statement=body,
            ),
        )
        try:
            response = self._complete("semantics", [("user", prompt)])
        except (RemoteExhausted, BadResponse) as exc:
            self._formalization_failure(node, "semantics", prompt, f"(backend failure: {exc})")
            return
        try:
            judgement = parse_judgement(response)
        except NoJudgement:
            self._formalization_failure(node, "semantics", prompt, response)
            return
        if judgement.verdict is Verdict.APPROPRIATE:
            self.tree.record_attempt(node.id, "semantics", prompt, response, failed=False)
            source = split_source(node.candidate_formalization)
            node.formal = LeanSource(preamble=source.preamble, body=source.body.strip())
            node.candidate_formalization = None
            node.status = NodeStatus.AWAITING_PROOF
        else:
            self._formalization_failure(node, "semantics", prompt, response)

    def _formalization_failure(
        self,
        node: ProofNode,
        role: str,
        prompt: str,
        response: str,
        verdict: VerificationResult | None = None,
    ) -> None:
        self.tree.record_attempt(node.id, role, prompt, response, verdict=verdict, failed=True)
        node.pending_prompt = node.pending_response = None
        node.candidate_formalization = None
        if node.counters.formalize_retries >= self.limits.formalizer_max_retries:
            self._fail_run(
                node,
                f"formalization of node {node.id} exhausted its "
                f"{self.limits.formalizer_max_retries} retries without an accepted statement",
            )
        else:
            node.status = NodeStatus.AWAITING_FORMALIZATION

    # ------------------------------------------------------- prove / verify

    def _prepare_prove(self, node: ProofNode) -> tuple[str, list[tuple[str, str]]]:
        conversation = self.tree.conversation(node.id, "prover")
        if not conversation:
            prompt = render_prompt(
                PromptKind.PROVER_INITIAL,
                PromptVars(formal_statement=node.formal.combined()),
            )
        else:
            prompt = render_prompt(
                PromptKind.PROVER_CORRECTION,
                PromptVars(
                    prev_round_num=str(node.counters.self_correction_in_pass),
                    error_message_for_prev_round=node.last_failure or "unknown error",
                ),
            )
        return prompt, conversation + [("user", prompt)]

    def _do_prove(self, node: ProofNode) -> None:
        prompt, messages = self._prepare_prove(node)
        try:
            response = self._complete("prover", messages)
        except (RemoteExhausted, BadResponse) as exc:
            self._prover_failure(
                node, prompt, f"(backend failure: {exc})", "the prover backend failed to respond"
            )
            return
        self._apply_prover_response(node, prompt, response)

    def _apply_prover_response(self, node: ProofNode, prompt: str, response: str) -> None:
        try:
            decl = split_source(extract_code_block(response)).body.strip()
            if not decl:
                raise NoCodeBlock("code block contains no declaration")
        except NoCodeBlock:
            self._prover_failure(
                node, prompt, response, "the completion did not contain a fenced Lean code block"
            )
            return
        node.proof_attempt = decl
        node.pending_prompt = prompt
        node.pending_response = response
        node.status = NodeStatus.AWAITING_VERIFICATION

    def _prover_failure(self, node: ProofNode, prompt: str, response: str, note: str) -> None:
        self.tree.record_attempt(node.id, "prover", prompt, response, failed=True)
        node.last_failure = note
        node.pending_prompt = node.pending_response = None
        self._after_prover_round(node)

    def _after_prover_round(self, node: ProofNode) -> None:
        if node.counters.passes_used >= self.limits.prover_max_pass:
            node.status = NodeStatus.AWAITING_QUERY_GEN
        else:
            node.status = NodeStatus.AWAITING_PROOF

    def _verification_unit(self, node: ProofNode) -> str:
        return node.formal.preamble + "\n\n" + node.proof_attempt

    def _do_verify(self, node: ProofNode) -> None:
        result = self.verifier.verify_code(self._verification_unit(node))
        self._apply_verification(node, result)

    def _apply_verification(self, node: ProofNode, result: VerificationResult) -> None:
        prompt = node.pending_prompt or ""
        response = node.pending_response or ""
        if result.passed and result.complete:
            self.tree.record_attempt(node.id, "prover", prompt, response, verdict=result)
            node.pending_prompt = node.pending_response = None
            node.status = NodeStatus.PROVEN
            self._propagate_proven(node)
            return
        if result.passed:
            # compiled, but only because sorry/admit remains: still a failure
            result = VerificationResult(
                passed=False,
                complete=False,
                errors=(LeanError("the proof must not contain sorry or admit"),),
                time=result.time,
            )
        self.tree.record_attempt(node.id, "prover", prompt, response, verdict=result)
        node.last_failure = build_error_annotation(self._verification_unit(node), result)
        node.pending_prompt = node.pending_response = None
        self._after_prover_round(node)

    def _propagate_proven(self, node: ProofNode) -> None:
        current = node
        while current.parent is not None:
            parent = self.tree.node(current.parent)
            if parent.status is not NodeStatus.AWAITING_CHILDREN:
                break
            if any(
                self.tree.node(cid).status is not NodeStatus.PROVEN for cid in parent.children
            ):
                break
            parent.status = NodeStatus.PROVEN
            current = parent

    # -------------------------------------------------------- decomposition

    def _do_gen_queries(self, node: ProofNode) -> None:
        kind = (
            PromptKind.QUERY_BACKTRACK
            if node.counters.decompositions_used > 0
            else PromptKind.QUERY_INITIAL
        )
        prompt = render_prompt(kind, PromptVars(formal_theorem=node.formal.body))
        messages = self.tree.conversation(node.id, "decomposer") + [("user", prompt)]
        queries: list[str] = []
        for _ in range(2):  # one ask plus at most one re-ask
            try:
                response = self._complete("search_query", messages)
            except (RemoteExhausted, BadResponse) as exc:
                self.tree.record_attempt(
                    node.id, "search_query", prompt, f"(backend failure: {exc})", failed=True
                )
                break
            try:
                queries = parse_search_queries(response)
            except NoQueries:
                self.tree.record_attempt(node.id, "search_query", prompt, response, failed=True)
                messages = messages + [("assistant", response), ("user", prompt)]
                continue
            self.tree.record_attempt(node.id, "search_query", prompt, response, failed=False)
            break
        node.queries = queries
        node.status = NodeStatus.AWAITING_LOOKUP

    def _do_lookup(self, node: ProofNode) -> None:
        hints: list[tuple[str, str]] = []
        if node.queries and self.search_client is not None:
            try:
                hits = self.search_client.search_theorems(list(node.queries))
                hints = [(hit.full_name, hit.statement) for hit in hits]
            except (ServiceUnavailable, BadResponse):
                hints = []  # retrieval is an aid, not a requirement
        node.hints = hints
        node.status = NodeStatus.AWAITING_SKETCH

    def _do_sketch(self, node: ProofNode) -> None:
        counters = node.counters
        if counters.sketch_corrections_used == 0 and counters.decompositions_used > 0:
            kind = PromptKind.DECOMPOSER_BACKTRACK
            vars = PromptVars(
                prev_round_num=str(node.sketch_attempts_total),
                theorem_hints_section=format_theorem_hints(node.hints),
            )
        elif counters.sketch_corrections_used == 0:
            kind = PromptKind.DECOMPOSER_INITIAL
            vars = PromptVars(
                formal_theorem=node.formal.body,
                theorem_hints_section=format_theorem_hints(node.hints),
            )
        else:
            kind = PromptKind.DECOMPOSER_CORRECTION
            vars = PromptVars(
                prev_round_num=str(counters.sketch_corrections_used),
                error_message_for_prev_round=node.last_sketch_failure or "unknown error",
            )
        prompt = render_prompt(kind, vars)
        messages = self.tree.conversation(node.id, "decomposer") + [("user", prompt)]
        node.sketch_attempts_total += 1
        try:
            response = self._complete("decomposer", messages)
        except (RemoteExhausted, BadResponse) as exc:
            self._sketch_round_failure(
                node,
                prompt,
                f"(backend failure: {exc})",
                "the decomposer backend failed to respond",
            )
            return
        try:
            decl = split_source(extract_code_block(response)).body.strip()
            if not decl:
                raise NoCodeBlock("code block contains no declaration")
        except NoCodeBlock:
            self._sketch_round_failure(
                node, prompt, response, "the completion did not contain a fenced Lean code block"
            )
            return
        node.candidate_sketch = decl
        node.pending_prompt = prompt
        node.pending_response = response
        node.status = NodeStatus.AWAITING_SKETCH_CHECK

    def _do_sketch_check(self, node: ProofNode) -> None:
        unit = node.formal.preamble + "\n\n" + node.candidate_sketch
        result = self.verifier.verify_code(unit)
        prompt = node.pending_prompt or ""
        response = node.pending_response or ""
        if result.passed and not result.complete:
            self.tree.record_attempt(node.id, "decomposer", prompt, response, verdict=result)
            node.sketch = unit
            node.candidate_sketch = None
            node.pending_prompt = node.pending_response = None
            node.status = NodeStatus.AWAITING_AST_PARSE
        elif result.passed:
            # no remaining goals: the "sketch" is already a complete proof
            self.tree.record_attempt(node.id, "decomposer", prompt, response, verdict=result)
            node.proof_attempt = node.candidate_sketch
            node.candidate_sketch = None
            node.pending_prompt = node.pending_response = None
            node.status = NodeStatus.PROVEN
            self._propagate_proven(node)
        else:
            self.tree.record_attempt(node.id, "decomposer", prompt, response, verdict=result)
            node.last_sketch_failure = build_error_annotation(unit, result)
            node.candidate_sketch = None
            node.pending_prompt = node.pending_response = None
            self._after_sketch_failure(node)

    def _sketch_round_failure(
        self, node: ProofNode, prompt: str, response: str, note: str
    ) -> None:
        self.tree.record_attempt(node.id, "decomposer", prompt, response, failed=True)
        node.last_sketch_failure = note
        node.candidate_sketch = None
        node.pending_prompt = node.pending_response = None
        self._after_sketch_failure(node)

    def _note_sketch_failure(self, node: ProofNode, stage: str, message: str) -> None:
        """Count a post-verification sketch defect (AST export or subgoal
        extraction) against the correction budget without inventing a
        conversation round for it."""
        self.tree.note_sketch_defect(node.id, stage, message)
        node.last_sketch_failure = message
        node.sketch = None
        self._ast_cache.pop(node.id, None)
        self._after_sketch_failure(node)

    def _after_sketch_failure(self, node: ProofNode) -> None:
        if node.counters.sketch_corrections_used >= self.limits.decomposer_self_correction:
            self._backtrack_from(node)
        else:
            node.status = NodeStatus.AWAITING_SKETCH

    def _do_parse_ast(self, node: ProofNode) -> None:
        if self.ast_client is None:
            raise LeandecompError("decomposition requires an AST client, none configured")
        try:
            ast, sorries = self.ast_client.fetch_ast(node.sketch)
        except (AstExportFailed, MalformedAst) as exc:
            self._note_sketch_failure(
                node, "ast-export", f"the proof sketch could not be analyzed: {exc}"
            )
            return
        self._ast_cache[node.id] = (ast, sorries)

    def _do_extract_subgoals(self, node: ProofNode) -> None:
        cached = self._ast_cache.pop(node.id, None)
        if cached is None:
            return  # cache lost (e.g. resumed run): next_action re-issues ParseAst
        ast, sorries = cached
        try:
            subgoals = extract_subgoals(ast, sorries)
        except (AnonymousSorry, MalformedAst) as exc:
            self._note_sketch_failure(
                node, "subgoal-extraction", f"the proof sketch could not be decomposed: {exc}"
            )
            return
        names = [subgoal.name for subgoal in subgoals]
        if not names:
            self._note_sketch_failure(
                node, "subgoal-extraction", "the proof sketch contains no named subgoals"
            )
            return
        if len(set(names)) != len(names):
            self._note_sketch_failure(
                node,
                "subgoal-extraction",
                "the proof sketch reuses a subgoal name; every have must introduce a distinct name",
            )
            return
        for subgoal in subgoals:
            self.tree.add_child(node.id, subgoal)
        node.status = NodeStatus.AWAITING_CHILDREN

    # ----------------------------------------------------------- backtracking

    def _backtrack_from(self, node: ProofNode) -> Action:
        """Prune and re-queue the nearest eligible ancestor; fail the run
        when none exists. The node itself is pruned away on success."""
        action = _resolve_backtrack(self.tree, node)
        if action.kind is ActionKind.FINISH:
            self._fail_run(node, action.outcome.report or "backtracking impossible")
        else:
            self.tree.prune_subtree(action.node_id)
            self._purge_ast_cache()
        return action

    def _purge_ast_cache(self) -> None:
        for stale in [nid for nid in self._ast_cache if nid not in self.tree.nodes]:
            del self._ast_cache[stale]

    def _fail_run(self, node: ProofNode, reason: str) -> None:
        node.status = NodeStatus.FAILED
        self.tree.root_node().status = NodeStatus.FAILED
        if self._failure_reason is None:
            self._failure_reason = reason

    # --------------------------------------------------------- reconstruction

    def _do_reconstruct(self, node: ProofNode) -> Outcome:
        try:
            proof = self.tree.reconstruct(node.id)
        except IncompleteSubtree as exc:
            return Outcome(success=False, report=f"reconstruction failed: {exc}")
        result = self.verifier.verify_code(proof)
        if result.passed and result.complete:
            return Outcome(success=True, proof=proof)
        messages = "; ".join(err.message for err in result.errors if err.message)
        return Outcome(
            success=False,
            proof=proof,
            report="reconstructed proof failed final verification"
            + (f": {messages}" if messages else ""),
        )

    # -------------------------------------------------------------- plumbing

    def _complete(self, role: str, messages: list[tuple[str, str]]) -> str:
        backend = self.backends.get(role)
        if backend is None:
            raise LeandecompError(f"no chat backend configured for role {role!r}")
        return backend.complete(messages)

    def _checkpoint(self) -> None:
        if self.checkpoint_path is not None:
            self.tree.save(self.checkpoint_path)

    def _log(self, action: Action, outcome: Outcome | None) -> None:
        if self.run_log_path is None:
            return
        if action.kind is ActionKind.FINISH or outcome is not None:
            result = "success" if (outcome and outcome.success) else "failure"
        elif action.node_id in self.tree.nodes:
            result = self.tree.node(action.node_id).status.value
        else:
            result = "pruned"
        entry = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "node": action.node_id,
            "action": action.kind.value,
            "outcome": result,
        }
        if self._run_log is None:
            self._run_log = open(self.run_log_path, "a", encoding="utf-8")
        self._run_log.write(json.dumps(entry, ensure_ascii=False) + "\n")
        self._run_log.flush()
