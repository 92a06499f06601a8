"""Supervisor state machine driving the proof search.

A single coordinator owns the proof tree and repeatedly picks the
highest-priority ready work: formalizing the root, syntax/semantics-
validating a formalization, proving and verifying leaves, and — when
direct proving exhausts its passes — generating search queries,
retrieving hint theorems, sketching a decomposition, checking the
sketch, and recursing into extracted subgoals. Equal-priority work is
ordered by depth then insertion, so subgoals are processed
breadth-first. Nodes that exceed the depth limit or exhaust their
sketch-correction budget trigger a backtrack: the nearest
grandparent-or-higher ancestor with remaining budget is pruned and
re-decomposed with the alternative-strategy prompts.

Every remote call (each chat role, each verify request, AST export and
theorem search) runs on one of at most ``workers`` threads that live as
long as the run, with at most ``workers`` calls in flight: a dispatched
call goes onto one queue, a worker makes it and puts its result on a
second queue, which the coordinator waits on. The coordinator prepares
each call, applies each result as it lands, writes the checkpoint
journal once per wake-up and dispatches again, so all tree mutations
happen on the coordinator and the subtrees of a sketch advance
independently. A node whose call is in flight is not ready; a result
for a node that a backtrack pruned, or one that lands after the run has
failed, is dropped. Verify actions coalesce: a reply is not verified
while a Prove of its own dispatch pass is in flight, and then the ready
Verifies at its depth share one request; with nothing else in flight
only those of its pass do, which keeps the order of a single worker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from json.encoder import encode_basestring
from queue import Empty, SimpleQueue
from typing import Any, Callable, Mapping, TextIO

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


def _reply_code(response: str) -> LeanSource:
    """The Lean unit a generated reply proposes: its last fenced block,
    split into preamble and a non-empty declaration body. Raises
    NoCodeBlock when there is no such block."""
    source = split_source(extract_code_block(response))
    body = source.body.strip()
    if not body:
        raise NoCodeBlock("code block contains no declaration")
    return LeanSource(preamble=source.preamble, body=body)


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
    tree: ProofTree,
    limits: Limits,
    ast_ready: frozenset[str] = frozenset(),
    busy: frozenset[str] = frozenset(),
) -> Action | None:
    """
    Choose the next action for the tree (pure; no mutation).

    Priority order: formalize > syntax check > semantic check > prove >
    verify > AST parse > query generation > lookup > sketch > sketch
    check > subgoal extraction. Among equal priorities the lowest depth
    wins, then insertion order — so all subgoals at one depth are
    processed before any at the next (breadth-first).

    ``ast_ready`` names nodes whose AST export is already in hand, for
    which the parse step is replaced by extraction. ``busy`` names nodes
    that are not ready (their call is in flight); None means that every
    node with work is busy. A Proven root maps to Reconstruct, a Failed
    root to Finish(failure).
    """
    root = tree.root_node()
    if root.status is NodeStatus.PROVEN:
        return None if root.id in busy else Action(ActionKind.RECONSTRUCT, root.id)
    if root.status is NodeStatus.FAILED:
        return Action(
            ActionKind.FINISH,
            root.id,
            Outcome(success=False, report="proof search failed; see the run history"),
        )
    best: tuple[tuple[int, int, int], ProofNode, ActionKind] | None = None
    waiting = False
    for node in tree.nodes.values():
        entry = _candidate(node, limits, ast_ready)
        if entry is None:
            continue
        if node.id in busy:
            waiting = True
            continue
        priority, kind = entry
        key = (priority, node.depth, node.insertion_seq)
        if best is None or key < best[0]:
            best = (key, node, kind)
    if best is None:
        if waiting:
            return None
        return Action(
            ActionKind.FINISH,
            root.id,
            Outcome(success=False, report="no actionable nodes remain"),
        )
    _, node, kind = best
    if kind is ActionKind.BACKTRACK:
        return _resolve_backtrack(tree, node)
    return Action(kind, node.id)


@dataclass
class _Call:
    """The remote half of an action. ``remote`` runs on a worker thread;
    a Lean check names its unit as ``unit`` instead, so that Verify
    actions can share one request. ``apply`` takes the result on the
    coordinator and returns the Outcome when the action ends the run."""

    apply: Callable[[Any], Outcome | None]
    remote: Callable[[], Any] | None = None
    unit: str | None = None


#: The actions dispatched together as one remote request.
_Group = list[tuple[Action, _Call]]


class Orchestrator:
    """Coordinator that executes actions against the proof tree.

    ``backends`` maps the five agent roles — formalizer, prover,
    semantics, search_query, decomposer — to chat backends exposing
    ``complete(messages) -> str``. ``verifier`` checks Lean units,
    ``ast_client`` exports sketch ASTs (one VerifierClient does both),
    ``search_client`` retrieves hint theorems (both optional until
    decomposition is reached). ``run`` keeps up to ``workers`` remote
    calls in flight on as many worker threads, started as calls need
    them and joined when the run ends; ``workers=1`` makes one call at
    a time, in the order of ``next_action``.
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
        # The code of each node's latest generated reply, parsed when the
        # reply arrived; a resumed run parses it again from the history.
        self._sources: dict[str, LeanSource] = {}
        self._failure_reason: str | None = None
        # Held only while ``run`` executes: the worker threads, the queue
        # of groups for them to take and the queue their results land on,
        # the run log, the calls dispatch started and the run loop has yet
        # to queue, the groups in flight (by identity) with their dispatch
        # pass, and the dispatch pass of each reply awaiting its Verify.
        self._workers: list[threading.Thread] = []
        self._work: SimpleQueue | None = None
        self._landed: SimpleQueue | None = None
        self._run_log: TextIO | None = None
        self._started: _Group | None = None
        self._inflight: dict[int, tuple[int, _Group]] = {}
        self._reply_pass: dict[str, int] = {}
        self._passes = 0

    # ------------------------------------------------------------- main loop

    def run(self) -> Outcome:
        """Dispatch actions until the run finishes; returns the outcome.

        Each wake-up applies the results that landed and dispatches
        again; the checkpoint journal and the run log are written before
        the coordinator waits. The worker threads, the run-log handle and
        the checkpoint journal handle are released when the run returns
        or raises, even when that last journal write fails; calls still
        in flight are waited for and dropped, and queued calls no worker
        has taken are never made.
        """
        self._work, self._landed = SimpleQueue(), SimpleQueue()
        self._started = []
        try:
            outcome = self._dispatch_ready()
            while outcome is None:
                self._persist()
                outcome = self._apply_landed() or self._dispatch_ready()
            return outcome
        finally:
            try:
                self._persist()
            finally:
                self._stop_workers()
                self._work = self._landed = self._started = None
                self._inflight.clear()
                self._reply_pass.clear()
                if self._run_log is not None:
                    self._run_log.close()
                    self._run_log = None
                self.tree.close()

    def dispatch(self, action: Action) -> Outcome | None:
        """Execute one action; returns the final Outcome when the
        action terminates the run (Finish or Reconstruct), else None.

        While ``run`` drives, an action's remote call is left for the run
        loop to hand to a worker, and its result is applied when it
        lands; otherwise the call is made and applied here.
        """
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
            self._forget_pruned()
            return None
        handler = getattr(self, "_do_" + kind.name.lower())
        call = handler(self.tree.node(action.node_id))
        if not isinstance(call, _Call):
            return call
        if self._started is not None:
            self._started.append((action, call))
            return None
        return call.apply(self._remote([call])[0])

    # ----------------------------------------------------------- scheduling

    def _dispatch_ready(self) -> Outcome | None:
        """Dispatch ready actions in priority order until ``workers``
        calls are in flight or none is ready; an action without a remote
        call runs at once. Returns the outcome of an action that ends
        the run."""
        self._passes += 1
        while len(self._inflight) < self.workers:
            not_ready = self._not_ready()
            action = next_action(self.tree, self.limits, frozenset(self._ast_cache), not_ready)
            if action is None:
                return None
            for action in self._coalesced(action, not_ready):
                started = len(self._started)
                outcome = self.dispatch(action)
                if outcome is not None:
                    return self._end(action, outcome)
                if len(self._started) == started:
                    self._log(action, None)
            if self._started:
                group, self._started = self._started, []
                self._inflight[id(group)] = (self._passes, group)
                self._work.put(group)
                if len(self._workers) < len(self._inflight):
                    worker = threading.Thread(
                        target=self._serve, args=(self._work, self._landed), daemon=True
                    )
                    worker.start()
                    self._workers.append(worker)
        return None

    def _serve(self, work: SimpleQueue, landed: SimpleQueue) -> None:
        """A worker thread: makes the request of each group it takes and
        puts the group with its results, or the exception the request
        raised, where the coordinator waits. Stops at None."""
        for group in iter(work.get, None):
            try:
                results = self._remote([call for _, call in group])
            except BaseException as exc:
                results = exc
            landed.put((group, results))

    def _stop_workers(self) -> None:
        """Take back the groups no worker has taken, then stop every
        worker once its call in flight returns, and join it."""
        try:
            while True:
                self._work.get_nowait()
        except Empty:
            pass
        for _ in self._workers:
            self._work.put(None)
        for worker in self._workers:
            worker.join()
        self._workers.clear()

    def _not_ready(self) -> frozenset[str]:
        """Nodes whose call is in flight, and those whose reply waits
        for a Prove of its own dispatch pass still in flight."""
        busy: set[str] = set()
        proving: set[int] = set()
        for pass_, group in self._inflight.values():
            for action, _ in group:
                busy.add(action.node_id)
                if action.kind is ActionKind.PROVE:
                    proving.add(pass_)
        busy.update(node_id for node_id, pass_ in self._reply_pass.items() if pass_ in proving)
        return frozenset(busy)

    def _coalesced(self, action: Action, not_ready: frozenset[str]) -> list[Action]:
        """The action, or for a Verify the ready Verifies at its depth, in
        insertion order: all of them while other calls are in flight, else
        those whose replies came from its dispatch pass. (A single worker
        has nothing else in flight, so it verifies one pass at a time.)"""
        if action.kind is not ActionKind.VERIFY:
            return [action]
        depth = self.tree.node(action.node_id).depth
        reply_pass = self._reply_pass.get(action.node_id)
        peers = sorted(
            (
                node
                for node in self.tree.nodes.values()
                if node.status is NodeStatus.AWAITING_VERIFICATION
                and node.depth == depth
                and node.id not in not_ready
                and (bool(self._inflight) or self._reply_pass.get(node.id) == reply_pass)
            ),
            key=lambda node: node.insertion_seq,
        )
        for node in peers:
            self._reply_pass.pop(node.id, None)
        return [Action(ActionKind.VERIFY, node.id) for node in peers]

    def _remote(self, calls: list[_Call]) -> list:
        """The request of a group, made on a worker thread: one Lean check
        of the calls' units, or the group's single call."""
        if calls[0].unit is None:
            return [calls[0].remote()]
        return self.verifier.verify_batch([call.unit for call in calls])

    def _apply_landed(self) -> Outcome | None:
        """Wait for a call to land, then apply every result that has, in
        the order they landed. Results for pruned nodes, and every result
        after one that fails the run, are dropped. Raises the first
        remote failure once the other results are applied."""
        landed = [self._landed.get()]
        while not self._landed.empty():
            landed.append(self._landed.get_nowait())
        error: BaseException | None = None
        for group, results in landed:
            pass_, _ = self._inflight.pop(id(group))
            if self.tree.root_node().status is NodeStatus.FAILED:
                continue
            if isinstance(results, BaseException):
                error = error or results
                continue
            for (action, call), result in zip(group, results):
                if action.node_id not in self.tree.nodes:
                    self._log(action, None)  # logged as pruned
                    continue
                outcome = call.apply(result)
                if outcome is not None:
                    return self._end(action, outcome)
                node = self.tree.node(action.node_id)
                if action.kind is ActionKind.PROVE and node.status is NodeStatus.AWAITING_VERIFICATION:
                    self._reply_pass[node.id] = pass_
                self._log(action, None)
        if error is not None:
            raise error
        return None

    def _end(self, action: Action, outcome: Outcome) -> Outcome:
        self._log(action, outcome)
        if action.kind is not ActionKind.FINISH:
            self._log(Action(ActionKind.FINISH, self.tree.root, outcome), outcome)
        return outcome

    # -------------------------------------------------------- formalization

    def _do_formalize(self, node: ProofNode) -> _Call:
        if node.name is None:
            node.name = generate_theorem_name(node.informal_statement or "")
        prompt = render_prompt(
            PromptKind.FORMALIZER,
            PromptVars(
                formal_statement_name=node.name,
                informal_statement=node.informal_statement or "",
            ),
        )

        def apply(reply: str | LeandecompError) -> None:
            if self._take_reply(node, "formalizer", prompt, reply, NodeStatus.AWAITING_SYNTAX_CHECK):
                self._after_formalization_failure(node)

        return _Call(apply, partial(self._ask, "formalizer", [("user", prompt)]))

    def _formalization(self, node: ProofNode) -> LeanSource:
        """The statement of the node's latest formalizer round, under its
        normalized preamble."""
        source = self._reply_source(node)
        return LeanSource(preamble=normalize_preamble(source.preamble).text, body=source.body)

    def _do_syntax_check(self, node: ProofNode) -> _Call:
        def apply(result: VerificationResult) -> None:
            self.tree.record_verdict(node.id, result)
            if result.passed:
                node.status = NodeStatus.AWAITING_SEMANTIC_CHECK
            else:
                self._after_formalization_failure(node)

        return _Call(apply, unit=self._formalization(node).combined())

    def _do_semantic_check(self, node: ProofNode) -> _Call:
        formal = self._formalization(node)
        prompt = render_prompt(
            PromptKind.SEMANTIC_CHECK,
            PromptVars(
                informal_statement=node.informal_statement or "",
                formal_statement=formal.body,
            ),
        )

        def apply(response: str | LeandecompError) -> None:
            if isinstance(response, LeandecompError):
                response, appropriate = f"(backend failure: {response})", False
            else:
                try:
                    appropriate = parse_judgement(response).verdict is Verdict.APPROPRIATE
                except NoJudgement:
                    appropriate = False
            self.tree.record_attempt(node.id, "semantics", prompt, response, failed=not appropriate)
            if appropriate:
                node.formal = formal
                node.status = NodeStatus.AWAITING_PROOF
            else:
                self._after_formalization_failure(node)

        return _Call(apply, partial(self._ask, "semantics", [("user", prompt)]))

    def _after_formalization_failure(self, node: ProofNode) -> None:
        if node.counters.formalize_retries >= self.limits.formalizer_max_retries:
            self._fail_run(
                node,
                f"formalization of node {node.id} exhausted its "
                f"{self.limits.formalizer_max_retries} retries without an accepted statement",
            )
        else:
            node.status = NodeStatus.AWAITING_FORMALIZATION

    # ------------------------------------------------------- prove / verify

    def _do_prove(self, node: ProofNode) -> _Call:
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

        def apply(reply: str | LeandecompError) -> None:
            note = self._take_reply(node, "prover", prompt, reply, NodeStatus.AWAITING_VERIFICATION)
            if note is not None:
                node.last_failure = note
                self._after_prover_round(node)

        return _Call(apply, partial(self._ask, "prover", conversation + [("user", prompt)]))

    def _after_prover_round(self, node: ProofNode) -> None:
        if node.counters.passes_used >= self.limits.prover_max_pass:
            node.status = NodeStatus.AWAITING_QUERY_GEN
        else:
            node.status = NodeStatus.AWAITING_PROOF

    def _do_verify(self, node: ProofNode) -> _Call:
        decl = self._reply_source(node).body
        return _Call(
            partial(self._apply_verification, node, decl),
            unit=node.formal.preamble + "\n\n" + decl,
        )

    def _apply_verification(self, node: ProofNode, decl: str, result: VerificationResult) -> None:
        if result.passed and result.complete:
            self.tree.record_verdict(node.id, result)
            node.proof_attempt = decl
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
        self.tree.record_verdict(node.id, result)
        node.last_failure = build_error_annotation(node.formal.preamble + "\n\n" + decl, result)
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

    def _do_gen_queries(self, node: ProofNode) -> _Call:
        kind = (
            PromptKind.QUERY_BACKTRACK
            if node.counters.decompositions_used > 0
            else PromptKind.QUERY_INITIAL
        )
        prompt = render_prompt(kind, PromptVars(formal_theorem=node.formal.body))
        messages = self.tree.conversation(node.id, "decomposer") + [("user", prompt)]

        def ask() -> list[tuple[str | LeandecompError, list[str] | None]]:
            """Each reply with its queries (None when it has none): one
            ask plus at most one re-ask."""
            rounds, turns = [], messages
            for _ in range(2):
                reply = self._ask("search_query", turns)
                if isinstance(reply, LeandecompError):
                    return rounds + [(reply, None)]
                try:
                    return rounds + [(reply, parse_search_queries(reply))]
                except NoQueries:
                    rounds.append((reply, None))
                    turns = turns + [("assistant", reply), ("user", prompt)]
            return rounds

        def apply(rounds) -> None:
            node.queries = []
            for reply, queries in rounds:
                if isinstance(reply, LeandecompError):
                    reply = f"(backend failure: {reply})"
                self.tree.record_attempt(
                    node.id, "search_query", prompt, reply, failed=queries is None
                )
                node.queries = queries or []
            node.status = NodeStatus.AWAITING_LOOKUP

        return _Call(apply, ask)

    def _do_lookup(self, node: ProofNode) -> _Call | None:
        def apply(hints: list[tuple[str, str]]) -> None:
            node.hints = hints
            node.status = NodeStatus.AWAITING_SKETCH

        if not node.queries or self.search_client is None:
            return apply([])
        return _Call(apply, partial(self._search, list(node.queries)))

    def _search(self, queries: list[str]) -> list[tuple[str, str]]:
        try:
            hits = self.search_client.search_theorems(queries)
        except (ServiceUnavailable, BadResponse):
            return []  # retrieval is an aid, not a requirement
        return [(hit.full_name, hit.statement) for hit in hits]

    def _do_sketch(self, node: ProofNode) -> _Call:
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

        def apply(reply: str | LeandecompError) -> None:
            node.sketch_attempts_total += 1
            note = self._take_reply(
                node, "decomposer", prompt, reply, NodeStatus.AWAITING_SKETCH_CHECK
            )
            if note is not None:
                node.last_sketch_failure = note
                self._after_sketch_failure(node)

        return _Call(apply, partial(self._ask, "decomposer", messages))

    def _do_sketch_check(self, node: ProofNode) -> _Call:
        decl = self._reply_source(node).body
        unit = node.formal.preamble + "\n\n" + decl

        def apply(result: VerificationResult) -> None:
            self.tree.record_verdict(node.id, result)
            if result.passed and not result.complete:
                node.sketch = unit
                node.status = NodeStatus.AWAITING_AST_PARSE
            elif result.passed:
                # no remaining goals: the "sketch" is already a complete proof
                node.proof_attempt = decl
                node.status = NodeStatus.PROVEN
                self._propagate_proven(node)
            else:
                node.last_sketch_failure = build_error_annotation(unit, result)
                self._after_sketch_failure(node)

        return _Call(apply, unit=unit)

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

    def _do_parse_ast(self, node: ProofNode) -> _Call:
        if self.ast_client is None:
            raise LeandecompError("decomposition requires an AST client, none configured")

        def apply(export: tuple[object, list] | LeandecompError) -> None:
            if isinstance(export, LeandecompError):
                self._note_sketch_failure(
                    node, "ast-export", f"the proof sketch could not be analyzed: {export}"
                )
            else:
                self._ast_cache[node.id] = export

        return _Call(apply, partial(self._fetch_ast, node.sketch))

    def _fetch_ast(self, sketch: str) -> tuple[object, list] | LeandecompError:
        try:
            return self.ast_client.fetch_ast(sketch)
        except (AstExportFailed, MalformedAst) as exc:
            return exc

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

    def _backtrack_from(self, node: ProofNode) -> None:
        """Prune and re-queue the nearest eligible ancestor; fail the run
        when none exists. The node itself is pruned away on success."""
        action = _resolve_backtrack(self.tree, node)
        if action.kind is ActionKind.FINISH:
            self._fail_run(node, action.outcome.report or "backtracking impossible")
        else:
            self.tree.prune_subtree(action.node_id)
            self._forget_pruned()

    def _forget_pruned(self) -> None:
        """Drop what the coordinator keeps in memory for pruned nodes."""
        for kept in (self._ast_cache, self._sources, self._reply_pass):
            for stale in [node_id for node_id in kept if node_id not in self.tree.nodes]:
                del kept[stale]

    def _fail_run(self, node: ProofNode, reason: str) -> None:
        node.status = NodeStatus.FAILED
        self.tree.root_node().status = NodeStatus.FAILED
        if self._failure_reason is None:
            self._failure_reason = reason

    # --------------------------------------------------------- reconstruction

    def _do_reconstruct(self, node: ProofNode) -> _Call | Outcome:
        try:
            proof = self.tree.reconstruct(node.id)
        except IncompleteSubtree as exc:
            return Outcome(success=False, report=f"reconstruction failed: {exc}")

        def apply(result: VerificationResult) -> Outcome:
            if result.passed and result.complete:
                return Outcome(success=True, proof=proof)
            messages = "; ".join(err.message for err in result.errors if err.message)
            return Outcome(
                success=False,
                proof=proof,
                report="reconstructed proof failed final verification"
                + (f": {messages}" if messages else ""),
            )

        return _Call(apply, unit=proof)

    # -------------------------------------------------------------- plumbing

    def _complete(self, role: str, messages: list[tuple[str, str]]) -> str:
        backend = self.backends.get(role)
        if backend is None:
            raise LeandecompError(f"no chat backend configured for role {role!r}")
        return backend.complete(messages)

    def _ask(self, role: str, messages: list[tuple[str, str]]) -> str | LeandecompError:
        """The role's reply, or the backend failure that stands in for it."""
        try:
            return self._complete(role, messages)
        except (RemoteExhausted, BadResponse) as exc:
            return exc

    def _reply_source(self, node: ProofNode) -> LeanSource:
        """The Lean unit of the node's latest generated round: parsed
        when the reply arrived, or from the history after a resume."""
        source = self._sources.get(node.id)
        if source is None:
            source = self._sources[node.id] = _reply_code(self.tree.last_round(node.id)["response"])
        return source

    def _take_reply(
        self,
        node: ProofNode,
        role: str,
        prompt: str,
        reply: str | LeandecompError,
        awaiting: NodeStatus,
    ) -> str | None:
        """Record a generated reply. One that proposes Lean code becomes
        the round awaiting its check, and the node moves to ``awaiting``;
        returns None. Any other reply, or a backend failure, is recorded
        as a failed round; returns what went wrong."""
        if isinstance(reply, LeandecompError):
            response, note = f"(backend failure: {reply})", f"the {role} backend failed to respond"
        else:
            try:
                source = _reply_code(reply)
            except NoCodeBlock:
                response = reply
                note = "the completion did not contain a fenced Lean code block"
            else:
                self.tree.record_reply(node.id, role, prompt, reply)
                self._sources[node.id] = source
                node.status = awaiting
                return None
        self.tree.record_attempt(node.id, role, prompt, response, failed=True)
        return note

    def _persist(self) -> None:
        """Write the checkpoint journal and flush the run log."""
        self._checkpoint()
        if self._run_log is not None:
            self._run_log.flush()

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
        # The line json.dumps(..., ensure_ascii=False) would write; only
        # the node id can need escaping (timestamps and enum values never do).
        node = "null" if action.node_id is None else encode_basestring(action.node_id)
        if self._run_log is None:
            self._run_log = open(self.run_log_path, "a", encoding="utf-8")
        self._run_log.write(
            f'{{"ts": "{datetime.now(timezone.utc).isoformat()}", "node": {node}, '
            f'"action": "{action.kind.value}", "outcome": "{result}"}}\n'
        )
