"""Supervisor state machine driving the proof search.

A single coordinator owns the proof tree and repeatedly picks the
highest-priority ready work: formalizing the root, syntax/semantics-
validating a formalization, proving and verifying leaves, and — when
direct proving exhausts its passes — generating search queries,
retrieving hint theorems, sketching a decomposition, checking the
sketch, and recursing into extracted subgoals. Equal-priority work is
ordered by depth then node creation, so subgoals are processed
breadth-first. A node proves in passes of self-correction rounds. The
passes are independent, so a worker that would otherwise idle opens
another pass on the lowest-depth node whose open passes are all busy,
once that node has failed a round: at most as many passes as workers
are open on a node, the first to verify proves it, and a reply that
lands later is recorded unchecked. So a node proven after a failed
round may cost up to ``workers - 1`` more prover calls. Nodes that
exceed the depth limit or exhaust their sketch-correction budget
trigger a backtrack: the nearest grandparent-or-higher ancestor with
remaining budget is pruned and re-decomposed with the
alternative-strategy prompts.

Every remote call (each chat role, each verify request, AST export and
theorem search) runs on one of at most ``workers`` threads that live as
long as the run, with at most ``workers`` calls in flight: ``dispatch``
returns an action's remote call, the calls dispatched together go onto
one queue, a worker makes them and puts the results on a second queue,
which the coordinator waits on. The coordinator applies each result as
it lands, writes the checkpoint journal once per wake-up and
dispatches again, so all tree mutations
happen on the coordinator and the subtrees of a sketch advance
independently. A node whose call is in flight is not ready; a result
for a node that a backtrack pruned, or one that lands after the run has
failed, is dropped. Verify actions coalesce: a reply is not verified
while a Prove of its own dispatch wave is in flight, and then the ready
Verifies at its depth share one request; with nothing else in flight
only those of its wave do, which keeps the order of a single worker.
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
from .errors import (
    AnonymousSorry,
    AstExportFailed,
    BadResponse,
    LeandecompError,
    MalformedAst,
    NoCodeBlock,
    NoJudgement,
    NoQueries,
    RemoteExhausted,
    ServiceUnavailable,
    SubgoalNotFound,
)
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
    A Prove, and the Verify of its reply, name their prover pass.
    """

    kind: ActionKind
    node_id: str | None
    outcome: Outcome | None = None
    pass_: int | None = None


#: The work of a node in each status: its priority (lower = sooner) and
#: its action. Other statuses have none (terminal, or waiting on children).
_STATUS_ACTIONS = {
    NodeStatus.AWAITING_FORMALIZATION: (1, ActionKind.FORMALIZE),
    NodeStatus.AWAITING_SYNTAX_CHECK: (2, ActionKind.SYNTAX_CHECK),
    NodeStatus.AWAITING_SEMANTIC_CHECK: (3, ActionKind.SEMANTIC_CHECK),
    NodeStatus.AWAITING_PROOF: (4, ActionKind.PROVE),
    NodeStatus.AWAITING_VERIFICATION: (5, ActionKind.VERIFY),
    NodeStatus.AWAITING_AST_PARSE: (6, ActionKind.PARSE_AST),
    NodeStatus.AWAITING_QUERY_GEN: (7, ActionKind.GEN_QUERIES),
    NodeStatus.AWAITING_LOOKUP: (8, ActionKind.LOOKUP),
    NodeStatus.AWAITING_SKETCH: (9, ActionKind.SKETCH),
    NodeStatus.AWAITING_SKETCH_CHECK: (10, ActionKind.SKETCH_CHECK),
}


#: The statuses of a node in its prover phase, by whether a pass's reply
#: awaits its check.
_AWAITING_REPLY = {False: NodeStatus.AWAITING_PROOF, True: NodeStatus.AWAITING_VERIFICATION}
_PROVING = frozenset(_AWAITING_REPLY.values())


def _candidates(tree: ProofTree, node: ProofNode, ast_ready: frozenset[str]):
    """The node's work as (priority, kind, prover pass) triples, from
    ``_STATUS_ACTIONS``. In the prover phase, each open pass has a Prove,
    or the Verify of its reply; with none open, a Prove opens the next.
    Otherwise the node's status has its entry, with two overrides:
    extraction for a node whose AST export is in hand, and a backtrack in
    place of query generation at the depth limit."""
    if node.status in _PROVING:
        passes = tree.passes(node.id)
        for pass_ in passes.open or [passes.next]:
            replied = pass_ in passes.unjudged
            yield (*_STATUS_ACTIONS[_AWAITING_REPLY[replied]], pass_)
    elif node.status is NodeStatus.AWAITING_AST_PARSE and node.id in ast_ready:
        yield 11, ActionKind.EXTRACT_SUBGOALS, None  # recursion has the lowest priority
    elif node.status is NodeStatus.AWAITING_QUERY_GEN and node.depth >= tree.limits.max_depth:
        yield 7, ActionKind.BACKTRACK, None
    elif node.status in _STATUS_ACTIONS:
        yield (*_STATUS_ACTIONS[node.status], None)


def _may_open_pass(tree: ProofTree, node: ProofNode, open_passes: int) -> bool:
    """Whether a node with no ready work may open one more prover pass:
    it is in its prover phase with fewer than ``open_passes`` passes
    open, has failed a prover round, and has opened fewer passes than
    its budget allows."""
    if node.status not in _PROVING:
        return False
    passes = tree.passes(node.id)
    return (
        len(passes.open) < open_passes
        and len(passes.seen) < tree.limits.prover_max_pass
        and bool(passes.notes)  # a note per pass that failed a round
    )


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
    ast_ready: frozenset[str] = frozenset(),
    busy: frozenset[tuple[str, int | None]] = frozenset(),
    *,
    open_passes: int,
) -> Action | None:
    """
    Choose the next action for the tree (pure; no mutation).

    Each node's actions and priorities come from ``_candidates``. Among
    equal priorities the lowest depth wins, then creation order — so all
    subgoals at one depth are processed before any at the next
    (breadth-first).

    ``ast_ready`` names nodes whose AST export is already in hand, for
    which the parse step is replaced by extraction. ``busy`` names the
    work that is not ready (its call is in flight, or its reply is held)
    as (node id, prover pass) pairs, the pass None for work outside a
    prover pass. When nothing else is ready, a Prove opens one more pass
    on the lowest-depth, earliest node that ``_may_open_pass`` allows,
    with at most ``open_passes`` open on a node; else None means that
    every node with work is busy. A Proven root maps to Reconstruct, a
    Failed root to Finish(failure).
    """
    root = tree.root_node()
    if root.status is NodeStatus.PROVEN:
        return None if (root.id, None) in busy else Action(ActionKind.RECONSTRUCT, root.id)
    if root.status is NodeStatus.FAILED:
        return Action(
            ActionKind.FINISH,
            root.id,
            Outcome(success=False, report="proof search failed; see the run history"),
        )
    best: tuple[tuple[int, int], ProofNode, ActionKind, int | None] | None = None
    spare: ProofNode | None = None  # the node to open another prover pass on
    waiting = False
    for node in tree.nodes.values():
        ready = False
        for priority, kind, pass_ in _candidates(tree, node, ast_ready):
            if (node.id, pass_) in busy:
                waiting = True
                continue
            ready = True
            key = (priority, node.depth)
            if best is None or key < best[0]:
                best = (key, node, kind, pass_)
        if (
            not ready
            and (spare is None or node.depth < spare.depth)
            and _may_open_pass(tree, node, open_passes)
        ):
            spare = node
    if best is None:
        if spare is not None:
            return Action(ActionKind.PROVE, spare.id, pass_=tree.passes(spare.id).next)
        if waiting:
            return None
        return Action(
            ActionKind.FINISH,
            root.id,
            Outcome(success=False, report="no actionable nodes remain"),
        )
    _, node, kind, pass_ = best
    if kind is ActionKind.BACKTRACK:
        return _resolve_backtrack(tree, node)
    return Action(kind, node.id, pass_=pass_)


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
        # Held only while ``run`` executes: the worker threads, the queue
        # of groups for them to take and the queue their results land on,
        # the run log, the groups in flight (by identity) with their
        # dispatch wave, and the wave of each reply awaiting its Verify,
        # by (node id, prover pass).
        self._workers: list[threading.Thread] = []
        self._work: SimpleQueue | None = None
        self._landed: SimpleQueue | None = None
        self._run_log: TextIO | None = None
        self._inflight: dict[int, tuple[int, _Group]] = {}
        self._reply_wave: dict[tuple[str, int], int] = {}
        self._wave = 0

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
                self._work = self._landed = None
                self._inflight.clear()
                self._reply_wave.clear()
                if self._run_log is not None:
                    self._run_log.close()
                    self._run_log = None
                self.tree.close()

    def dispatch(self, action: Action) -> Outcome | _Call | None:
        """Execute the local half of one action. Returns its remote half,
        the ``_Call`` that ``run`` hands to a worker; the final Outcome
        when the action ends the run; else None. Makes no remote call."""
        kind = action.kind
        if kind is ActionKind.FINISH:
            self._fail_run(self.tree.node(action.node_id), action.outcome.report)
            return Outcome(success=False, report=self._failure_reason)
        if kind is ActionKind.BACKTRACK:
            self.tree.prune_subtree(action.node_id)
            self._forget_pruned()
            return None
        handler = getattr(self, "_do_" + kind.name.lower())
        node = self.tree.node(action.node_id)
        return handler(node) if action.pass_ is None else handler(node, action.pass_)

    # ----------------------------------------------------------- scheduling

    def _dispatch_ready(self) -> Outcome | None:
        """Dispatch ready actions in priority order until ``workers``
        calls are in flight or none is ready; an action without a remote
        call runs at once. Returns the outcome of an action that ends
        the run. A node may have as many prover passes open as there are
        workers."""
        self._wave += 1
        while len(self._inflight) < self.workers:
            not_ready = self._not_ready()
            action = next_action(
                self.tree, frozenset(self._ast_cache), not_ready, open_passes=self.workers
            )
            if action is None:
                return None
            group: _Group = []
            for action in self._coalesced(action, not_ready):
                result = self.dispatch(action)
                if isinstance(result, _Call):
                    group.append((action, result))
                elif result is not None:
                    return self._end(action, result)
                else:
                    self._log(action, None)
            if group:
                self._inflight[id(group)] = (self._wave, group)
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

    def _not_ready(self) -> frozenset[tuple[str, int | None]]:
        """The (node id, prover pass) of each call in flight, and of each
        reply that waits for a Prove of its own dispatch wave still in
        flight."""
        busy: set[tuple[str, int | None]] = set()
        proving: set[int] = set()
        for wave, group in self._inflight.values():
            for action, _ in group:
                busy.add((action.node_id, action.pass_))
                if action.kind is ActionKind.PROVE:
                    proving.add(wave)
        busy.update(key for key, wave in self._reply_wave.items() if wave in proving)
        return frozenset(busy)

    def _coalesced(
        self, action: Action, not_ready: frozenset[tuple[str, int | None]]
    ) -> list[Action]:
        """The action, or for a Verify the ready Verifies at its depth, in
        creation order of their nodes: all of them while other calls are
        in flight, else those whose replies came from its dispatch wave.
        (A single worker has nothing else in flight, so it verifies one
        wave at a time.)"""
        if action.kind is not ActionKind.VERIFY:
            return [action]
        depth = self.tree.node(action.node_id).depth
        wave = self._reply_wave.get((action.node_id, action.pass_))
        peers = [
            (node.id, pass_)
            for node in self.tree.nodes.values()
            if node.status is NodeStatus.AWAITING_VERIFICATION and node.depth == depth
            for pass_ in self.tree.passes(node.id).unjudged
            if (node.id, pass_) not in not_ready
            and (bool(self._inflight) or self._reply_wave.get((node.id, pass_)) == wave)
        ]
        for key in peers:
            self._reply_wave.pop(key, None)
        return [Action(ActionKind.VERIFY, node_id, pass_=pass_) for node_id, pass_ in peers]

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
            wave, _ = self._inflight.pop(id(group))
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
                key = (action.node_id, action.pass_)
                if action.kind is ActionKind.PROVE and self.tree.unjudged_round(*key):
                    self._reply_wave[key] = wave
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
        return self._generate(node, "formalizer", [], prompt)

    def _do_semantic_check(self, node: ProofNode) -> _Call:
        formal = self.tree.unit(node.id)
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
                    appropriate = parse_judgement(response) is Verdict.APPROPRIATE
                except NoJudgement:
                    appropriate = False
            self.tree.record_attempt(node.id, "semantics", prompt, response, failed=not appropriate)
            if appropriate:
                node.formal = formal
                node.status = NodeStatus.AWAITING_PROOF
            else:
                self._failed(node, "semantics", None)

        return _Call(apply, partial(self._ask, "semantics", [("user", prompt)]))

    # ---------------------------------------------------------------- prove

    def _do_prove(self, node: ProofNode, pass_: int) -> _Call:
        """The next round of prover pass ``pass_``, opening it if need be."""
        passes = self.tree.passes(node.id)
        if pass_ not in passes.open:
            self.tree.open_pass(node.id, pass_)
        conversation = self.tree.conversation(node.id, "prover", pass_)
        if not conversation:
            prompt = render_prompt(
                PromptKind.PROVER_INITIAL,
                PromptVars(formal_statement=node.formal.combined()),
            )
        else:
            prompt = render_prompt(
                PromptKind.PROVER_CORRECTION,
                PromptVars(
                    prev_round_num=str(passes.open[pass_]),
                    error_message_for_prev_round=passes.notes[pass_] or "unknown error",
                ),
            )
        return self._generate(node, "prover", conversation, prompt, pass_)

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

    # ------------------------------------------------------ rounds and checks

    def _generate(
        self, node: ProofNode, role: str, conversation: list[tuple[str, str]], prompt: str,
        pass_: int | None = None,
    ) -> _Call:
        """The call that asks ``role`` to continue ``conversation`` with
        ``prompt`` (in prover pass ``pass_``). A reply that proposes Lean
        code becomes the round awaiting its Lean check, and the node
        awaits that check. Any other reply, or a backend failure, is a
        failed round. A reply for a node that another prover pass proved
        meanwhile is recorded unchecked."""

        def apply(reply: str | LeandecompError) -> None:
            response = reply if isinstance(reply, str) else f"(backend failure: {reply})"
            if node.status is NodeStatus.PROVEN:
                self.tree.record_attempt(node.id, role, prompt, response, None, pass_)
                return
            if isinstance(reply, LeandecompError):
                note = f"the {role} backend failed to respond"
            else:
                try:
                    self.tree.record_reply(node.id, role, prompt, reply, pass_)
                    return
                except NoCodeBlock:
                    note = "the completion did not contain a fenced Lean code block"
            self.tree.record_attempt(node.id, role, prompt, response, True, pass_, note)
            self._failed(node, role, note)

        return _Call(apply, partial(self._ask, role, conversation + [("user", prompt)]))

    def _do_verify(self, node: ProofNode, pass_: int | None = None) -> _Call:
        """The Lean check of the node's round awaiting it, for every role:
        a formalizer's statement (SyntaxCheck), a prover's proof of pass
        ``pass_`` (Verify) or a decomposer's sketch (SketchCheck). A proof
        that compiles only because sorry or admit remains fails; a sketch
        with goals left goes on to its AST export, and one with none
        proves the node. The first prover pass to verify proves the node;
        a result for a round it closed unchecked is dropped."""
        role = self.tree.unjudged_round(node.id, pass_)["role"]
        unit = self.tree.unit(node.id, pass_).combined()

        def apply(result: VerificationResult) -> None:
            if self.tree.unjudged_round(node.id, pass_) is None:
                return
            if role == "prover" and result.passed and not result.complete:
                result = VerificationResult(
                    passed=False,
                    complete=False,
                    errors=(LeanError("the proof must not contain sorry or admit"),),
                    time=result.time,
                )
            annotate = not result.passed and role != "formalizer"
            note = build_error_annotation(unit, result) if annotate else None
            self.tree.record_verdict(node.id, result, pass_, note)
            if not result.passed:
                self._failed(node, role, note)
            elif role == "formalizer":
                node.status = NodeStatus.AWAITING_SEMANTIC_CHECK
            elif not result.complete:
                node.status = NodeStatus.AWAITING_AST_PARSE
            else:
                node.status = NodeStatus.PROVEN
                self._propagate_proven(node)

        return _Call(apply, unit=unit)

    _do_syntax_check = _do_sketch_check = _do_verify

    def _failed(self, node: ProofNode, role: str, note: str | None) -> None:
        """Go on after a failed round of ``role``, which the tree has
        charged to the role's budget. The role tries again until that
        budget is spent; then formalization fails the run, proving gives
        way to decomposition and sketching backtracks. ``note`` says what
        went wrong, for the next decomposer correction prompt (a prover
        round keeps its note in its pass); a formalization retry starts
        afresh and shows none. A prover node awaits the check of another
        pass's round, or its next round, until every pass has ended."""
        limits, counters = self.tree.limits, node.counters
        if role in ("formalizer", "semantics"):
            if counters.formalize_retries < limits.formalizer_max_retries:
                node.status = NodeStatus.AWAITING_FORMALIZATION
            else:
                self._fail_run(
                    node,
                    f"formalization of node {node.id} exhausted its "
                    f"{limits.formalizer_max_retries} retries without an accepted statement",
                )
            return
        if role == "prover":
            spent = self.tree.passes(node.id).ended >= limits.prover_max_pass
            replied = bool(self.tree.passes(node.id).unjudged)
            node.status = NodeStatus.AWAITING_QUERY_GEN if spent else _AWAITING_REPLY[replied]
            return
        node.last_failure = note
        if counters.sketch_corrections_used < limits.decomposer_self_correction:
            node.status = NodeStatus.AWAITING_SKETCH
        else:
            self.dispatch(_resolve_backtrack(self.tree, node))  # prunes the node, or fails the run

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
            for reply, queries in rounds:
                if isinstance(reply, LeandecompError):
                    reply = f"(backend failure: {reply})"
                self.tree.record_attempt(
                    node.id, "search_query", prompt, reply, failed=queries is None
                )
            node.status = NodeStatus.AWAITING_LOOKUP

        return _Call(apply, ask)

    def _do_lookup(self, node: ProofNode) -> _Call | None:
        def apply(hints: list[tuple[str, str]]) -> None:
            node.hints = hints
            node.status = NodeStatus.AWAITING_SKETCH

        asked = self.tree.last_round(node.id)  # the latest search-query round
        if asked["failed"] or self.search_client is None:
            return apply([])
        return _Call(apply, partial(self._search, parse_search_queries(asked["response"])))

    def _search(self, queries: list[str]) -> list[tuple[str, str]]:
        try:
            hits = self.search_client.search_theorems(queries)
        except (ServiceUnavailable, BadResponse):
            return []  # retrieval is an aid, not a requirement
        return [(hit.full_name, hit.statement) for hit in hits]

    def _do_sketch(self, node: ProofNode) -> _Call:
        counters = node.counters
        conversation = self.tree.conversation(node.id, "decomposer")
        if counters.sketch_corrections_used == 0 and counters.decompositions_used > 0:
            kind = PromptKind.DECOMPOSER_BACKTRACK
            vars = PromptVars(
                prev_round_num=str(len(conversation) // 2),
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
                error_message_for_prev_round=node.last_failure or "unknown error",
            )
        return self._generate(node, "decomposer", conversation, render_prompt(kind, vars))

    def _note_sketch_failure(self, node: ProofNode, stage: str, message: str) -> None:
        """Count a post-verification sketch defect (AST export or subgoal
        extraction) against the correction budget, as a failed decomposer
        entry with the prompt ``(<stage>)``, which the decomposer's
        conversation leaves out."""
        self.tree.record_attempt(node.id, "decomposer", f"({stage})", message, failed=True)
        self._ast_cache.pop(node.id, None)
        self._failed(node, "decomposer", message)

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

        return _Call(apply, partial(self._fetch_ast, self.tree.unit(node.id).combined()))

    def _fetch_ast(self, sketch: str) -> tuple[object, list] | LeandecompError:
        try:
            return self.ast_client.fetch_ast(sketch)
        except (AstExportFailed, MalformedAst) as exc:
            return exc

    def _do_extract_subgoals(self, node: ProofNode) -> None:
        ast, sorries = self._ast_cache.pop(node.id)
        try:
            subgoals = extract_subgoals(ast, sorries)
            if not subgoals:
                defect = "the proof sketch contains no named subgoals"
            else:
                self.tree.check_splice(node.id, subgoals)
                for subgoal in subgoals:
                    self.tree.add_child(node.id, subgoal)
                node.status = NodeStatus.AWAITING_CHILDREN
                return
        except (AnonymousSorry, MalformedAst, SubgoalNotFound) as exc:
            defect = f"the proof sketch could not be decomposed: {exc}"
        self._note_sketch_failure(node, "subgoal-extraction", defect)

    # ----------------------------------------------------------- backtracking

    def _forget_pruned(self) -> None:
        """Drop what the coordinator keeps in memory for pruned nodes."""
        nodes = self.tree.nodes
        self._ast_cache = {key: kept for key, kept in self._ast_cache.items() if key in nodes}
        self._reply_wave = {key: kept for key, kept in self._reply_wave.items() if key[0] in nodes}

    def _fail_run(self, node: ProofNode, reason: str) -> None:
        node.status = NodeStatus.FAILED
        self.tree.root_node().status = NodeStatus.FAILED
        if self._failure_reason is None:
            self._failure_reason = reason

    # --------------------------------------------------------- reconstruction

    def _do_reconstruct(self, node: ProofNode) -> _Call | Outcome:
        try:
            proof = self.tree.reconstruct(node.id)
        except LeandecompError as exc:
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

    def _ask(self, role: str, messages: list[tuple[str, str]]) -> str | LeandecompError:
        """The role's reply, or the backend failure that stands in for it.
        Raises LeandecompError when no backend serves the role."""
        backend = self.backends.get(role)
        if backend is None:
            raise LeandecompError(f"no chat backend configured for role {role!r}")
        try:
            return backend.complete(messages)
        except (RemoteExhausted, BadResponse) as exc:
            return exc

    def _persist(self) -> None:
        """Write the checkpoint journal and flush the run log."""
        if self.checkpoint_path is not None:
            self.tree.save(self.checkpoint_path)
        if self._run_log is not None:
            self._run_log.flush()

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
