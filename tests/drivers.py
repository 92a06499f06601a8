"""Drivers that push one node through one phase of the pipeline.

``Orchestrator.run`` picks actions for the whole tree; these helpers
dispatch only the actions of a single node, so tests can stop after
formalization, a prover pass, a decomposition or a depth overflow and
inspect the budgets spent.
"""

from __future__ import annotations

from enum import Enum

from leandecomp.errors import LeandecompError
from leandecomp.orchestrator import (
    Action,
    ActionKind,
    Orchestrator,
    Outcome,
    _Call,
    _candidates,
    _resolve_backtrack,
)
from leandecomp.proof_state import NodeStatus, ProofNode, ProofTree

from .fakes import lean_block


class FormalizationExhausted(LeandecompError):
    """All formalization retries were spent without an accepted statement."""


class ProveOutcome(Enum):
    PROVEN = "Proven"
    NEEDS_DECOMPOSITION = "NeedsDecomposition"


#: Statuses handled by the formalization pipeline driver.
_FORMALIZATION_STATUSES = frozenset(
    {
        NodeStatus.AWAITING_FORMALIZATION,
        NodeStatus.AWAITING_SYNTAX_CHECK,
        NodeStatus.AWAITING_SEMANTIC_CHECK,
    }
)

#: Statuses handled by the decomposition driver.
_DECOMPOSITION_STATUSES = frozenset(
    {
        NodeStatus.AWAITING_QUERY_GEN,
        NodeStatus.AWAITING_LOOKUP,
        NodeStatus.AWAITING_SKETCH,
        NodeStatus.AWAITING_SKETCH_CHECK,
        NodeStatus.AWAITING_AST_PARSE,
    }
)


def dispatch_now(orch: Orchestrator, action: Action) -> Outcome | None:
    """Dispatch one action and, when it returns a remote call, make the
    call here and apply its result; returns the Outcome that ends the
    run, else None."""
    result = orch.dispatch(action)
    if isinstance(result, _Call):
        return result.apply(orch._remote([result])[0])
    return result


def record_verified(tree: ProofTree, node_id: str, role: str, code: str) -> None:
    """Record ``code`` as the node's latest generated round, judged
    passed: a prover's proof or a decomposer's sketch, as a reply that
    verified would leave it in the history."""
    pass_ = 1 if role == "prover" else None
    tree.record_attempt(node_id, role, f"({role} prompt)", lean_block(code), False, pass_)


def latest_decl(tree: ProofTree, node_id: str) -> str:
    """The declaration of the node's latest generated round."""
    return tree.unit(node_id).body


def _node_action(orch: Orchestrator, node: ProofNode) -> Action:
    """The node's first action, as a single worker would take it."""
    entry = next(_candidates(orch.tree, node, frozenset(orch._ast_cache)), None)
    if entry is None:
        raise LeandecompError(
            f"node {node.id} has no applicable action in status {node.status.value}"
        )
    _, kind, pass_ = entry
    if kind is ActionKind.BACKTRACK:
        return _resolve_backtrack(orch.tree, node)
    return Action(kind, node.id, pass_=pass_)


def run_formalization(orch: Orchestrator, node_id: str) -> None:
    """Drive one node through formalize/syntax/semantics until it is
    formal (AwaitingProof) or the shared retry budget is spent.

    Raises FormalizationExhausted in the latter case.
    """
    node = orch.tree.node(node_id)
    while node.status in _FORMALIZATION_STATUSES:
        dispatch_now(orch, _node_action(orch, node))
    if node.status is NodeStatus.FAILED:
        raise FormalizationExhausted(
            orch._failure_reason or f"formalization of node {node_id} failed"
        )


def run_prover_pass(orch: Orchestrator, node_id: str) -> ProveOutcome:
    """Drive one node's prove/verify/correct loop to its outcome:
    Proven, or NeedsDecomposition once every pass is spent."""
    node = orch.tree.node(node_id)
    while node.status in (NodeStatus.AWAITING_PROOF, NodeStatus.AWAITING_VERIFICATION):
        dispatch_now(orch, _node_action(orch, node))
    if node.status is NodeStatus.PROVEN:
        return ProveOutcome.PROVEN
    if node.status is NodeStatus.AWAITING_QUERY_GEN:
        return ProveOutcome.NEEDS_DECOMPOSITION
    raise LeandecompError(
        f"prover loop left node {node_id} in unexpected status {node.status.value}"
    )


def run_decomposition(orch: Orchestrator, node_id: str) -> None:
    """Drive one node through query/lookup/sketch/check/extract until
    children exist (AwaitingChildren), the node is proven outright, or a
    backtrack prunes it / fails the run."""
    tree = orch.tree
    while node_id in tree.nodes and tree.node(node_id).status in _DECOMPOSITION_STATUSES:
        if dispatch_now(orch, _node_action(orch, tree.node(node_id))) is not None:
            break


def handle_depth_overflow(orch: Orchestrator, node_id: str) -> Action:
    """Backtrack from a node at or beyond the depth limit: prune and
    re-queue the nearest eligible ancestor, or finish with failure when
    none exists. Returns the action that was performed."""
    action = _resolve_backtrack(orch.tree, orch.tree.node(node_id))
    dispatch_now(orch, action)
    return action
