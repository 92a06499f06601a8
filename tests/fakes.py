"""In-process scripted stand-ins for the four external services.

These fakes drive orchestrator tests without sockets: a chat backend
replaying a script, a verifier applying a content rule, an AST client
backed by the independent payload builder, and a canned search client.
All of them count calls so tests can assert exact budgets.
"""

from __future__ import annotations

import threading

from leandecomp.ast_model import parse_ast
from leandecomp.errors import BadSketch, ServiceError
from leandecomp.lean_source import tokenize
from leandecomp.services import LeanError, VerificationResult

from .ast_builder import build_sketch_payload

#: Marker tactic: any code containing it fails verification.
FAIL_MARKER = "FAILTAC"


def count_sorries(code: str) -> int:
    """Count ``sorry`` tokens outside comments and string literals."""
    return sum(1 for tok in tokenize(code) if tok.text == "sorry")


def lean_block(code: str, chatter: str = "Reasoning first.") -> str:
    """Wrap code the way chat models answer: prose plus a fenced block."""
    return f"{chatter}\n\n```lean4\n{code}\n```\n"


class ScriptedChat:
    """Chat backend replaying a script.

    ``script`` is either a callable ``(messages) -> str`` or a list
    whose items are strings (returned), exceptions (raised), or
    callables ``(messages) -> str``. Every call's messages are kept in
    ``transcripts`` for prompt assertions, and every returned reply in
    ``replies``.
    """

    def __init__(self, script):
        self._script = script
        self._lock = threading.Lock()
        self.calls = 0
        self.transcripts: list[list[tuple[str, str]]] = []
        self.replies: list[str] = []

    def complete(self, messages):
        with self._lock:
            self.calls += 1
            self.transcripts.append([tuple(turn) for turn in messages])
            if callable(self._script):
                item = self._script(messages)
            else:
                if not self._script:
                    raise AssertionError("chat script exhausted")
                item = self._script.pop(0)
        if callable(item):
            item = item(messages)
        if isinstance(item, Exception):
            raise item
        self.replies.append(item)
        return item


def default_verify_rule(code: str) -> VerificationResult:
    """Pass unless the code contains FAIL_MARKER; complete when also
    sorry-free — mirroring how the real checker grades sketches."""
    if FAIL_MARKER in code:
        return VerificationResult(
            passed=False,
            complete=False,
            errors=(LeanError(f"unknown identifier '{FAIL_MARKER}'"),),
        )
    return VerificationResult(passed=True, complete=count_sorries(code) == 0)


class RuleVerifier:
    """Verifier grading each unit with a pure content rule."""

    def __init__(self, rule=None):
        self.rule = rule or default_verify_rule
        self.calls = 0
        self.checked: list[str] = []
        self.batch_sizes: list[int] = []

    def verify_batch(self, codes, timeout: float = 300.0):
        self.calls += len(codes)
        self.batch_sizes.append(len(codes))
        self.checked.extend(codes)
        return [self.rule(code) for code in codes]


class BuilderAst:
    """AST client deriving payloads from sketch text via the test-side
    builder, so any scripted sketch gets a realistic export."""

    def __init__(self, fail_for=()):
        self.calls = 0
        self.fail_for = tuple(fail_for)
        self.seen: list[str] = []

    def fetch_ast(self, code: str, module_name: str = "User.Code", timeout: float = 300.0):
        self.calls += 1
        self.seen.append(code)
        for marker in self.fail_for:
            if marker in code:
                raise BadSketch(f"export rejected marker {marker!r}")
        return parse_ast(build_sketch_payload(code))


class ScriptedSearch:
    """Search client returning a canned hit list (or scripted outage)."""

    def __init__(self, hits=(), unavailable: bool = False):
        self.hits = list(hits)
        self.unavailable = unavailable
        self.calls = 0
        self.seen_queries: list[list[str]] = []

    def search_theorems(self, queries):
        self.calls += 1
        self.seen_queries.append(list(queries))
        if self.unavailable:
            raise ServiceError("search scripted as unavailable")
        return list(self.hits)


class TripwireChat:
    """Backend that fails the test when called."""

    def __init__(self, role: str):
        self.role = role

    def complete(self, messages):
        raise AssertionError(f"unexpected call to the {self.role} backend")


def make_backends(**overrides):
    """All five roles, defaulting to tripwires so tests notice calls
    they did not script."""
    roles = ("formalizer", "prover", "semantics", "search_query", "decomposer")
    backends = {role: TripwireChat(role) for role in roles}
    for role, backend in overrides.items():
        if role not in backends:
            raise KeyError(f"unknown backend role {role!r}")
        backends[role] = backend
    return backends
