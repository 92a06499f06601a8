"""Latency-injecting stand-ins for the four remote services.

``World`` holds what every fake shares: the scenario's replies, the
seeded latency of each call, a pool of REMOTE_SLOTS remote slots, and
the per-role accounting the benchmark reports. The in-process adapters
wrap the scripted fakes in ``tests/fakes.py``; ``server.py`` serves the
same replies over HTTP/1.1 for the CLI workload.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager

from leandecomp.services import LeanError, TheoremHit, VerificationResult
from tests.fakes import BuilderAst, RuleVerifier, ScriptedSearch, lean_block

from model import (
    FAIL_MARKER,
    REMOTE_SLOTS,
    ROLES,
    header,
    latency,
    queries,
    reasoning_text,
    statement,
)

_SUBJECT_RE = re.compile(r"\btheorem (g(?:_[0-9a-z]+)*) :")
_SORRY_RE = re.compile(r"\bsorry\b")

HITS = (
    ("Nat.add_comm", "theorem Nat.add_comm (n m : ℕ) : n + m = m + n"),
    ("Nat.add_zero", "theorem Nat.add_zero (n : ℕ) : n + 0 = n"),
)


def subject_of(text: str) -> str:
    match = _SUBJECT_RE.search(text)
    if match is None:
        raise ValueError(f"no benchmark theorem in: {text[:120]!r}")
    return match.group(1)


def chat_subject(role: str, messages) -> str:
    """The theorem a chat call is about: the first one its messages state.
    The formalizer is only ever asked for the root."""
    if role == "formalizer":
        return "g"
    for _, content in messages:
        match = _SUBJECT_RE.search(content)
        if match:
            return match.group(1)
    raise ValueError(f"{role} call names no benchmark theorem")


def verdict(code: str) -> tuple[tuple[int, int] | None, bool]:
    """How the fake Lean server grades a unit: the 1-based (line, column)
    of the fail marker, if any, and whether a sorry remains."""
    offset = code.find(FAIL_MARKER)
    error = None
    if offset >= 0:
        line = code.count("\n", 0, offset) + 1
        error = line, offset - (code.rfind("\n", 0, offset) + 1) + 1
    return error, bool(_SORRY_RE.search(code))


class World:
    """Replies, latency and accounting shared by every fake of one run."""

    def __init__(self, scenario, seed: int, scale: float, tracer=None):
        self.scenario = scenario
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(REMOTE_SLOTS)
        self._ordinals: dict[tuple[str, str], int] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._ordinals.clear()
            self.outage_served = False
            self.calls = dict.fromkeys(ROLES, 0)
            self.busy_s = dict.fromkeys(ROLES, 0.0)
            self.failed = dict.fromkeys(ROLES, 0)
            self.verifier_requests = 0
            self.prompt_chars = 0
            self.proofs_passed = 0
            self.inflight = 0
            self.inflight_max = 0

    def snapshot(self) -> dict:
        """The accounting as plain data."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "busy_s": dict(self.busy_s),
                "failed": dict(self.failed),
                "verifier_requests": self.verifier_requests,
                "prompt_chars": self.prompt_chars,
                "proofs_passed": self.proofs_passed,
                "inflight_max": self.inflight_max,
            }

    # ------------------------------------------------------------ plumbing

    def ordinal(self, role: str, subject: str) -> int:
        with self._lock:
            n = self._ordinals.get((role, subject), 0)
            self._ordinals[(role, subject)] = n + 1
            return n

    @contextmanager
    def remote(self, role: str, seconds: float, count: int = 1):
        """Hold a remote slot for ``seconds`` and account the call. Busy
        time starts once the slot is held, so queueing for one is not
        counted as remote work."""
        ok = False
        with self._slots:
            span = self.tracer.begin(f"remote.{role}") if self.tracer else None
            start = time.perf_counter()
            with self._lock:
                self.inflight += 1
                self.inflight_max = max(self.inflight_max, self.inflight)
            try:
                if seconds:
                    time.sleep(seconds)
                yield
                ok = True
            finally:
                with self._lock:
                    self.inflight -= 1
                    self.calls[role] += count
                    self.busy_s[role] += time.perf_counter() - start
                    if not ok:
                        self.failed[role] += 1
                if span is not None:
                    self.tracer.end(span)

    def _latency(self, role: str, subject: str) -> float:
        return latency(self.seed, role, subject, self.ordinal(role, subject), self.scale)

    # ------------------------------------------------------------- replies

    def chat(self, role: str, messages) -> str:
        subject = chat_subject(role, messages)
        ordinal = self.ordinal(role, subject)
        seconds = latency(self.seed, role, subject, ordinal, self.scale)
        with self._lock:
            self.prompt_chars += sum(len(content) for _, content in messages)
        with self.remote(role, seconds):
            return self._reply(role, subject, ordinal, messages)

    def _reply(self, role: str, subject: str, ordinal: int, messages) -> str:
        scenario = self.scenario
        if role == "formalizer":
            prop = scenario.formalization(ordinal)
            return lean_block(f"{header(subject, prop)} := by\n  sorry", "Formalization follows.")
        if role == "semantics":
            # content-keyed: the wrong formalization is judged Inappropriate
            wrong = getattr(scenario, "wrong_statement", None)
            if wrong is not None and any(wrong in content for _, content in messages):
                return "Thought: the constant moved.\nJudgement: Inappropriate"
            return "Thought: the statements agree.\nJudgement: Appropriate"
        if role == "search_query":
            return "\n".join(f"<search>{q}</search>" for q in queries(subject))
        chatter = reasoning_text(self.seed, subject, ordinal)
        if role == "prover":
            tactic = "omega" if scenario.prover_passes(subject, ordinal) else FAIL_MARKER
            return lean_block(f"{header(subject)} := by\n  {tactic}", chatter)
        if role == "decomposer":
            children = scenario.sketch(subject, ordinal)
            if children is None:
                return lean_block(f"{header(subject)} := by\n  {FAIL_MARKER}", chatter)
            haves = "".join(
                f"  have {child} : {statement(child)} := by\n    sorry\n" for child in children
            )
            return lean_block(f"{header(subject)} := by\n{haves}  omega", chatter)
        raise ValueError(f"no replies scripted for role {role!r}")

    def verifier_batch(self, codes: list[str]):
        """The remote slot of one verification request, held for its
        slowest unit's latency. Raises Outage, without waiting, for the
        first request with a unit that states the outage theorem."""
        outage = getattr(self.scenario, "outage_header", None)
        if outage is not None:
            with self._lock:
                hit = not self.outage_served and any(outage in code for code in codes)
                if hit:
                    self.outage_served = True
                    self.calls["verifier"] += len(codes)
                    self.failed["verifier"] += 1
                    self.verifier_requests += 1
            if hit:
                raise Outage()
        seconds = max(self._latency("verifier", subject_of(code)) for code in codes)
        # a passing unit without subgoals is a prover reply that worked
        proofs = sum(verdict(code) == (None, False) and "have " not in code for code in codes)
        with self._lock:
            self.verifier_requests += 1
            self.proofs_passed += proofs
        return self.remote("verifier", seconds, count=len(codes))

    def ast(self, code: str):
        return self.remote("ast", self._latency("ast", subject_of(code)))

    def search(self, query: str):
        return self.remote("search", self._latency("search", query))


class Outage(Exception):
    """The scripted verifier outage."""


# -------------------------------------------------------- in-process fakes


class Chat:
    """Chat backend for one role. (``tests.fakes.ScriptedChat`` runs its
    script under a lock, which would serialize parallel prover calls.)"""

    def __init__(self, world: World, role: str):
        self.world = world
        self.role = role

    def complete(self, messages):
        return self.world.chat(self.role, messages)


def _graded(code: str) -> VerificationResult:
    error, sorry = verdict(code)
    if error is not None:
        span = (error, (error[0], error[1] + len(FAIL_MARKER)))
        message = f"unknown identifier '{FAIL_MARKER}'"
        return VerificationResult(False, False, (LeanError(message, span),))
    return VerificationResult(passed=True, complete=not sorry)


def make_in_process(world: World):
    """(backends, verifier, ast_client, search_client) for the Python API."""

    class Verifier(RuleVerifier):
        def verify_batch(self, codes, timeout: float = 300.0):
            with world.verifier_batch(list(codes)):
                return super().verify_batch(codes, timeout)

    class Ast(BuilderAst):
        def fetch_ast(self, code, module_name="User.Code", timeout=300.0):
            with world.ast(code):
                return super().fetch_ast(code, module_name, timeout)

    class Search(ScriptedSearch):
        def search_theorems(self, queries):
            for query in queries:
                with world.search(query):
                    pass
            return super().search_theorems(queries)

    hits = [TheoremHit(name, text, "Mathlib", 9.0 - i) for i, (name, text) in enumerate(HITS)]
    roles = ("formalizer", "prover", "semantics", "search_query", "decomposer")
    backends = {role: Chat(world, role) for role in roles}
    return backends, Verifier(_graded), Ast(), Search(hits)
