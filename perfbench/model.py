"""Workload model: synthetic proof trees, the seeded latency model, the
budget arithmetic a run must reproduce, and the ideal wall clock.

Nothing here imports the program under test. The expected call counts
and ``ideal_s`` are derived from the workload description alone, so
they are the same constants on every commit and can judge the program
rather than echo it.

Latency is keyed on (seed, role, subject, ordinal): the subject is the
theorem a call is about and the ordinal counts that role's earlier
calls on the same subject. Calls on one subject are causally ordered
(each correction needs the previous verdict), so the key never depends
on how a scheduler interleaves different subjects, and it does not
change when prompt wording or unit formatting changes.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist

# The traffic below is assumed, not measured: no recorded latencies of
# real chat, Lean or search calls exist to calibrate it against. Replace
# the medians, SIGMA and REASONING_CHARS once run logs with per-role call
# durations are available.

#: Median latency in seconds of one call, per remote role, at scale 1.
ROLE_MEDIAN_S = {
    "formalizer": 0.010,
    "semantics": 0.005,
    "prover": 0.010,
    "search_query": 0.005,
    "decomposer": 0.020,
    "verifier": 0.005,
    "ast": 0.005,
    "search": 0.0025,
}
ROLES = tuple(ROLE_MEDIAN_S)

#: Log-space standard deviation of the lognormal latency draw.
SIGMA = 0.25

#: Remote calls the fakes serve at once; a third call waits for a slot.
REMOTE_SLOTS = 2

#: Workers the program runs with on every workload (``--workers 2``).
WORKERS = 2

#: Tactic that the fake verifier rejects with a positioned error.
FAIL_MARKER = "FAILTAC"

#: Length of the reasoning text that precedes prover and decomposer code.
REASONING_CHARS = 4096

PREAMBLE = (
    "import Mathlib\nimport Aesop\n\nset_option maxHeartbeats 0\n\n"
    "open BigOperators Real Nat Topology Rat"
)

_NORMAL = NormalDist()


def latency(seed: int, role: str, subject: str, ordinal: int, scale: float) -> float:
    """Seconds one remote call takes: a lognormal draw around the role's
    median, fixed by (seed, role, subject, ordinal)."""
    if scale == 0:
        return 0.0
    digest = hashlib.blake2b(f"{seed}|{role}|{subject}|{ordinal}".encode(), digest_size=8)
    u = (int.from_bytes(digest.digest(), "big") + 0.5) / 2**64
    return ROLE_MEDIAN_S[role] * scale * math.exp(SIGMA * _NORMAL.inv_cdf(u))


@functools.lru_cache(maxsize=2)
def _word_pool(seed: int) -> str:
    rng = random.Random(seed)
    words = ("plan", "bound", "case", "step", "term", "lemma", "order", "rewrite",
             "limit", "split", "norm", "cast", "apply", "goal", "ring", "field")
    return " ".join(rng.choice(words) for _ in range(4 * REASONING_CHARS))


def reasoning_text(seed: int, subject: str, ordinal: int) -> str:
    """Seeded prose of exactly REASONING_CHARS characters. Its words never
    contain a Lean keyword, a fence, a tag or a marker the fakes look for."""
    pool = _word_pool(seed)
    digest = hashlib.blake2b(f"{subject}|{ordinal}".encode(), digest_size=4).digest()
    start = int.from_bytes(digest, "big") % (len(pool) - REASONING_CHARS)
    return pool[start : start + REASONING_CHARS]


def statement(subject: str) -> str:
    """The proposition a subject states; distinct per subject."""
    k = sum(ord(ch) for ch in subject) + len(subject)
    return f"∀ n : ℕ, n + {k} = {k} + n"


def header(subject: str, prop: str | None = None) -> str:
    return f"theorem {subject} : {prop or statement(subject)}"


def queries(subject: str) -> list[str]:
    return [f"{subject} rewrite lemma", f"{subject} bound lemma"]


# ------------------------------------------------------------------ scenarios


@dataclass
class Task:
    """A chain of blocking remote calls that may start once every task in
    ``after`` has finished. Calls are (role, subject) pairs."""

    name: str
    calls: list[tuple[str, str]]
    after: list[str] = field(default_factory=list)


def _prove_calls(subject: str, rounds: int) -> list[tuple[str, str]]:
    return [(role, subject) for _ in range(rounds) for role in ("prover", "verifier")]


def _decompose_calls(subject: str, sketches: int) -> list[tuple[str, str]]:
    calls = [("search_query", subject)] + [("search", q) for q in queries(subject)]
    calls += [(role, subject) for _ in range(sketches) for role in ("decomposer", "verifier")]
    return calls + [("ast", subject)]


class TreeScenario:
    """Full tree of width W and depth D under root ``g``. Every internal
    node fails all its prover rounds and decomposes into W subgoals;
    every leaf is proven by its first prover reply."""

    root = "g"
    rounds = 2 * 32  # default budgets: 2 self-corrections x 32 passes

    def __init__(self, width: int, depth: int):
        self.width = width
        self.depth = depth

    def is_leaf(self, subject: str) -> bool:
        return subject.count("_") >= self.depth

    def prover_passes(self, subject: str, ordinal: int) -> bool:
        return self.is_leaf(subject)

    def sketch(self, subject: str, ordinal: int) -> list[str] | None:
        """Subgoal names of the decomposer's reply; None for a broken sketch."""
        return [f"{subject}_{i}" for i in range(1, self.width + 1)]

    def subjects(self) -> list[str]:
        """Every node, breadth-first."""
        level, out = [self.root], []
        while level:
            out += level
            level = [c for s in level if not self.is_leaf(s) for c in self.sketch(s, 0)]
        return out

    def leaves(self) -> list[str]:
        return [s for s in self.subjects() if self.is_leaf(s)]

    def input_code(self) -> str:
        return f"{PREAMBLE}\n\n{header(self.root)} := by\n  sorry\n"

    def expected_calls(self) -> dict[str, int]:
        nodes = self.subjects()
        internal = len(nodes) - len(self.leaves())
        prover = internal * self.rounds + len(self.leaves())
        return {
            "formalizer": 0,
            "semantics": 0,
            "prover": prover,
            "search_query": internal,
            "decomposer": internal,
            # one unit per prover reply, one per sketch, and the final check
            "verifier": prover + internal + 1,
            "ast": internal,
            "search": internal * len(queries(self.root)),
        }

    def tasks(self) -> list[Task]:
        tasks = []
        for subject in self.subjects():
            parent = [subject.rsplit("_", 1)[0]] if subject != self.root else []
            if self.is_leaf(subject):
                calls = _prove_calls(subject, 1)
            else:
                calls = _prove_calls(subject, self.rounds) + _decompose_calls(subject, 1)
            tasks.append(Task(subject, calls, parent))
        tasks.append(Task("final", [("verifier", self.root)], [t.name for t in tasks]))
        return tasks


class CrashResumeScenario:
    """The CLI story: informal input, one Inappropriate judgement, a
    broken first sketch, a depth-2 overflow that backtracks to the root,
    a re-decomposition, a verifier outage that ends the first invocation,
    and a resume that finishes the proof.

    Budgets come from the INI file: 4 passes x 2 self-corrections, depth
    limit 2, no verifier retries.
    """

    root = "g"
    rounds = 4 * 2
    #: The first verifier request holding a unit that states this theorem
    #: is answered 503 (content-keyed, so resume order does not matter).
    outage_header = "theorem g_d "
    wrong_statement = "∀ n : ℕ, n + 1 = n"
    informal = "For every natural number n, adding a constant on either side gives equal sums."
    failing = frozenset({"g", "g_b", "g_b_1"})
    sketches = {
        "g": [None, ["g_a", "g_b"], ["g_c", "g_d"]],
        "g_b": [["g_b_1", "g_b_2"]],
    }

    def prover_passes(self, subject: str, ordinal: int) -> bool:
        return subject not in self.failing

    def sketch(self, subject: str, ordinal: int) -> list[str] | None:
        return self.sketches[subject][ordinal]

    def formalization(self, ordinal: int) -> str:
        return self.wrong_statement if ordinal == 0 else statement(self.root)

    def leaves(self) -> list[str]:
        return ["g_c", "g_d"]

    def expected_calls(self) -> dict[str, int]:
        r = self.rounds
        prover = r + 1 + r + r + 1 + 1 + 1  # g, g_a, g_b, g_b_1, g_b_2, g_c, g_d
        return {
            "formalizer": 2,
            "semantics": 2,
            "prover": prover,
            "search_query": 3,  # g, g_b, g again after the backtrack
            "decomposer": 4,  # g: broken, first, second; g_b: one
            # 2 syntax checks, one unit per prover reply, 4 sketch checks,
            # g_c and g_d resent after the outage, and the final check
            "verifier": 2 + prover + 4 + 2 + 1,
            "ast": 3,
            "search": 3 * len(queries(self.root)),
        }

    def tasks(self) -> list[Task]:
        r = self.rounds
        formalize = [("formalizer", "g"), ("verifier", "g"), ("semantics", "g")] * 2
        return [
            Task("formalize", formalize),
            Task("g", _prove_calls("g", r) + _decompose_calls("g", 2), ["formalize"]),
            Task("g_a", _prove_calls("g_a", 1), ["g"]),
            Task("g_b", _prove_calls("g_b", r) + _decompose_calls("g_b", 1), ["g"]),
            Task("g_b_1", _prove_calls("g_b_1", r), ["g_b"]),
            Task("g_b_2", _prove_calls("g_b_2", 1), ["g_b"]),
            # the overflow of g_b_1 sends the root back to decomposition
            Task("g_again", _decompose_calls("g", 1), ["g_b_1"]),
            Task("g_c", _prove_calls("g_c", 1), ["g_again"]),
            # the 503 answer takes no time and consumes no latency draw
            Task("g_d", _prove_calls("g_d", 1), ["g_again"]),
            Task("final", [("verifier", "g")], ["g_a", "g_b_2", "g_c", "g_d"]),
        ]


# ------------------------------------------------------------------- ideal


def ideal_s(scenario, seed: int, scale: float) -> float:
    """Lower bound on a run's wall clock from the workload alone: the
    longer of the critical path of blocking calls and the total busy
    time of calls that cannot share a slot, spread over REMOTE_SLOTS.

    Verifier units are left out of the busy bound because batching lets
    several share one call; they still count on the critical path.
    """
    ordinals: dict[tuple[str, str], int] = {}
    finish: dict[str, float] = {}
    busy = 0.0
    for task in scenario.tasks():
        duration = 0.0
        for role, subject in task.calls:
            ordinal = ordinals.get((role, subject), 0)
            ordinals[(role, subject)] = ordinal + 1
            seconds = latency(seed, role, subject, ordinal, scale)
            duration += seconds
            if role != "verifier":
                busy += seconds
        start = max((finish[name] for name in task.after), default=0.0)
        finish[task.name] = start + duration
    return max(max(finish.values()), busy / REMOTE_SLOTS)
