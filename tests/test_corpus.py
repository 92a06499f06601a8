"""Exit 0 means the input statement is proven: an adversarial corpus.

Each case is one model reply, run through ``cli.main`` over the
localhost stack of ``tests/test_cli.py::fake_stack``, whose Lean fake
passes any unit without ``sorry`` or ``FAILTAC``. That is the worst-case
server: only the program's own checks stand between a cheat and exit 0.

A cheat must exit 1. One the program still lets through is marked
``xfail(strict=True)`` with the ROADMAP.md item (and step) that closes
it, so an unexpected pass fails the suite and that change removes the
mark. The positive controls are honest proofs that must exit 0, and
the Lean fake cannot see a proof garbled by splicing: so ``proof.lean``
must also hold every declaration at the top level, none inside a proof.
"""

import re
from typing import NamedTuple

import pytest

from leandecomp.cli import main

from .fakes import FAIL_MARKER, lean_block
from .test_cli import QUERY_RESPONSE, ROLE_MODELS, fake_stack

HARD = "theorem hard : ∀ n : ℕ, n + 1 > n + 2"
HARD_FILE = f"import Mathlib\n\n{HARD} := by\n  sorry\n"
SUCC = "theorem succ_gt : ∀ n : ℕ, n < n + 1"
SUCC_FILE = f"import Mathlib\n\n{SUCC} := by\n  sorry\n"
#: The decomposer's sketch of ``SUCC`` in the cases of role "child".
SUCC_SKETCH = f"{SUCC} := by\n  have step : ∀ n : ℕ, n < n + 1 := by\n    sorry\n  exact step"

A, B, C = ("item 1 step " + step for step in "ABC")


class Case(NamedTuple):
    role: str  # who sends ``reply``: "prover", "decomposer" or "child" (the prover of a subgoal)
    reply: str  # the Lean text of that reply
    closed_by: str | None  # the item that gives it its exit code; None: it has it today
    input_file: str = HARD_FILE
    exit_code: int = 1


CASES = {
    # (a) a different statement under the node's name
    "different-statement": Case("prover", "theorem hard : True := trivial", A),
    # (b) an axiom that proves False, then the input statement from it
    "axiom-false": Case("prover", f"axiom cheat : False\n\n{HARD} := cheat.elim", B),
    # (c) a different name and statement
    "different-name": Case("prover", "theorem easy : 1 = 1 := by rfl", A),
    # (d) the input statement byte for byte, with `>` re-elaborated by a new instance
    "instance-override": Case(
        "prover",
        "instance (priority := high) cheatLT : LT ℕ := ⟨fun _ _ => True⟩\n\n"
        f"{HARD} :=\n  fun _ => trivial",
        B,
    ),
    # (e) once the prover's passes are spent, a sketch with no goals left
    # that states something else
    "goal-free-sketch": Case("decomposer", "theorem hard : True := by\n  trivial", A),
    # One case per rule of step B's allowlist: the input statement byte
    # for byte, beside a command that changes what its proof means.
    "skip-kernel-check": Case(
        "prover", f"set_option debug.skipKernelTC true in\n{HARD} := by\n  intro n\n  omega", B
    ),
    "macro-rules": Case(
        "prover",
        "macro_rules | `(tactic| omega) => `(tactic| exact cheat)\n\n"
        f"{HARD} := by\n  intro n\n  omega",
        B,
    ),
    "implemented-by-helper": Case(
        "prover",
        "def honest (n : ℕ) : Bool := false\n\n"
        "@[implemented_by honest] def check (n : ℕ) : Bool := true\n\n"
        f"{HARD} := by\n  intro n\n  native_decide",
        B,
    ),
    "def": Case("prover", f"def two : ℕ := 2\n\n{HARD} := by\n  intro n\n  simp [two]", B),
    "opaque": Case("prover", f"opaque witness : False\n\n{HARD} :=\n  witness.elim", B),
    "notation": Case("prover", f"notation:50 a \" > \" b => a = a\n\n{HARD} :=\n  fun _ => rfl", B),
    "attribute": Case(
        "prover",
        "attribute [simp] Nat.lt_irrefl\n\n"
        f"{HARD} := by\n  intro n\n  simp_all",
        B,
    ),
    # `hard` inside a namespace declares `X.hard`, not the input's theorem
    "namespace": Case(
        "prover", f"namespace X\n\n{HARD} := by\n  intro n\n  omega\n\nend X", B
    ),
    # evaluated by the compiler, trusted through `Lean.ofReduceBool`
    "native-decide": Case("prover", f"{HARD} := by\n  intro n\n  native_decide", C),
    "term-mode-proof": Case(
        "prover", f"{SUCC} :=\n  fun n => Nat.lt_succ_self n", None, SUCC_FILE, 0
    ),
    "comments-next-to-the-declaration": Case(
        "prover",
        "-- the successor is larger\n"
        f"/-- Every natural number is below its successor. -/\n{SUCC} := by\n"
        "  intro n -- one number\n  exact Nat.lt_succ_self n\n/- done -/",
        None,
        SUCC_FILE,
        0,
    ),
    # a subgoal's proof that uses a helper lemma of its own
    "simp-helper-lemma": Case(
        "child",
        "@[simp] lemma lt_succ_aux (n : ℕ) : n < n + 1 := by\n  exact Nat.lt_succ_self n\n\n"
        "theorem step : ∀ n : ℕ, n < n + 1 := by\n  intro n\n  simp",
        "item 2",
        SUCC_FILE,
        0,
    ),
}


def params():
    for name, case in CASES.items():
        marks = ()
        if case.closed_by is not None:
            marks = pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=f"closed by {case.closed_by}"
            )
        yield pytest.param(case, id=name, marks=marks)


def corpus_reply(case: Case):
    """The chat script of one case: the case's role sends its reply; a
    prover that does not fails every round, so the run reaches the
    decomposer. For a "child" case the decomposer sends ``SUCC_SKETCH``
    and the reply proves its subgoal."""

    def reply(model, messages):
        if case.role == "child":
            if model == ROLE_MODELS["decomposer"]:
                return lean_block(SUCC_SKETCH)
            if model == ROLE_MODELS["prover"] and "theorem step :" in messages[0]["content"]:
                return lean_block(case.reply)
        elif model == ROLE_MODELS[case.role]:
            return lean_block(case.reply)
        if model == ROLE_MODELS["prover"]:
            return lean_block(f"{HARD} := by\n  {FAIL_MARKER}")
        if model == ROLE_MODELS["search_query"]:
            return QUERY_RESPONSE
        raise AssertionError(f"unexpected call to {model}")

    return reply


@pytest.mark.parametrize("case", params())
def test_exit_zero_only_for_a_proof_of_the_input(tmp_path, monkeypatch, case):
    service = fake_stack(monkeypatch, corpus_reply(case))
    try:
        lean = tmp_path / "input.lean"
        lean.write_text(case.input_file, encoding="utf-8")
        code = main(["--file", str(lean), "--out", str(tmp_path / "out")])
    finally:
        service.stop()
    assert code == case.exit_code
    if code == 0:
        proof = (tmp_path / "out" / "proof.lean").read_text(encoding="utf-8")
        assert not re.search(r"^[ \t]+(@\[[^\]]*\]\s*)?(theorem|lemma) ", proof, re.M)
