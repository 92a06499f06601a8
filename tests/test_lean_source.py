import pytest
from hypothesis import given
from hypothesis import strategies as st

from leandecomp.config import Limits
from leandecomp.errors import BadReply, BadSketch
from leandecomp.lean_source import (
    CANONICAL_PREAMBLE_LINES,
    HEADER_KEYWORDS,
    extract_code_block,
    normalize_preamble,
    splice_sorries,
    split_source,
    tokenize,
)
from leandecomp.proof_state import ProofTree
from tests.fakes import count_sorries
from tests.sample_proofs import (
    CANONICAL_PREAMBLE,
    EVEN_SUM_PROOF,
    INDUCTION_SKETCH,
    INFINITUDE_SKETCH,
)

#: (kind, line) pairs that units in split_source's property are built from.
UNIT_LINES = [
    ("header", "import Mathlib"),
    ("header", "open Nat Real"),
    ("header", "set_option maxHeartbeats 400000"),
    ("header", 'set_option trace.profiler.output "/-tmp"'),
    ("header", 'set_option trace.profiler.output "-- x"'),
    ("header", "variable (p : Prop)"),
    ("header", "  import Aesop -- trailing note"),
    ("header", "/- lead -/ open Nat"),
    ("comment", "-- theorem in a line comment"),
    ("comment", "/- theorem in a block comment -/"),
    ("comment", "/- a block comment\n  over two lines /- nested -/ -/"),
    ("comment", "/-- doc comment -/"),
    ("blank", ""),
    ("blank", "   "),
    ("decl", "theorem t : True := by"),
    ("decl", "  trivial"),
    ("decl", "lemma l (n : ℕ) : n = n := rfl"),
    ("decl", "/- lead -/ example : True := trivial"),
    ("decl", "@[simp] theorem s : True := trivial"),
]


class TestSplitSource:
    def test_even_sum_listing(self):
        src = split_source(EVEN_SUM_PROOF)
        assert src.preamble == CANONICAL_PREAMBLE
        assert src.body.startswith(
            "theorem theorem_b2f45cfb951a : ∀ m n : ℕ, Even m → Even n → Even (m + n)"
        )

    def test_no_header_lines(self):
        code = "theorem t : True := by trivial"
        src = split_source(code)
        assert src.preamble == ""
        assert src.body == code

    def test_infinitude_listing(self):
        src = split_source(INFINITUDE_SKETCH)
        assert src.body.startswith("theorem infinitude_of_primes : ∀ n : Nat,")
        header_lines = [ln for ln in src.preamble.splitlines() if ln.strip()]
        assert header_lines == list(CANONICAL_PREAMBLE_LINES)

    def test_comments_and_variables_stay_in_preamble(self):
        code = (
            "-- a note\nimport Mathlib\n/- block\ncomment -/\nvariable (p : Prop)\n\n"
            "lemma l : p → p := fun h => h"
        )
        src = split_source(code)
        assert src.body == "lemma l : p → p := fun h => h"
        assert "variable (p : Prop)" in src.preamble
        assert "-- a note" in src.preamble

    def test_no_declaration_gives_empty_body(self):
        src = split_source("import Mathlib\nopen Nat\n")
        assert src.body == ""
        assert "import Mathlib" in src.preamble

    def test_combined_round_trip(self):
        src = split_source(EVEN_SUM_PROOF)
        assert src.combined() == EVEN_SUM_PROOF

    def test_comment_opener_inside_a_header_string(self):
        header = 'import Mathlib\nset_option trace.profiler.output "/-tmp"'
        src = split_source(header + "\n\ntheorem t : True := by\n  sorry")
        assert src.preamble == header
        assert src.body == "theorem t : True := by\n  sorry"

    def test_line_beginning_inside_a_block_comment_is_not_a_body_start(self):
        src = split_source("import Mathlib\n/- note\n-/ theorem t : True := by\n  trivial")
        assert src.preamble == "import Mathlib\n/- note\n-/"
        assert src.body == "theorem t : True := by\n  trivial"

    def test_one_line_doc_comment_stays_in_the_body(self):
        src = split_source("import Mathlib\n/-- doc -/ theorem t : True := by\n  trivial")
        assert src.preamble == "import Mathlib"
        assert src.body == "/-- doc -/ theorem t : True := by\n  trivial"

    @given(st.lists(st.tuples(st.sampled_from(UNIT_LINES), st.sampled_from(["\n", "\r\n"]))))
    def test_body_starts_at_the_first_declaration_line(self, lines):
        code = "".join(text + end for (_, text), end in lines)
        src = split_source(code)
        assert code.startswith(src.preamble)
        assert code.endswith(src.body)
        assert not code[len(src.preamble) : len(code) - len(src.body)].strip()
        body_tokens = tokenize(src.body)
        assert not body_tokens or body_tokens[0].text not in HEADER_KEYWORDS
        first = next((i for i, ((kind, _), _) in enumerate(lines) if kind == "decl"), len(lines))
        assert src.body == "".join(text + end for (_, text), end in lines[first:])


class TestNormalizePreamble:
    def test_empty_input_yields_canonical_block(self):
        result = normalize_preamble("")
        assert [ln for ln in result.split("\n") if ln] == list(CANONICAL_PREAMBLE_LINES)

    def test_canonical_is_fixed_point(self):
        assert normalize_preamble(CANONICAL_PREAMBLE) == CANONICAL_PREAMBLE

    def test_duplicate_import_removed(self):
        result = normalize_preamble(CANONICAL_PREAMBLE + "\nimport Mathlib")
        assert result == CANONICAL_PREAMBLE
        assert result.count("import Mathlib") == 1

    def test_extra_lines_kept_after_canonical_block(self):
        result = normalize_preamble("import MyLib\nopen Polynomial")
        assert result.split("\n")[-1] == "open Polynomial"
        assert result.split("\n")[0] == "import Mathlib"

    def test_extra_imports_follow_the_canonical_imports(self):
        """Lean accepts ``import`` only before every other command."""
        tree = ProofTree.from_formal(
            "import Mathlib\nimport Mathlib.Tactic.Linarith\n\ntheorem t : True := trivial", Limits()
        )
        assert tree.root_node().formal.combined() == (
            "import Mathlib\nimport Aesop\nimport Mathlib.Tactic.Linarith\n\n"
            "set_option maxHeartbeats 0\n\nopen BigOperators Real Nat Topology Rat\n\n"
            "theorem t : True := trivial"
        )
        result = normalize_preamble("-- note\nimport MyLib\nopen Polynomial\nimport Other")
        assert result == (
            "import Mathlib\nimport Aesop\nimport MyLib\nimport Other\n\n"
            "set_option maxHeartbeats 0\n\nopen BigOperators Real Nat Topology Rat\n\n"
            "-- note\nopen Polynomial"
        )

    @given(
        st.lists(
            st.sampled_from(
                list(CANONICAL_PREAMBLE_LINES)
                + ["import MyLib", "import Mathlib.Tactic.Linarith", "open Polynomial"]
                + ["variable (n : Nat)", ""]
                + ["-- note", "/- open", "  comment body", "-/", "/-- doc -/"]
                + ["import MyLib /- opens a comment"]
            ),
            max_size=12,
        )
    )
    def test_idempotent(self, lines):
        once = normalize_preamble("\n".join(lines))
        assert normalize_preamble(once) == once

    def test_repeated_comment_lines_are_kept(self):
        result = normalize_preamble("import Mathlib\n/- first\n-/\n/- second\n-/\nimport Mathlib")
        assert result == CANONICAL_PREAMBLE + "\n\n/- first\n-/\n/- second\n-/"

    def test_repeated_header_ending_inside_a_comment_moves_up_once(self):
        result = normalize_preamble("import A /- x\n-/\nimport A /- x\n-/")
        assert result == CANONICAL_PREAMBLE.replace("Aesop", "Aesop\nimport A /- x\n-/")
        body = split_source(result + "\ntheorem t : True := trivial").body
        assert body == "theorem t : True := trivial"

    def test_an_import_ending_inside_a_comment_moves_up_with_its_comment(self):
        """Lean accepts ``import`` only at the top of a file, so an import
        whose comment closes on a later line goes up with those lines."""
        result = normalize_preamble("import A /- x\n-/")
        assert result == (
            "import Mathlib\nimport Aesop\nimport A /- x\n-/\n\n"
            "set_option maxHeartbeats 0\n\nopen BigOperators Real Nat Topology Rat"
        )
        body = split_source(result + "\n\ntheorem t : True := trivial").body
        assert body.startswith("theorem")
        assert normalize_preamble(result) == result
        # a comment that never closes would swallow the canonical lines: it stays last
        assert normalize_preamble("import A /- x") == CANONICAL_PREAMBLE + "\n\nimport A /- x"

    def test_an_import_after_a_comment_closing_mid_line_moves_up(self):
        """Code that follows where a multi-line comment closes starts an
        entry of its own: an ``import`` there joins the imports, and the
        command the comment trails stays with the other commands."""
        result = normalize_preamble("set_option a 1 /- c\n-/ import X")
        assert result == (
            "import Mathlib\nimport Aesop\nimport X\n\n"
            "set_option maxHeartbeats 0\n\nopen BigOperators Real Nat Topology Rat\n\n"
            "set_option a 1 /- c\n-/"
        )
        assert normalize_preamble(result) == result

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    list(CANONICAL_PREAMBLE_LINES)
                    + ["import X", "import MyLib", "open Polynomial", "set_option a 1"]
                    + ["variable (n : Nat)", "/- lead -/ import Y", "/-- doc -/"]
                ),
                st.sampled_from(
                    ["\n", "\n\n", "\n-- note\n", " /- c\n-/ ", " /- c\n-/\n", "\n/- a\n b -/ "]
                ),
            ),
            max_size=10,
        )
    )
    def test_every_import_comes_before_the_other_commands(self, pieces):
        """Lean accepts ``import`` only at the top of a file. Over
        preambles whose comments all close (one left open stays last,
        see above), no ``import`` token of the result follows the first
        token of another header command, and a second pass changes
        nothing."""
        once = normalize_preamble("".join(line + end for line, end in pieces))
        tokens = tokenize(once)
        others = [tok.start for tok in tokens if tok.text in HEADER_KEYWORDS - {"import"}]
        assert all(tok.start < min(others) for tok in tokens if tok.text == "import")
        assert normalize_preamble(once) == once

    def test_comments_after_the_header_leave_the_body_outside(self):
        tree = ProofTree.from_formal(
            "import Mathlib\n/- first\n-/\n/- second\n-/\ntheorem t : True := by\n  trivial",
            Limits(),
        )
        assert split_source(tree.root_node().formal.combined()).body.startswith("theorem t")


def proof(block: str) -> str:
    """A child declaration proving its goal by the tactic block ``block``."""
    return "theorem c : True := by\n" + "\n".join("  " + ln for ln in block.split("\n"))


#: A child declaration whose tactic block is ``sorry`` again.
UNPROVEN = "theorem c : True := by\n  sorry"


class TestChildBlock:
    """The tactic block a child's proof becomes, spliced alone at column 0."""

    def test_single_tactic(self):
        assert splice_sorries("sorry", ["theorem t : True := by\n  trivial"]) == "trivial"

    def test_inline_tactic(self):
        assert splice_sorries("sorry", ["theorem t : True := by trivial"]) == "trivial"

    def test_even_sum_listing(self):
        body = splice_sorries("sorry", [EVEN_SUM_PROOF])
        assert body.startswith("intro m n hm hn")
        assert body.endswith("exact h_main")
        # tactic lines keep their relative nesting under the have
        assert "\nhave h_main : Even (m + n) := by\n  cases'" not in body  # comment precedes
        assert "\n  cases' hm with a ha" in body

    def test_split_happens_at_first_top_level_by(self):
        decl = (
            "theorem t : 1 = 1 := by\n"
            "  have h : 1 = 1 := by rfl\n"
            "  exact h"
        )
        assert splice_sorries("sorry", [decl]) == "have h : 1 = 1 := by rfl\nexact h"

    def test_assign_inside_binder_parens_is_skipped(self):
        decl = "theorem t (x : Nat := 0) : True := by trivial"
        assert splice_sorries("sorry", [decl]) == "trivial"

    def test_term_mode_proof_becomes_exact(self):
        assert splice_sorries("sorry", ["theorem t : True := trivial"]) == "exact (trivial)"

    def test_no_top_level_assign_raises(self):
        with pytest.raises(BadSketch, match="no top-level ':='"):
            splice_sorries("sorry", ["theorem t (x : Nat := 0) : True"])

    @given(st.sampled_from([EVEN_SUM_PROOF, INFINITUDE_SKETCH, "theorem t : True := by trivial"]))
    def test_block_never_starts_with_by_token(self, decl):
        body = splice_sorries("sorry", [decl])
        first = body.split()[0] if body.split() else ""
        assert first != "by"


#: (sketch line, form) pieces that splice_sorries' property builds the
#: body of ``theorem t : True := by`` from; ``{}`` marks the one sorry of
#: a site, and every other ``sorry`` sits in a comment or a string.
SKETCH_PIECES = [
    ("have h{n} : True := by {}", "inline"),
    ("have h{n} : True := by\n    {}", "own-line"),
    ("have h{n} : True := by\n    intro x\n    {}", "own-line"),
    ("have h{n} : True := {}", "term"),
    ("-- sorry in a line comment", None),
    ("/- sorry in a block comment\n  sorry -/", None),
    ('have s{n} : "sorry" = "sorry" := rfl', None),
    ("have p{n} : True := by trivial -- not sorry", None),
]

#: (child declaration, the tactic block it splices as): one line, a
#: term-mode proof, and two lines.
CHILDREN = [
    ("theorem c : True := by trivial", "trivial"),
    ("theorem c : True := trivial", "exact (trivial)"),
    ("theorem c : True := by\n  constructor\n  <;> trivial", "constructor\n<;> trivial"),
]


def expected_site(form: str, block: str) -> str:
    """What a site of ``form`` holding ``{}`` becomes under ``block``,
    written out by hand for a site whose line is indented two columns."""
    lines = block.split("\n")
    under = "\n" + "\n".join("    " + ln for ln in lines)  # two columns under the line
    if form == "own-line":
        return "\n    ".join(lines)
    if form == "inline":
        return block if len(lines) == 1 else under
    return "by " + block if len(lines) == 1 else "by" + under


class TestSpliceSorries:
    def test_splice_into_induction_sketch(self):
        out = splice_sorries(
            INDUCTION_SKETCH, [proof("norm_num [Nat.factorial]"), UNPROVEN, UNPROVEN]
        )
        assert "have base_case : 4 ^ 2 ≤ 4 ! := by\n    norm_num [Nat.factorial]" in out
        assert count_sorries(out) == 2
        # untouched text is byte-identical
        assert out.split("have inductive_step", 1)[1] == INDUCTION_SKETCH.split(
            "have inductive_step", 1
        )[1]

    def test_replacing_sorry_with_sorry_changes_nothing(self):
        assert splice_sorries(INDUCTION_SKETCH, [UNPROVEN] * 3) == INDUCTION_SKETCH

    @pytest.mark.parametrize(
        "sketch, decls",
        [
            (INDUCTION_SKETCH, [proof("rfl")]),
            ("theorem t : True := by\n  exact h", [proof("rfl")]),
            ("theorem t : True := by\n  exact sorry", [proof("rfl")]),
            ("theorem t : True := by\n  · sorry", [proof("rfl")]),
        ],
        ids=["too-few-proofs", "no-sorry", "sorry-after-a-tactic", "sorry-after-a-focus-dot"],
    )
    def test_a_sketch_that_does_not_splice_raises(self, sketch, decls):
        with pytest.raises(BadSketch, match="sorry count|neither a tactic nor a term"):
            splice_sorries(sketch, decls)

    def test_repeated_have_names_splice_by_position(self):
        sketch = (
            "theorem t : True := by\n"
            "  have h : True := by sorry\n"
            "  have h : True := by sorry\n"
            "  exact h"
        )
        out = splice_sorries(sketch, [proof("first"), proof("second")])
        assert out.index("by first") < out.index("by second")

    def test_proved_have_with_same_name_is_not_a_site(self):
        sketch = (
            "theorem t : True := by\n"
            "  have h : True := by trivial\n"
            "  have g : True := by sorry\n"
            "  exact g"
        )
        out = splice_sorries(sketch, [proof("exact h")])
        assert "have g : True := by exact h" in out
        assert "have h : True := by trivial" in out

    def test_multiline_body_under_inline_sorry(self):
        sketch = "theorem t : True := by\n  have h : True := by sorry\n  exact h"
        out = splice_sorries(sketch, [proof("constructor\n<;> trivial")])
        assert (
            out
            == "theorem t : True := by\n  have h : True := by\n    constructor\n    <;> trivial\n  exact h"
        )

    def test_multiline_body_under_a_focused_have(self):
        sketch = "theorem t : True := by\n  · have h : True := by sorry\n    exact h"
        out = splice_sorries(sketch, [proof("constructor\n<;> trivial")])
        assert out == (
            "theorem t : True := by\n  · have h : True := by\n      constructor\n"
            "      <;> trivial\n    exact h"
        )

    def test_infinitude_sketch_all_subgoals(self):
        out = splice_sorries(INFINITUDE_SKETCH, [proof("sorry_free_placeholder_tactic")] * 5)
        assert count_sorries(out) == 0

    @given(st.integers(min_value=0, max_value=2))
    def test_sorry_count_decreases_by_one(self, site):
        decls = [UNPROVEN] * 3
        decls[site] = proof("norm_num")
        after = count_sorries(splice_sorries(INDUCTION_SKETCH, decls))
        assert after == count_sorries(INDUCTION_SKETCH) - 1

    @given(
        st.lists(
            st.tuples(st.sampled_from(SKETCH_PIECES), st.sampled_from(CHILDREN)), max_size=6
        )
    )
    def test_each_site_takes_its_block_and_nothing_else_changes(self, pieces):
        """A sorry in a comment or a string is never a site; the k-th
        site takes the k-th block in the form its token before calls
        for; every other byte of the sketch stays as it was."""
        head = "theorem t : True := by\n"
        lines, expected, decls = [], [], []
        for n, ((line, form), (decl, block)) in enumerate(pieces):
            lines.append("  " + line.format("sorry", n=n))
            if form is None:
                expected.append(lines[-1])
                continue
            expected.append("  " + line.format(expected_site(form, block), n=n))
            decls.append(decl)
        sketch = head + "\n".join(lines)
        want = head + "\n".join(expected)
        # an inline site's several-line block moves below: the space after by goes
        want = want.replace("by \n", "by\n")
        assert splice_sorries(sketch, decls) == want


class TestExtractCodeBlock:
    def test_single_block(self):
        response = "plan text\n```lean4\ntheorem t : True := by trivial\n```"
        assert extract_code_block(response) == "theorem t : True := by trivial"

    def test_last_block_wins(self):
        response = (
            "first attempt\n```lean4\ntheorem bad : False := by sorry\n```\n"
            "after analysis, corrected:\n```lean4\ntheorem good : True := by trivial\n```"
        )
        assert extract_code_block(response) == "theorem good : True := by trivial"

    def test_plain_lean_tag_accepted(self):
        assert extract_code_block("```lean\nexample : True := trivial\n```") == (
            "example : True := trivial"
        )

    def test_no_newline_before_closing_fence(self):
        # the prompt templates themselves embed code as {{ var }}``` with no newline
        assert extract_code_block("```lean4\ntheorem t : True := by\n  sorry```") == (
            "theorem t : True := by\n  sorry"
        )

    def test_prose_only_raises(self):
        with pytest.raises(BadReply, match="no ```lean4 code block"):
            extract_code_block("I could not produce a proof.")

    def test_untagged_fence_is_not_lean(self):
        with pytest.raises(BadReply, match="no ```lean4 code block"):
            extract_code_block("```\nnot lean\n```")


class TestCountSorries:
    def test_infinitude_sketch_has_five(self):
        assert count_sorries(INFINITUDE_SKETCH) == 5

    def test_even_sum_proof_has_none(self):
        assert count_sorries(EVEN_SUM_PROOF) == 0

    def test_comment_only_sorry_excluded(self):
        assert count_sorries("-- sorry") == 0
        assert count_sorries("/- sorry -/ theorem t : True := by trivial") == 0

    def test_string_literal_excluded(self):
        assert count_sorries('def s := "sorry"') == 0

    def test_identifier_prefix_not_counted(self):
        assert count_sorries("exact sorryAx _ true") == 0


class TestTokenizer:
    def test_assign_is_one_token(self):
        assert [t.text for t in tokenize("x := y")] == ["x", ":=", "y"]

    def test_depth_tracks_all_bracket_kinds(self):
        toks = {t.text: t.depth for t in tokenize("(a [b {c ⟨d⟩}])")}
        assert toks["a"] == 1 and toks["b"] == 2 and toks["c"] == 3 and toks["d"] == 4

    def test_primed_identifier_stays_whole(self):
        assert [t.text for t in tokenize("cases' hm with a ha")][0] == "cases'"

    def test_nested_block_comments_skipped(self):
        assert tokenize("/- outer /- inner -/ still -/ x")[0].text == "x"
