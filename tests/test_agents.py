import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leandecomp.agents import (
    PromptKind,
    build_error_annotation,
    format_theorem_hints,
    generate_theorem_name,
    parse_judgement,
    parse_search_queries,
    render_prompt,
)
from leandecomp.errors import BadReply, LeandecompError
from leandecomp.services import LeanError, VerificationResult

EVEN_SUM_INFORMAL = (
    "Prove that for any natural numbers m and n, if m is even and n is even, "
    "then m + n is even."
)

FULL_VARS = dict(
    formal_statement_name="theorem_b2f45cfb951a",
    informal_statement=EVEN_SUM_INFORMAL,
    formal_statement="theorem t : True := by\n  sorry",
    formal_theorem="theorem t : True := by\n  sorry",
    prev_round_num="1",
    error_message_for_prev_round="<error>oops</error>",
    theorem_hints_section="Potentially useful theorems:\n\n- Nat.add_comm : ...",
)

# one quoted sentinel per template, straight from the agent prompts
SENTINELS = {
    PromptKind.FORMALIZER: "Please autoformalize the following natural language problem statement",
    PromptKind.PROVER_INITIAL: "Complete the following Lean 4 code:",
    PromptKind.PROVER_CORRECTION: "use <error></error> to signal the position of the error",
    PromptKind.QUERY_INITIAL: "each enclosed in <search> tags",
    PromptKind.QUERY_BACKTRACK: "A previous attempt to prove this theorem failed",
    PromptKind.DECOMPOSER_INITIAL: "Do not attempt to fully solve the subgoals",
    PromptKind.DECOMPOSER_CORRECTION: "provide a detailed analysis of the error message",
    PromptKind.DECOMPOSER_BACKTRACK: "COMPLETELY DIFFERENT decomposition strategy",
    PromptKind.SEMANTIC_CHECK: "one of {Appropriate, Inappropriate}",
}


class TestRenderPrompt:
    def test_exactly_nine_kinds(self):
        assert len(PromptKind) == 9

    @pytest.mark.parametrize("kind", list(PromptKind))
    def test_sentinel_present_and_no_leftover_placeholders(self, kind):
        rendered = render_prompt(kind, **FULL_VARS)
        assert SENTINELS[kind] in rendered
        assert "{{" not in rendered and "}}" not in rendered

    def test_formalizer_embeds_theorem_name(self):
        rendered = render_prompt(PromptKind.FORMALIZER, **FULL_VARS)
        assert "Use the following theorem name: theorem_b2f45cfb951a" in rendered
        assert EVEN_SUM_INFORMAL in rendered

    def test_prover_initial_opening_line(self):
        rendered = render_prompt(PromptKind.PROVER_INITIAL, **FULL_VARS)
        assert rendered.startswith("Complete the following Lean 4 code:")
        assert "```lean4\ntheorem t : True := by\n  sorry```" in rendered

    def test_missing_variable_raises(self):
        with pytest.raises(LeandecompError, match="needs variable"):
            render_prompt(PromptKind.PROVER_CORRECTION, prev_round_num="2")

    def test_substitution_is_single_pass(self):
        rendered = render_prompt(
            PromptKind.FORMALIZER,
            formal_statement_name="{{ informal_statement }}",
            informal_statement="plain",
        )
        assert "{{ informal_statement }}" in rendered

    def test_semantic_check_examples_use_real_lean_types(self):
        rendered = render_prompt(PromptKind.SEMANTIC_CHECK, **FULL_VARS)
        assert "ℝ" in rendered
        assert "mathbb" not in rendered


class TestParseSearchQueries:
    def test_two_tags(self):
        assert parse_search_queries("<search>a</search><search>b</search>") == ["a", "b"]

    def test_interleaved_prose(self):
        response = (
            "Here are my queries.\n<search>even numbers sum</search>\n"
            "Next, structure:\n<search>Nat.even_add</search>\n"
            "Finally:\n<search>parity lemmas</search>\nDone."
        )
        assert parse_search_queries(response) == [
            "even numbers sum",
            "Nat.even_add",
            "parity lemmas",
        ]

    def test_no_tags_raises(self):
        with pytest.raises(BadReply, match="no <search> tags"):
            parse_search_queries("no tags here")

    def test_empty_tags_ignored(self):
        with pytest.raises(BadReply, match="no <search> tags"):
            parse_search_queries("<search>  </search>")

    @given(st.lists(st.text(alphabet=st.characters(blacklist_characters="<>"), min_size=1).map(str.strip).filter(bool), min_size=1, max_size=6))
    def test_round_trip(self, queries):
        wrapped = "\n".join(f"<search>{q}</search>" for q in queries)
        assert parse_search_queries(wrapped) == queries


class TestParseJudgement:
    def test_appropriate(self):
        assert parse_judgement("Thought: ok\n\nJudgement: Appropriate") is True

    def test_inappropriate(self):
        assert parse_judgement("Judgement: Inappropriate") is False

    def test_inappropriate_not_shadowed_by_substring(self):
        # "Inappropriate" contains "appropriate"; the negative must win
        assert parse_judgement("judgement: INAPPROPRIATE") is False

    def test_last_judgement_line_wins(self):
        response = (
            "The format asks for Judgement: Appropriate or Inappropriate.\n"
            "Thought: the hypothesis a > 0 is dropped\n"
            "Judgement: Inappropriate"
        )
        assert parse_judgement(response) is False

    def test_missing_line_raises(self):
        with pytest.raises(BadReply, match="no parseable Judgement"):
            parse_judgement("I think it is fine.")

    @pytest.mark.parametrize(
        "response, appropriate",
        [("Judgement: **Appropriate**.", True), ("JUDGEMENT: `inappropriate`!", False)],
    )
    def test_case_markdown_and_punctuation_are_ignored(self, response, appropriate):
        assert parse_judgement(response) is appropriate

    @pytest.mark.parametrize(
        "response, appropriate",
        [
            ("Thought: fine.\n**Judgement:** Appropriate", True),
            ("**Judgement**: Inappropriate", False),
            ("__judgement:__ *appropriate*", True),
            ("**Judgement:** Appropriate\nThought: no.\n**Judgement**: Inappropriate", False),
        ],
    )
    def test_a_key_in_markdown_emphasis_is_read(self, response, appropriate):
        assert parse_judgement(response) is appropriate

    @pytest.mark.parametrize("key", ["**Judgement:**", "**Judgement**:"])
    @pytest.mark.parametrize("payload", ["Not appropriate", "Appropriate, mostly"])
    def test_an_emphasized_key_with_a_negated_or_hedged_verdict_raises(self, key, payload):
        with pytest.raises(BadReply, match="no parseable Judgement"):
            parse_judgement(f"{key} {payload}")

    @pytest.mark.parametrize(
        "payload",
        ["Not appropriate", "not Appropriate.", "Appropriate? No.", "Appropriate, mostly", ""],
    )
    def test_anything_but_a_bare_verdict_raises(self, payload):
        with pytest.raises(BadReply, match="no parseable Judgement"):
            parse_judgement(f"Thought: the statements differ.\nJudgement: {payload}")

    def test_a_last_line_without_a_verdict_is_not_skipped(self):
        with pytest.raises(BadReply, match="no parseable Judgement"):
            parse_judgement("Judgement: Appropriate\nJudgement: not sure yet")


class TestGenerateTheoremName:
    def test_shape(self):
        assert re.fullmatch(r"theorem_[0-9a-f]{12}", generate_theorem_name(EVEN_SUM_INFORMAL))

    def test_deterministic(self):
        assert generate_theorem_name("x") == generate_theorem_name("x")
        assert generate_theorem_name(" x \n") == generate_theorem_name("x")

    def test_injective_on_corpus(self):
        corpus = [f"Prove that {i} + {i} = {2 * i}." for i in range(200)]
        names = {generate_theorem_name(s) for s in corpus}
        assert len(names) == 200


class TestBuildErrorAnnotation:
    CODE = "theorem t : True := by\n  exact 0\n  done\nend"

    def test_single_positioned_error(self):
        result = VerificationResult(
            passed=False,
            complete=False,
            errors=(LeanError("type mismatch", span=((2, 3), (2, 10))),),
        )
        annotated = build_error_annotation(self.CODE, result)
        assert "  <error>exact 0</error>" in annotated
        assert annotated.count("<error>") == 1
        assert annotated.endswith("Errors:\n- type mismatch")

    def test_empty_error_list(self):
        result = VerificationResult(passed=False, complete=False, errors=())
        annotated = build_error_annotation(self.CODE, result)
        assert annotated.startswith(self.CODE)
        assert "- unknown error" in annotated

    def test_two_errors_in_ascending_position(self):
        result = VerificationResult(
            passed=False,
            complete=False,
            errors=(
                LeanError("first", span=((2, 3), (2, 8))),
                LeanError("second", span=((3, 3), (3, 7))),
            ),
        )
        annotated = build_error_annotation(self.CODE, result)
        assert "<error>exact</error> 0" in annotated
        assert "<error>done</error>" in annotated
        assert annotated.index("first") < annotated.index("second")

    def test_nested_spans_stay_nested(self):
        code = "theorem t : 1 = 1 := by\n  simp\n  linarith"
        result = VerificationResult(
            passed=False,
            complete=False,
            errors=(
                LeanError("unsolved goals", span=((1, 22), (3, 11))),
                LeanError("linarith failed", span=((3, 3), (3, 11))),
            ),
        )
        annotated = build_error_annotation(code, result)
        assert annotated.startswith(
            "theorem t : 1 = 1 := <error>by\n  simp\n  <error>linarith</error></error>\n\n"
        )

    def test_adjacent_spans_and_an_empty_span_between_them(self):
        result = VerificationResult(
            passed=False,
            complete=False,
            errors=(
                LeanError("first", span=((2, 3), (2, 8))),
                LeanError("empty", span=((2, 8), (2, 8))),
                LeanError("second", span=((2, 8), (2, 10))),
            ),
        )
        annotated = build_error_annotation(self.CODE, result)
        assert "  <error>exact</error><error></error><error> 0</error>\n  done" in annotated
        assert annotated.endswith("Errors:\n- first\n- empty\n- second")

    def test_unpositioned_error_is_message_only(self):
        result = VerificationResult(
            passed=False, complete=False, errors=(LeanError("timeout"),)
        )
        annotated = build_error_annotation(self.CODE, result)
        assert "<error>" not in annotated
        assert "- timeout" in annotated

    @pytest.mark.parametrize(
        "span",
        [((1, 0), (1, 7)), ((1, 24), (2, 3))],
        ids=["column-below-one", "column-past-the-line-end"],
    )
    def test_a_span_outside_its_line_keeps_only_its_message(self, span):
        """Columns are 1-based, and an end column may be one past its
        line's last character; a position outside its line marks
        nothing, where it would otherwise point into another line."""
        code = "theorem t : True := by\n  FAILTAC"
        result = VerificationResult(
            passed=False, complete=False, errors=(LeanError("unknown tactic", span=span),)
        )
        assert build_error_annotation(code, result) == code + "\n\nErrors:\n- unknown tactic"

    def test_a_span_may_end_just_past_its_line(self):
        code = "theorem t : True := by\n  FAILTAC"
        result = VerificationResult(
            passed=False, complete=False, errors=(LeanError("bad", span=((2, 3), (2, 10))),)
        )
        assert build_error_annotation(code, result).startswith(
            "theorem t : True := by\n  <error>FAILTAC</error>\n\n"
        )


class TestFormatTheoremHints:
    def test_entry_shape(self):
        hints = format_theorem_hints(
            [("Nat.add_comm", "theorem Nat.add_comm : ∀ n m, n + m = m + n")]
        )
        assert "- Nat.add_comm : theorem Nat.add_comm : ∀ n m, n + m = m + n" in hints

    def test_empty(self):
        assert "no potentially useful theorems" in format_theorem_hints([])
