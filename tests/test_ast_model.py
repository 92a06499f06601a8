import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leandecomp.ast_model import (
    AstNode,
    SorryInfo,
    _mentions,
    extract_subgoals,
    parse_ast,
)
from leandecomp.errors import BadSketch
from tests.ast_builder import build_sketch_payload
from tests.fakes import count_sorries
from tests.sample_proofs import (
    INDUCTION_SKETCH,
    INDUCTION_SUBGOAL_NAMES,
    INFINITUDE_SKETCH,
    INFINITUDE_SUBGOAL_NAMES,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_payload(name):
    return json.loads((FIXTURES / name).read_text())


class TestParseAst:
    def test_infinitude_fixture(self):
        root, sorries = parse_ast(load_payload("infinitude_ast.json"))
        sorry_nodes = [n for n in root.walk() if n.kind == "Lean.Parser.Tactic.tacticSorry"]
        assert len(sorry_nodes) == 5
        assert len(sorries) == 5
        assert all(isinstance(s, SorryInfo) for s in sorries)

    def test_single_node_without_sorries(self):
        root, sorries = parse_ast({"ast": {"kind": "module", "children": []}})
        assert root.kind == "module"
        assert root.children == []
        assert sorries == []

    def test_missing_kind_raises(self):
        with pytest.raises(BadSketch, match="neither 'kind' nor 'val'"):
            parse_ast({"ast": {"args": [{"nope": 1}], "kind": "module"}})

    def test_val_node_is_an_atom(self):
        root, _ = parse_ast({"ast": {"kind": "module", "args": [{"val": "x"}]}})
        assert root.children[0].kind == "atom"
        assert root.children[0].value == "x"

    def test_positions_are_one_based(self):
        _, sorries = parse_ast(load_payload("induction_ast.json"))
        assert [s.position for s in sorries] == [(4, 5), (8, 5), (12, 5)]

    def test_goal_context_split_at_turnstile(self):
        _, sorries = parse_ast(load_payload("infinitude_ast.json"))
        last = sorted(sorries, key=lambda s: s.position)[-1]
        assert last.goal_type == "∀ n, ∃ p, p > n ∧ Prime p"
        assert last.binders[0][0] == "prod_primes_def"

    def test_grouped_binder_names_expand(self):
        _, sorries = parse_ast(
            {"ast": {"kind": "m", "args": []},
             "sorries": [{"goal": "a b : Nat\n⊢ a = b", "pos": {"line": 1, "column": 1}}]}
        )
        assert sorries[0].binders == (("a", "Nat"), ("b", "Nat"))


class TestExtractSubgoals:
    def test_infinitude_names_in_order(self):
        root, sorries = parse_ast(load_payload("infinitude_ast.json"))
        names = [sg.name for sg in extract_subgoals(root, sorries)]
        assert names == INFINITUDE_SUBGOAL_NAMES

    def test_induction_names_in_order(self):
        root, sorries = parse_ast(load_payload("induction_ast.json"))
        names = [sg.name for sg in extract_subgoals(root, sorries)]
        assert names == INDUCTION_SUBGOAL_NAMES

    def test_fully_proven_tree_yields_nothing(self):
        root, sorries = parse_ast({"ast": {"kind": "module", "args": [{"val": "rfl"}]}})
        assert extract_subgoals(root, sorries) == []

    def test_count_matches_source_sorries(self):
        for sketch, payload in [
            (INFINITUDE_SKETCH, load_payload("infinitude_ast.json")),
            (INDUCTION_SKETCH, load_payload("induction_ast.json")),
        ]:
            root, sorries = parse_ast(payload)
            assert len(extract_subgoals(root, sorries)) == count_sorries(sketch)

    def test_anonymous_sorry_raises(self):
        payload = {
            "ast": {
                "kind": "module",
                "args": [{"kind": "Lean.Parser.Tactic.tacticSorry", "args": [{"val": "sorry"}]}],
            },
            "sorries": [{"goal": "⊢ True", "pos": {"line": 1, "column": 1}}],
        }
        root, sorries = parse_ast(payload)
        with pytest.raises(BadSketch, match="not attached to a named have"):
            extract_subgoals(root, sorries)

    def test_tree_metadata_mismatch_raises(self):
        root, _ = parse_ast(load_payload("infinitude_ast.json"))
        with pytest.raises(BadSketch, match="sorry nodes but metadata lists"):
            extract_subgoals(root, [])

    def test_sibling_binder_dropped_unless_mentioned(self):
        payload = {
            "ast": build_sketch_payload(
                "theorem t : True := by\n"
                "  have step_one : P 1 := by sorry\n"
                "  have step_two : Q (step_one) := by sorry\n"
                "  have step_three : R 3 := by sorry\n"
                "  trivial"
            )["ast"],
            "sorries": [
                {"goal": "⊢ P 1", "pos": {"line": 2, "column": 25}},
                {"goal": "step_one : P 1\n⊢ Q (step_one)", "pos": {"line": 3, "column": 30}},
                {"goal": "step_one : P 1\nstep_two : Q (step_one)\n⊢ R 3",
                 "pos": {"line": 4, "column": 27}},
            ],
        }
        root, sorries = parse_ast(payload)
        subgoals = extract_subgoals(root, sorries)
        # step_two's goal mentions step_one, so the hypothesis is kept
        assert subgoals[1].standalone_statement == (
            "theorem step_two (step_one : P 1) : Q (step_one) := by\n  sorry"
        )
        # step_three's goal mentions neither sibling
        assert subgoals[2].standalone_statement == "theorem step_three : R 3 := by\n  sorry"

    def test_a_sibling_named_inside_another_name_is_dropped(self):
        """``h₁`` is a name of its own, not a mention of ``h``."""
        payload = {
            "ast": build_sketch_payload(
                "theorem t : True := by\n"
                "  have h : P 1 := by sorry\n"
                "  have h₁ : Q 2 := by sorry\n"
                "  have step : R h₁ := by sorry\n"
                "  trivial"
            )["ast"],
            "sorries": [
                {"goal": "⊢ P 1", "pos": {"line": 2, "column": 20}},
                {"goal": "h : P 1\n⊢ Q 2", "pos": {"line": 3, "column": 21}},
                {"goal": "h : P 1\nh₁ : Q 2\n⊢ R h₁", "pos": {"line": 4, "column": 23}},
            ],
        }
        subgoals = extract_subgoals(*parse_ast(payload))
        statement = subgoals[2].standalone_statement
        assert statement == "theorem step (h₁ : Q 2) : R h₁ := by\n  sorry"

    def test_nested_sorry_attaches_to_nearest_have(self):
        payload = {
            "kind": "module",
            "args": [
                {
                    "kind": "Lean.Parser.Tactic.tacticHave_",
                    "args": [
                        {"kind": "Lean.Parser.Term.haveId", "args": [{"val": "outer"}]},
                        {
                            "kind": "Lean.Parser.Tactic.tacticHave_",
                            "args": [
                                {"kind": "Lean.Parser.Term.haveId", "args": [{"val": "inner"}]},
                                {"kind": "Lean.Parser.Tactic.tacticSorry", "args": [{"val": "sorry"}]},
                            ],
                        },
                    ],
                }
            ],
        }
        root, _ = parse_ast({"ast": payload})
        subgoals = extract_subgoals(root, [SorryInfo("True", (), (1, 1))])
        assert [sg.name for sg in subgoals] == ["inner"]


class TestMentions:
    """A name is mentioned where it stands as a whole name: not inside a
    longer one, and not as a field after a dot."""

    @pytest.mark.parametrize(
        "text, mentioned",
        [
            ("h₁ ∧ hα", False),
            ("x.h = 1", False),
            ("h' ∧ h! ∧ h? ∧ h✝ ∧ h¹ ∧ _h ∧ αh", False),
            ("h.1 = 1", True),
            ("¬h ∧ (h)", True),
            ("f h₁ h", True),
        ],
    )
    def test_mentions(self, text, mentioned):
        assert _mentions(text, "h") is mentioned


def unproven_names(payload) -> list[str]:
    return [subgoal.name for subgoal in extract_subgoals(*parse_ast(payload))]


class TestUnprovenNames:
    """Subgoal names as extract_subgoals lists them: in source order,
    duplicates included, so that the orchestrator can reject a sketch
    that reuses a name."""

    def test_infinitude(self):
        assert unproven_names(load_payload("infinitude_ast.json")) == INFINITUDE_SUBGOAL_NAMES

    def test_empty_module(self):
        assert unproven_names({"ast": {"kind": "module", "args": []}}) == []

    def test_duplicate_names_both_listed(self):
        payload = build_sketch_payload(
            "theorem t : True := by\n"
            "  have h : P := by sorry\n"
            "  have h : P := by sorry\n"
            "  trivial"
        )
        assert unproven_names(payload) == ["h", "h"]


class TestStandaloneStatement:
    def test_base_case_statement(self):
        root, sorries = parse_ast(load_payload("induction_ast.json"))
        subgoals = extract_subgoals(root, sorries)
        base_case = next(sg for sg in subgoals if sg.name == "base_case")
        assert base_case.standalone_statement == "theorem base_case : 4 ^ 2 ≤ 4 ! := by\n  sorry"

    def test_context_binder_rendered_before_colon(self):
        payload = {
            "ast": build_sketch_payload(
                "theorem t (n : ℕ) : True := by\n  have bound : n ≤ n + 1 := by sorry\n  trivial"
            )["ast"],
            "sorries": [{"goal": "n : ℕ\n⊢ n ≤ n + 1", "pos": {"line": 2, "column": 29}}],
        }
        root, sorries = parse_ast(payload)
        subgoals = extract_subgoals(root, sorries)
        statement = subgoals[0].standalone_statement
        assert statement.startswith("theorem bound (n : ℕ) : n ≤ n + 1 := by")

    @given(st.sampled_from(INFINITUDE_SUBGOAL_NAMES))
    def test_standalone_statement_is_sorry_proved_theorem(self, name):
        root, sorries = parse_ast(load_payload("infinitude_ast.json"))
        subgoals = extract_subgoals(root, sorries)
        sg = next(s for s in subgoals if s.name == name)
        assert sg.standalone_statement.startswith(f"theorem {name}")
        assert sg.standalone_statement.endswith(":= by\n  sorry")
        assert count_sorries(sg.standalone_statement) == 1


def step_statement(goal: str) -> str:
    """The standalone statement of the one subgoal, ``step``, of a sketch
    whose sorry has the goal Lean prints as ``goal``."""
    payload = build_sketch_payload("theorem t : True := by\n  have step : P := by sorry\n  trivial")
    payload["sorries"][0]["goal"] = goal
    (subgoal,) = extract_subgoals(*parse_ast(payload))
    return subgoal.standalone_statement


class TestInaccessibleNames:
    """Lean prints a hypothesis that the sketch never named with a ``✝``,
    which no theorem statement can parse."""

    @pytest.mark.parametrize(
        "goal, binders",
        [
            ("inst✝ : Fintype α\nh : Fintype.card α > 0\n⊢ Nonempty α", "[Fintype α]"),
            (
                "inst✝¹ : Fintype α\ninst✝ : DecidableEq α\nh : Fintype.card α > 0\n⊢ Nonempty α",
                "[Fintype α] [DecidableEq α]",
            ),
        ],
        ids=["one-instance", "indexed-instances"],
    )
    def test_anonymous_instance_renders_as_instance_binder(self, goal, binders):
        assert step_statement(goal) == (
            f"theorem step {binders} (h : Fintype.card α > 0) : Nonempty α := by\n  sorry"
        )

    @pytest.mark.parametrize(
        "goal, name",
        [
            ("inst✝ : Fintype α\nn✝ : ℕ\nh : n✝ > 0\n⊢ n✝ ≥ 1", "n✝"),
            ("h✝¹ : 0 < 1\n⊢ True", "h✝¹"),
            ("inst✝ : Fintype α\n⊢ @Fintype.card α inst✝ > 0", "inst✝"),
            ("inst✝¹ : Fintype α\ninst✝ : DecidableEq α\n⊢ @Fintype.card α inst✝¹ > 0", "inst✝¹"),
        ],
        ids=["variable", "indexed", "instance-in-target", "indexed-instance-in-target"],
    )
    def test_other_inaccessible_hypothesis_is_a_bad_sketch(self, goal, name):
        with pytest.raises(BadSketch, match=f"hypothesis {name} has an inaccessible name"):
            step_statement(goal)


class TestAstNodeShape:
    def test_walk_is_depth_first(self):
        root = AstNode("a", children=[AstNode("b", children=[AstNode("c")]), AstNode("d")])
        assert [n.kind for n in root.walk()] == ["a", "b", "c", "d"]

    @given(st.integers(min_value=0, max_value=6))
    def test_parse_rejects_non_node_children(self, depth):
        node = {"kind": "k", "args": []}
        for _ in range(depth):
            node = {"kind": "k", "args": [node]}
        node["args"].append(42)
        with pytest.raises(BadSketch, match="must be an object or string, got int"):
            parse_ast({"ast": node})
