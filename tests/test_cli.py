"""CLI behavior: argument validation, exit codes, and full-stack runs
against scripted localhost HTTP services."""

import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leandecomp import cli, lean_source, proof_state
from leandecomp.cli import main, validate_formal_input
from leandecomp.errors import InputError
from leandecomp.lean_source import LeanSource, extract_code_block
from leandecomp.orchestrator import ActionKind, next_action
from leandecomp.proof_state import CHECKPOINT_VERSION, NodeStatus, ProofTree
from leandecomp.config import load_config

from .http_fakes import FakeService, chat_route, sorry_diagnostics, verifier_route
from .ast_builder import build_sketch_payload
from .fakes import FAIL_MARKER, count_sorries, lean_block, packaged_limits
from .sample_proofs import CANONICAL_PREAMBLE, INFINITUDE_SKETCH, INFINITUDE_SUBGOAL_NAMES

EVEN_SUM_FILE = (
    "import Mathlib\n\n"
    "theorem even_sum : ∀ m n : ℕ, Even m → Even n → Even (m + n) := by\n  sorry\n"
)

INFINITUDE_FILE = (
    CANONICAL_PREAMBLE
    + "\n\ntheorem infinitude_of_primes : ∀ n : Nat, ∃ p, p > n ∧ Prime p := by\n  sorry\n"
)

QUERY_RESPONSE = (
    "<search>prime factorial</search>\n"
    "<search>prime greater than n</search>\n"
    "<search>prime divisor exists</search>\n"
)

ROLE_MODELS = {
    "formalizer": "fake-formalizer",
    "prover": "fake-prover",
    "semantics": "fake-semantics",
    "search_query": "fake-search-query",
    "decomposer": "fake-decomposer",
}


def checkpoint_text(edit) -> str:
    """A one-node checkpoint record, changed in place by ``edit``."""
    data = ProofTree.from_formal(EVEN_SUM_FILE, packaged_limits()).to_dict()
    edit(data)
    return json.dumps(data)


SNAPSHOT_LINE = checkpoint_text(lambda data: None)

#: Checkpoints that --resume must reject with exit code 2 (None: no file).
CORRUPT_CHECKPOINTS = {
    "missing": None,
    "unsupported-version": '{"version": 999}',
    "version-only": json.dumps({"version": CHECKPOINT_VERSION}),
    "history-entry-not-an-object": checkpoint_text(
        lambda data: data["nodes"]["n0001"]["history"].append("x")
    ),
    "history-entry-of-an-unknown-role": checkpoint_text(
        lambda data: data["nodes"]["n0001"]["history"].append(
            {"role": "bogus", "prompt": "p", "response": "r", "failed": True, "verdict": None}
        )
    ),
    "verdict-without-a-round": checkpoint_text(
        lambda data: data["nodes"]["n0001"]["history"].append(
            {"failed": True, "verdict": {"passed": False, "complete": False}}
        )
    ),
    "awaiting-children-without-children": checkpoint_text(
        lambda data: data["nodes"]["n0001"]["history"].extend(
            [
                {"role": "decomposer", "prompt": "p", "response": "r"},
                {"failed": False, "verdict": {"passed": True, "complete": False}},
            ]
        )
    ),
    "node-without-depth": checkpoint_text(lambda data: data["nodes"]["n0001"].pop("depth")),
    "not-an-object": "[1]",
    "root-not-a-node": checkpoint_text(lambda data: data.update(root="n0002")),
    "bad-journal-line": (
        SNAPSHOT_LINE + '\n{"seq": 1, "nodes": {\n{"seq": 1, "nodes": {}, "removed": []}\n'
    ),
    "journal-line-shape": SNAPSHOT_LINE + '\n{"seq": 1, "nodes": []}\n',
}


# ------------------------------------------------------------ input checks


class TestValidateFormalInput:
    def test_accepts_headered_statement(self):
        source = validate_formal_input(EVEN_SUM_FILE)
        assert source.preamble == "import Mathlib"  # as written: from_formal normalizes
        assert source.body.startswith("theorem even_sum")

    def test_a_formal_input_is_normalized_once(self, tmp_path, monkeypatch):
        """Reading a formal input checks it, then ``ProofTree.from_formal``
        normalizes its preamble: one normalization, the same tree."""
        real, calls = lean_source.normalize_preamble, []

        def counted(preamble):
            calls.append(preamble)
            return real(preamble)

        for module in (cli, proof_state):
            if getattr(module, "normalize_preamble", None) is real:
                monkeypatch.setattr(module, "normalize_preamble", counted)
        path = tmp_path / "t.lean"
        path.write_text("import Mathlib\n\ntheorem t : True := trivial", encoding="utf-8")
        args = cli.build_parser().parse_args(["--file", str(path)])
        tree = cli._build_tree(args, packaged_limits())
        assert calls == ["import Mathlib"]
        assert tree.root_node().formal == LeanSource(CANONICAL_PREAMBLE, "theorem t : True := trivial")

    def test_missing_header_rejected(self):
        with pytest.raises(InputError, match="one import line"):
            validate_formal_input("theorem t : True := by sorry")

    def test_header_without_import_rejected(self):
        with pytest.raises(InputError, match="one import line"):
            validate_formal_input("open Nat\n\ntheorem t : True := by sorry")

    def test_header_only_rejected(self):
        with pytest.raises(InputError, match="no theorem declaration"):
            validate_formal_input(CANONICAL_PREAMBLE + "\n")

    def test_commented_out_import_rejected(self):
        with pytest.raises(InputError, match="one import line"):
            validate_formal_input("/-\nimport Mathlib\n-/\ntheorem t : True := trivial")

    def test_import_after_a_comment_accepted(self):
        source = validate_formal_input("/- c -/ import Mathlib\ntheorem t : True := trivial")
        assert source.body == "theorem t : True := trivial"


# ------------------------------------------------------------- exit code 2


class TestInputErrors:
    def test_no_input_source(self, capsys):
        assert main(["--out", "unused"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_conflicting_input_sources(self, tmp_path, capsys):
        lean = tmp_path / "t.lean"
        lean.write_text(EVEN_SUM_FILE)
        assert main(["--informal", "x", "--file", str(lean)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert (
            main(
                [
                    "--informal",
                    "x",
                    "--config",
                    str(tmp_path / "absent.ini"),
                    "--out",
                    str(tmp_path / "out"),
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "usage" in err and "absent.ini" in err

    def test_missing_input_file(self, tmp_path):
        lean = tmp_path / "absent.lean"
        assert main(["--file", str(lean), "--out", str(tmp_path / "o")]) == 2
        diagnostic = (tmp_path / "o" / "diagnostic.txt").read_text(encoding="utf-8")
        assert diagnostic.startswith(f"input rejected: cannot read {lean}: ")

    def test_headerless_file_writes_diagnostic(self, tmp_path, capsys):
        lean = tmp_path / "t.lean"
        lean.write_text("theorem t : True := by sorry\n")
        out = tmp_path / "out"
        assert main(["--file", str(lean), "--out", str(out)]) == 2
        diagnostic = (out / "diagnostic.txt").read_text()
        assert "import" in diagnostic
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", list(CORRUPT_CHECKPOINTS.values()), ids=list(CORRUPT_CHECKPOINTS)
    )
    def test_corrupt_checkpoint(self, tmp_path, capsys, text):
        checkpoint = tmp_path / "checkpoint.json"
        if text is not None:
            checkpoint.write_text(text, encoding="utf-8")
        assert main(["--resume", str(checkpoint), "--out", str(tmp_path / "o")]) == 2
        diagnostic = (tmp_path / "o" / "diagnostic.txt").read_text(encoding="utf-8")
        assert diagnostic.startswith(f"input rejected: cannot read {checkpoint}: ")
        assert "diagnostic.txt" in capsys.readouterr().err

    def test_a_checkpoint_of_another_version_is_left_as_it_was(self, tmp_path):
        out = tmp_path / "run1"
        out.mkdir()
        checkpoint = out / "checkpoint.json"
        tree = ProofTree.from_formal(EVEN_SUM_FILE, packaged_limits())
        tree.save(checkpoint)
        tree.root_node().name = "appended"
        tree.save(checkpoint)
        tree.close()
        snapshot, journal = checkpoint.read_bytes().splitlines(keepends=True)
        assert snapshot.startswith(b'{"version":10,')
        checkpoint.write_bytes(snapshot.replace(b'"version":10', b'"version":9', 1) + journal)
        stored = checkpoint.read_bytes()
        assert main(["--resume", str(checkpoint), "--out", str(out)]) == 2
        assert checkpoint.read_bytes() == stored
        assert (out / "diagnostic.txt").read_text(encoding="utf-8") == (
            f"input rejected: cannot read {checkpoint}: checkpoint version 9 is not "
            "supported: this build reads only version 10; start a new run\n"
        )
        assert sorted(path.name for path in out.iterdir()) == ["checkpoint.json", "diagnostic.txt"]

    def test_an_output_directory_that_cannot_be_created_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main(["--informal", "x", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot create output directory {out}: ")

    @pytest.mark.parametrize(
        "flags, level", [([], logging.WARNING), (["-v"], logging.INFO), (["-vv"], logging.DEBUG)]
    )
    def test_verbosity_sets_the_package_log_level(self, tmp_path, flags, level):
        logger = logging.getLogger("leandecomp")
        previous = logger.level
        absent = str(tmp_path / "absent.ini")
        try:
            assert main([*flags, "--informal", "x", "--config", absent, "--out", str(tmp_path)]) == 2
            assert logger.level == level
        finally:
            logger.setLevel(previous)

    def test_zero_workers(self, tmp_path):
        assert main(["--informal", "x", "--workers", "0", "--out", str(tmp_path / "o")]) == 2

    def test_an_out_of_range_limit_exits_two_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROVER_AGENT_LLM__MAX_PASS", "0")
        lean = tmp_path / "t.lean"
        lean.write_text(EVEN_SUM_FILE)
        out = tmp_path / "out"
        assert main(["--file", str(lean), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "[PROVER_AGENT_LLM] max_pass must be at least 1, got 0" in err
        assert list(out.iterdir()) == []

    def test_a_misspelt_option_exits_two_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PROVER_AGENT_LLM__MAX_PASSES", "8")
        lean = tmp_path / "t.lean"
        lean.write_text(EVEN_SUM_FILE)
        out = tmp_path / "out"
        assert main(["--file", str(lean), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and (
            "unknown option [PROVER_AGENT_LLM] max_passes in environment variable "
            "PROVER_AGENT_LLM__MAX_PASSES"
        ) in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("url, enabled", [("", False), ("http://localhost:1", True)])
    def test_an_empty_search_url_turns_retrieval_off(self, tmp_path, url, enabled):
        config = load_config(env={"LEAN_EXPLORE_SERVER__URL": url})
        tree = ProofTree.from_formal(EVEN_SUM_FILE, packaged_limits())
        orchestrator = cli._build_orchestrator(config, tree, tmp_path, 1)
        assert (orchestrator.search_client is not None) is enabled


# ------------------------------------------------------- full-stack HTTP


def fake_stack(monkeypatch, chat_reply):
    """Start one localhost service covering chat, verification, AST
    export, and search, and point every configured backend at it."""
    service = FakeService()
    service.route("POST", "/chat/completions", chat_route(chat_reply))

    def diagnose(code):
        if FAIL_MARKER in code:
            return [
                {
                    "severity": "error",
                    "message": f"unknown identifier '{FAIL_MARKER}'",
                    "pos": {"line": 1, "column": 1},
                }
            ]
        return sorry_diagnostics(code)

    service.route("POST", "/api/check", verifier_route(diagnose))

    def ast_handler(request):
        return 200, build_sketch_payload(request.body["code"])

    service.route("POST", "/api/ast_code", ast_handler)

    def search_handler(request):
        return 200, {
            "results": [
                {
                    "full_name": "Nat.exists_infinite_primes",
                    "statement": "theorem Nat.exists_infinite_primes (n : ℕ) : ∃ p, n ≤ p ∧ p.Prime",
                    "package": "Mathlib",
                    "score": 9.0,
                }
            ]
        }

    service.route("GET", "/search", search_handler)

    service.start()
    base = service.base_url
    for role, model in ROLE_MODELS.items():
        section = {
            "formalizer": "FORMALIZER_AGENT_LLM",
            "prover": "PROVER_AGENT_LLM",
            "semantics": "SEMANTICS_AGENT_LLM",
            "search_query": "SEARCH_QUERY_AGENT_LLM",
            "decomposer": "DECOMPOSER_AGENT_LLM",
        }[role]
        monkeypatch.setenv(f"{section}__URL", base)
        monkeypatch.setenv(f"{section}__MODEL", model)
    monkeypatch.setenv("KIMINA_LEAN_SERVER__URL", base)
    monkeypatch.setenv("LEAN_EXPLORE_SERVER__URL", base)
    monkeypatch.setenv("PROVER_AGENT_LLM__MAX_PASS", "1")
    monkeypatch.setenv("PROVER_AGENT_LLM__MAX_SELF_CORRECTION_ATTEMPTS", "1")
    return service


def content_keyed_reply(model, messages):
    """Shared chat script for the full-stack runs, dispatching on the
    per-role model name configured through the environment."""
    if model == ROLE_MODELS["search_query"]:
        return QUERY_RESPONSE
    if model == ROLE_MODELS["decomposer"]:
        return lean_block(INFINITUDE_SKETCH)
    if model == ROLE_MODELS["semantics"]:
        return "Judgement: Appropriate"
    if model == ROLE_MODELS["formalizer"]:
        return lean_block(INFINITUDE_FILE.strip())
    assert model == ROLE_MODELS["prover"]
    fenced = next(m["content"] for m in reversed(messages) if "```lean4" in m["content"])
    unit = extract_code_block(fenced)
    if "infinitude_of_primes" in unit:
        return lean_block(unit.replace("sorry", FAIL_MARKER))
    return lean_block(unit.replace("sorry", "aesop"))


class TestFullStack:
    def test_formal_file_direct_proof(self, tmp_path, monkeypatch, capsys):
        def reply(model, messages):
            assert model == ROLE_MODELS["prover"]
            return lean_block(EVEN_SUM_FILE.replace("sorry", "exact fun m n hm hn => hm.add hn"))

        service = fake_stack(monkeypatch, reply)
        try:
            lean = tmp_path / "input.lean"
            lean.write_text(EVEN_SUM_FILE)
            out = tmp_path / "out"
            code = main(["--file", str(lean), "--out", str(out), "-v"])
        finally:
            service.stop()
        assert code == 0
        proof = (out / "proof.lean").read_text()
        assert proof.startswith("import Mathlib")
        assert "hm.add hn" in proof
        assert count_sorries(proof) == 0
        assert proof.strip() in capsys.readouterr().out
        entries = [json.loads(line) for line in (out / "run.jsonl").read_text().splitlines()]
        assert entries[-1]["action"] == "Finish" and entries[-1]["outcome"] == "success"
        restored = ProofTree.load(out / "checkpoint.json")
        assert restored.root_node().status is NodeStatus.PROVEN

    def test_a_final_check_failure_exits_one_with_the_candidate_proof(
        self, tmp_path, monkeypatch, capsys
    ):
        """The prover's proof verifies, but the same unit fails the final
        check: the run fails, and diagnostic.txt holds the candidate."""
        proof = EVEN_SUM_FILE.replace("sorry", "exact fun m n hm hn => hm.add hn")
        service = fake_stack(monkeypatch, lambda model, messages: lean_block(proof))
        checked: set[str] = set()

        def diagnose(code):
            if code in checked:
                return [{"severity": "error", "message": "kernel rejected the unit",
                         "pos": {"line": 1, "column": 1}}]
            checked.add(code)
            return sorry_diagnostics(code)

        service.route("POST", "/api/check", verifier_route(diagnose))
        try:
            lean = tmp_path / "input.lean"
            lean.write_text(EVEN_SUM_FILE)
            out = tmp_path / "out"
            code = main(["--file", str(lean), "--out", str(out)])
        finally:
            service.stop()
        assert code == 1
        assert not (out / "proof.lean").exists()
        report, candidate = (out / "diagnostic.txt").read_text().split(
            "\n\ncandidate proof (did not verify):\n"
        )
        assert report == "reconstructed proof failed final verification: kernel rejected the unit"
        assert candidate == CANONICAL_PREAMBLE + "\n\n" + proof.split("\n\n", 1)[1]
        assert "final verification" in capsys.readouterr().err

    def test_comment_opener_in_a_header_string(self, tmp_path, monkeypatch):
        text = (
            'import Mathlib\nset_option trace.profiler.output "/-tmp"\n\n'
            "theorem t : True := by\n  sorry"
        )

        def reply(model, messages):
            return lean_block(text.replace("sorry", "trivial"))

        service = fake_stack(monkeypatch, reply)
        try:
            lean = tmp_path / "input.lean"
            lean.write_text(text)
            out = tmp_path / "out"
            code = main(["--file", str(lean), "--out", str(out)])
        finally:
            service.stop()
        assert code == 0
        proof = (out / "proof.lean").read_text()
        assert 'set_option trace.profiler.output "/-tmp"\n\ntheorem t : True := by\n  trivial' in proof

    def test_informal_statement_with_recursion(self, tmp_path, monkeypatch):
        service = fake_stack(monkeypatch, content_keyed_reply)
        try:
            out = tmp_path / "out"
            code = main(
                ["--informal", "There are infinitely many primes.", "--out", str(out)]
            )
        finally:
            service.stop()
        assert code == 0
        proof = (out / "proof.lean").read_text()
        assert count_sorries(proof) == 0
        assert FAIL_MARKER not in proof
        for name in INFINITUDE_SUBGOAL_NAMES:
            assert f"have {name}" in proof
        # the fake verifier accepts the final unit with zero error diagnostics
        assert all(d["severity"] != "error" for d in sorry_diagnostics(proof))
        assert service.request_count("POST", "/api/ast_code") == 1
        assert service.request_count("GET", "/search") >= 1

    def test_exhausted_budgets_exit_one(self, tmp_path, monkeypatch, capsys):
        def reply(model, messages):
            if model == ROLE_MODELS["search_query"]:
                return QUERY_RESPONSE
            if model == ROLE_MODELS["decomposer"]:
                return lean_block(
                    f"theorem t : True := by\n  have s : True := by\n    {FAIL_MARKER}\n  exact s"
                )
            assert model == ROLE_MODELS["prover"]
            return lean_block(f"theorem t : True := by\n  {FAIL_MARKER}")

        service = fake_stack(monkeypatch, reply)
        monkeypatch.setenv("DECOMPOSER_AGENT_LLM__MAX_SELF_CORRECTION_ATTEMPTS", "1")
        try:
            lean = tmp_path / "input.lean"
            lean.write_text("import Mathlib\n\ntheorem t : True := by\n  sorry\n")
            out = tmp_path / "out"
            code = main(["--file", str(lean), "--out", str(out)])
        finally:
            service.stop()
        assert code == 1
        report = (out / "diagnostic.txt").read_text()
        assert "node n0001 at depth 0 spent its sketch-correction budget (1), and " in report
        assert "no ancestor has remaining decomposition budget" in report
        assert "failed" in capsys.readouterr().err
        restored = ProofTree.load(out / "checkpoint.json", load_config().typed_limits())
        finish = next_action(restored, open_passes=1)
        assert finish.kind is ActionKind.FINISH and finish.outcome.report + "\n" == report

    def test_a_subgoal_at_the_depth_limit_names_the_limit(self, tmp_path, monkeypatch):
        """The root's sketch leaves one subgoal at depth 1, the depth
        limit; its prover fails, and with no ancestor to backtrack to,
        diagnostic.txt names the limit it reached."""

        def reply(model, messages):
            if model == ROLE_MODELS["search_query"]:
                return QUERY_RESPONSE
            if model == ROLE_MODELS["decomposer"]:
                return lean_block("theorem t : True := by\n  have s : True := by\n    sorry\n  exact s")
            assert model == ROLE_MODELS["prover"]
            return lean_block(f"theorem t : True := by\n  {FAIL_MARKER}")

        service = fake_stack(monkeypatch, reply)
        monkeypatch.setenv("PROVER_AGENT_LLM__MAX_PASS", "1")
        monkeypatch.setenv("PROVER_AGENT_LLM__MAX_DEPTH", "1")
        try:
            lean = tmp_path / "input.lean"
            lean.write_text("import Mathlib\n\ntheorem t : True := by\n  sorry\n")
            out = tmp_path / "out"
            code = main(["--file", str(lean), "--out", str(out)])
        finally:
            service.stop()
        assert code == 1
        assert (out / "diagnostic.txt").read_text() == (
            "node n0002 at depth 1 reached the depth limit 1, and "
            "no ancestor has remaining decomposition budget for backtracking\n"
        )

    @pytest.mark.parametrize(
        "option, value", [("HINT_CAP", "abc"), ("MAX_RETRIES", "5x"), ("HINT_CAP", "-1")]
    )
    def test_a_malformed_search_option_exits_two(
        self, tmp_path, monkeypatch, capsys, option, value
    ):
        def reply(model, messages):
            return lean_block(EVEN_SUM_FILE.replace("sorry", "exact fun m n hm hn => hm.add hn"))

        service = fake_stack(monkeypatch, reply)
        monkeypatch.setenv(f"LEAN_EXPLORE_SERVER__{option}", value)
        try:
            lean = tmp_path / "input.lean"
            lean.write_text(EVEN_SUM_FILE)
            code = main(["--file", str(lean), "--out", str(tmp_path / "out")])
        finally:
            service.stop()
        assert code == 2
        assert f"[LEAN_EXPLORE_SERVER] {option.lower()} must be" in capsys.readouterr().err
        assert service.requests == []

    @pytest.mark.parametrize(
        "section, url",
        [
            ("PROVER_AGENT_LLM", "localhost:11434/v1"),
            ("DECOMPOSER_AGENT_LLM", ""),
            ("KIMINA_LEAN_SERVER", "0.0.0.0:8000"),
            ("LEAN_EXPLORE_SERVER", "http://:8001/api/v1"),
        ],
    )
    def test_a_service_url_that_is_not_http_exits_two_before_the_run(
        self, tmp_path, monkeypatch, capsys, section, url
    ):
        """A URL no request can be sent to fails at start-up, not after a
        whole budget of failed calls blamed on another limit."""

        def reply(model, messages):
            return lean_block(EVEN_SUM_FILE.replace("sorry", "exact fun m n hm hn => hm.add hn"))

        service = fake_stack(monkeypatch, reply)
        monkeypatch.setenv(f"{section}__URL", url)
        try:
            lean = tmp_path / "input.lean"
            lean.write_text(EVEN_SUM_FILE)
            code = main(["--file", str(lean), "--out", str(tmp_path / "out")])
        finally:
            service.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "usage" in err and f"option [{section}] url must be http(s)://host[:port]" in err
        assert service.requests == []

    def test_search_answering_an_array_leaves_the_sketch_without_hints(
        self, tmp_path, monkeypatch
    ):
        service = fake_stack(monkeypatch, content_keyed_reply)
        service.route("GET", "/search", lambda request: (200, []))
        try:
            out = tmp_path / "out"
            code = main(["--informal", "There are infinitely many primes.", "--out", str(out)])
        finally:
            service.stop()
        assert code == 0
        assert service.request_count("GET", "/search") >= 1
        sketch_prompts = [
            request.body["messages"][-1]["content"]
            for request in service.requests
            if request.path == "/chat/completions"
            and request.body["model"] == ROLE_MODELS["decomposer"]
        ]
        assert sketch_prompts
        assert all("(no potentially useful theorems were found)" in p for p in sketch_prompts)

    def test_lean_server_answering_an_array_exits_one(self, tmp_path, monkeypatch, capsys):
        def reply(model, messages):
            return lean_block("theorem t : True := by\n  trivial")

        service = fake_stack(monkeypatch, reply)
        service.route("POST", "/api/check", lambda request: (200, []))
        try:
            lean = tmp_path / "input.lean"
            lean.write_text("import Mathlib\n\ntheorem t : True := by\n  sorry\n")
            out = tmp_path / "out"
            code = main(["--file", str(lean), "--out", str(out)])
        finally:
            service.stop()
        assert code == 1
        report = (out / "diagnostic.txt").read_text()
        assert "proof search aborted" in report and "not an object" in report
        assert "--resume" in capsys.readouterr().err

    @pytest.mark.parametrize("unwritable", ["checkpoint.json", "run.jsonl", "diagnostic.txt"])
    def test_a_write_error_exits_one_with_one_error_line(
        self, tmp_path, monkeypatch, capsys, unwritable
    ):
        """A file of the output directory that cannot be written (here a
        directory in its place) ends the run with exit code 1 and one
        ``error:`` line, not a traceback. diagnostic.txt holds the report
        unless it is the file that cannot be written."""
        def reply(model, messages):
            return lean_block("theorem t : True := by\n  trivial")

        service = fake_stack(monkeypatch, reply)
        out = tmp_path / "out"
        (out / unwritable).mkdir(parents=True)
        if unwritable == "diagnostic.txt":
            (out / "run.jsonl").mkdir()
        try:
            lean = tmp_path / "input.lean"
            lean.write_text("import Mathlib\n\ntheorem t : True := by\n  sorry\n")
            code = main(["--file", str(lean), "--out", str(out)])
        finally:
            service.stop()
        assert code == 1
        assert not (out / "proof.lean").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: proof search aborted: cannot write")
        if unwritable != "diagnostic.txt":
            assert (out / "diagnostic.txt").read_text() == err[0].removeprefix("error: ") + "\n"

    def test_resume_checkpoint_through_cli(self, tmp_path, monkeypatch):
        tree = ProofTree.from_formal(
            "import Mathlib\n\ntheorem t : True := by\n  sorry", packaged_limits()
        )
        checkpoint = tmp_path / "checkpoint.json"
        tree.save(checkpoint)

        def reply(model, messages):
            assert model == ROLE_MODELS["prover"]
            return lean_block("theorem t : True := by\n  trivial")

        service = fake_stack(monkeypatch, reply)
        try:
            out = tmp_path / "out"
            code = main(["--resume", str(checkpoint), "--out", str(out)])
        finally:
            service.stop()
        assert code == 0
        assert "trivial" in (out / "proof.lean").read_text()


# ------------------------------------------------------ resume after failure

GOAL_FILE = "import Mathlib\n\ntheorem goal : True := by\n  sorry\n"
ROLE_OF_MODEL = {model: role for role, model in ROLE_MODELS.items()}


def goal_scenario(rejections: int = 0, bad_sketches: int = 0):
    """Chat replies keyed on content, with a count of the calls per role
    that lives as long as the service does: the semantics checker rejects
    the first ``rejections`` statements, and the first ``bad_sketches``
    sketches fail their Lean check. The prover fails ``goal`` and
    ``goal_a`` and proves anything else; a sketch of ``x`` has the one
    subgoal ``x_a``."""
    calls = {role: 0 for role in ROLE_MODELS}

    def reply(model, messages):
        role = ROLE_OF_MODEL[model]
        calls[role] += 1
        if role == "search_query":
            return QUERY_RESPONSE
        if role == "semantics":
            return "Judgement: " + ("Inappropriate" if calls[role] <= rejections else "Appropriate")
        if role == "formalizer":
            return lean_block("import Mathlib\n\ntheorem goal_f : True := by\n  sorry")
        text = "\n".join(message["content"] for message in messages)
        name = re.search(r"theorem (goal\w*)", text).group(1)
        if role == "decomposer":
            step = FAIL_MARKER if calls[role] <= bad_sketches else "sorry"
            return lean_block(
                f"theorem {name} : True := by\n  have {name}_a : True := by\n    {step}\n"
                f"  exact {name}_a"
            )
        return lean_block(
            f"theorem {name} : True := by\n  "
            + (FAIL_MARKER if name in ("goal", "goal_a") else "trivial")
        )

    return reply


#: Runs that fail once a budget is spent: the option that sets it, its
#: value for the failing run, a raised value under which the run goes on
#: to a proof, the scenario, the input, and the report of the failure.
FAILING_RUNS = {
    "depth-limit": (
        "PROVER_AGENT_LLM__MAX_DEPTH", "1", "2", {}, ["--file"],
        "node n0002 at depth 1 reached the depth limit 1, and "
        "no ancestor has remaining decomposition budget for backtracking",
    ),
    "sketch-budget": (
        "DECOMPOSER_AGENT_LLM__MAX_SELF_CORRECTION_ATTEMPTS", "1", "2", {"bad_sketches": 1},
        ["--file"],
        "node n0001 at depth 0 spent its sketch-correction budget (1), and "
        "no ancestor has remaining decomposition budget for backtracking",
    ),
    "formalization-retries": (
        "FORMALIZER_AGENT_LLM__MAX_RETRIES", "2", "3", {"rejections": 2},
        ["--informal", "Truth holds."],
        "formalization of node n0001 exhausted its 2 retries without an accepted statement",
    ),
}


def calls_made(service) -> list:
    """The requests a service received, as comparable tuples: a Lean
    check by its units, since the ids a batch gives them are random."""
    calls = []
    for request in service.requests:
        body = request.body
        if request.path == "/api/check":
            body = [item["code"] for item in body["codes"]]
        calls.append((request.method, request.path, request.query, json.dumps(body)))
    return calls


class TestResumeAfterFailure:
    """A run's failure is read from its checkpoint under the limits of
    the configuration, so a failed run resumed under the same limits
    fails again at once, and under a raised one goes on."""

    @staticmethod
    def run(tmp_path, case, out="out"):
        """Run the case's input into ``out`` at one worker; its exit code."""
        argv = list(FAILING_RUNS[case][4])
        if argv == ["--file"]:
            lean = tmp_path / "goal.lean"
            lean.write_text(GOAL_FILE, encoding="utf-8")
            argv.append(str(lean))
        return main([*argv, "--out", str(tmp_path / out), "--workers", "1"])

    @pytest.mark.parametrize("case", list(FAILING_RUNS))
    def test_a_failed_run_resumed_under_the_same_limits_makes_no_call(
        self, tmp_path, monkeypatch, case
    ):
        option, value, _, scenario, _, report = FAILING_RUNS[case]
        service = fake_stack(monkeypatch, goal_scenario(**scenario))
        monkeypatch.setenv(option, value)
        out = tmp_path / "out"
        try:
            assert self.run(tmp_path, case) == 1
            diagnostic = (out / "diagnostic.txt").read_bytes()
            checkpoint = (out / "checkpoint.json").read_bytes()
            made = len(service.requests)
            assert main(["--resume", str(out / "checkpoint.json"), "--out", str(out)]) == 1
        finally:
            service.stop()
        assert diagnostic == (report + "\n").encode("utf-8")
        assert len(service.requests) == made
        assert (out / "diagnostic.txt").read_bytes() == diagnostic
        assert (out / "checkpoint.json").read_bytes() == checkpoint

    @pytest.mark.parametrize("case", list(FAILING_RUNS))
    def test_a_failed_run_resumed_under_a_raised_limit_makes_the_calls_of_one_run(
        self, tmp_path, monkeypatch, case
    ):
        """At one worker, the failed run and its resume under the raised
        limit make the calls, in order, of one run under that limit."""
        option, value, raised, scenario, _, _ = FAILING_RUNS[case]
        service = fake_stack(monkeypatch, goal_scenario(**scenario))
        monkeypatch.setenv(option, raised)
        try:
            assert self.run(tmp_path, case, out="uninterrupted") == 0
        finally:
            service.stop()
        expected = calls_made(service)
        service = fake_stack(monkeypatch, goal_scenario(**scenario))
        monkeypatch.setenv(option, value)
        out = tmp_path / "out"
        try:
            assert self.run(tmp_path, case) == 1
            monkeypatch.setenv(option, raised)
            checkpoint = str(out / "checkpoint.json")
            assert main(["--resume", checkpoint, "--out", str(out), "--workers", "1"]) == 0
        finally:
            service.stop()
        assert calls_made(service) == expected
        assert (out / "proof.lean").read_text() == (
            tmp_path / "uninterrupted" / "proof.lean"
        ).read_text()

    def test_a_successful_resume_removes_the_diagnostic_of_the_aborted_run(
        self, tmp_path, monkeypatch
    ):
        """The verifier is down at the first check, which aborts the run
        and leaves diagnostic.txt; the resume into the same directory
        proves the theorem, and proof.lean is then its only outcome."""
        service = fake_stack(monkeypatch, goal_scenario())
        monkeypatch.setenv("KIMINA_LEAN_SERVER__MAX_RETRIES", "0")
        service.fail_next("POST", "/api/check", [503])
        lean = tmp_path / "input.lean"
        lean.write_text(GOAL_FILE.replace("goal", "goal_easy"), encoding="utf-8")
        out = tmp_path / "out"
        try:
            assert main(["--file", str(lean), "--out", str(out)]) == 1
            assert "proof search aborted" in (out / "diagnostic.txt").read_text()
            assert main(["--resume", str(out / "checkpoint.json"), "--out", str(out)]) == 0
        finally:
            service.stop()
        assert "trivial" in (out / "proof.lean").read_text()
        assert sorted(path.name for path in out.iterdir()) == [
            "checkpoint.json", "proof.lean", "run.jsonl"
        ]

    def test_a_resume_appends_to_the_checkpoint_it_loaded(self, tmp_path, monkeypatch):
        """The verifier is down at the first check, which aborts the run.
        A resume into another directory leaves the crash-time checkpoint
        as it was; a resume into the same directory appends to it. The
        two resumed runs end with the same tree."""
        service = fake_stack(monkeypatch, goal_scenario())
        monkeypatch.setenv("KIMINA_LEAN_SERVER__MAX_RETRIES", "0")
        service.fail_next("POST", "/api/check", [503])
        lean = tmp_path / "goal.lean"
        lean.write_text(GOAL_FILE, encoding="utf-8")
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        checkpoint = out / "checkpoint.json"
        try:
            assert main(["--file", str(lean), "--out", str(out), "--workers", "1"]) == 1
            crashed = checkpoint.read_bytes()
            argv = ["--resume", str(checkpoint), "--workers", "1", "--out"]
            assert main([*argv, str(elsewhere)]) == 0
            assert checkpoint.read_bytes() == crashed
            assert main([*argv, str(out)]) == 0
        finally:
            service.stop()
        final = checkpoint.read_bytes()
        assert final.startswith(crashed) and len(final) > len(crashed)
        assert (out / "proof.lean").read_text() == (elsewhere / "proof.lean").read_text()
        moved = ProofTree.load(elsewhere / "checkpoint.json")
        assert ProofTree.load(checkpoint).to_dict() == moved.to_dict()


class TestServiceOutage:
    def test_a_chat_outage_exits_one_resumably_with_nothing_recorded(self, tmp_path, monkeypatch):
        """A prover URL that refuses connections, with no retry, one round
        per pass and a depth limit of 0: the run exits 1 asking for
        --resume, not blaming a limit, and its checkpoint is one line
        whose root has no history. Resumed against the prover that
        answers, it makes the requests of one uninterrupted run."""
        service = fake_stack(monkeypatch, goal_scenario())
        monkeypatch.setenv("PROVER_AGENT_LLM__MAX_DEPTH", "0")
        lean = tmp_path / "goal.lean"
        lean.write_text(GOAL_FILE.replace("goal", "goal_easy"), encoding="utf-8")
        out = tmp_path / "out"
        try:
            assert main(["--file", str(lean), "--out", str(tmp_path / "uninterrupted")]) == 0
            expected = calls_made(service)
            service.requests.clear()
            with monkeypatch.context() as dead:
                dead.setenv("PROVER_AGENT_LLM__URL", "http://127.0.0.1:9/v1")
                dead.setenv("PROVER_AGENT_LLM__MAX_REMOTE_RETRIES", "0")
                assert main(["--file", str(lean), "--out", str(out)]) == 1
            diagnostic = (out / "diagnostic.txt").read_text(encoding="utf-8")
            lines = (out / "checkpoint.json").read_text(encoding="utf-8").splitlines()
            assert main(["--resume", str(out / "checkpoint.json"), "--out", str(out)]) == 0
        finally:
            service.stop()
        assert diagnostic.startswith("proof search aborted: POST http://127.0.0.1:9/v1")
        assert "resume with --resume" in diagnostic and "limit" not in diagnostic
        assert len(lines) == 1
        snapshot = json.loads(lines[0])
        assert snapshot["nodes"][snapshot["root"]]["history"] == []
        assert calls_made(service) == expected

    def test_a_refused_chat_request_costs_one_failed_round(self, tmp_path, monkeypatch):
        """The chat server answers the prover's first request with HTTP
        400: that round fails, and its correction proves the goal."""
        service = fake_stack(monkeypatch, goal_scenario())
        monkeypatch.setenv("PROVER_AGENT_LLM__MAX_SELF_CORRECTION_ATTEMPTS", "2")
        service.fail_next("POST", "/chat/completions", [400])
        lean = tmp_path / "goal.lean"
        lean.write_text(GOAL_FILE.replace("goal", "goal_easy"), encoding="utf-8")
        out = tmp_path / "out"
        try:
            assert main(["--file", str(lean), "--out", str(out)]) == 0
        finally:
            service.stop()
        assert service.request_count("POST", "/chat/completions") == 2
        history = ProofTree.load(out / "checkpoint.json").root_node().history
        replies = [entry for entry in history if entry.get("role") == "prover"]
        assert len(replies) == 2 and replies[0]["failed"] is True and "failed" not in replies[1]
        assert replies[0]["response"].startswith("(request refused: POST http://127.0.0.1:")
        assert "returned HTTP 400" in replies[0]["response"]


class TestDependencies:
    def test_cli_loads_only_the_standard_library(self):
        """The package has no runtime dependencies: importing the CLI in a
        fresh interpreter, without site-packages, loads only standard
        library modules besides leandecomp itself."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import leandecomp.cli\n"
            "loaded = {name.partition('.')[0] for name in sys.modules} - {'__main__'}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'leandecomp'}))\n"
        )
        run = subprocess.run(
            [sys.executable, "-I", "-S", "-c", probe],
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_the_http_stack_loads_with_the_first_client(self):
        """Importing the package, its CLI and its service clients loads no
        HTTP stack; building the clients loads it, before any request."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import leandecomp, leandecomp.cli, leandecomp.services as s\n"
            "stack = ('http.client', 'ssl', 'urllib.request', 'email', 'uuid')\n"
            "print(' '.join(sorted(set(stack) & sys.modules.keys())) or '-')\n"
            "s.ChatClient(s.ChatBackendConfig(model='m', base_url='http://127.0.0.1:9', api_key='',"
            " max_tokens=1, max_tokens_param='max_tokens', max_remote_retries=0))\n"
            "s.VerifierClient(s.VerifierConfig(url='http://127.0.0.1:9', verify_path='/api/check',"
            " max_retries=0))\n"
            "s.SearchClient(s.SearchConfig(url='http://127.0.0.1:9', package_filters=(),"
            " max_retries=0, hint_cap=1))\n"
            "print(' '.join(sorted(set(stack) & sys.modules.keys())) or '-')\n"
        )
        run = subprocess.run(
            [sys.executable, "-I", "-S", "-c", probe],
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        before, after = run.stdout.splitlines()
        assert before == "-"
        assert {"http.client", "urllib.request"} <= set(after.split())
