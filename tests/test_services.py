import pytest

from leandecomp.errors import (
    AstExportFailed,
    BadResponse,
    InvalidModuleName,
    RemoteExhausted,
    ServiceUnavailable,
)
from leandecomp.services import (
    ChatBackendConfig,
    ChatClient,
    SearchClient,
    SearchConfig,
    VerifierClient,
    VerifierConfig,
)
from tests.ast_builder import build_sketch_payload
from tests.http_fakes import FakeService, chat_route, sorry_diagnostics, verifier_route
from tests.sample_proofs import EVEN_SUM_PROOF, INFINITUDE_SKETCH


@pytest.fixture
def service():
    with FakeService() as fake:
        yield fake


def make_chat_client(fake, retries=5):
    config = ChatBackendConfig(
        model="test-model",
        base_url=fake.base_url + "/v1",
        api_key="key",
        max_tokens=128,
        max_remote_retries=retries,
    )
    return ChatClient(config, request_timeout=5, backoff_base=0)


class TestChatClient:
    def test_returns_untrimmed_assistant_text(self, service):
        service.route("POST", "/v1/chat/completions", chat_route(lambda m, msgs: "  hello \n"))
        client = make_chat_client(service)
        assert client.complete([("user", "hi")]) == "  hello \n"

    def test_two_failures_then_success(self, service):
        service.fail_next("POST", "/v1/chat/completions", [500, 503])
        service.route("POST", "/v1/chat/completions", chat_route(lambda m, msgs: "ok"))
        client = make_chat_client(service, retries=5)
        assert client.complete([("user", "hi")]) == "ok"
        assert service.request_count("POST", "/v1/chat/completions") == 3

    def test_zero_budget_exhausts_after_one_request(self, service):
        service.fail_next("POST", "/v1/chat/completions", [500])
        client = make_chat_client(service, retries=0)
        with pytest.raises(RemoteExhausted):
            client.complete([("user", "hi")])
        assert service.request_count() == 1

    def test_request_budget_never_exceeded(self, service):
        service.fail_next("POST", "/v1/chat/completions", [500] * 10)
        client = make_chat_client(service, retries=3)
        with pytest.raises(RemoteExhausted):
            client.complete([("user", "hi")])
        assert service.request_count() == 4  # 1 + budget

    def test_non_transient_4xx_fails_fast(self, service):
        service.route("POST", "/v1/chat/completions", lambda r: (401, {"error": "bad key"}))
        client = make_chat_client(service)
        with pytest.raises(BadResponse):
            client.complete([("user", "hi")])
        assert service.request_count() == 1

    def test_missing_choices_is_bad_response(self, service):
        service.route("POST", "/v1/chat/completions", lambda r: (200, {"choices": []}))
        client = make_chat_client(service)
        with pytest.raises(BadResponse):
            client.complete([("user", "hi")])

    def test_sends_model_messages_and_bearer_key(self, service):
        service.route("POST", "/v1/chat/completions", chat_route(lambda m, msgs: m))
        client = make_chat_client(service)
        assert client.complete([("system", "s"), ("user", "u")]) == "test-model"
        body = service.requests[-1].body
        assert body["messages"] == [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]
        assert body["max_tokens"] == 128


def make_verifier(fake, retries=5, **kwargs):
    return VerifierClient(
        VerifierConfig(url=fake.base_url, max_retries=retries), backoff_base=0, **kwargs
    )


class TestVerifierClient:
    def test_complete_proof(self, service):
        service.route("POST", "/api/check", verifier_route(sorry_diagnostics))
        result = make_verifier(service).verify_code(EVEN_SUM_PROOF, timeout=10)
        assert result.passed and result.complete
        assert result.errors == ()

    def test_sketch_passes_but_incomplete(self, service):
        service.route("POST", "/api/check", verifier_route(sorry_diagnostics))
        result = make_verifier(service).verify_code(INFINITUDE_SKETCH, timeout=10)
        assert result.passed and not result.complete

    def test_type_error_fails_with_span(self, service):
        def diagnose(code):
            return [
                {
                    "severity": "error",
                    "message": "type mismatch: numeral is not a proof",
                    "pos": {"line": 1, "column": 30},
                    "endPos": {"line": 1, "column": 37},
                }
            ]

        service.route("POST", "/api/check", verifier_route(diagnose))
        result = make_verifier(service).verify_code("theorem t : True := by exact 0", timeout=10)
        assert not result.passed and not result.complete
        assert result.errors[0].message.startswith("type mismatch")
        assert result.errors[0].span == ((1, 30), (1, 37))

    def test_batch_preserves_order(self, service):
        def diagnose(code):
            if "bad" in code:
                return [{"severity": "error", "message": "broken", "pos": {"line": 1, "column": 1}}]
            return []

        service.route("POST", "/api/check", verifier_route(diagnose))
        results = make_verifier(service).verify_batch(["good one", "bad one", "good two"], timeout=10)
        assert [r.passed for r in results] == [True, False, True]

    def test_unavailable_after_retries(self, service):
        service.fail_next("POST", "/api/check", [500] * 10)
        with pytest.raises(ServiceUnavailable):
            make_verifier(service, retries=2).verify_code("x", timeout=10)
        assert service.request_count() == 3

    def test_concurrency_cap_accepted(self, service):
        service.route("POST", "/api/check", verifier_route(sorry_diagnostics))
        client = make_verifier(service, max_concurrent=2)
        assert client.verify_code("theorem t : True := by trivial", timeout=10).passed

    @pytest.mark.parametrize(
        "fields",
        [
            {"response": {"messages": [{"severity": "error", "message": "unknown tactic"}]}},
            {"diagnostics": [], "time": None},
            {"diagnostics": ["declaration uses 'sorry'"]},
            {"diagnostics": [{"severity": "error", "message": "x", "pos": {"line": "one"}}]},
        ],
        ids=["no-diagnostics-list", "null-time", "diagnostic-not-an-object", "non-numeric-position"],
    )
    def test_malformed_entry_is_bad_response(self, service, fields):
        service.route(
            "POST",
            "/api/check",
            lambda r: (200, {"results": [
                {"custom_id": item["custom_id"], **fields} for item in r.body["codes"]
            ]}),
        )
        with pytest.raises(BadResponse):
            make_verifier(service).verify_code("theorem t : True := by trivial", timeout=10)

    def test_warning_mentioning_admit_stays_complete(self, service):
        def diagnose(code):
            return [{"severity": "warning", "message": "unused variable `hadmit`",
                     "pos": {"line": 2, "column": 7}}]

        service.route("POST", "/api/check", verifier_route(diagnose))
        result = make_verifier(service).verify_code(EVEN_SUM_PROOF, timeout=10)
        assert result.passed and result.complete


class TestAstClient:
    """AST export through the one Lean server client, VerifierClient."""

    def test_fetch_ast_of_sketch(self, service):
        def handler(request):
            payload = build_sketch_payload(request.body["code"], module_name=request.body["module_name"])
            payload["time"] = 0.5
            return 200, payload

        service.route("POST", "/api/ast_code", handler)
        client = make_verifier(service)
        root, sorries = client.fetch_ast(INFINITUDE_SKETCH, module_name="User.Code", timeout=10)
        assert len(sorries) == 5
        assert service.requests[-1].body["module_name"] == "User.Code"

    def test_traversal_module_name_rejected_locally(self, service):
        client = make_verifier(service)
        with pytest.raises(InvalidModuleName):
            client.fetch_ast("theorem t : True := by sorry", module_name="../etc")
        assert service.request_count() == 0

    def test_compile_error_maps_to_ast_export_failed(self, service):
        service.route(
            "POST", "/api/ast_code", lambda r: (200, {"error": "unexpected token 'qed'", "ast": None})
        )
        client = make_verifier(service)
        with pytest.raises(AstExportFailed, match="unexpected token"):
            client.fetch_ast("theorem t : True := qed", timeout=10)


def search_results_route(table):
    def handler(request):
        return 200, {"results": table.get(request.query.get("q", ""), [])}

    return handler


class TestSearchClient:
    def make_client(self, fake, **overrides):
        config = SearchConfig(
            url=fake.base_url + "/api/v1",
            package_filters=overrides.pop("package_filters", ("Mathlib",)),
            max_retries=overrides.pop("max_retries", 2),
            hint_cap=overrides.pop("hint_cap", 20),
        )
        return SearchClient(config, backoff_base=0)

    def test_filters_to_configured_packages(self, service):
        table = {
            "parity": [
                {"full_name": "Nat.even_add", "statement": "s1", "package": "Mathlib", "score": 0.9},
                {"full_name": "Weird.lemma", "statement": "s2", "package": "Elsewhere", "score": 0.99},
            ]
        }
        service.route("GET", "/api/v1/search", search_results_route(table))
        hits = self.make_client(service).search_theorems(["parity"])
        assert [h.full_name for h in hits] == ["Nat.even_add"]

    def test_overlap_deduplicated_keeping_max_score(self, service):
        table = {
            "q1": [
                {"full_name": "A", "statement": "sa", "package": "Mathlib", "score": 0.5},
                {"full_name": "B", "statement": "sb", "package": "Mathlib", "score": 0.4},
            ],
            "q2": [
                {"full_name": "A", "statement": "sa", "package": "Mathlib", "score": 0.8},
                {"full_name": "C", "statement": "sc", "package": "Mathlib", "score": 0.6},
            ],
        }
        service.route("GET", "/api/v1/search", search_results_route(table))
        hits = self.make_client(service).search_theorems(["q1", "q2"])
        assert [(h.full_name, h.score) for h in hits] == [("A", 0.8), ("C", 0.6), ("B", 0.4)]

    def test_empty_index(self, service):
        service.route("GET", "/api/v1/search", search_results_route({}))
        assert self.make_client(service).search_theorems(["anything"]) == []

    def test_scores_sorted_nonincreasing_and_capped(self, service):
        table = {
            "q": [
                {"full_name": f"T{i}", "statement": "s", "package": "Mathlib", "score": i / 100}
                for i in range(40)
            ]
        }
        service.route("GET", "/api/v1/search", search_results_route(table))
        hits = self.make_client(service, hint_cap=5).search_theorems(["q"])
        scores = [h.score for h in hits]
        assert len(hits) == 5
        assert scores == sorted(scores, reverse=True)

    def test_unavailable_after_retries(self, service):
        service.fail_next("GET", "/api/v1/search", [503] * 5)
        with pytest.raises(ServiceUnavailable):
            self.make_client(service).search_theorems(["q"])
        assert service.request_count() == 3  # 1 + 2 retries
