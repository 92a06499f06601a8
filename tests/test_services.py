import base64
import json
import logging
import re
import socket
import sys
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leandecomp.agents import format_theorem_hints
from leandecomp.config import load_config
from leandecomp.errors import BadReply, BadSketch, LeandecompError, ServiceError
from leandecomp.services import (
    ChatBackendConfig,
    ChatClient,
    SearchClient,
    SearchConfig,
    VerifierClient,
    VerifierConfig,
)
from leandecomp.transport import _RetryingHttp, close_idle_connections
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
        max_tokens_param="max_tokens",
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
        with pytest.raises(ServiceError, match="failed after 1 attempts"):
            client.complete([("user", "hi")])
        assert service.request_count() == 1

    def test_request_budget_never_exceeded(self, service):
        service.fail_next("POST", "/v1/chat/completions", [500] * 10)
        client = make_chat_client(service, retries=3)
        with pytest.raises(ServiceError, match="failed after 4 attempts"):
            client.complete([("user", "hi")])
        assert service.request_count() == 4  # 1 + budget

    def test_non_transient_4xx_fails_fast(self, service):
        """A refused request is a BadReply: the round fails, the run goes on."""
        service.route("POST", "/v1/chat/completions", lambda r: (401, {"error": "bad key"}))
        client = make_chat_client(service)
        with pytest.raises(BadReply, match="HTTP 401"):
            client.complete([("user", "hi")])
        assert service.request_count() == 1

    def test_missing_choices_is_bad_response(self, service):
        service.route("POST", "/v1/chat/completions", lambda r: (200, {"choices": []}))
        client = make_chat_client(service)
        with pytest.raises(BadReply, match="missing choices"):
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

    @pytest.mark.parametrize(
        "role, sent, unsent",
        [("decomposer", "max_completion_tokens", "max_tokens"),
         ("prover", "max_tokens", "max_completion_tokens")],
    )
    def test_packaged_sections_send_the_limit_under_their_own_name(
        self, service, role, sent, unsent
    ):
        """OpenAI's reasoning models reject ``max_tokens``; Ollama reads it."""
        service.route("POST", "/v1/chat/completions", chat_route(lambda m, msgs: "ok"))
        config = replace(
            load_config(env={}).chat_backend(role), base_url=service.base_url + "/v1"
        )
        ChatClient(config, request_timeout=5, backoff_base=0).complete([("user", "hi")])
        body = service.requests[-1].body
        assert body[sent] == 50000
        assert unsent not in body


def make_verifier(fake, retries=5, **kwargs):
    return VerifierClient(
        VerifierConfig(url=fake.base_url, verify_path="/api/check", max_retries=retries),
        backoff_base=0,
        **kwargs,
    )


class TestVerifierClient:
    def test_complete_proof(self, service):
        service.route("POST", "/api/check", verifier_route(sorry_diagnostics))
        result = make_verifier(service).verify_batch([EVEN_SUM_PROOF], timeout=10)[0]
        assert result.passed and result.complete
        assert result.errors == ()

    def test_sketch_passes_but_incomplete(self, service):
        service.route("POST", "/api/check", verifier_route(sorry_diagnostics))
        result = make_verifier(service).verify_batch([INFINITUDE_SKETCH], timeout=10)[0]
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
        result = make_verifier(service).verify_batch(["theorem t : True := by exact 0"], timeout=10)[0]
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

    def test_a_batch_names_each_unit_with_a_distinct_random_id(self, service):
        """Each unit's ``custom_id`` is ``code-<8 random hex digits>-<index>``,
        so the ids of a batch, and of two batches, differ."""
        service.route("POST", "/api/check", verifier_route(lambda code: []))
        verifier = make_verifier(service)
        for _ in range(2):
            verifier.verify_batch(["a", "b", "c"], timeout=10)
        batches = [[item["custom_id"] for item in r.body["codes"]] for r in service.requests]
        for ids in batches:
            assert len(set(ids)) == len(ids) == 3
            for index, cid in enumerate(ids):
                assert re.fullmatch(rf"code-[0-9a-f]{{8}}-{index}", cid), cid
        assert batches[0][0] != batches[1][0]

    def test_unavailable_after_retries(self, service):
        service.fail_next("POST", "/api/check", [500] * 10)
        with pytest.raises(ServiceError, match="failed after"):
            make_verifier(service, retries=2).verify_batch(["x"], timeout=10)
        assert service.request_count() == 3

    @pytest.mark.parametrize(
        "fields",
        [
            {"response": {"messages": [{"severity": "error", "message": "unknown tactic"}]}},
            {"diagnostics": ["declaration uses 'sorry'"]},
            {"diagnostics": [{"severity": "error", "message": "x", "pos": {"line": "one"}}]},
        ],
        ids=["no-diagnostics-list", "diagnostic-not-an-object", "non-numeric-position"],
    )
    def test_malformed_entry_is_bad_response(self, service, fields):
        service.route(
            "POST",
            "/api/check",
            lambda r: (200, {"results": [
                {"custom_id": item["custom_id"], **fields} for item in r.body["codes"]
            ]}),
        )
        with pytest.raises(ServiceError, match="verification result"):
            make_verifier(service).verify_batch(["theorem t : True := by trivial"], timeout=10)

    def test_the_server_time_is_not_read(self, service):
        """An entry's ``time`` grades nothing, so a null one is no defect."""
        service.route(
            "POST",
            "/api/check",
            lambda r: (200, {"results": [
                {"custom_id": item["custom_id"], "diagnostics": [], "time": None}
                for item in r.body["codes"]
            ]}),
        )
        (result,) = make_verifier(service).verify_batch(["theorem t : True := by trivial"], timeout=10)
        assert result.passed and result.complete

    def test_error_entry_without_diagnostics_fails_the_unit(self, service):
        service.route(
            "POST",
            "/api/check",
            lambda r: (200, {"results": [
                {"custom_id": item["custom_id"], "error": "timeout"} for item in r.body["codes"]
            ]}),
        )
        (result,) = make_verifier(service).verify_batch(["theorem t : True := by trivial"], timeout=10)
        assert not result.passed and not result.complete
        assert [error.message for error in result.errors] == ["timeout"]

    def test_warning_mentioning_admit_stays_complete(self, service):
        def diagnose(code):
            return [{"severity": "warning", "message": "unused variable `hadmit`",
                     "pos": {"line": 2, "column": 7}}]

        service.route("POST", "/api/check", verifier_route(diagnose))
        result = make_verifier(service).verify_batch([EVEN_SUM_PROOF], timeout=10)[0]
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
        root, sorries = client.fetch_ast(INFINITUDE_SKETCH, timeout=10)
        assert len(sorries) == 5
        assert service.requests[-1].body["module_name"] == "User.Code"

    def test_compile_error_maps_to_ast_export_failed(self, service):
        service.route(
            "POST", "/api/ast_code", lambda r: (200, {"error": "unexpected token 'qed'", "ast": None})
        )
        client = make_verifier(service)
        with pytest.raises(BadSketch, match="unexpected token"):
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
        with pytest.raises(ServiceError, match="failed after"):
            self.make_client(service).search_theorems(["q"])
        assert service.request_count() == 3  # 1 + 2 retries


@pytest.fixture
def keep_alive_service():
    with FakeService(keep_alive=True) as fake:
        yield fake
    close_idle_connections()


@pytest.fixture
def proxy_env(monkeypatch):
    """The environment with no proxy variables; tests set their own."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def echo_chat(fake):
    fake.route(
        "POST", "/v1/chat/completions", chat_route(lambda m, msgs: msgs[-1]["content"])
    )


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(self, keep_alive_service):
        echo_chat(keep_alive_service)
        client = make_chat_client(keep_alive_service)
        assert [client.complete([("user", f"q{i}")]) for i in range(3)] == ["q0", "q1", "q2"]
        assert keep_alive_service.request_count() == 3
        assert keep_alive_service.connections == 1
        close_idle_connections()
        assert client.complete([("user", "after close")]) == "after close"
        assert keep_alive_service.connections == 2

    def test_every_client_shares_the_idle_connections(self, keep_alive_service):
        """Five chat clients, the Lean client and the search client,
        called in turn against one server, use one connection."""
        fake = keep_alive_service
        echo_chat(fake)
        fake.route("POST", "/api/check", verifier_route(lambda code: []))
        fake.route("GET", "/api/v1/search", search_results_route({}))
        chats = [make_chat_client(fake) for _ in range(5)]
        lean = make_verifier(fake)
        search = SearchClient(
            SearchConfig(
                url=fake.base_url + "/api/v1",
                package_filters=("Mathlib", "Batteries", "Std", "Init", "Lean"),
                max_retries=5,
                hint_cap=20,
            ),
            backoff_base=0,
        )
        for number, chat in enumerate(chats):
            assert chat.complete([("user", f"c{number}")]) == f"c{number}"
        assert lean.verify_batch(["theorem t : True := trivial"])[0].complete
        assert search.search_theorems(["q"]) == []
        assert fake.request_count() == 7
        assert fake.connections == 1

    def test_server_closed_idle_connection_is_replaced_within_one_attempt(
        self, keep_alive_service, caplog
    ):
        echo_chat(keep_alive_service)
        client = make_chat_client(keep_alive_service, retries=0)
        assert client.complete([("user", "first")]) == "first"
        keep_alive_service.drop_connections()
        with caplog.at_level(logging.WARNING, logger="leandecomp.services"):
            assert client.complete([("user", "second")]) == "second"
        assert keep_alive_service.request_count() == 2
        assert keep_alive_service.connections == 2
        assert not caplog.records

    def test_concurrent_calls_each_get_their_own_response(self, keep_alive_service):
        echo_chat(keep_alive_service)
        client = make_chat_client(keep_alive_service)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = {
                    pool.submit(client.complete, [("user", f"m{i}")]): f"m{i}" for i in range(40)
                }
                replies = {sent: future.result(timeout=30) for future, sent in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        assert all(reply == sent for sent, reply in replies.items())
        assert keep_alive_service.request_count() == 40
        assert keep_alive_service.connections <= 4


class TestRetryLogging:
    def test_one_warning_per_retried_attempt(self, service, caplog):
        service.fail_next("POST", "/v1/chat/completions", [503])
        echo_chat(service)
        with caplog.at_level(logging.WARNING, logger="leandecomp.services"):
            assert make_chat_client(service).complete([("user", "hi")]) == "hi"
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert (record.name, record.levelno) == ("leandecomp.services", logging.WARNING)
        message = record.getMessage()
        assert f"POST {service.base_url}/v1/chat/completions" in message
        assert "attempt 1 of 6" in message and "HTTP 503" in message


class TestProxies:
    def test_http_proxy_receives_the_absolute_url(self, service, proxy_env):
        with FakeService() as proxy:
            echo_chat(proxy)
            proxy_env.setenv("http_proxy", proxy.base_url.replace("://", "://user:p%40ss@"))
            assert make_chat_client(service).complete([("user", "via proxy")]) == "via proxy"
        assert service.request_count() == 0
        (seen,) = proxy.requests
        assert seen.target == service.base_url + "/v1/chat/completions"
        assert seen.headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_bypasses_the_proxy(self, service, proxy_env):
        echo_chat(service)
        with FakeService() as proxy:
            proxy_env.setenv("http_proxy", proxy.base_url)
            proxy_env.setenv("no_proxy", "127.0.0.1")
            assert make_chat_client(service).complete([("user", "direct")]) == "direct"
        assert proxy.request_count() == 0
        assert service.request_count() == 1

    def test_https_goes_through_a_connect_tunnel(self, proxy_env):
        with FakeService() as proxy:
            proxy_env.setenv("https_proxy", proxy.base_url)
            http = _RetryingHttp(0)
            with pytest.raises(ServiceError, match="Tunnel connection failed"):
                http.request("GET", "https://search.test:8443/api/v1/search", timeout=5)
        (seen,) = proxy.requests
        assert (seen.method, seen.target) == ("CONNECT", "search.test:8443")

    def test_unsupported_proxy_fails_every_request_without_connecting(
        self, service, proxy_env, monkeypatch
    ):
        opened = []
        monkeypatch.setattr(socket, "create_connection", lambda *a, **k: opened.append(a))
        proxy_env.setenv("http_proxy", "socks5://127.0.0.1:1080")
        http = _RetryingHttp(3, backoff_base=0)
        for _ in range(2):
            with pytest.raises(ServiceError, match="unsupported proxy 'socks5://127.0.0.1:1080'"):
                http.request("POST", service.base_url + "/v1/chat/completions", payload={}, timeout=5)
        assert opened == []
        assert service.request_count() == 0


@pytest.fixture
def environment_lookups(monkeypatch):
    """Counts of ``getproxies`` calls and of the ``getproxies_environment``
    calls that ``proxy_bypass`` makes."""
    calls = {"getproxies": 0, "getproxies_environment": 0}
    for name in calls:
        original = getattr(urllib.request, name)

        def counted(original=original, name=name):
            calls[name] += 1
            return original()

        monkeypatch.setattr(urllib.request, name, counted)
    return calls


class TestRouteResolution:
    """A client reads the proxy variables when it first contacts a host."""

    def test_direct_route_is_resolved_once(self, service, proxy_env, environment_lookups):
        echo_chat(service)
        client = make_chat_client(service)
        assert [client.complete([("user", f"d{i}")]) for i in range(3)] == ["d0", "d1", "d2"]
        assert service.request_count() == 3
        assert environment_lookups == {"getproxies": 1, "getproxies_environment": 0}

    def test_proxy_route_is_resolved_once(self, service, proxy_env, environment_lookups):
        with FakeService() as proxy:
            echo_chat(proxy)
            proxy_env.setenv("http_proxy", proxy.base_url.replace("://", "://user:pw@"))
            client = make_chat_client(service)
            assert [client.complete([("user", f"p{i}")]) for i in range(3)] == ["p0", "p1", "p2"]
        assert service.request_count() == 0
        assert [seen.target for seen in proxy.requests] == [service.base_url + "/v1/chat/completions"] * 3
        credentials = "Basic " + base64.b64encode(b"user:pw").decode()
        assert all(seen.headers["Proxy-Authorization"] == credentials for seen in proxy.requests)
        assert environment_lookups == {"getproxies": 1, "getproxies_environment": 1}

    def test_a_client_keeps_the_route_it_resolved_first(self, service, proxy_env):
        echo_chat(service)
        early = make_chat_client(service)
        assert early.complete([("user", "direct")]) == "direct"
        with FakeService() as proxy:
            echo_chat(proxy)
            proxy_env.setenv("http_proxy", proxy.base_url)
            assert make_chat_client(service).complete([("user", "proxied")]) == "proxied"
            assert early.complete([("user", "still direct")]) == "still direct"
        assert [seen.body["messages"][-1]["content"] for seen in proxy.requests] == ["proxied"]
        assert service.request_count() == 2


class TestResponses:
    def test_redirect_is_bad_response_naming_its_location(self, service):
        service.route(
            "POST",
            "/v1/chat/completions",
            lambda r: (307, {}, {"Location": "https://moved.test/v1/chat/completions"}),
        )
        with pytest.raises(ServiceError, match="https://moved.test/v1/chat/completions"):
            make_chat_client(service).complete([("user", "hi")])
        assert service.request_count() == 1

    def test_read_timeout(self, service):
        release = threading.Event()

        def slow(request):
            release.wait(5)
            return 200, {}

        service.route("POST", "/v1/chat/completions", slow)
        config = ChatBackendConfig(
            model="m",
            base_url=service.base_url + "/v1",
            api_key="",
            max_tokens=50000,
            max_tokens_param="max_tokens",
            max_remote_retries=0,
        )
        try:
            with pytest.raises(ServiceError, match="timed out"):
                _RetryingHttp(0).request(
                    "POST", service.base_url + "/v1/chat/completions", payload={}, timeout=0.2
                )
            with pytest.raises(ServiceError, match="timed out"):
                ChatClient(config, request_timeout=0.2).complete([("user", "hi")])
        finally:
            release.set()
        assert service.request_count() == 2


#: Object keys, most of them ones the clients read.
JSON_KEYS = st.sampled_from([
    "results", "custom_id", "diagnostics", "error", "severity", "message", "pos", "endPos",
    "line", "column", "time", "ast", "sorries", "kind", "args", "val", "goal",
    "full_name", "statement", "package", "score", "choices", "content",
]) | st.text(max_size=3)

#: JSON values, NaN and infinities included. The string "@id" stands for
#: the custom id of the unit a verification request sends.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.just("@id"),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12,
)


def with_id(value, custom_id):
    """``value`` with every "@id" string replaced by ``custom_id``."""
    if value == "@id":
        return custom_id
    if isinstance(value, list):
        return [with_id(item, custom_id) for item in value]
    if isinstance(value, dict):
        return {key: with_id(item, custom_id) for key, item in value.items()}
    return value


class TestMalformedUrls:
    @pytest.mark.parametrize("url", ["http://h:abc", "http://[::1", "http://127.0.0.1:0/v1"])
    def test_a_url_that_is_not_http_host_port_is_a_service_error(self, url):
        """A port that is not a number in 1-65535 or an unclosed IPv6
        bracket raises ServiceError, the one outage reaction, before any
        connection is made."""
        with pytest.raises(ServiceError, match="not an http"):
            _RetryingHttp(0).request("POST", url, payload={}, timeout=1)


class TestMalformedAnswers:
    @pytest.mark.parametrize(
        "status, body",
        [(200, "not json"), (200, "[]"), (200, "null"), (200, '"text"'), (404, "{}")],
        ids=["not-json", "array", "null", "string", "not-found"],
    )
    def test_a_final_answer_that_is_not_a_json_object_is_bad_response(
        self, service, status, body
    ):
        service.route("POST", "/api/check", lambda r: (status, body))
        with pytest.raises(ServiceError, match=f"POST {service.base_url}/api/check returned"):
            _RetryingHttp(0).request("POST", service.base_url + "/api/check", payload={}, timeout=5)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(body=JSON_VALUES)
    @example(body=[])
    @example(body=None)
    @example(body={"results": 5})
    @example(body={"results": [{"custom_id": "@id", "diagnostics": [{"pos": {"line": 1e400}}]}]})
    @example(body={"results": [{"custom_id": "@id", "diagnostics": [{"message": 5}]}]})
    @example(body={"results": [{"full_name": [], "statement": "s"}]})
    @example(body={"results": [{"full_name": "A", "statement": 7}]})
    @example(body={"results": [{"full_name": "A", "package": None}]})
    def test_any_json_answer_returns_or_raises_a_leandecomp_error(self, service, body):
        """Whatever JSON a service answers with HTTP 200, each client
        returns or raises a LeandecompError, and what the Lean and
        search clients return is text where the program expects text."""
        text = json.dumps(body)
        service.route(
            "POST",
            "/api/check",
            lambda r: (200, json.dumps(with_id(body, r.body["codes"][0]["custom_id"]))),
        )
        service.route("POST", "/api/ast_code", lambda r: (200, text))
        service.route("GET", "/search", lambda r: (200, text))
        service.route("POST", "/v1/chat/completions", lambda r: (200, text))
        lean = make_verifier(service, retries=0)
        search = SearchClient(
            SearchConfig(url=service.base_url, package_filters=(), max_retries=0, hint_cap=20),
            backoff_base=0,
        )
        def verify():
            (result,) = lean.verify_batch(["theorem t : True := trivial"], timeout=10)
            assert all(isinstance(error.message, str) for error in result.errors)

        calls = [
            verify,
            lambda: lean.fetch_ast("theorem t : True := by sorry", timeout=10),
            lambda: format_theorem_hints(
                [(hit.full_name, hit.statement) for hit in search.search_theorems(["q"])]
            ),
            lambda: make_chat_client(service, retries=0).complete([("user", "hi")]),
        ]
        for call in calls:
            try:
                call()
            except LeandecompError:
                pass
