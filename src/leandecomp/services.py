"""Clients for the three external services.

Covers OpenAI-compatible chat completion backends, the Lean
verification server (proof checking plus AST export), and the theorem
search service. All clients retry transient failures (network errors,
HTTP 408/429/5xx) with exponential backoff and full jitter, keep total
requests within 1 + retry budget, and map failures onto the shared
exception hierarchy. Their requests go through ``transport``, which
is imported when the first client is built.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .ast_model import AstNode, SorryInfo, parse_ast
from .errors import BadSketch, ServiceError

#: Lean's warning for a declaration that still contains sorry (or admit).
_SORRY_WARNING = "declaration uses 'sorry'"

Span = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ChatBackendConfig:
    """One agent's chat-completion backend."""

    model: str
    base_url: str
    api_key: str = ""
    max_tokens: int = 50000
    max_tokens_param: str = "max_tokens"  # the request field that carries max_tokens
    max_remote_retries: int = 5


@dataclass(frozen=True)
class LeanError:
    message: str
    span: Span | None = None


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one verification request."""

    passed: bool
    complete: bool
    errors: tuple[LeanError, ...] = ()
    time: float = 0.0


@dataclass(frozen=True)
class TheoremHit:
    full_name: str
    statement: str
    source_package: str
    score: float


@dataclass(frozen=True)
class VerifierConfig:
    url: str
    verify_path: str = "/api/check"
    max_retries: int = 5


@dataclass(frozen=True)
class SearchConfig:
    url: str
    package_filters: tuple[str, ...] = ("Mathlib", "Batteries", "Std", "Init", "Lean")
    max_retries: int = 5
    hint_cap: int = 20


def _transport(retries: int, backoff_base: float, sleeper):
    """A client's retrying transport. The first client built loads the
    HTTP stack, so importing this module does not."""
    from .transport import _RetryingHttp

    return _RetryingHttp(retries, backoff_base, sleeper)


class ChatClient:
    """Client for one OpenAI-compatible chat completion endpoint."""

    def __init__(
        self,
        config: ChatBackendConfig,
        request_timeout: float = 600.0,
        backoff_base: float = 1.0,
        sleeper=time.sleep,
    ):
        self.config = config
        self._request_timeout = request_timeout
        self._http = _transport(config.max_remote_retries, backoff_base, sleeper)

    def complete(self, messages: list[tuple[str, str]]) -> str:
        """
        Send a conversation, return the first choice's assistant text.

        Raises ServiceError when the retry budget is spent on transient
        failures and on anything structurally wrong (non-transient HTTP
        errors, missing choices).
        """
        if not messages:
            raise ValueError("messages must be non-empty")
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": role, "content": content} for role, content in messages],
            self.config.max_tokens_param: self.config.max_tokens,
        }
        body = self._http.request(
            "POST", url, payload=payload, headers=headers, timeout=self._request_timeout
        )
        try:
            content = body["choices"][0]["message"]["content"]
        except (LookupError, TypeError) as exc:
            raise ServiceError(f"chat response missing choices: {exc}") from exc
        if not isinstance(content, str):
            raise ServiceError("chat response content is not text")
        return content


class VerifierClient:
    """The one client for the Lean verification server: proof checking
    and AST export."""

    def __init__(
        self,
        config: VerifierConfig,
        backoff_base: float = 1.0,
        sleeper=time.sleep,
    ):
        self.config = config
        self._http = _transport(config.max_retries, backoff_base, sleeper)

    def _post(self, path: str, payload: dict, timeout: float) -> dict:
        url = self.config.url.rstrip("/") + path
        return self._http.request("POST", url, payload=payload, timeout=timeout + 30)

    @staticmethod
    def _parse_result(entry: dict) -> VerificationResult:
        """
        Grade one result entry, ``{"custom_id", "time", "diagnostics":
        [{"severity", "message", "pos", "endPos"}], "error"}``.

        An error diagnostic or a non-empty ``error`` fails the unit; only
        Lean's ``declaration uses 'sorry'`` warning makes it incomplete.
        Raises ServiceError for an entry with neither a ``diagnostics``
        list nor an ``error``, and lets a field of the wrong type raise
        TypeError, ValueError, OverflowError or AttributeError.
        """
        diagnostics = entry.get("diagnostics")
        if not isinstance(diagnostics, list):
            if not entry.get("error"):
                raise ServiceError(
                    f"verification result has neither diagnostics nor an error: {sorted(entry)}"
                )
            diagnostics = []
        errors: list[LeanError] = []
        saw_error = False
        saw_incomplete = False
        for diag in diagnostics:
            severity = diag.get("severity", "error")
            message = diag.get("message", "")
            if not isinstance(message, str):
                raise TypeError(f"diagnostic message is not text: {message!r}")
            span = None
            pos = diag.get("pos")
            if isinstance(pos, dict):
                end = diag.get("endPos") or pos
                span = (
                    (int(pos.get("line", 1)), int(pos.get("column", 1))),
                    (int(end.get("line", pos.get("line", 1))), int(end.get("column", pos.get("column", 1)))),
                )
            if severity == "error":
                saw_error = True
                errors.append(LeanError(message=message, span=span))
            elif severity == "warning" and message.strip() == _SORRY_WARNING:
                saw_incomplete = True
        if entry.get("error"):
            saw_error = True
            errors.append(LeanError(message=str(entry["error"])))
        passed = not saw_error
        return VerificationResult(
            passed=passed,
            complete=passed and not saw_incomplete,
            errors=tuple(errors),
            time=float(entry.get("time", 0.0)),
        )

    def verify_batch(self, codes: list[str], timeout: float = 300.0) -> list[VerificationResult]:
        """
        Check several Lean units in one request, preserving input order.
        ``passed`` means no errors; ``complete`` additionally means no
        ``declaration uses 'sorry'`` warning (a valid sketch is passed
        but not complete).
        """
        ids = [f"code-{os.urandom(4).hex()}-{i}" for i in range(len(codes))]
        payload = {
            "codes": [{"custom_id": cid, "code": code} for cid, code in zip(ids, codes)],
            "timeout": timeout,
        }
        entries = self._post(self.config.verify_path, payload, timeout).get("results", [])
        if not isinstance(entries, list):
            raise ServiceError("verification response 'results' is not a list")
        by_id = {
            entry["custom_id"]: entry
            for entry in entries
            if isinstance(entry, dict) and isinstance(entry.get("custom_id"), str)
        }
        results = []
        for cid in ids:
            entry = by_id.get(cid)
            if entry is None:
                raise ServiceError(f"verification response missing result for {cid}")
            try:
                results.append(self._parse_result(entry))
            except (AttributeError, TypeError, ValueError, OverflowError) as exc:
                raise ServiceError(f"verification result for {cid} is malformed: {exc!r}") from None
        return results

    def fetch_ast(self, code: str, timeout: float = 300.0) -> tuple[AstNode, list[SorryInfo]]:
        """
        Export the AST of arbitrary Lean code as module ``User.Code``.
        Raises BadSketch when the service reports a compile error or
        the export is not a syntax tree.
        """
        body = self._post(
            "/api/ast_code", {"code": code, "module_name": "User.Code", "timeout": timeout}, timeout
        )
        if body.get("error"):
            raise BadSketch(str(body["error"]))
        return parse_ast(body)


class SearchClient:
    """Client for the theorem search service backing sketch retrieval."""

    def __init__(self, config: SearchConfig, backoff_base: float = 1.0, sleeper=time.sleep):
        self.config = config
        self._http = _transport(config.max_retries, backoff_base, sleeper)

    def search_theorems(self, queries: list[str]) -> list[TheoremHit]:
        """
        Run every query, merge hits deduplicated by full name (keeping
        the best score), filter to the configured packages, and return
        them sorted by descending score, capped at the hint cap.
        """
        if not queries:
            raise ValueError("queries must be non-empty")
        allowed = set(self.config.package_filters)
        best: dict[str, TheoremHit] = {}
        for query in queries:
            url = self.config.url.rstrip("/") + "/search"
            results = self._http.request(
                "GET",
                url,
                params={"q": query, "pkg": ",".join(self.config.package_filters)},
                timeout=60,
            ).get("results", [])
            if not isinstance(results, list):
                raise ServiceError("search response 'results' is not a list")
            for raw in results:
                try:
                    hit = TheoremHit(
                        full_name=raw["full_name"],
                        statement=raw.get("statement", ""),
                        source_package=raw.get("package", ""),
                        score=float(raw.get("score", 0.0)),
                    )
                except (KeyError, TypeError, ValueError, OverflowError):
                    continue
                texts = (hit.full_name, hit.statement, hit.source_package)
                if not all(isinstance(text, str) for text in texts):
                    continue  # malformed, like a hit without a name
                if allowed and hit.source_package not in allowed:
                    continue
                known = best.get(hit.full_name)
                if known is None or hit.score > known.score:
                    best[hit.full_name] = hit
        ranked = sorted(best.values(), key=lambda h: (-h.score, h.full_name))
        return ranked[: self.config.hint_cap]
