"""HTTP clients for the three external services.

Covers OpenAI-compatible chat completion backends, the Lean
verification server (proof checking plus AST export), and the theorem
search service. All clients retry transient failures (network errors,
HTTP 408/429/5xx) with exponential backoff and full jitter, keep total
requests within 1 + retry budget, and map failures onto the shared
exception hierarchy. Requests go over the standard library's
``http.client`` on kept-alive connections, through the proxies the
environment names.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import random
import re
import ssl
import threading
import time
import urllib.request
import uuid
from dataclasses import dataclass
from urllib.parse import SplitResult, unquote, urlencode, urlsplit

from .ast_model import AstNode, SorryInfo, parse_ast
from .errors import (
    AstExportFailed,
    BadResponse,
    InvalidModuleName,
    RemoteExhausted,
    ServiceUnavailable,
)

log = logging.getLogger(__name__)

_MODULE_NAME_RE = re.compile(r"^[A-Za-z0-9_.]+$")
_TRANSIENT_STATUS = frozenset({408, 429})
_DEFAULT_PORTS = {"http": 80, "https": 443}
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


def _is_transient_status(status: int) -> bool:
    return status in _TRANSIENT_STATUS or status >= 500


@dataclass(frozen=True)
class HttpResponse:
    """A response whose body has been read in full."""

    status_code: int
    body: bytes

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", "replace")

    def json(self):
        """The decoded JSON body; raises ValueError when it is not JSON."""
        return json.loads(self.body)


def _proxy_for(url: SplitResult) -> SplitResult | None:
    """The proxy the environment names for ``url`` (``http_proxy``,
    ``https_proxy``, ``all_proxy``), or None when there is none or
    ``no_proxy`` exempts the host."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
        return None
    parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if parts.scheme != "http" or not parts.hostname:
        raise ServiceUnavailable(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
    return parts


def _proxy_headers(proxy: SplitResult) -> dict[str, str]:
    """Basic credentials from the proxy URL's user info, if it has any."""
    if proxy.username is None:
        return {}
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


class _RetryingHttp:
    """Shared retry loop over kept-alive connections: at most 1 + budget
    requests, backoff with full jitter.

    Idle connections wait on one stack per (scheme, host, port, proxy),
    shared by every thread using this object. A connection goes back on
    its stack once its response has been read in full, unless the
    response closes it.
    """

    def __init__(self, retries: int, backoff_base: float = 1.0, sleeper=time.sleep):
        self._retries = max(0, retries)
        self._backoff_base = backoff_base
        self._sleep = sleeper
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}
        self._tls: ssl.SSLContext | None = None

    def close(self) -> None:
        """Close every idle connection; later requests open new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for conn in stack:
                conn.close()

    def request(
        self,
        method: str,
        url: str,
        *,
        timeout: float,
        payload=None,
        params: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> HttpResponse:
        """
        Send one request, retrying transient failures, and return the
        first non-transient response.

        ``payload`` is sent as a JSON body and ``params`` as the query
        string. Raises ServiceUnavailable once the budget is spent and
        BadResponse for a redirect, which is never followed.
        """
        parts = urlsplit(url)
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ServiceUnavailable(f"{method} {url}: not an http:// or https:// URL")
        query = "&".join(q for q in (parts.query, urlencode(params or {})) if q)
        target = (parts.path or "/") + ("?" + query if query else "")
        headers = {"User-Agent": "leandecomp", **(headers or {})}
        body = None
        if payload is not None:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
            headers.setdefault("Content-Type", "application/json")
        attempts = self._retries + 1
        for attempt in range(1, attempts + 1):
            try:
                response = self._send(method, parts, target, body, headers, timeout)
            except (OSError, http.client.HTTPException) as exc:
                reason = f"network error: {exc!r}"
            else:
                if not _is_transient_status(response.status_code):
                    return response
                reason = f"HTTP {response.status_code}"
            if attempt < attempts:
                log.warning(
                    "%s %s: attempt %d of %d failed (%s); retrying",
                    method, url, attempt, attempts, reason,
                )
                self._sleep(random.uniform(0, self._backoff_base * 2 ** (attempt - 1)))
        raise ServiceUnavailable(f"{method} {url} failed after {attempts} attempts ({reason})")

    def _send(self, method, parts, target, body, headers, timeout) -> HttpResponse:
        """One attempt. A kept-alive connection that turns out to be
        closed before any response byte arrives is replaced by a fresh
        one once, without counting as an attempt."""
        proxy = _proxy_for(parts)
        port = parts.port or _DEFAULT_PORTS[parts.scheme]
        key = (parts.scheme, parts.hostname, port, proxy)
        if proxy is not None and parts.scheme == "http":
            # An http proxy takes the absolute URL as the request target.
            target = f"http://{parts.netloc.rpartition('@')[2]}{target}"
            headers = {**headers, **_proxy_headers(proxy)}
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        if conn is not None:
            conn.sock.settimeout(timeout)
            try:
                response = self._start(conn, method, target, body, headers)
            except ConnectionError:
                conn = None  # closed while idle; the fresh connection below is the attempt
        if conn is None:
            conn = self._connect(parts.scheme, parts.hostname, port, proxy, timeout)
            response = self._start(conn, method, target, body, headers)
        try:
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        if 300 <= response.status < 400:
            raise BadResponse(
                f"{method} {parts.geturl()} was redirected (HTTP {response.status}) "
                f"to {response.getheader('Location')}; redirects are not followed"
            )
        return HttpResponse(response.status, data)

    @staticmethod
    def _start(conn, method, target, body, headers) -> http.client.HTTPResponse:
        """Send the request and read the response's status and headers,
        closing the connection if either fails."""
        try:
            conn.request(method, target, body=body, headers=headers)
            return conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def _connect(self, scheme, host, port, proxy, timeout) -> http.client.HTTPConnection:
        """A new, not yet opened connection to host:port, through an
        http proxy if one is given (tunnelled with CONNECT for https)."""
        if scheme == "http":
            if proxy is not None:
                host, port = proxy.hostname, proxy.port or 80
            return http.client.HTTPConnection(host, port, timeout=timeout)
        if self._tls is None:
            self._tls = ssl.create_default_context()
        if proxy is None:
            return http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
        conn = http.client.HTTPSConnection(
            proxy.hostname, proxy.port or 80, timeout=timeout, context=self._tls
        )
        conn.set_tunnel(host, port, headers=_proxy_headers(proxy))
        return conn


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
        self._http = _RetryingHttp(config.max_remote_retries, backoff_base, sleeper)

    def close(self) -> None:
        """Close the client's idle connections; later calls open new ones."""
        self._http.close()

    def complete(self, messages: list[tuple[str, str]]) -> str:
        """
        Send a conversation, return the first choice's assistant text.

        Raises RemoteExhausted when the retry budget is spent on
        transient failures and BadResponse on anything structurally
        wrong (non-transient HTTP errors, missing choices).
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
            "max_tokens": self.config.max_tokens,
        }
        try:
            response = self._http.request(
                "POST", url, payload=payload, headers=headers, timeout=self._request_timeout
            )
        except ServiceUnavailable as exc:
            raise RemoteExhausted(str(exc)) from exc
        if response.status_code >= 400:
            raise BadResponse(f"chat backend returned HTTP {response.status_code}: {response.text[:200]}")
        try:
            body = response.json()
            choices = body["choices"]
            content = choices[0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BadResponse(f"chat response missing choices: {exc}") from exc
        if not isinstance(content, str):
            raise BadResponse("chat response content is not text")
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
        self._http = _RetryingHttp(config.max_retries, backoff_base, sleeper)

    def close(self) -> None:
        """Close the client's idle connections; later calls open new ones."""
        self._http.close()

    def _post(self, path: str, payload: dict, timeout: float) -> dict:
        url = self.config.url.rstrip("/") + path
        response = self._http.request("POST", url, payload=payload, timeout=timeout + 30)
        if response.status_code >= 400:
            raise BadResponse(f"{path} returned HTTP {response.status_code}: {response.text[:200]}")
        try:
            return response.json()
        except ValueError as exc:
            raise BadResponse(f"{path} returned non-JSON body") from exc

    @staticmethod
    def _parse_result(entry: dict) -> VerificationResult:
        """
        Grade one result entry, ``{"custom_id", "time", "diagnostics":
        [{"severity", "message", "pos", "endPos"}], "error"}``.

        An error diagnostic or a non-empty ``error`` fails the unit; only
        Lean's ``declaration uses 'sorry'`` warning makes it incomplete.
        Raises BadResponse for an entry with neither a ``diagnostics``
        list nor an ``error``, and lets a field of the wrong type raise
        TypeError, ValueError or AttributeError.
        """
        diagnostics = entry.get("diagnostics")
        if not isinstance(diagnostics, list):
            if not entry.get("error"):
                raise BadResponse(
                    f"verification result has neither diagnostics nor an error: {sorted(entry)}"
                )
            diagnostics = []
        errors: list[LeanError] = []
        saw_error = False
        saw_incomplete = False
        for diag in diagnostics:
            severity = diag.get("severity", "error")
            message = diag.get("message", "")
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

    def verify_code(self, code: str, timeout: float = 300.0) -> VerificationResult:
        """
        Check one Lean unit. ``passed`` means no errors; ``complete``
        additionally means no ``declaration uses 'sorry'`` warning (a
        valid sketch is passed but not complete).
        """
        return self.verify_batch([code], timeout)[0]

    def verify_batch(self, codes: list[str], timeout: float = 300.0) -> list[VerificationResult]:
        """Check several units in one request, preserving input order."""
        ids = [f"code-{uuid.uuid4().hex[:8]}-{i}" for i in range(len(codes))]
        payload = {
            "codes": [{"custom_id": cid, "code": code} for cid, code in zip(ids, codes)],
            "timeout": timeout,
        }
        body = self._post(self.config.verify_path, payload, timeout)
        by_id: dict[str, dict] = {}
        for entry in body.get("results", []):
            if isinstance(entry, dict) and "custom_id" in entry:
                by_id[entry["custom_id"]] = entry
        results = []
        for cid in ids:
            entry = by_id.get(cid)
            if entry is None:
                raise BadResponse(f"verification response missing result for {cid}")
            try:
                results.append(self._parse_result(entry))
            except (AttributeError, TypeError, ValueError) as exc:
                raise BadResponse(f"verification result for {cid} is malformed: {exc!r}") from None
        return results

    def fetch_ast(
        self, code: str, module_name: str = "User.Code", timeout: float = 300.0
    ) -> tuple[AstNode, list[SorryInfo]]:
        """
        Export the AST of arbitrary Lean code.

        The module name is validated against ``[A-Za-z0-9_.]+`` before
        leaving the process, preventing path traversal on the server.
        Raises AstExportFailed when the service reports a compile error.
        """
        if not _MODULE_NAME_RE.match(module_name):
            raise InvalidModuleName(f"module name {module_name!r} must match [A-Za-z0-9_.]+")
        body = self._post(
            "/api/ast_code", {"code": code, "module_name": module_name, "timeout": timeout}, timeout
        )
        if body.get("error"):
            raise AstExportFailed(str(body["error"]))
        return parse_ast({"ast": body.get("ast"), "sorries": body.get("sorries", [])})


class SearchClient:
    """Client for the theorem search service backing sketch retrieval."""

    def __init__(self, config: SearchConfig, backoff_base: float = 1.0, sleeper=time.sleep):
        self.config = config
        self._http = _RetryingHttp(config.max_retries, backoff_base, sleeper)

    def close(self) -> None:
        """Close the client's idle connections; later calls open new ones."""
        self._http.close()

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
            response = self._http.request(
                "GET",
                url,
                params={"q": query, "pkg": ",".join(self.config.package_filters)},
                timeout=60,
            )
            if response.status_code >= 400:
                raise BadResponse(f"search returned HTTP {response.status_code}")
            try:
                results = response.json().get("results", [])
            except ValueError as exc:
                raise BadResponse("search returned non-JSON body") from exc
            for raw in results:
                try:
                    hit = TheoremHit(
                        full_name=raw["full_name"],
                        statement=raw.get("statement", ""),
                        source_package=raw.get("package", ""),
                        score=float(raw.get("score", 0.0)),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                if allowed and hit.source_package not in allowed:
                    continue
                known = best.get(hit.full_name)
                if known is None or hit.score > known.score:
                    best[hit.full_name] = hit
        ranked = sorted(best.values(), key=lambda h: (-h.score, h.full_name))
        return ranked[: self.config.hint_cap]
