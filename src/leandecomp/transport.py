"""The HTTP transport under the service clients, imported when the first
client is built. Requests go over the standard library's ``http.client``
on kept-alive connections that every client of the process shares,
through the proxies the environment names when a client first contacts
a host."""

from __future__ import annotations

import base64
import functools
import http.client
import json
import logging
import random
import ssl
import threading
import time
import urllib.request
from urllib.parse import SplitResult, unquote, urlencode, urlsplit

from .errors import ServiceError

log = logging.getLogger("leandecomp.services")  # retries log under the clients' module

_TRANSIENT_STATUS = frozenset({408, 429})
_DEFAULT_PORTS = {"http": 80, "https": 443}


def _is_transient_status(status: int) -> bool:
    return status in _TRANSIENT_STATUS or status >= 500


def _json_object(request: str, status: int, data: bytes) -> dict:
    """The JSON object of a final answer to ``request``; raises
    ServiceError for a 4xx or 5xx status and for a body that is not a
    JSON object."""
    if status >= 400:
        text = data[:200].decode("utf-8", "replace")
        raise ServiceError(f"{request} returned HTTP {status}: {text}")
    try:
        body = json.loads(data)
    except ValueError:
        raise ServiceError(f"{request} returned a body that is not JSON") from None
    if not isinstance(body, dict):
        raise ServiceError(f"{request} returned JSON that is not an object: {type(body).__name__}")
    return body


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
        raise ServiceError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
    return parts


def _proxy_headers(proxy: SplitResult) -> dict[str, str]:
    """Basic credentials from the proxy URL's user info, if it has any."""
    if proxy.username is None:
        return {}
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(credentials.encode()).decode()}


#: Idle kept-alive connections, one stack per (scheme, host, port,
#: proxy), shared by every client and thread of the process. A
#: connection goes back on its stack once its response has been read in
#: full, unless the response closes it.
_idle: dict[tuple, list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()


def close_idle_connections() -> None:
    """Close every idle connection of the process; later requests open
    new ones."""
    with _idle_lock:
        stacks = list(_idle.values())
        _idle.clear()
    for stack in stacks:
        for conn in stack:
            conn.close()


@functools.lru_cache(maxsize=None)
def _tls() -> ssl.SSLContext:
    return ssl.create_default_context()


class _RetryingHttp:
    """One client's retry loop over the shared kept-alive connections:
    at most 1 + budget requests, backoff with full jitter."""

    def __init__(self, retries: int, backoff_base: float = 1.0, sleeper=time.sleep):
        self._retries = max(0, retries)
        self._backoff_base = backoff_base
        self._sleep = sleeper
        self._routes: dict[tuple[str, str], tuple[tuple, dict[str, str] | None]] = {}

    def _route(self, parts: SplitResult) -> tuple[tuple, dict[str, str] | None]:
        """The idle-connection key for ``parts``' host and the headers of
        the http proxy that forwards requests there (None if none does),
        read on the first request to the host. A rejected proxy is not kept."""
        route = self._routes.get((parts.scheme, parts.netloc))
        if route is None:
            proxy = _proxy_for(parts)
            key = (parts.scheme, parts.hostname, parts.port or _DEFAULT_PORTS[parts.scheme], proxy)
            headers = _proxy_headers(proxy) if proxy is not None and parts.scheme == "http" else None
            route = self._routes[parts.scheme, parts.netloc] = (key, headers)
        return route

    def request(
        self,
        method: str,
        url: str,
        *,
        timeout: float,
        payload=None,
        params: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """
        Send one request, retrying transient failures, and return the
        JSON object of the first non-transient response.

        ``payload`` is sent as a JSON body and ``params`` as the query
        string. Raises ServiceError once the budget is spent, for a
        redirect, which is never followed, for a 4xx answer that is not
        retried, and for a body that is not a JSON object.
        """
        parts = urlsplit(url)
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ServiceError(f"{method} {url}: not an http:// or https:// URL")
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
                status, data = self._send(method, parts, target, body, headers, timeout)
            except (OSError, http.client.HTTPException) as exc:
                reason = f"network error: {exc!r}"
            else:
                if not _is_transient_status(status):
                    return _json_object(f"{method} {url}", status, data)
                reason = f"HTTP {status}"
            if attempt < attempts:
                log.warning(
                    "%s %s: attempt %d of %d failed (%s); retrying",
                    method, url, attempt, attempts, reason,
                )
                self._sleep(random.uniform(0, self._backoff_base * 2 ** (attempt - 1)))
        raise ServiceError(f"{method} {url} failed after {attempts} attempts ({reason})")

    def _send(self, method, parts, target, body, headers, timeout) -> tuple[int, bytes]:
        """One attempt's status and body. A kept-alive connection that
        turns out to be closed before any response byte arrives is
        replaced by a fresh one once, without counting as an attempt."""
        key, proxy_headers = self._route(parts)
        if proxy_headers is not None:  # an http proxy takes the absolute URL as the target
            target = f"http://{parts.netloc.rpartition('@')[2]}{target}"
            headers = {**headers, **proxy_headers}
        with _idle_lock:
            idle = _idle.get(key)
            conn = idle.pop() if idle else None
        if conn is not None:
            conn.sock.settimeout(timeout)
            try:
                response = self._start(conn, method, target, body, headers)
            except ConnectionError:
                conn = None  # closed while idle; the fresh connection below is the attempt
        if conn is None:
            conn = self._connect(*key, timeout)
            response = self._start(conn, method, target, body, headers)
        try:
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with _idle_lock:
                _idle.setdefault(key, []).append(conn)
        if 300 <= response.status < 400:
            raise ServiceError(
                f"{method} {parts.geturl()} was redirected (HTTP {response.status}) "
                f"to {response.getheader('Location')}; redirects are not followed"
            )
        return response.status, data

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

    @staticmethod
    def _connect(scheme, host, port, proxy, timeout) -> http.client.HTTPConnection:
        """A new, not yet opened connection to host:port, through an
        http proxy if one is given (tunnelled with CONNECT for https)."""
        if scheme == "http":
            if proxy is not None:
                host, port = proxy.hostname, proxy.port or 80
            return http.client.HTTPConnection(host, port, timeout=timeout)
        if proxy is None:
            return http.client.HTTPSConnection(host, port, timeout=timeout, context=_tls())
        conn = http.client.HTTPSConnection(
            proxy.hostname, proxy.port or 80, timeout=timeout, context=_tls()
        )
        conn.set_tunnel(host, port, headers=_proxy_headers(proxy))
        return conn
