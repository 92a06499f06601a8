"""Scriptable localhost HTTP servers used to test the service clients.

Each FakeService binds an ephemeral port, records every request, and
dispatches on (method, path) to handler callables returning
(status, json-payload) or (status, json-payload, headers). Transient
failures can be queued per route to exercise retry behavior.

By default a FakeService speaks HTTP/1.0 and closes every connection
after one response; ``FakeService(keep_alive=True)`` speaks HTTP/1.1
and keeps connections open until the client or ``drop_connections``
closes them. Either way it counts the connections it accepts.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class RecordedRequest:
    def __init__(self, method: str, path: str, query: dict, body, target: str = "", headers=None):
        self.method = method
        self.path = path
        self.query = query
        self.body = body
        self.target = target  # the request line's target, as sent
        self.headers = headers or {}

    def __repr__(self):
        return f"RecordedRequest({self.method} {self.path})"


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that timed out has gone; report only real handler errors.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class FakeService:
    def __init__(self, keep_alive: bool = False):
        self.keep_alive = keep_alive
        self.connections = 0
        self.requests: list[RecordedRequest] = []
        self.routes: dict[tuple[str, str], callable] = {}
        self.failure_queue: dict[tuple[str, str], list[int]] = {}
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def route(self, method: str, path: str, handler):
        """handler(RecordedRequest) -> (status, payload_dict_or_text[, headers])"""
        self.routes[(method, path)] = handler

    def fail_next(self, method: str, path: str, statuses: list[int]):
        """Queue transient failure statuses to serve before real handling."""
        self.failure_queue.setdefault((method, path), []).extend(statuses)

    def request_count(self, method: str | None = None, path: str | None = None) -> int:
        with self._lock:
            return sum(
                1
                for r in self.requests
                if (method is None or r.method == method) and (path is None or r.path == path)
            )

    def drop_connections(self):
        """Close every open connection from the server's side, as a
        server's idle timeout would."""
        with self._lock:
            open_sockets = list(self._open)
        for sock in open_sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client closed it first

    @property
    def base_url(self) -> str:
        assert self._server is not None
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def start(self) -> "FakeService":
        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if service.keep_alive else "HTTP/1.0"
            # Buffer each response so that handle_one_request's flush sends
            # head and body in one write; a body sent in a second write
            # waits about 40 ms on the client's delayed ACK.
            wbufsize = -1

            def log_message(self, *args):  # keep test output clean
                pass

            def setup(self):
                super().setup()
                with service._lock:
                    service.connections += 1
                    service._open.add(self.connection)

            def finish(self):
                with service._lock:
                    service._open.discard(self.connection)
                super().finish()

            def _empty_response(self, status: int):
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def _handle(self, method: str):
                parsed = urlparse(self.path)
                query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                body = None
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    raw = self.rfile.read(length)
                    try:
                        body = json.loads(raw)
                    except ValueError:
                        body = raw.decode("utf-8", "replace")
                record = RecordedRequest(
                    method, parsed.path, query, body, self.path, dict(self.headers)
                )
                with service._lock:
                    service.requests.append(record)
                    pending = service.failure_queue.get((method, parsed.path))
                    if pending:
                        self._empty_response(pending.pop(0))
                        return
                handler = service.routes.get((method, parsed.path))
                if handler is None:
                    self._empty_response(404)
                    return
                status, payload, *extra = handler(record)
                data = (
                    payload.encode("utf-8")
                    if isinstance(payload, str)
                    else json.dumps(payload).encode("utf-8")
                )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self):
                self._handle("GET")

            def do_POST(self):
                self._handle("POST")

            def do_CONNECT(self):
                self._handle("CONNECT")

        self._server = _Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        if self._server:
            self._server.shutdown()
            self.drop_connections()  # server_close waits for every handler thread
            self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def chat_route(reply_fn):
    """Route handler for an OpenAI-style chat endpoint.

    reply_fn(model, messages) -> assistant text
    """

    def handler(request: RecordedRequest):
        model = request.body.get("model", "")
        messages = request.body.get("messages", [])
        content = reply_fn(model, messages)
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}

    return handler


def verifier_route(diagnose_fn):
    """Route handler for the batch verification endpoint.

    diagnose_fn(code) -> list of diagnostic dicts
    """

    def handler(request: RecordedRequest):
        results = []
        for item in request.body.get("codes", []):
            results.append(
                {
                    "custom_id": item["custom_id"],
                    "time": 0.01,
                    "diagnostics": diagnose_fn(item["code"]),
                }
            )
        return 200, {"results": results}

    return handler


def sorry_diagnostics(code: str) -> list[dict]:
    """Default verifier rule: everything compiles; each sorry warns."""
    import re

    stripped = re.sub(r"--[^\n]*", "", code)
    diags = []
    for match in re.finditer(r"\bsorry\b", stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        diags.append(
            {
                "severity": "warning",
                "message": "declaration uses 'sorry'",
                "pos": {"line": line, "column": 1},
            }
        )
    return diags
