"""Localhost HTTP/1.1 server standing in for all four remote services.

It serves ``World`` replies for the CLI workload. Unlike
``tests/http_fakes.FakeService``, which speaks HTTP/1.0 and closes every
connection, it keeps connections open, so a client that reuses them
makes fewer.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from tests.ast_builder import build_sketch_payload
from tests.http_fakes import sorry_diagnostics

from fakes import HITS, Outage, World, verdict
from model import FAIL_MARKER


class _CountingReader:
    """Wraps a handler's input stream to count the bytes it reads."""

    def __init__(self, raw, counter):
        self._raw = raw
        self._counter = counter

    def readline(self, *args):
        line = self._raw.readline(*args)
        self._counter(len(line))
        return line

    def read(self, *args):
        data = self._raw.read(*args)
        self._counter(len(data))
        return data

    def close(self):
        self._raw.close()


class KeepAliveServer:
    """One localhost HTTP/1.1 server for all four services.

    Connections stay open until the client closes them, and every
    response, errors included, carries Content-Length, so a client that
    reuses connections makes fewer of them. Connections, requests and
    bytes are counted on the server side.
    """

    def __init__(self, world: World, models: dict[str, str]):
        self.world = world
        self.role_of_model = {model: role for role, model in models.items()}
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.reset()

    def reset(self) -> None:
        self.world.reset()
        with self._lock:
            self.connections = 0
            self.requests = 0
            self.request_bytes = 0
            self.response_bytes = 0
            self.retries = 0
            self._transient_bodies: set[bytes] = set()

    def _count(self, **deltas) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def start(self) -> "KeepAliveServer":
        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                self.rfile = _CountingReader(
                    self.rfile, lambda n: service._count(request_bytes=n)
                )
                service._count(connections=1)

            def _respond(self, status: int, payload) -> None:
                body = json.dumps(payload).encode() if payload is not None else b""
                head = (
                    f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
                ).encode()
                self.wfile.write(head + body)
                service._count(response_bytes=len(head) + len(body))

            def _handle(self, method: str) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                key = method.encode() + self.path.encode() + raw
                with service._lock:
                    service.requests += 1
                    service.retries += key in service._transient_bodies
                try:
                    status, payload = service.route(method, self.path, raw)
                except Outage:
                    status, payload = 503, {"error": "verifier unavailable"}
                    with service._lock:
                        service._transient_bodies.add(key)
                self._respond(status, payload)

            def do_GET(self):
                self._handle("GET")

            def do_POST(self):
                self._handle("POST")

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def route(self, method: str, path: str, raw: bytes):
        world = self.world
        url = urlparse(path)
        if method == "POST" and url.path == "/chat/completions":
            body = json.loads(raw)
            role = self.role_of_model[body["model"]]
            messages = [(m["role"], m["content"]) for m in body["messages"]]
            content = world.chat(role, messages)
            return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}
        if method == "POST" and url.path == "/api/check":
            items = json.loads(raw)["codes"]
            results = []
            with world.verifier_batch([item["code"] for item in items]):
                graded = [(item, *verdict(item["code"])) for item in items]
            for item, error, sorry in graded:
                diagnostics = sorry_diagnostics(item["code"]) if sorry else []
                if error is not None:
                    end = {"line": error[0], "column": error[1] + len(FAIL_MARKER)}
                    diagnostics.append({
                        "severity": "error",
                        "message": f"unknown identifier '{FAIL_MARKER}'",
                        "pos": {"line": error[0], "column": error[1]},
                        "endPos": end,
                    })
                results.append(
                    {"custom_id": item["custom_id"], "time": 0.01, "diagnostics": diagnostics}
                )
            return 200, {"results": results}
        if method == "POST" and url.path == "/api/ast_code":
            code = json.loads(raw)["code"]
            with world.ast(code):
                return 200, build_sketch_payload(code)
        if method == "GET" and url.path == "/search":
            query = parse_qs(url.query)["q"][0]
            with world.search(query):
                hits = [
                    {"full_name": name, "statement": text, "package": "Mathlib", "score": 9.0 - i}
                    for i, (name, text) in enumerate(HITS)
                ]
                return 200, {"results": hits}
        return 404, {"error": f"no route for {method} {url.path}"}

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
