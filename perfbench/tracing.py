"""Spans around calls into the program's layers, recorded from outside.

``install`` wraps public functions and methods of each module of
``leandecomp`` and rebinds every name that refers to them, in the module
that defines them and in every module that imported them. Spans stay in
memory until ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

#: Module -> wrapped names; "Class.method" wraps a method on its class.
TARGETS = {
    "cli": ["main", "validate_formal_input"],
    "config": ["load_config"],
    "orchestrator": ["next_action", "Orchestrator.run"],
    "proof_state": [
        "ProofTree.save", "ProofTree.load", "ProofTree.reconstruct",
        "ProofTree.record_attempt", "ProofTree.add_child", "ProofTree.prune_subtree",
        "ProofTree.from_formal", "ProofTree.from_informal",
    ],
    "lean_source": [
        "tokenize", "split_source", "extract_code_block", "replace_subgoal",
        "normalize_preamble", "extract_proof_body", "extract_term_value",
    ],
    "ast_model": ["parse_ast", "extract_subgoals", "get_named_subgoal_code"],
    "agents": [
        "render_prompt", "build_error_annotation", "parse_judgement",
        "parse_search_queries", "format_theorem_hints", "generate_theorem_name",
    ],
    "services": [
        "ChatClient.complete", "VerifierClient.verify_code", "VerifierClient.verify_batch",
        "AstClient.fetch_ast", "SearchClient.search_theorems",
    ],
}
LAYERS = tuple(TARGETS)


class Tracer:
    """Records (id, parent, name, start, end) spans. A span opened with
    no open span in its thread is parented to the innermost open span of
    the thread that opened the outermost one, so work on pool threads
    counts against the call that waits for it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main: list[int] = []  # the stack holding the outermost open span

    def begin(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main[-1]
            except IndexError:
                parent, self._main = None, stack
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def end(self, token) -> None:
        span_id, parent, name, start = token
        self.spans.append((span_id, parent, name, start, time.perf_counter()))
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")

    def summary(self) -> dict[str, float]:
        """Calls and inclusive seconds per span name, and self seconds per
        layer."""
        out: dict[str, float] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = 0.0
        for span_id, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                continue  # remote calls: the fakes account for them
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[f"layer.{layer}.self_s"] += (end - start) - covered
        out["trace.spans"] = len(self.spans)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every target so that each call records a span."""
    for module, names in TARGETS.items():
        for qualname in names:
            name = f"{module}.{qualname.split('.')[-1]}"
            patch(module, qualname, functools.partial(tracer.wrap, name))


def patch(module_name: str, qualname: str, make) -> None:
    """Replace ``leandecomp.<module_name>.<qualname>`` by ``make(original)``
    wherever the program refers to it."""
    module = sys.modules[f"leandecomp.{module_name}"]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name, None)
        raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
        if raw is None:
            return  # the program no longer has it; its counters stay at 0
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        return
    original = getattr(module, qualname, None)
    if original is None:
        return
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not name.startswith(("leandecomp", "tests")):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)
