"""Prompt rendering and response parsing for the five LLM agents.

Each agent's prompt lives as a UTF-8 template file under
``data/prompts`` with ``{{ placeholder }}`` markers; rendering is a
single-pass substitution. The parsers cover the three structured
response grammars: ``<search>`` tags, ``Judgement:`` verdict lines, and
(in lean_source) fenced code blocks. Pure logic, no I/O beyond reading
packaged template files.
"""

from __future__ import annotations

import hashlib
import re
from enum import Enum
from functools import lru_cache
from importlib import resources

from .errors import BadReply, LeandecompError
from .services import VerificationResult


class PromptKind(Enum):
    FORMALIZER = "formalizer"
    PROVER_INITIAL = "prover_initial"
    PROVER_CORRECTION = "prover_correction"
    SEMANTIC_CHECK = "semantic_check"
    QUERY_INITIAL = "query_initial"
    QUERY_BACKTRACK = "query_backtrack"
    DECOMPOSER_INITIAL = "decomposer_initial"
    DECOMPOSER_CORRECTION = "decomposer_correction"
    DECOMPOSER_BACKTRACK = "decomposer_backtrack"


_PLACEHOLDER_RE = re.compile(r"\{\{\s*(\w+)\s*\}\}")


@lru_cache(maxsize=None)
def _template_text(kind: PromptKind) -> str:
    # a path under the package, not the data.prompts package: reading a
    # template during a run imports nothing
    ref = resources.files(__package__) / "data" / "prompts" / f"{kind.value}.md"
    return ref.read_text(encoding="utf-8")


def render_prompt(kind: PromptKind, **values: str) -> str:
    """
    Fill a prompt template with the values given for its placeholders;
    a value the template has no placeholder for is left out.

    Substitution is single-pass: values containing ``{{`` are inserted
    verbatim, never re-expanded. Raises LeandecompError when the
    template references a placeholder given no value.
    """
    template = _template_text(kind)

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        value = values.get(name)
        if value is None:
            raise LeandecompError(f"template {kind.value!r} needs variable {name!r}")
        return value

    return _PLACEHOLDER_RE.sub(substitute, template)


_SEARCH_RE = re.compile(r"<search>(.*?)</search>", re.DOTALL)


def parse_search_queries(response: str) -> list[str]:
    """
    Extract search queries from ``<search>…</search>`` tags, in order.

    Raises BadReply when no non-empty tag is present.
    """
    queries = [m.strip() for m in _SEARCH_RE.findall(response)]
    queries = [q for q in queries if q]
    if not queries:
        raise BadReply("completion contains no <search> tags")
    return queries


_JUDGEMENT_RE = re.compile(r"\s*[*_]*judgement[*_]*:(.*)", re.IGNORECASE)


def parse_judgement(response: str) -> bool:
    """
    Whether the semantic checker's verdict is Appropriate.

    The last line starting with ``Judgement:``, its key bare or in
    markdown emphasis (``**Judgement:**``, ``**Judgement**:``), decides, so
    chain-of-thought restatements of the expected format do not confuse
    the parse. Its one word must be Appropriate or Inappropriate, in any
    case, with any markdown or punctuation around it. Raises BadReply
    otherwise, for a negated or hedged verdict too.
    """
    payloads = [m[1] for line in response.splitlines() if (m := _JUDGEMENT_RE.match(line))]
    words = re.findall(r"[a-z]+", payloads[-1].lower()) if payloads else []
    if words not in (["appropriate"], ["inappropriate"]):
        raise BadReply("completion contains no parseable Judgement line")
    return words == ["appropriate"]


def generate_theorem_name(informal: str) -> str:
    """Stable content-digest name, e.g. ``theorem_b2f45cfb951a``."""
    digest = hashlib.sha256(informal.strip().encode("utf-8")).hexdigest()
    return "theorem_" + digest[:12]


def _span_offsets(code: str, span) -> tuple[int, int] | None:
    """Convert a 1-based (line, column) span to offsets into code; None
    when a position lies outside its line (a column may be one past the
    line's last character) or the span runs backwards."""
    lines = code.split("\n")
    offsets = []
    for line, column in span:
        if not (1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1):
            return None
        offsets.append(sum(len(text) + 1 for text in lines[: line - 1]) + column - 1)
    start, end = offsets
    return (start, end) if start <= end else None


def build_error_annotation(code: str, result: VerificationResult) -> str:
    """
    Reproduce code with ``<error></error>`` around each reported span,
    then append the error messages. Feeds the correction prompts'
    ``error_message_for_prev_round`` variable.

    Unpositioned errors contribute only trailing messages; an empty
    error list degenerates to an "unknown error" trailer.
    """
    markers: list[tuple[int, int, str]] = []
    for err in result.errors:
        offsets = _span_offsets(code, err.span) if err.span else None
        if offsets is None:
            continue
        start, end = offsets
        if start == end:
            markers.append((start, 1, "<error></error>"))
        else:
            markers += [(start, 2, "<error>"), (end, 0, "</error>")]
    # One pass in offset order. At one offset, closes go before an empty
    # span's markers, and those before opens, so nested spans stay nested.
    pieces, at = [], 0
    for offset, _, marker in sorted(markers):
        pieces += [code[at:offset], marker]
        at = offset
    annotated = "".join(pieces) + code[at:]
    messages = [err.message for err in result.errors if err.message]
    if not messages:
        messages = ["unknown error"]
    return annotated + "\n\nErrors:\n" + "\n".join(f"- {m}" for m in messages)


def format_theorem_hints(hints: list[tuple[str, str]]) -> str:
    """
    Render retrieved theorems, as (name, statement) pairs, as the
    decomposer's hint list; the search client already caps them at
    ``SearchConfig.hint_cap``. Empty input yields a short placeholder
    line so templates never render an empty section.
    """
    lines = [f"- {name} : {' '.join(statement.split())}" for name, statement in hints]
    if not lines:
        return "(no potentially useful theorems were found)"
    return "Potentially useful theorems:\n\n" + "\n".join(lines)
