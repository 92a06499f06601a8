"""Deterministic text-level manipulation of Lean 4 source.

Covers the operations the proving pipeline needs without a real Lean
parser: splitting a unit into preamble and body, normalizing preambles,
pulling tactic bodies out of declarations, and splicing sub-proofs into
sketch placeholders. One scanner reads the code for all of them:
``tokenize``, which skips comments and string literals. Everything here
is a pure function over immutable inputs.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import AmbiguousSubgoal, NoByBlock, NoCodeBlock, SubgoalNotFound

#: Header lines every formal artifact is required to carry, in order.
CANONICAL_PREAMBLE_LINES = (
    "import Mathlib",
    "import Aesop",
    "set_option maxHeartbeats 0",
    "open BigOperators Real Nat Topology Rat",
)

#: The canonical imports, and the canonical lines after them as a block.
_CANONICAL_IMPORTS = "\n".join(CANONICAL_PREAMBLE_LINES[:2])
_CANONICAL_SETTINGS = "\n\n".join(CANONICAL_PREAMBLE_LINES[2:])

#: Line-initial keywords that may appear in a preamble.
HEADER_KEYWORDS = frozenset({"import", "open", "set_option", "variable", "variables"})

#: Line-initial keywords that start the body of a unit.
DECLARATION_KEYWORDS = frozenset(
    {"theorem", "lemma", "def", "example", "abbrev", "instance", "structure", "inductive", "axiom"}
)

_OPEN_BRACKETS = "([{⟨"
_CLOSE_BRACKETS = ")]}⟩"

_FENCE_RE = re.compile(r"```(?:lean4|lean)[ \t]*\r?\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class LeanSource:
    """A Lean unit split into a header preamble and a declaration body."""

    preamble: str
    body: str

    def combined(self) -> str:
        """Recombine preamble and body into a compilable unit."""
        if not self.preamble.strip():
            return self.body
        return self.preamble.rstrip("\n") + "\n\n" + self.body


@dataclass(frozen=True)
class Token:
    """A code token with byte offsets and the bracket depth at its start."""

    text: str
    start: int
    end: int
    depth: int


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'!?"


def tokenize(code: str) -> list[Token]:
    """
    Tokenize Lean code, skipping comments and string literals.

    Line comments (``--``), nested block comments (``/- -/``) and string
    literals produce no tokens. Bracket depth tracks ``()[]{}⟨⟩``.
    ``:=`` is emitted as a single token; identifier-like runs (including
    ``'`` as in ``cases'``) are kept together.
    """
    return list(_tokens(code))


def _tokens(code: str, comments: bool = False) -> Iterator[Token]:
    """``tokenize``'s scan, yielding each token as it is found; with
    ``comments``, each block comment is a token too, with text ``/-``."""
    i, n = 0, len(code)
    depth = 0
    while i < n:
        ch = code[i]
        if code.startswith("--", i):
            nl = code.find("\n", i)
            i = n if nl < 0 else nl
            continue
        if code.startswith("/-", i):
            start, level = i, 1
            i += 2
            while i < n and level:
                if code.startswith("/-", i):
                    level += 1
                    i += 2
                elif code.startswith("-/", i):
                    level -= 1
                    i += 2
                else:
                    i += 1
            if comments:
                yield Token("/-", start, i, depth)
            continue
        if ch == '"':
            i += 1
            while i < n:
                if code[i] == "\\":
                    i += 2
                elif code[i] == '"':
                    i += 1
                    break
                else:
                    i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if code.startswith(":=", i):
            yield Token(":=", i, i + 2, depth)
            i += 2
            continue
        if ch in _OPEN_BRACKETS:
            yield Token(ch, i, i + 1, depth)
            depth += 1
            i += 1
            continue
        if ch in _CLOSE_BRACKETS:
            depth = max(0, depth - 1)
            yield Token(ch, i, i + 1, depth)
            i += 1
            continue
        if _is_word_char(ch):
            j = i + 1
            while j < n and _is_word_char(code[j]):
                j += 1
            yield Token(code[i:j], i, j, depth)
            i = j
            continue
        yield Token(ch, i, i + 1, depth)
        i += 1


def _line_heads(code: str) -> Iterator[tuple[int, Token]]:
    """
    The first token of each line that has one, as ``tokenize`` reads
    past comments and string literals, with the offset where the line's
    code starts: the line's start, or the token's own start when the
    line begins inside a block comment opened on an earlier line. Only a
    line feed ends a line.
    """
    line_end = -1  # the line feed ending the last line read
    comment_end = 0  # the end of the last block comment spanning a line feed
    for tok in _tokens(code, comments=True):
        if tok.text == "/-":
            if code.find("\n", tok.start, tok.end) >= 0:
                comment_end = tok.end
        elif tok.start > line_end:
            start = code.rfind("\n", 0, tok.start) + 1
            yield (tok.start if start < comment_end else start), tok
            line_end = code.find("\n", tok.start)
            if line_end < 0:
                return


def split_source(code: str) -> LeanSource:
    """
    Split a Lean unit into preamble and body.

    The body starts at the first line whose first token, as ``tokenize``
    reads past comments and string literals, is not one of
    ``HEADER_KEYWORDS``; the lines before it, comment-only and blank ones
    included, are the preamble. When that line begins inside a block
    comment, the body starts at the token. A unit with no such line
    yields an empty body. Only a line feed ends a line.
    """
    for start, tok in _line_heads(code):
        if tok.text not in HEADER_KEYWORDS:
            return LeanSource(preamble=code[:start].rstrip(), body=code[start:])
    return LeanSource(preamble=code.rstrip(), body="")


def normalize_preamble(preamble: str) -> str:
    """
    Normalize a preamble to the canonical header block.

    The preamble is read in entries: a line, together with the lines
    that a block comment opened on it spans; code that follows where
    such a comment closes starts the next entry. The canonical lines always
    come first, in order, with the other ``import`` entries right after
    the canonical ones, since Lean accepts imports only at the top of a
    file; the other entries follow the canonical block in order, blank
    lines dropped. Header commands (entries whose first token is one of
    ``HEADER_KEYWORDS``) are stripped and deduplicated; every other
    entry, comments included, is kept as it is, and so is one that ends
    inside a comment left open, which stays last. Idempotent.
    """
    text = preamble + "\n"  # so that a comment left open ends inside its line
    spans = [
        (tok.start, tok.end)
        for tok in (_tokens(text, comments=True) if "/-" in preamble else ())
        if tok.text == "/-" and text.find("\n", tok.start, tok.end) >= 0
    ]
    entries: list[list[str]] = []
    offset = 0
    for raw in preamble.split("\n"):
        end = next((end for start, end in spans if start < offset - 1 < end), None)
        if end is None:
            entries.append([raw])
        elif next(_tokens(raw[end - offset:]), None) is None:
            entries[-1].append(raw)
        else:  # code follows where the comment closes: it starts an entry
            entries[-1].append(raw[:end - offset])
            entries.append([raw[end - offset:]])
        offset += len(raw) + 1
    left_open = bool(spans) and spans[-1][1] == len(text)
    imports: list[str] = []
    extras: list[str] = []
    seen = set(CANONICAL_PREAMBLE_LINES)
    for index, lines in enumerate(entries):
        head = next(_tokens("\n".join(lines)), None)
        kind = head.text if head and not (left_open and index == len(entries) - 1) else None
        if kind in HEADER_KEYWORDS:
            entry = "\n".join([lines[0].strip(), *(raw.rstrip() for raw in lines[1:])])
            if entry not in seen:
                seen.add(entry)
                (imports if kind == "import" else extras).append(entry)
        else:
            extras += [raw.rstrip() for raw in lines if raw.strip()]
    blocks = ["\n".join([_CANONICAL_IMPORTS, *imports]), _CANONICAL_SETTINGS, "\n".join(extras)]
    return "\n\n".join(block for block in blocks if block)


def _dedent_tail(tail: str) -> str:
    """Dedent the text following a ``by`` / ``:=`` token, preserving relative indentation."""
    if "\n" in tail:
        head, rest = tail.split("\n", 1)
        lines = rest.split("\n")
    else:
        head, lines = tail, []
    head = head.strip()
    while lines and not lines[0].strip():
        lines.pop(0)
    while lines and not lines[-1].strip():
        lines.pop()
    if lines:
        cut = min(len(ln) - len(ln.lstrip(" ")) for ln in lines if ln.strip())
        lines = [ln[cut:] if ln.strip() else "" for ln in lines]
    if head and lines:
        return "\n".join([head, *lines])
    if head:
        return head
    return "\n".join(lines)


def _first_top_level_assign(proof: str) -> tuple[Token, Token | None]:
    """Find the declaration's first depth-0 ``:=`` and the token after it."""
    tokens = _tokens(proof)
    for tok in tokens:
        if tok.text == ":=" and tok.depth == 0:
            return tok, next(tokens, None)
    raise NoByBlock("declaration has no top-level ':='")


def extract_proof_body(proof: str) -> str:
    """
    Return the tactic block after the declaration's first top-level ``:= by``.

    Raises NoByBlock for term-mode proofs (no top-level ``by``). The
    result never begins with the ``by`` token itself; relative
    indentation of the tactic lines is preserved.
    """
    assign, nxt = _first_top_level_assign(proof)
    if nxt is None or nxt.text != "by" or nxt.depth != 0:
        raise NoByBlock("proof term does not start with 'by'")
    return _dedent_tail(proof[nxt.end :])


def extract_term_value(proof: str) -> str:
    """Return the proof term after the first top-level ``:=`` (term-mode proofs)."""
    assign, _ = _first_top_level_assign(proof)
    return _dedent_tail(proof[assign.end :])


def _indent_block(body: str, columns: int) -> str:
    pad = " " * columns
    lines = body.rstrip("\n").split("\n")
    return "\n".join(pad + ln if ln.strip() else "" for ln in lines)


def _find_unproven_have_sites(sketch: str, name: str) -> list[tuple[Token, Token, Token]]:
    """Locate every ``have <name> … := by sorry`` as (have, by, sorry) tokens."""
    tokens = tokenize(sketch)
    sites = []
    for idx, tok in enumerate(tokens):
        if tok.text != "have" or idx + 1 >= len(tokens):
            continue
        if tokens[idx + 1].text != name:
            continue
        depth = tok.depth
        j = idx + 2
        assign = None
        while j < len(tokens):
            tj = tokens[j]
            if tj.depth == depth and tj.text == ":=":
                assign = j
                break
            if tj.depth == depth and tj.text == "have":
                break  # ran into the next have without seeing ':='
            j += 1
        if assign is None or assign + 2 >= len(tokens):
            continue
        by_tok, sorry_tok = tokens[assign + 1], tokens[assign + 2]
        if by_tok.text == "by" and sorry_tok.text == "sorry":
            sites.append((tok, by_tok, sorry_tok))
    return sites


def replace_subgoal(sketch: str, name: str, proof_body: str) -> str:
    """
    Replace the ``sorry`` of ``have <name> : … := by sorry`` with a proof body.

    Inserted lines are re-indented one level (2 spaces) under the
    ``have`` column; all other text is left byte-identical. Handles both
    the inline form (``:= by sorry``) and the sorry-on-next-line form.

    Raises SubgoalNotFound if no unproven ``have`` named ``name``
    exists, AmbiguousSubgoal if more than one does.
    """
    sites = _find_unproven_have_sites(sketch, name)
    if not sites:
        raise SubgoalNotFound(f"no unproven have named {name!r} in sketch")
    if len(sites) > 1:
        raise AmbiguousSubgoal(f"have named {name!r} occurs {len(sites)} times unproven")
    have_tok, by_tok, sorry_tok = sites[0]
    have_col = have_tok.start - (sketch.rfind("\n", 0, have_tok.start) + 1)
    body = proof_body.rstrip()
    inline = "\n" not in sketch[by_tok.end : sorry_tok.start]
    if inline:
        if "\n" not in body.strip():
            return sketch[: sorry_tok.start] + body.strip() + sketch[sorry_tok.end :]
        return sketch[: by_tok.end] + "\n" + _indent_block(body, have_col + 2) + sketch[sorry_tok.end :]
    line_start = sketch.rfind("\n", 0, sorry_tok.start) + 1
    return sketch[:line_start] + _indent_block(body, have_col + 2) + sketch[sorry_tok.end :]


def extract_code_block(response: str) -> str:
    """
    Return the contents of the last fenced ```lean4 (or ```lean) block.

    Correction prompts elicit analysis followed by code, so the last
    block wins. Raises NoCodeBlock when no fenced Lean block exists.
    """
    matches = _FENCE_RE.findall(response)
    if not matches:
        raise NoCodeBlock("completion contains no ```lean4 code block")
    return matches[-1].strip("\r\n")
