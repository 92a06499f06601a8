"""Deterministic text-level manipulation of Lean 4 source.

Covers the operations the proving pipeline needs without a real Lean
parser: splitting a unit into preamble and body, normalizing preambles,
extracting fenced code, and splicing each subgoal's proof into its
sketch at the sorry it came from. One scanner reads the code for all of
them: ``tokenize``, which skips comments and string literals.
Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import re
import textwrap
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import BadReply, BadSketch

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


def _tactic_block(decl: str) -> str:
    """
    The proof of a declaration as a tactic block: the tactics after its
    first top-level ``:= by``, or ``exact (<term>)`` for a term-mode
    proof, dedented with relative indentation kept; never begins with
    ``by``. Raises BadSketch when there is no top-level ``:=``.
    """
    tokens = _tokens(decl)
    for tok in tokens:
        if tok.text == ":=" and tok.depth == 0:
            nxt = next(tokens, None)
            tactics = nxt is not None and nxt.text == "by"
            head, _, rest = decl[(nxt if tactics else tok).end :].partition("\n")
            block = "\n".join(filter(None, (head.strip(), textwrap.dedent(rest).strip("\n"))))
            return block if tactics else f"exact ({block})"
    raise BadSketch("a subgoal's proof has no top-level ':='")


def _indent_block(body: str, columns: int) -> str:
    pad = " " * columns
    lines = body.rstrip("\n").split("\n")
    return "\n".join(pad + ln if ln.strip() else "" for ln in lines)


def splice_sorries(sketch: str, child_decls: list[str]) -> str:
    """
    Replace the k-th ``sorry`` of a sketch, as ``tokenize`` reads it past
    comments and string literals, with the proof of the k-th declaration
    as a tactic block (``_tactic_block``).

    The token before a sorry decides its form. After ``by``, or first on
    its own line, it is a tactic: the block replaces it, each later line
    indented to the sorry's column. After ``:=`` it is a term: the block
    gets ``by`` first. A block of several lines that would start
    mid-line starts on the next line instead, two columns right of the
    line's first tactic (past a focusing ``·``), and the spaces before
    it go. All other text is left byte-identical.

    Raises BadSketch when the number of sorries and of declarations
    differ, or a sorry is neither a tactic nor a term.
    """
    tokens = tokenize(sketch)
    sites = [index for index, tok in enumerate(tokens) if tok.text == "sorry"]
    if len(sites) != len(child_decls):
        raise BadSketch(
            f"the sketch's sorry count, {len(sites)}, is not its subgoal count, {len(child_decls)}"
        )
    pieces: list[str] = []
    done = 0
    for index, decl in zip(sites, child_decls):
        sorry = tokens[index]
        line_start = sketch.rfind("\n", 0, sorry.start) + 1
        before = tokens[index - 1] if index else None
        own_line = before is None or before.end <= line_start
        lead = "by" if before is not None and before.text == ":=" else ""
        if not (lead or own_line or before.text == "by"):
            line = sketch[line_start:].split("\n", 1)[0].strip()
            raise BadSketch(
                f"the sorry in {line!r} follows {before.text!r}: "
                "it is neither a tactic nor a term"
            )
        head = sketch[done : sorry.start]
        block = _tactic_block(decl)
        if own_line and not lead:
            column = sorry.start - line_start
            text = _indent_block(block, column)[column:]
        elif "\n" not in block.strip():
            text = " ".join(filter(None, (lead, block.strip())))
        else:
            first = index
            while first and tokens[first - 1].start >= line_start:
                first -= 1
            if tokens[first].text == "·":
                first += 1
            text = lead + "\n" + _indent_block(block, tokens[first].start - line_start + 2)
            if not lead:
                head = head.rstrip(" \t")
        pieces += [head, text]
        done = sorry.end
    return "".join(pieces) + sketch[done:]


def extract_code_block(response: str) -> str:
    """
    Return the contents of the last fenced ```lean4 (or ```lean) block.

    Correction prompts elicit analysis followed by code, so the last
    block wins. Raises BadReply when no fenced Lean block exists.
    """
    matches = _FENCE_RE.findall(response)
    if not matches:
        raise BadReply("completion contains no ```lean4 code block")
    return matches[-1].strip("\r\n")
