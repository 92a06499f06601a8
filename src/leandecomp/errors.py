"""Exception hierarchy shared across the package."""


class LeandecompError(Exception):
    """Base class for all package-specific errors."""


# --- Lean source manipulation ---


class NoCodeBlock(LeandecompError):
    """A model completion contained no fenced ```lean4 / ```lean block."""


class SubgoalNotFound(LeandecompError):
    """A sketch's sorries and its subgoals' proofs do not splice: their
    numbers differ, a sorry is neither a tactic nor a term, or a proof
    has no top-level `:=`."""


# --- AST handling ---


class MalformedAst(LeandecompError):
    """The AST payload is not a well-formed tree (missing kind, bad shape)."""


class AnonymousSorry(LeandecompError):
    """A sorry placeholder is not attached to a named `have` statement."""


# --- Proof tree ---


class UnknownNode(LeandecompError):
    """A node id that is not present in the proof tree."""


class IncompleteSubtree(LeandecompError):
    """Reconstruction requested while some descendant is not yet proven."""


# --- Prompt rendering / response parsing ---


class MissingVariable(LeandecompError):
    """A prompt template placeholder has no value."""


class NoQueries(LeandecompError):
    """A search-query response contained no <search> tags."""


class NoJudgement(LeandecompError):
    """A semantic-check response contained no parseable Judgement line."""


# --- Service clients ---


class RemoteExhausted(LeandecompError):
    """A chat backend kept failing after all configured retries."""


class BadResponse(LeandecompError):
    """A service answered with an unusable payload (e.g. no choices)."""


class ServiceUnavailable(LeandecompError):
    """The verification / AST / search service could not be reached."""


class AstExportFailed(LeandecompError):
    """The AST endpoint reported an export error for the submitted code."""


# --- Configuration ---


class ConfigError(LeandecompError):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """INI text could not be parsed."""


class ConfigTypeError(ConfigError, TypeError):
    """A configuration option has the wrong type (e.g. non-integer limit)."""


# --- Orchestration / CLI ---


class MissingHeader(LeandecompError):
    """A formal input file lacks the required Lean import header."""


class MissingDeclaration(LeandecompError):
    """A formal input file contains a header but no declaration."""
