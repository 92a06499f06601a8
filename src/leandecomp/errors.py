"""Exception hierarchy shared across the package: one class per way the
program reacts to a failure."""


class LeandecompError(Exception):
    """Base class for all package-specific errors, raised itself where no
    reaction but a resumable abort fits: an unknown node, an unproven
    subtree, a prompt variable left unset."""


class BadReply(LeandecompError):
    """A model's reply lacks what its role must give (a fenced Lean block
    with a declaration, a Judgement verdict or a <search> tag), or a chat
    service refused the request (a 4xx not retried, no text). The round fails."""


class BadSketch(LeandecompError):
    """A verified sketch cannot be decomposed: its AST export failed or is
    not a syntax tree, a sorry is not in a named have, or its sorries and
    subgoals do not splice. Its check fails, noting why, to be corrected."""


class ServiceError(LeandecompError):
    """A service could not be reached within its retry budget, or answered
    with an unusable payload. The run aborts resumably, once the calls in
    flight have landed, except that a failed search gives no hints."""


class ConfigError(LeandecompError):
    """The configuration is unreadable, incomplete or out of range: the CLI
    exits with code 2."""


class InputError(LeandecompError):
    """A formal input file lacks its import header or its declaration: the
    CLI exits with code 2 and writes diagnostic.txt."""
