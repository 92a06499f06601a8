"""Command-line entry point.

Accepts an informal statement, a formal Lean file, or a previous
checkpoint; runs the proving orchestrator against the configured
backends; and writes ``proof.lean`` on success or ``diagnostic.txt``
plus a resumable ``checkpoint.json`` on failure.

Exit codes: 0 proof found and verified, 1 proof search failed,
2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import suppress
from pathlib import Path

from .config import ROLE_SECTIONS, Config, Limits, load_config
from .errors import ConfigError, InputError, LeandecompError
from .lean_source import LeanSource, _line_heads, split_source
from .orchestrator import Orchestrator
from .proof_state import ProofTree
from .services import ChatClient, SearchClient, VerifierClient

log = logging.getLogger(__name__)

EXIT_SUCCESS = 0
EXIT_PROOF_FAILURE = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leandecomp",
        description=(
            "Prove a Lean 4 theorem by direct generation and, when that "
            "fails, recursive decomposition into independently proved "
            "subgoals."
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--informal", metavar="TEXT", help="natural-language theorem statement to formalize"
    )
    source.add_argument(
        "--file", metavar="PATH", help="Lean file containing a header and one theorem statement"
    )
    source.add_argument(
        "--resume",
        metavar="CHECKPOINT",
        help="resume from a checkpoint.json written by a previous run",
    )
    parser.add_argument(
        "--config", metavar="PATH", help="INI file layered over the packaged defaults"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="leandecomp-out",
        help="directory for proof.lean, run.jsonl, checkpoint.json (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="maximum remote calls in flight at once (default: %(default)s)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="-v for progress logging, -vv for debug logging",
    )
    return parser


def validate_formal_input(code: str) -> LeanSource:
    """
    Check a formal input file and return it split into header and body.

    The file must start with a Lean header (at least one ``import``
    line) followed by a declaration. The header is returned as written:
    ``ProofTree.from_formal`` normalizes it.
    """
    source = split_source(code)
    if not any(tok.text == "import" for _, tok in _line_heads(source.preamble)):
        raise InputError(
            "formal input must begin with a Lean header containing at least "
            "one import line (e.g. 'import Mathlib')"
        )
    if not source.body.strip():
        raise InputError(
            "formal input contains a header but no theorem declaration"
        )
    return source


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    logging.getLogger("leandecomp").setLevel(level)


def _build_tree(args: argparse.Namespace, limits: Limits) -> ProofTree:
    if args.informal is not None:
        return ProofTree.from_informal(args.informal, limits)
    try:
        if args.resume:
            tree = ProofTree.load(args.resume, limits)
            log.info("resumed checkpoint %s (%d nodes)", args.resume, len(tree.nodes))
            return tree
        code = Path(args.file).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {args.resume or args.file}: {exc}") from None
    validate_formal_input(code)
    return ProofTree.from_formal(code, limits)


def _build_orchestrator(
    config: Config, tree: ProofTree, out_dir: Path, workers: int
) -> Orchestrator:
    backends = {role: ChatClient(config.chat_backend(role)) for role in ROLE_SECTIONS}
    verifier = VerifierClient(config.verifier())
    search = config.get("LEAN_EXPLORE_SERVER", "url")  # unset or empty: sketch without hints
    return Orchestrator(
        tree,
        backends=backends,
        verifier=verifier,
        search_client=SearchClient(config.search()) if search else None,
        workers=workers,
        run_log_path=out_dir / "run.jsonl",
        checkpoint_path=out_dir / "checkpoint.json",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (args.informal is not None or args.file or args.resume):
            parser.error("one of --informal, --file, or --resume is required")
        if args.workers < 1:
            parser.error("--workers must be at least 1")
    except SystemExit as exc:  # argparse printed usage already
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
        return code

    _setup_logging(args.verbose)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        config = load_config(args.config)
        tree = _build_tree(args, config.typed_limits())
        orchestrator = _build_orchestrator(config, tree, out_dir, args.workers)
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InputError as exc:
        diagnostic = out_dir / "diagnostic.txt"
        diagnostic.write_text(f"input rejected: {exc}\n", encoding="utf-8")
        print(f"error: {exc} (details in {diagnostic})", file=sys.stderr)
        return EXIT_INPUT_ERROR

    log.info("proof search started (workers=%d, out=%s)", args.workers, out_dir)
    try:
        outcome = orchestrator.run()
    except LeandecompError as exc:
        # Infrastructure died mid-run; the last checkpoint is already on
        # disk, so the run can be resumed once the service is back.
        report = f"proof search aborted: {exc}\nresume with --resume {out_dir / 'checkpoint.json'}"
        (out_dir / "diagnostic.txt").write_text(report + "\n", encoding="utf-8")
        print(report, file=sys.stderr)
        return EXIT_PROOF_FAILURE
    except OSError as exc:  # the checkpoint journal or the run log could not be written
        report = f"proof search aborted: cannot write to {out_dir}: {exc}"
        with suppress(OSError):
            (out_dir / "diagnostic.txt").write_text(report + "\n", encoding="utf-8")
        print(f"error: {report}", file=sys.stderr)
        return EXIT_PROOF_FAILURE
    finally:
        from .transport import close_idle_connections  # loaded when the clients were built

        close_idle_connections()

    if outcome.success:
        proof_path = out_dir / "proof.lean"
        proof_path.write_text(outcome.proof + "\n", encoding="utf-8")
        (out_dir / "diagnostic.txt").unlink(missing_ok=True)  # of an earlier run
        print(outcome.proof)
        log.info("proof written to %s", proof_path)
        return EXIT_SUCCESS

    report = outcome.report or "proof search failed"
    if outcome.proof:
        report += "\n\ncandidate proof (did not verify):\n" + outcome.proof
    (out_dir / "diagnostic.txt").write_text(report + "\n", encoding="utf-8")
    print(f"proof search failed: {report}", file=sys.stderr)
    return EXIT_PROOF_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
