"""One execution of a workload, in a fresh interpreter.

``run.py`` starts this script once per execution (twice for the CLI
workload: the crashing invocation, then the resume) and reads the JSON
it leaves in ``--result``. The program is imported from ``src/`` of the
current directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def wchar() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class SetupDone(Exception):
    """Ends a set-up-only execution at its first action."""


class RunClock:
    """Wraps ``Orchestrator.run``: the first entry is the first action,
    and every return (or raise) is a verdict."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.first = None  # monotonic time of the first action
        self.wall = 0.0
        self.cpu0 = self.wchar0 = None

    def wrap(self, run):
        def timed(orchestrator):
            start = time.monotonic()
            if self.first is None:
                self.first = start
                if self.setup_only:
                    raise SetupDone
                self.cpu0 = time.process_time()
                self.wchar0 = wchar()
            try:
                return run(orchestrator)
            finally:
                self.wall += time.monotonic() - start

        return timed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--width", type=int, default=0)
    parser.add_argument("--depth", type=int, default=0)
    parser.add_argument("--phase", type=int, default=0, help="CLI invocation: 1 or 2")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop at the first action")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--run-id", default="")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import leandecomp.cli as cli
    import leandecomp.proof_state as proof_state

    import tracing

    expected_src = (ROOT / "src" / "leandecomp").resolve()
    if Path(cli.__file__).resolve().parent != expected_src:
        print(f"leandecomp was imported from {cli.__file__}, not {expected_src}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clock = RunClock(args.setup_only)
    tracer = tracing.Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    tracing.patch("orchestrator", "Orchestrator.run", clock.wrap)

    try:
        result = execute(args, out, tracer)
    except SetupDone:
        Path(args.result).write_text(json.dumps({"first": clock.first}), encoding="utf-8")
        return 0
    if clock.first is None:
        print("the program never started a run", file=sys.stderr)
        return 2
    result.update(
        first=clock.first,
        run_wall_s=clock.wall,
        local_cpu_s=time.process_time() - clock.cpu0,
        write_bytes=wchar() - clock.wchar0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(out / f"spans-{args.phase}.jsonl")
    # After the trace is summarised and written, so neither counts it: the
    # checkpoint must load back.
    checkpoint = out / "checkpoint.json"
    result["checkpoint_root"] = (
        proof_state.ProofTree.load(checkpoint).root_node().status.value
        if checkpoint.exists() else None
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def execute(args, out: Path, tracer) -> dict:
    """Run the program once: the Python API on a synthetic tree (phase
    0) or one CLI invocation (phase 1 or 2)."""
    import leandecomp.cli as cli
    import leandecomp.config as config
    import leandecomp.orchestrator as orchestrator
    import leandecomp.proof_state as proof_state

    from model import WORKERS

    result: dict = {}
    if args.phase == 0:
        from fakes import World, make_in_process
        from model import TreeScenario

        scenario = TreeScenario(args.width, args.depth)
        world = World(scenario, args.seed, args.scale, tracer)
        limits = config.load_config(env={}).typed_limits()
        source = cli.validate_formal_input(scenario.input_code())
        tree = proof_state.ProofTree.from_formal(source.combined(), limits)
        backends, verifier, ast_client, search_client = make_in_process(world)
        runner = orchestrator.Orchestrator(
            tree,
            backends=backends,
            verifier=verifier,
            ast_client=ast_client,
            search_client=search_client,
            workers=WORKERS,
            run_log_path=out / "run.jsonl",
            checkpoint_path=out / "checkpoint.json",
        )
        outcome = runner.run()
        result["exit"] = 0 if outcome.success else 1
        result["proof"] = outcome.proof
        result["world"] = world.snapshot()
    else:
        cli_args = ["--config", str(out / "bench.ini"), "--out", str(out), "--workers", str(WORKERS)]
        if args.phase == 1:
            cli_args += ["--informal", (out / "informal.txt").read_text(encoding="utf-8")]
        else:
            cli_args += ["--resume", str(out / "checkpoint.json")]
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                result["exit"] = cli.main(cli_args)
        proof_path = out / "proof.lean"
        result["proof"] = proof_path.read_text(encoding="utf-8") if proof_path.exists() else None
    return result


if __name__ == "__main__":
    sys.exit(main())
