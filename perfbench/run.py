"""Benchmark: time to a verified proof, against the remote-call ideal.

Usage (from the repository root):

    python3 perfbench/run.py --workload fanout-latency --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30            # every workload in turn
    python3 perfbench/run.py --seconds 30 --trace 1  # adds the per-layer metrics

A run repeats the workload, each execution in a fresh interpreter, for
about ``--seconds``, and reports the median of every metric. It
prints a table of every metric (median, quartiles, sample count) and,
as its last line, one JSON object. With ``--trace 1`` executions
alternate between untraced and traced; the traced ones give the
per-layer metrics and ``trace.overhead_s``, the untraced ones the rest.
Traced executions leave their spans in ``.perfbench_spans/``.

The program sees only inputs generated from ``--seed``. Remote services
are latency-injecting fakes (``fakes.py``); the expected call counts and
``ideal_s`` come from ``model.py``, which does not import the program.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from model import FAIL_MARKER, ROLES, CrashResumeScenario, TreeScenario, header, ideal_s

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"

# See BENCHMARK.json for why each workload exists. Sizes are chosen so
# that a run of 36 s holds at least five executions.
WORKLOADS = {
    # 21 nodes; remote waits dominate and siblings can overlap.
    "fanout-latency": {"width": 4, "depth": 2, "scale": 1.0},
    # 13 nodes at a hundredth of the latency: local work dominates. At
    # width 3 and depth 3 (40 nodes) one execution takes 25 s. The
    # latency is not zero so that wall_over_ideal stays defined.
    "bigtree-local": {"width": 3, "depth": 2, "scale": 0.01},
    # Two CLI invocations over localhost HTTP; latency doubled so that
    # remote waits, not interpreter noise, set the wall clock.
    "crash-resume-http": {"cli": True, "scale": 2.0},
}
TINY = {"width": 2, "depth": 1}

END_TO_END = {
    "run_wall_s": "s",
    "wall_over_ideal": "ratio",
    "local_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "write_bytes": "bytes",
    "remote_calls": "count",
    "prompt_chars": "chars",
}

ROLE_MODELS = {
    "formalizer": "bench-formalizer",
    "prover": "bench-prover",
    "semantics": "bench-semantics",
    "search_query": "bench-search-query",
    "decomposer": "bench-decomposer",
}
CLI_INI = """[PROVER_AGENT_LLM]
max_pass = 4
max_self_correction_attempts = 2
max_depth = 2

[KIMINA_LEAN_SERVER]
max_retries = 0
"""
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark itself could not run."""


def use_checkout() -> bool:
    """Put the program and its test helpers from the current directory
    on the import path; False when it is not a checkout of the repository."""
    if not (ROOT / "src" / "leandecomp" / "__init__.py").is_file():
        return False
    if not (ROOT / "tests" / "fakes.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def _layer_units() -> dict[str, str]:
    # A time that would read 0 on some workload, because the layer or role
    # does not run there, is left out; its call count stays. So the
    # formalizer and semantics report no busy time, the services layer no
    # self time, and checkpoint loads count in proof_state.initial_tree.s.
    names = {
        "orchestrator.next_action.calls": "count",
        "orchestrator.next_action.s": "s",
        "orchestrator.actions": "count",
        "remote.inflight_mean": "calls",
        "remote.inflight_max": "calls",
        "proof_state.save.calls": "count",
        "proof_state.save.s": "s",
        "proof_state.checkpoint_final_bytes": "bytes",
        "proof_state.initial_tree.s": "s",
        "proof_state.reconstruct.s": "s",
        "proof_state.record_attempt.calls": "count",
    }
    for fn in ("tokenize", "split_source", "extract_code_block", "replace_subgoal"):
        names[f"lean_source.{fn}.calls"] = "count"
        names[f"lean_source.{fn}.s"] = "s"
    for fn in ("ast_model.parse_ast", "ast_model.extract_subgoals",
               "agents.render_prompt", "agents.build_error_annotation"):
        names[f"{fn}.calls"] = "count"
        names[f"{fn}.s"] = "s"
    names.update({
        "services.http.requests": "count",
        "services.http.connections": "count",
        "services.http.request_bytes": "bytes",
        "services.http.response_bytes": "bytes",
        "services.http.retries": "count",
        "config.load_config.s": "s",
    })
    for role in ROLES:
        names[f"remote.{role}.calls"] = "count"
        if role not in ("formalizer", "semantics"):
            names[f"remote.{role}.busy_s"] = "s"
        names[f"remote.{role}.failed"] = "count"
    names["remote.verifier.units"] = "count"
    names["remote.verifier.batch_mean"] = "units"
    names["remote.prover.useful_ratio"] = "ratio"
    for layer in ("orchestrator", "proof_state", "lean_source", "ast_model",
                  "agents", "config", "cli"):
        names[f"layer.{layer}.self_s"] = "s"
    names["trace.overhead_s"] = "s"
    names["trace.spans"] = "count"
    return names


#: Every reported per-layer metric with its unit, in report order.
LAYER_UNITS = _layer_units()


# ---------------------------------------------------------------- executions


def child_env() -> dict[str, str]:
    """The caller's environment without anything that would configure
    the program or route localhost traffic through a proxy."""
    env = {
        key: value
        for key, value in os.environ.items()
        if "__" not in key and "proxy" not in key.lower() and key != "OPENAI_API_KEY"
    }
    env["NO_PROXY"] = "127.0.0.1,localhost"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], env: dict[str, str], result: Path) -> tuple[float, dict]:
    """Run child.py; returns (monotonic spawn time, its result)."""
    result.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--result", str(result), *args],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"execution exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"execution failed (exit {proc.returncode}):\n{err.strip()}")
    return started, json.loads(result.read_text(encoding="utf-8"))


class Execution:
    """Runs one workload repeatedly with the same seed."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        spec = dict(WORKLOADS[name])
        if tiny and not spec.get("cli"):
            spec.update(TINY)
        self.name, self.seed, self.spec = name, seed, spec
        self.cli = bool(spec.get("cli"))
        self.scenario = (
            CrashResumeScenario() if self.cli else TreeScenario(spec["width"], spec["depth"])
        )
        self.ideal_s = ideal_s(self.scenario, seed, spec["scale"])
        self.expected = self.scenario.expected_calls()
        self.server = None
        self.env = child_env()
        if self.cli:
            from fakes import World
            from leandecomp.config import ROLE_SECTIONS
            from server import KeepAliveServer

            self.server = KeepAliveServer(World(self.scenario, seed, spec["scale"]), ROLE_MODELS)
            self.server.start()
            for role, model in ROLE_MODELS.items():
                self.env[f"{ROLE_SECTIONS[role]}__URL"] = self.server.base_url
                self.env[f"{ROLE_SECTIONS[role]}__MODEL"] = model
            self.env["KIMINA_LEAN_SERVER__URL"] = self.server.base_url
            self.env["LEAN_EXPLORE_SERVER__URL"] = self.server.base_url

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def once(self, index: int, traced: bool) -> dict:
        """One execution: the end-to-end sample, per-layer values when
        traced, and the list of output-check failures. An untraced
        execution also starts the program once more and stops it at the
        first action, for a second set-up time."""
        out = WORK / f"{self.name}-{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        base = [
            "--workload", self.name, "--seed", str(self.seed), "--scale", str(self.spec["scale"]),
            "--trace", str(int(traced)), "--out", str(out),
            "--run-id", f"{self.name}-{self.seed}-{index}",
        ]
        if self.cli:
            self.server.reset()
            (out / "bench.ini").write_text(CLI_INI, encoding="utf-8")
            (out / "informal.txt").write_text(self.scenario.informal, encoding="utf-8")
            phase = [base + ["--phase", "1"], base + ["--phase", "2"]]
            started, crashed = spawn(phase[0], self.env, out / "r1.json")
            setups = [crashed["first"] - started]
            if not traced:
                # while the crash checkpoint is there for the resume to load
                setups.append(self._setup(phase[0], out) + self._setup(phase[1], out))
            started, final = spawn(phase[1], self.env, out / "r2.json")
            setups[0] += final["first"] - started
            phases = [crashed, final]
            world = self.server.world.snapshot()
            exits = [p["exit"] for p in phases]
            problems = [] if exits == [1, 0] else [f"exit codes {exits}, expected [1, 0]"]
            if crashed["checkpoint_root"] is None:
                problems.append("the failing invocation left no checkpoint")
        else:
            args = base + ["--width", str(self.spec["width"]), "--depth", str(self.spec["depth"])]
            started, final = spawn(args, self.env, out / "r.json")
            setups = [final["first"] - started]
            if not traced:
                setups.append(self._setup(args, out))
            phases = [final]
            world = final["world"]
            ok = final["exit"] == 0
            problems = [] if ok else ["the run did not end in a verified proof"]
        if final["checkpoint_root"] != "Proven":
            problems.append(f"the final checkpoint loads with root {final['checkpoint_root']}")
        counts = world["calls"]
        problems += check_proof(self.scenario, final["proof"])
        problems += check_counts(self.expected, counts)
        wall = sum(p["run_wall_s"] for p in phases)
        sample = {
            "run_wall_s": wall,
            "wall_over_ideal": wall / self.ideal_s,
            "local_cpu_s": sum(p["local_cpu_s"] for p in phases),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in phases),
            "write_bytes": sum(p["write_bytes"] for p in phases),
            "remote_calls": sum(counts.values()),
            "prompt_chars": world["prompt_chars"],
        }
        layers = {}
        if traced:
            layers = self._layers(out, phases, world, wall)
            SPANS.mkdir(exist_ok=True)
            for spans in out.glob("spans-*.jsonl"):
                spans.replace(SPANS / f"{self.name}-{self.seed}-{index}-{spans.name}")
        return {"sample": sample, "setup": setups, "layers": layers, "problems": problems}

    def _setup(self, args: list[str], out: Path) -> float:
        """Set-up time of one more start of the program, stopped at its
        first action."""
        started, res = spawn(args + ["--setup-only"], self.env, out / "setup.json")
        return res["first"] - started

    def _layers(self, out: Path, phases: list[dict], world: dict, run_wall_s: float) -> dict:
        """Per-layer values of one traced execution."""
        calls, busy, failed = world["calls"], world["busy_s"], world["failed"]
        trace: dict[str, float] = {}
        for phase in phases:
            for key, value in phase["trace"].items():
                trace[key] = trace.get(key, 0) + value
        layers = {key: trace.get(key, 0) for key in LAYER_UNITS}
        log = out / "run.jsonl"
        layers["orchestrator.actions"] = len(log.read_text(encoding="utf-8").splitlines())
        checkpoint = out / "checkpoint.json"
        layers["proof_state.checkpoint_final_bytes"] = checkpoint.stat().st_size
        # the starting tree: from the input, or from the checkpoint on resume
        layers["proof_state.initial_tree.s"] = sum(
            trace.get(f"proof_state.{fn}.s", 0) for fn in ("from_formal", "from_informal", "load")
        )
        layers["remote.inflight_mean"] = sum(busy.values()) / run_wall_s
        layers["remote.inflight_max"] = world["inflight_max"]
        for role in calls:
            layers[f"remote.{role}.calls"] = calls[role]
            layers[f"remote.{role}.busy_s"] = busy[role]
            layers[f"remote.{role}.failed"] = failed[role]
        layers["remote.verifier.units"] = calls["verifier"]
        layers["remote.verifier.batch_mean"] = calls["verifier"] / max(1, world["verifier_requests"])
        layers["remote.prover.useful_ratio"] = world["proofs_passed"] / max(1, calls["prover"])
        if self.server is not None:
            server = self.server
            layers["services.http.requests"] = server.requests
            layers["services.http.connections"] = server.connections
            layers["services.http.request_bytes"] = server.request_bytes
            layers["services.http.response_bytes"] = server.response_bytes
            layers["services.http.retries"] = server.retries
        return layers


# -------------------------------------------------------------- output checks


def check_proof(scenario, proof: str | None) -> list[str]:
    """The proof states the input's theorem, is free of sorry and of the
    fail marker, and keeps every leaf subgoal as a have."""
    if not proof:
        return ["no proof was produced"]
    problems = []
    want = header(scenario.root) + " := by"
    if want not in proof.splitlines():
        problems.append(f"the proof does not state {want!r}")
    if re.search(r"\bsorry\b", proof):
        problems.append("the proof contains sorry")
    if FAIL_MARKER in proof:
        problems.append(f"the proof contains {FAIL_MARKER}")
    missing = [leaf for leaf in scenario.leaves() if f"have {leaf} :" not in proof]
    if missing:
        problems.append(f"the proof lacks the subgoals {missing}")
    return problems


def check_counts(expected: dict[str, int], counts: dict[str, int]) -> list[str]:
    return [
        f"{role}: {counts.get(role, 0)} calls, budget arithmetic says {n}"
        for role, n in expected.items()
        if counts.get(role, 0) != n
    ]


# ----------------------------------------------------------------- reporting


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Repeat one workload while one more execution of the mean length so
    far still ends within ``seconds`` (but at least once, and at least
    once traced when tracing), so that a slow machine makes fewer
    executions rather than a longer run. Returns every sample and every
    output-check failure."""
    execution = Execution(name, seed, tiny)
    samples, setups, traced_walls, layer_samples, problems = [], [], [], [], []
    failed = index = 0
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if index >= 1 + trace and elapsed + elapsed / index > seconds:
                break
            traced = bool(trace) and index % 2 == 1
            result = execution.once(index, traced)
            index += 1
            failed += bool(result["problems"])
            problems += result["problems"]
            if traced:
                traced_walls.append(result["sample"]["run_wall_s"])
                layer_samples.append(result["layers"])
            else:
                samples.append(result["sample"])
                setups += result["setup"]
    finally:
        execution.close()
    end_to_end = {key: [s[key] for s in samples] for key in END_TO_END if key != "setup_s"}
    report = {
        "workload": name,
        "ideal_s": execution.ideal_s,
        "attempted": index,
        "failed": failed,
        "problems": sorted(set(problems)),
        "end_to_end": {**end_to_end, "setup_s": setups},
        "per_layer": None,
    }
    if trace:
        untraced = statistics.median(end_to_end["run_wall_s"])
        layers = {key: [s[key] for s in layer_samples] for key in LAYER_UNITS}
        layers["trace.overhead_s"] = [wall - untraced for wall in traced_walls]
        report["per_layer"] = layers
    return report


def print_table(report: dict) -> None:
    """Every metric of one workload: median, quartiles and sample count."""
    print(f"== {report['workload']}: {report['attempted']} executions, "
          f"{report['failed']} failed output checks")
    for problem in report["problems"]:
        print(f"   check failed: {problem}")
    units = {**END_TO_END, **LAYER_UNITS}
    for title in ("end_to_end", "per_layer"):
        if report[title] is None:
            continue
        print(f"   {title:40} {'unit':6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
        for key, values in report[title].items():
            q1, median, q3 = quartiles(values)
            print(f"   {key:40} {units[key]:6} {len(values):3d} "
                  f"{median:14.6g} {q1:14.6g} {q3:14.6g}")
            if key in ("wall_over_ideal", "remote.inflight_mean"):
                print(f"   {'  ideal_s':40} {'s':6} {'':3} {report['ideal_s']:14.6g}")


def result_line(report: dict) -> dict:
    """The JSON result: end-to-end metrics, or per-layer ones when traced."""
    traced = report["per_layer"] is not None
    units = LAYER_UNITS if traced else END_TO_END
    values = report["per_layer" if traced else "end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            key: {"value": statistics.median(values[key]), "unit": unit}
            for key, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics from traced executions")
    args = parser.parse_args(argv)
    if not use_checkout():
        print("run from the repository root: src/leandecomp and tests/ are needed", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            report = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(report)
            results[name] = result_line(report)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
