"""Run one banditbounds CLI campaign in this process and report its timings.

Usage::

    python3 perfbench/child.py REPORT SPANS START_NS -- <banditbounds CLI args>

START_NS is the parent's ``time.monotonic_ns()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start, imports, argument
parsing and ``validate()``: everything until the campaign runner is entered.
REPORT receives a JSON object with the setup and runner wall times, the
import time and the peak resident set size.  When SPANS is not ``-``, the
public entry points the harness calls are wrapped from outside, one span per
call (name, start, end, parent index) is kept in memory, and the spans are
written to SPANS as CSV when the campaign ends.  The child exits with the
CLI's own exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (harness attribute, span name).  Each function is patched where the
# harness looks it up at call time, so every call the harness makes is seen.
TRACED = (
    ("run_game", "bandit.run_game"),
    ("certificate_sweep", "harness.certificate_sweep"),
    ("prediction_regret", "harness.prediction_regret"),
    ("_write_csv", "harness.write"),
    ("_write_manifest", "harness.write"),
    ("write_trace_csv", "harness.write"),
    ("gap_driver_report", "bounds.gap_driver_report"),
    ("regret_envelope", "bounds.regret_envelope"),
    ("expsum_ratio", "bounds.expsum_ratio"),
    ("bernoulli_kl_vec", "divergences.bernoulli_kl_vec"),
    ("bernoulli_kl_moment", "concentration.bernoulli_kl_moment"),
    ("convex_domination_gap", "concentration.convex_domination_gap"),
    ("simulate_profile_walks", "concentration.simulate_profile_walks"),
)
ROOT_SPAN = "harness.self"


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self._stack: list[int] = []
        self.rounds_played = 0

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.monotonic_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def count_rounds(self, run_game):
        def counted(env, horizon, *args, **kwargs):
            self.rounds_played += int(horizon)
            return run_game(env, horizon, *args, **kwargs)

        return counted

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def main(argv: list[str]) -> int:
    report_path, spans_path, start_ns = argv[0], argv[1], int(argv[2])
    if argv[3] != "--":
        raise SystemExit("usage: child.py REPORT SPANS START_NS -- CLI ARGS")
    cli_args = argv[4:]

    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.monotonic_ns()
    import banditbounds.cli as cli
    from banditbounds import harness

    import_ns = time.monotonic_ns() - import_start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"banditbounds imported from {cli.__file__}, not from {ROOT / 'src'}")

    tracer = Tracer() if spans_path != "-" else None
    untraced = []
    if tracer is not None:
        for attr, name in TRACED:
            if not hasattr(harness, attr):
                # A refactor removed this entry point; its time shows as harness self time.
                untraced.append(attr)
                continue
            wrapped = tracer.wrap(getattr(harness, attr), name)
            if attr == "run_game":
                wrapped = tracer.count_rounds(wrapped)
            setattr(harness, attr, wrapped)

    times: dict = {}
    mode = cli_args[0]
    runner = cli._RUNNERS[mode]
    if tracer is not None:
        runner = tracer.wrap(runner, ROOT_SPAN)

    def timed_runner(cfg):
        times["enter_ns"] = time.monotonic_ns()
        try:
            return runner(cfg)
        finally:
            times["exit_ns"] = time.monotonic_ns()

    cli._RUNNERS[mode] = timed_runner
    code = cli.main(cli_args)
    sys.stdout.flush()

    report = {
        "setup_s": (times["enter_ns"] - start_ns) / 1e9 if times else None,
        "wall_s": (times["exit_ns"] - times["enter_ns"]) / 1e9 if times else None,
        "import_s": import_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds_played": tracer.rounds_played if tracer is not None else None,
        "untraced": untraced,
    }
    if tracer is not None:
        tracer.write(spans_path)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
