"""Benchmark of the documented streamcolor CLI path: generate -> color -> verify.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.

--trace 0 runs every operation as a child process, one at a time, and
reports the end-to-end metrics.  --trace 1 runs the same commands in
process through streamcolor.cli.main, alternating untraced and traced
cycles, and reports the per-layer metrics (see spans.py).  Both modes
generate the workload's stream from --seed during set-up, repeat the
workload's color/verify cycle for --seconds, and check every operation.
The last line of stdout is one JSON object; BENCHMARK.json names and
units its metrics.  perfbench/README.md gives the workload rationale.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

DEFAULT_SEED = 1  # the seed whose output bytes digests.json pins
SETUP_REPEATS = 5  # set-up is timed this often per run; the median is reported
RUN_DEADLINE_S = 150.0  # a run must end within 180 s; children are killed past this

CLI = "import sys; from streamcolor.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    generate: tuple[str, ...]  # `streamcolor generate` flags besides seed/out
    colors: dict[str, tuple[str, ...]]  # label -> `streamcolor color` flags

    @property
    def dynamic(self) -> bool:
        return any("--dynamic" in flags for flags in self.colors.values())


# Shapes and the reasons for them are in README.md.  Pass-1 kernel work
# grows as n^2 / 4, parse and validation as the update count m, and the
# sketch field leaves int64 once n >= 1730.
WORKLOADS = {
    "sparse": Workload(
        ("--n", "8000", "--delta", "32"),
        {"two-pass": ("--alg", "two-pass"), "iterative": ("--alg", "iterative")},
    ),
    "dense": Workload(
        ("--n", "2000", "--delta", "300"),
        {"unknown-delta": ("--unknown-delta",), "iterative": ("--alg", "iterative")},
    ),
    "dynamic": Workload(
        ("--n", "1760", "--delta", "16", "--density", "0.1", "--dynamic", "0.2"),
        {
            "two-pass": ("--alg", "two-pass", "--dynamic"),
            "iterative": ("--alg", "iterative", "--dynamic"),
        },
    ),
}


@dataclass
class Op:
    code: int
    wall_s: float
    rss_mb: float = 0.0
    err: str = ""


class ChildRunner:
    """Runs one CLI command as a child process and waits for it.

    Wall time runs from spawn to exit; peak RSS comes from the child's
    rusage.  A child still running at the run deadline is killed.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.timed_out = False
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def _kill(self, pid: int) -> None:
        self.timed_out = True
        os.kill(pid, signal.SIGKILL)

    def __call__(self, argv: list[str]) -> Op:
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI, *argv],
                cwd=self.work,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            # the child stays a zombie until wait4 below, so the timer can
            # never signal a reused pid
            timer = threading.Timer(
                max(0.0, self.deadline - monotonic()), self._kill, (proc.pid,)
            )
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = perf_counter() - start
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                timer.cancel()
                timer.join()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        lines = err_path.read_text(errors="replace").strip().splitlines()
        return Op(proc.returncode, wall, usage.ru_maxrss / 1024, lines[-1] if lines else "")


class InProcessRunner:
    """Runs one CLI command through streamcolor.cli.main in this process.

    While `tracer` is set, the call is a root span named cli.<command>.
    """

    def __init__(self):
        from streamcolor import cli

        self.cli = cli
        self.tracer = None
        self.timed_out = False

    def __call__(self, argv: list[str]) -> Op:
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(sink):
            try:
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    with self.tracer.span(f"cli.{argv[0]}"):
                        code = self.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback fails this operation, not the run
                code = 1
                sink.write(traceback.format_exc())
        wall = perf_counter() - start
        lines = sink.getvalue().strip().splitlines()
        return Op(code, wall, 0.0, lines[-1] if lines else "")


@dataclass
class Ledger:
    """Operations attempted and failed; a failure is never retried."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ceil_log_3_2(x: int) -> int:
    """Smallest t with (3/2)^t >= x, for x >= 1."""
    t, num, den = 0, 1, 1
    while num < x * den:
        t, num, den = t + 1, num * 3, den * 2
    return t


def pass_bound(report: dict) -> int:
    """Documented pass count: two for the two-pass colorers; for the
    iterative one, two per round over at most ceil(log_{3/2} delta) + 1
    rounds, plus the final pass."""
    if report["algorithm"] == "iterative":
        return 2 * (ceil_log_3_2(max(report["delta"], 1)) + 1) + 1
    return 2


def exit_problems(op: Op) -> list[str]:
    return [] if op.code == 0 else [f"exit {op.code}: {op.err}"]


def digest_problems(pinned: dict | None, key: str, path: Path) -> list[str]:
    if pinned is None:
        return []
    got = sha256(path) if path.is_file() else "(no file)"
    if pinned.get(key) != got:
        return [f"{key} sha256 {got} != pinned {pinned.get(key)}"]
    return []


def color_problems(op: Op, colors: Path, report_path: Path) -> list[str]:
    problems = exit_problems(op)
    if problems:
        return problems
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    if not colors.is_file():
        problems.append("no coloring file")
    if report["max_color_used"] > report["palette_bound"]:
        problems.append(
            f"max_color_used {report['max_color_used']} > "
            f"palette_bound {report['palette_bound']}"
        )
    if report["passes"] > pass_bound(report):
        problems.append(f"passes {report['passes']} > bound {pass_bound(report)}")
    return problems


def count_updates(stream: Path) -> int:
    if not stream.is_file():
        return 0
    return sum(1 for line in stream.open() if line[:1] in "+-")


def final_graph_stream(src: Path, dst: Path) -> None:
    """Write the insertion-only stream of src's final graph, edges sorted."""
    header, present = [], set()
    for line in src.read_text().splitlines():
        parts = line.split()
        if parts and parts[0] in ("+", "-"):
            u, v = sorted((int(parts[1]), int(parts[2])))
            (present.add if parts[0] == "+" else present.remove)((u, v))
        elif parts:
            header.append(line)
    body = [f"+ {u} {v}" for u, v in sorted(present)]
    dst.write_text("\n".join(header + body) + "\n")


class Session:
    """One run of one workload: set-up, the timed cycles, the checks."""

    def __init__(self, name: str, seed: int, work: Path, run):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.run = run
        self.ledger = Ledger()
        digests = json.loads((HERE / "digests.json").read_text())
        self.pinned = digests[name] if seed == DEFAULT_SEED else None
        self.stream = work / "g.stream"
        self.references: dict[str, bytes] = {}

    def generate(self) -> Op:
        op = self.run(
            ["generate", "--seed", str(self.seed), *self.wl.generate,
             "--out", str(self.stream)]
        )
        problems = exit_problems(op) or digest_problems(self.pinned, "stream", self.stream)
        if not problems and not self.stream.is_file():
            problems = ["no stream file"]
        self.ledger.record("generate", problems)
        return op

    def build_references(self) -> float:
        """Dynamic workloads: color the final graph insertion-only once per
        algorithm; every dynamic coloring must match it byte for byte."""
        if not self.wl.dynamic:
            return 0.0
        start = perf_counter()
        final = self.work / "final.stream"
        if self.stream.is_file():
            final_graph_stream(self.stream, final)
        for label, flags in self.wl.colors.items():
            colors = self.work / f"ref-{label}.colors"
            report = self.work / f"ref-{label}.json"
            plain = [f for f in flags if f != "--dynamic"]
            op = self.run(
                ["color", "--in", str(final), *plain,
                 "--out", str(colors), "--report", str(report)]
            )
            self.ledger.record(f"reference {label}", color_problems(op, colors, report))
            if colors.is_file():
                self.references[label] = colors.read_bytes()
        return perf_counter() - start

    def color(self, label: str) -> Op:
        colors = self.work / f"{label}.colors"
        report = self.work / f"{label}.json"
        colors.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        op = self.run(
            ["color", "--in", str(self.stream), *self.wl.colors[label],
             "--out", str(colors), "--report", str(report)]
        )
        problems = color_problems(op, colors, report)
        if not problems:
            problems += digest_problems(self.pinned, f"{label}.colors", colors)
            problems += digest_problems(self.pinned, f"{label}.report", report)
            if self.wl.dynamic and colors.read_bytes() != self.references.get(label):
                problems.append("coloring differs from the insertion-only run")
        self.ledger.record(f"color {label}", problems)
        return op

    def verify(self, label: str) -> Op:
        colors = self.work / f"{label}.colors"
        op = self.run(["verify", "--in", str(self.stream), "--coloring", str(colors)])
        self.ledger.record(f"verify {label}", exit_problems(op))
        return op

    def cycle(self, samples: dict) -> None:
        """color then verify, once per color command of the workload."""
        for label in self.wl.colors:
            samples["color", label].append(self.color(label))
            samples["verify", label].append(self.verify(label))

    def timed_cycles(self, seconds: float, min_cycles: int = 1, around=None) -> list[dict]:
        """Whole cycles for about `seconds`: another cycle starts only
        while the mean cycle so far still fits.  `around(i)` gives the
        context cycle i runs in.  Returns each cycle's samples."""
        cycles = []
        start = monotonic()
        while True:
            samples = {(kind, label): [] for kind in ("color", "verify")
                       for label in self.wl.colors}
            with around(len(cycles)) if around else contextlib.nullcontext():
                self.cycle(samples)
            cycles.append(samples)
            elapsed = monotonic() - start
            if self.run.timed_out or (
                len(cycles) >= min_cycles
                and elapsed * (len(cycles) + 1) / len(cycles) > seconds
            ):
                return cycles


def walls(cycles: list[dict], kind: str, label: str) -> list[float]:
    return [op.wall_s for c in cycles for op in c[kind, label]]


def describe(values: list[float]) -> str:
    """Median with quartiles and sample count, for the printed table."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q[1]:.4f} s (q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={len(values)})"


def end_to_end(session: Session, seconds: float) -> dict:
    setup = [session.generate().wall_s for _ in range(SETUP_REPEATS)]
    updates = count_updates(session.stream)
    ref_s = session.build_references()
    cycles = session.timed_cycles(seconds)
    labels = list(session.wl.colors)
    color_s = sum(statistics.median(walls(cycles, "color", x)) for x in labels)
    verify_s = sum(statistics.median(walls(cycles, "verify", x)) for x in labels)
    rss = max(op.rss_mb for c in cycles for label in labels for op in c["color", label])
    led = session.ledger
    print(f"workload {session.name}  seed {session.seed}  cycles {len(cycles)}  "
          f"updates {updates}  reference runs {ref_s:.3f} s (untimed)")
    for kind in ("color", "verify"):
        for label in labels:
            print(f"  {kind:6s} {label:14s} {describe(walls(cycles, kind, label))}")
    print(f"  setup  {'generate':14s} {describe(setup)}")
    # verify_s and failed_frac are printed, not gated: verify on `dynamic`
    # is almost all interpreter start-up, and failed_frac is normally 0
    print(f"  color_s {color_s:.4f} s  verify_s {verify_s:.4f} s  "
          f"failed_frac {led.failed / led.attempted} ({led.failed}/{led.attempted})")
    return {
        "color_s": color_s,
        "path_s": color_s + verify_s,
        "color_updates_per_s": updates * len(labels) / color_s,
        "color_peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
        "ok_frac": 1 - led.failed / led.attempted,
    }


def span_metric(name: str) -> str:
    """Per-layer metric that a span's self time adds to."""
    if name == spans.COLORER:
        return "engine.colorer_self_s"
    if name.startswith("cli."):
        return "cli.unattributed_s"
    return f"{name}_s"


def command_self_times(tracer, command: str) -> Counter:
    """Self time per span name inside the root spans of one CLI command."""
    roots = [i for i, s in enumerate(tracer.spans) if s[3] is None] + [None]
    out: Counter = Counter()
    for first, last in zip(roots, roots[1:]):
        if tracer.spans[first][0] == f"cli.{command}":
            out += tracer.self_times(first, last)
    return out


def per_layer(session: Session, seconds: float, names: list[str]) -> dict:
    runner = session.run
    setup = spans.Tracer()
    with spans.patched(setup):
        session.generate()
    session.build_references()

    traced: list[spans.Tracer] = []

    def around(i: int):
        # untraced and traced cycles alternate, so both see the same
        # warm-up and machine state
        if i % 2 == 0:
            runner.tracer = None
            return contextlib.nullcontext()
        runner.tracer = spans.Tracer()
        traced.append(runner.tracer)
        return spans.patched(runner.tracer)

    cycles = session.timed_cycles(seconds, min_cycles=2, around=around)
    runner.tracer = None

    labels = list(session.wl.colors)
    color_time = [
        sum(op.wall_s for label in labels for op in c["color", label]) for c in cycles
    ]
    per_cycle = []
    for tracer in traced:
        # a layer the workload never enters reads 0
        values = dict.fromkeys(names, 0)
        for name, t in tracer.self_times().items():
            values[span_metric(name)] += t
        values.update(tracer.counts)
        values.update(tracer.maxima)
        per_cycle.append(values)
    out = {k: statistics.median(v[k] for v in per_cycle) for k in per_cycle[0]}
    setup_times = setup.self_times()
    for name in ("generator.generate_stream", "streamio.dumps_stream"):
        out[f"{name}_s"] = setup_times[name]
    candidates = out["recovery.decode_candidates"]
    out["recovery.root_yield"] = out["recovery.decoded_edges"] / candidates if candidates else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(color_time[1::2]) / statistics.median(color_time[0::2]) - 1
    )

    print(f"workload {session.name}  seed {session.seed}  cycles {len(cycles)} "
          f"({len(traced)} traced)  trace overhead {out['trace.overhead_frac']:+.3f}")
    for command in ("color", "verify"):
        times = sum((command_self_times(t, command) for t in traced), Counter())
        total = sum(times.values())
        print(f"  {command} self time by span, summed over traced cycles:")
        for name, t in times.most_common():
            print(f"    {name:28s} {t:9.4f} s  {t / total:6.1%}")
    spans_file = WORK / f"trace-{session.name}-seed{session.seed}.json"
    spans_file.write_text(json.dumps(
        {"setup": setup.spans, "traced_cycles": [t.spans for t in traced]}
    ))
    print(f"  spans written to {spans_file.relative_to(ROOT)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "streamcolor" / "cli.py").is_file():
        print(f"error: no streamcolor sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            runner = InProcessRunner()
            session = Session(args.workload, args.seed, work, runner)
            values = per_layer(session, args.seconds, names)
        else:
            runner = ChildRunner(work, monotonic() + RUN_DEADLINE_S)
            session = Session(args.workload, args.seed, work, runner)
            values = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    led = session.ledger
    for failure in led.failures[:10]:
        print(f"  FAILED {failure}")
    result = {
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
