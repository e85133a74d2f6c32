"""qchan benchmark: run the CLI workloads, check every output, print metrics.

    python3 bench/run.py --workload mc-quad --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  ``all`` runs the four workloads mc, quad, march and
closed-io one after another, each in its own process; BENCHMARK.json registers
the pairs mc-quad and march-io.  Each workload (see ``bench/workloads.py``) is a list of
``qchan.cli.main(argv)`` calls run in this process, one pass after another, in
a closed loop: a warm-up pass, then timed passes until ``--seconds`` have
passed (and at least 11, so a tail percentile has 10 samples beyond it).

Every pass is checked: the first pass that produces a given set of output
bytes is compared point by point with an independent reference, and later
passes with the same bytes (sha256) inherit that result.  A command fails on a
nonzero exit code, an exception, or a failed check.

Timings are taken against a reference: before each command and after the
last, the same fixed computation (``Reference``, numpy and the standard
library only, never qchan) is timed on the same thread.  On a shared 2-core
KVM guest the host's speed drifts by 20-50 % over seconds to minutes with
almost no steal time, and the drift slows the reference and the program
alike.  ``wall_rel`` is therefore a pass's command time in units of one
reference computation, measured alongside it; the raw seconds (``wall_s``,
``cpu_s``) are printed and recorded beside it.

``--trace 0`` measures with tracing off and reports the end-to-end metrics
named in BENCHMARK.json (plus failed_ratio, err_ratio and the raw seconds on
the screen).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json, derived from spans (``bench/tracing.py``).

Generated inputs, outputs, spans and a JSON record of each run (environment,
host steal ticks, per-command times, output sha256, checks) go to
``.bench_out/<workload>/``.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_PASSES = 11
MAX_MEASURE_S = 120.0  # keeps a badly regressed program inside the run deadline
SETUP_REPEATS = 9
TAIL_BEYOND = 10
REFERENCE_SIZE = 1500


def parse_args(argv=None):
    from workloads import PAIRS, WORKLOADS

    parser = argparse.ArgumentParser(description="qchan benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *PAIRS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ----------------------------------------------------------------- environment

def cpu_ticks():
    """(steal, total) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qchan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:  # the Monte Carlo worker pool may be removed by a later version
        from qchan._rng import worker_count

        mc_workers = worker_count()
    except ImportError:
        mc_workers = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "mc_workers": mc_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def time_setup() -> float:
    """Seconds from a fresh interpreter to ``import qchan.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import qchan.cli"], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - start


class Reference:
    """A fixed computation timed beside the program to track the host's speed.

    It mixes what the workloads spend their time on: an interpreted loop of
    short complex dot products (the memory-kernel march), float formatting
    (the CSV writer) and vectorised transcendental functions and a sort.  It
    calls numpy and the standard library only, so no change to qchan moves it.
    One call takes ~10-20 ms here.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal(REFERENCE_SIZE) + 1j * rng.standard_normal(REFERENCE_SIZE)

    def __call__(self) -> float:
        np, a = self.np, self.a
        start = time.perf_counter()
        total = 0j
        for n in range(1, a.size):
            total += a[:n][::-1] @ a[:n]
        buf = io.StringIO()
        for x in a.real:
            buf.write(f"{x:.17g},{2.0 * x:.17g}\n")
        np.sort(np.abs(np.exp(1j * np.outer(a.real[:200], a.imag[:200]))), axis=None)
        return time.perf_counter() - start


# ---------------------------------------------------------------------- passes

def run_pass(commands, out_dir: Path, reference: Reference, tracer=None) -> dict:
    """Run every command once; wall and CPU seconds of the commands, the mean
    time of the reference computations run before each command and after the
    last, and per command (exit code, error, stdout, seconds).  Outputs of
    the previous pass are removed first, so a command that writes nothing
    cannot pass its check."""
    from qchan import cli

    for command in commands:
        for name in command.outputs:
            (out_dir / name).unlink(missing_ok=True)
    results = []
    wall = cpu = 0.0
    references = []
    for command in commands:
        references.append(reference())
        argv = list(command.argv)
        captured = io.StringIO()
        code, error = None, None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(captured):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", cli.main, (argv,))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command; keep measuring
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        wall += seconds
        cpu += time.process_time() - cpu_start
        results.append({"code": code, "error": error, "stdout": captured.getvalue(),
                        "seconds": seconds})
    references.append(reference())
    return {"wall": wall, "cpu": cpu, "ref": statistics.fmean(references), "commands": results}


class Verifier:
    """Checks outputs; a given (output bytes, stdout) is checked once."""

    def __init__(self, commands, out_dir: Path):
        self.commands = commands
        self.out_dir = out_dir
        self.seen = [dict() for _ in commands]  # per command: digest -> verdict
        self.attempted = 0
        self.failed = 0

    def _verdict(self, command, stdout):
        from workloads import Check, read_csv

        digests, files, rows, size = {}, {}, 0, 0
        try:
            for name in command.outputs:
                data = (self.out_dir / name).read_bytes()
                digests[name] = hashlib.sha256(data).hexdigest()
                size += len(data)
                files[name] = read_csv(self.out_dir / name)
                rows += len(files[name]["t"])
            checks = command.check(files, stdout)
        except Exception:
            checks = [Check("read or check outputs", math.nan, False, traceback.format_exc(limit=2))]
        return {"sha256": digests, "checks": checks, "rows": rows, "bytes": size}

    def verify(self, result) -> list:
        """Verdicts of one pass, in command order; counts attempts and failures."""
        verdicts = []
        for i, (command, run) in enumerate(zip(self.commands, result["commands"])):
            key = hashlib.sha256(run["stdout"].encode())
            for name in command.outputs:
                path = self.out_dir / name
                key.update(path.read_bytes() if path.is_file() else b"\0missing")
            key = key.hexdigest()
            if key not in self.seen[i]:
                self.seen[i][key] = self._verdict(command, run["stdout"])
            verdict = self.seen[i][key]
            ok = run["code"] == 0 and run["error"] is None and all(c.ok for c in verdict["checks"])
            self.attempted += 1
            self.failed += not ok
            if not ok and not verdict.get("reported"):
                verdict["reported"] = True
                bad = [f"{c.label} ({c.where}, ratio {c.ratio:.3g})" for c in verdict["checks"] if not c.ok]
                print(f"FAILED {' '.join(command.argv[:2])}: exit code {run['code']}; "
                      f"{run['error'] or ''}failed checks: {'; '.join(bad) or 'none'}", file=sys.stderr)
            verdicts.append(verdict)
        return verdicts

    def combined_digest(self) -> str:
        """sha256 over the output digests of the first checked pass."""
        digest = hashlib.sha256()
        for seen in self.seen:
            for name, value in sorted(next(iter(seen.values()))["sha256"].items()):
                digest.update(f"{name} {value}\n".encode())
        return digest.hexdigest()

    def worst_ratio(self):
        ratios = [c.ratio for seen in self.seen for v in seen.values()
                  for c in v["checks"] if math.isfinite(c.ratio)]
        return max(ratios) if ratios else math.nan

    def checks(self) -> list:
        return [
            {"label": c.label, "ratio": c.ratio, "ok": c.ok, "where": c.where}
            for seen in self.seen for v in seen.values() for c in v["checks"]
        ]


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  With too few samples, the minimum."""
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


# --------------------------------------------------------------------- workload

def measure(args, commands, out: Path, verifier: Verifier, reference: Reference, tracer) -> dict:
    """Timed passes for ``args.seconds`` (and at least MIN_PASSES); with a
    tracer, every second pass is traced and yields a row of layer metrics.
    Without one, the set-up time is taken between the first SETUP_REPEATS
    passes, so that it samples the host over the run as the passes do; it
    does not count towards ``args.seconds``."""
    import tracing

    plain, traced, layer_rows, setup_times = [], [], [], []
    ticks_start = cpu_ticks()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - sum(setup_times)
        count = len(plain) + len(traced)
        if (elapsed >= args.seconds and count >= MIN_PASSES) or elapsed >= MAX_MEASURE_S:
            break
        if tracer is None and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup())
        if tracer is None or count % 2 == 0:
            result = run_pass(commands, out, reference)
            verifier.verify(result)
            plain.append(result)
            continue
        first = len(tracer.spans)
        tracer.install()
        try:
            result = run_pass(commands, out, reference, tracer)
        finally:
            tracer.uninstall()
        verdicts = verifier.verify(result)
        row = tracing.layer_metrics(tracer.spans[first:])
        row["cli.rows"] = sum(v["rows"] for v in verdicts)
        row["cli.write_bytes"] = sum(v["bytes"] for v in verdicts)
        row["trace.accounted_ratio"] = sum(row[m] for m in tracing.SELF_TIMES) / result["wall"]
        layer_rows.append(row)
        traced.append(result)
    ticks_end = cpu_ticks()
    host = None
    if ticks_start and ticks_end:
        host = {"steal_ticks": ticks_end[0] - ticks_start[0], "total_ticks": ticks_end[1] - ticks_start[1]}
    return {"plain": plain, "traced": traced, "layer_rows": layer_rows, "host_ticks": host,
            "setup_times": setup_times, "start": start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def summarize(run: dict, verifier: Verifier):
    """Metric values and the notes printed beside them."""
    plain, setup_times = run["plain"], run["setup_times"]
    walls = [p["wall"] for p in plain]
    relative = [p["wall"] / p["ref"] for p in plain]
    tail_value, tail_pct, tail_beyond = tail(walls)
    rel_tail_value, _, _ = tail(relative)
    values = {
        "failed_ratio": verifier.failed / verifier.attempted,
        "err_ratio": verifier.worst_ratio(),
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "wall_rel": statistics.median(relative),
        "wall_rel.tail": rel_tail_value,
        "cpu_rel": statistics.median(p["cpu"] / p["ref"] for p in plain),
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_value,
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "ref_s": statistics.median(p["ref"] for p in plain),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    passes = f"{len(walls)} passes"
    beyond = f"p{tail_pct:.1f} of {passes}, {tail_beyond} beyond"
    notes = {
        "failed_ratio": f"{verifier.failed}/{verifier.attempted} commands",
        "err_ratio": "worst |output - reference| / tolerance",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "wall_rel": f"command time / reference time, median of {passes}",
        "wall_rel.tail": beyond,
        "cpu_rel": "process CPU (all threads) / reference time, median",
        "wall_s": f"median of {passes}",
        "wall_s.tail": beyond,
        "cpu_s": "process CPU, all threads, median",
        "ref_s": "one reference computation, median",
    }
    rows = run["layer_rows"]
    if rows:
        for name in rows[0]:
            values[name] = statistics.median(r[name] for r in rows)
        values["trace.wall_s"] = statistics.median(p["wall"] for p in run["traced"])
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
        notes["trace.wall_s"] = f"median of {len(rows)} traced passes"
    return values, notes


def run_workload(args, spec) -> int:
    import tracing
    import workloads

    base = ROOT / ".bench_out" / args.workload
    # Commands name their files relative to the run directory: the CLI echoes
    # paths into its outputs, and the output bytes must not depend on where
    # the checkout lives.
    inputs, out = Path("in"), Path("out")
    for directory in (base / inputs, base / out):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    os.chdir(base)

    commands = workloads.build(args.workload, args.seed, inputs, out)
    verifier = Verifier(commands, out)
    reference = Reference()
    verifier.verify(run_pass(commands, out, reference))  # warm-up
    tracer = tracing.Tracer() if args.trace else None
    run = measure(args, commands, out, verifier, reference, tracer)
    if tracer is not None:
        tracer.write(base / "spans.jsonl", run["start"])
    values, notes = summarize(run, verifier)

    reported = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    raw = () if args.trace else ("wall_s", "wall_s.tail", "cpu_s", "ref_s")
    units = {"failed_ratio": "ratio", "err_ratio": "ratio", **{n: "s" for n in raw}, **reported}
    env = environment()
    host = run["host_ticks"] or {"steal_ticks": "n/a", "total_ticks": "n/a"}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(run['plain'])} untraced, "
          f"{len(run['traced'])} traced  nproc {env['nproc']}  mc_workers {env['mc_workers']}  "
          f"host steal {host['steal_ticks']}/{host['total_ticks']} ticks  "
          f"outputs sha256 {verifier.combined_digest()[:16]}")
    for name in ("failed_ratio", "err_ratio", *raw, *reported):
        value = values.get(name)
        if value is None:
            text = "n/a"
        elif units[name] in ("count", "bytes"):
            text = f"{value:.0f}"
        else:
            text = f"{value:.6g}"
        print(f"  {name:32s} {text:>14s} {units[name]:6s} {notes.get(name, '')}")

    plain = run["plain"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "host_ticks": run["host_ticks"],
        "setup_times_s": run["setup_times"],
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_cpu_s": [p["cpu"] for p in plain],
        "pass_reference_s": [p["ref"] for p in plain],
        "traced_pass_wall_s": [p["wall"] for p in run["traced"]],
        "commands": [
            {"argv": list(c.argv), "median_s": statistics.median(p["commands"][i]["seconds"] for p in plain)}
            for i, c in enumerate(commands)
        ],
        "outputs_sha256": [
            {"argv": list(c.argv), "sha256": v["sha256"]}
            for c, seen in zip(commands, verifier.seen) for v in seen.values() if v["sha256"]
        ],
        "checks": verifier.checks(),
        "metrics": {n: {"value": v, "unit": units.get(n, "s")} for n, v in values.items()},
    }
    (base / f"record_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    missing = [n for n in reported if values.get(n) is None]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": verifier.failed == 0 and not values["err_ratio"] > 1.0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {n: {"value": values[n], "unit": reported[n]} for n in reported},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qchan" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no qchan sources under {SRC} (or no BENCHMARK.json); nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
