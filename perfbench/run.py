"""qclab benchmark: one workload, one seed, fresh processes throughout.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

Run from the root of a qclab checkout.  Workloads (see NOTES.md for why):

  verify-all   `qclab verify-all` on a generated config with run.seed = seed
  spectrum     library API: k = 8 harmonic eigenpairs at n = 2401, 10001,
               40001, the polar layer and the oscillator identity on each;
               the seed draws omega
  cli-configs  the seven shipped configs/, each as its own `qclab
               <subcommand> --seed <seed>` process

Each repetition is a fresh child process (child.py), read with os.wait4 so
its wall time and rusage are its own.  The run repeats the workload until
--seconds have been spent; every SETUP_EVERY_S it also times a process
that only imports qclab.cli (setup_s).  With --trace 1 it alternates untraced
and traced repetitions and reports the per-layer metrics of BENCHMARK.json
instead of the end-to-end ones.  Every repetition is checked by gates.py;
the last line of stdout is the JSON result.
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gates
import metrics

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# the VM's speed switches between regimes on a 5-20 s scale, so setup
# samples are spread over the run instead of taken in one burst
SETUP_EVERY_S = 5.0
HARD_LIMIT_S = 165.0  # the whole run must end within 180 s
OMEGA_RANGE = (0.95, 1.05)


@dataclass
class Proc:
    label: str
    code: int
    wall_s: float
    rusage: object
    out: Path
    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    digest: str = None
    spans: list = None
    artifact_bytes: int = 0
    log_tail: str = ""


class Bench:
    def __init__(self, root, workload, seed, sample_setup):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.setup = []
        self.setup_due = time.perf_counter() if sample_setup else float("inf")
        self.work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.counter = 0

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def run(self, label, args, out, traced=False):
        """spawn() a workload process, after a setup sample if one is due."""
        if time.perf_counter() >= self.setup_due:
            self.setup.append(self.spawn_setup())
            self.setup_due = time.perf_counter() + SETUP_EVERY_S
        return self.spawn(label, args, out, traced)

    def spawn_setup(self):
        proc = self.spawn("setup", ["setup"], None)
        if proc.code != 0:
            proc.failures.append(f"setup: importing qclab.cli exited {proc.code}")
        return proc

    def spawn(self, label, args, out, traced=False):
        """Run child.py with args in a fresh interpreter; wall and rusage
        are the child's own."""
        self.counter += 1
        if out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
        log = self.work / f"{self.counter:03d}-{label}.log"
        spans_path = self.work / f"{self.counter:03d}-{label}.spans.json"
        prefix = ["--trace", str(spans_path), f"{self.workload}/{self.seed}/{self.counter}"] if traced else []
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), *prefix, *args],
                cwd=self.root, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Proc(label, proc.returncode, wall, rusage, out)
        if result.code != 0:
            result.log_tail = " | ".join(log.read_text(errors="replace").strip().splitlines()[-3:])
        if traced and spans_path.exists():
            result.spans = json.loads(spans_path.read_text())["spans"]
        return result


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# --- workloads: each returns the processes of one repetition, judged --------


def rep_verify_all(bench, rep_dir, traced):
    config = bench.work / "verify.config"
    if not config.exists():
        config.write_text(f"run.seed = {bench.seed}\n")
    out = rep_dir / "verify-all"
    proc = bench.run("verify-all", ["cli", "verify-all", "--config", str(config), "--out", str(out)], out, traced)
    proc.artifact_bytes = _dir_bytes(out)
    report = _read_json(out / "report.json")
    if report is None:
        proc.failures.append(f"verify-all exited {proc.code} without a report.json")
        return [proc]
    proc.failures += gates.verify_all_failures(proc.code, report)
    proc.checks = report["checks"]
    proc.digest = gates.digest(report)
    return [proc]


def rep_spectrum(bench, rep_dir, traced):
    omega = random.Random(bench.seed).uniform(*OMEGA_RANGE)
    out = rep_dir / "spectrum.json"
    args = ["spectrum", repr(omega), str(gates.SPECTRUM_K), str(out), *map(str, gates.SPECTRUM_GRIDS)]
    proc = bench.run("spectrum", args, out, traced)
    result = _read_json(out)
    if result is None:
        proc.failures.append(f"spectrum exited {proc.code} without a result")
        return [proc]
    proc.failures += gates.spectrum_failures(proc.code, result)
    proc.checks = gates.spectrum_checks(result)
    return [proc]


def rep_cli_configs(bench, rep_dir, traced):
    procs = []
    for config, (subcommand, _) in gates.CLI_CONFIGS.items():
        out = rep_dir / config
        args = ["cli", subcommand, "--config", f"configs/{config}.config", "--out", str(out), "--seed", str(bench.seed)]
        proc = bench.run(config, args, out, traced)
        proc.artifact_bytes = _dir_bytes(out)
        report = _read_json(out / "report.json")
        if report is None:
            proc.failures.append(f"{config}: exited {proc.code} without a report.json")
        else:
            proc.failures += gates.cli_failures(config, proc.code, report, out)
            proc.checks = report["checks"]
        procs.append(proc)
    return procs


WORKLOADS = {
    "verify-all": rep_verify_all,
    "spectrum": rep_spectrum,
    "cli-configs": rep_cli_configs,
}


# --- the run -----------------------------------------------------------------


def repeat(bench, seconds, trace):
    """Repetitions until `seconds` are spent; with trace, (untraced, traced)
    pairs.  Returns (untraced reps, traced reps), each a list of Proc lists."""
    rep_fn = WORKLOADS[bench.workload]
    plain, traced = [], []
    start = time.perf_counter()
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        estimate = statistics.median(durations) if durations else 0.0
        reps_done = len(durations)
        # verify-all's digest check needs two processes of one seed; a
        # traced run has them in its first (untraced, traced) pair.  A rep
        # starts while half of it fits, so long reps still get repeated.
        if reps_done >= (1 if trace else 2) and elapsed + estimate / 2 > seconds:
            break
        if estimate > bench.remaining() - 2.0:
            break
        begun = time.perf_counter()
        rep_dir = bench.work / f"rep{reps_done:03d}"
        plain.append(rep_fn(bench, rep_dir / "plain", False))
        if trace:
            traced.append(rep_fn(bench, rep_dir / "traced", True))
        shutil.rmtree(rep_dir, ignore_errors=True)
        durations.append(time.perf_counter() - begun)
    return plain, traced


def _rep_wall(procs):
    return sum(p.wall_s for p in procs)


def _summary(name, values, unit):
    q1, q2, q3 = metrics.quartiles(values)
    return f"{name:42s} median {q2:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:6s} n={len(values)}"


def end_to_end(setup, plain):
    checks_per_rep = [[c for p in procs for c in p.checks] for procs in plain]
    return {
        "wall_s": [_rep_wall(procs) for procs in plain],
        "setup_s": [p.wall_s for p in setup],
        "peak_rss_mb": [max(p.rusage.ru_maxrss for p in procs) / 1024.0 for procs in plain],
        "accuracy_ratio": [gates.accuracy_ratio(checks) for checks in checks_per_rep],
    }


def per_layer(plain, traced):
    samples = {}
    for procs in traced:
        rep = metrics.layer_metrics(
            [{"spans": p.spans or [], "wall_s": p.wall_s, "artifact_bytes": p.artifact_bytes} for p in procs]
        )
        for key, value in rep.items():
            samples.setdefault(key, []).append(value)
    samples["process.minflt"] = [sum(p.rusage.ru_minflt for p in procs) for procs in plain]
    samples["process.sys_s"] = [sum(p.rusage.ru_stime for p in procs) for procs in plain]
    samples["process.user_s"] = [sum(p.rusage.ru_utime for p in procs) for procs in plain]
    untraced = statistics.median(_rep_wall(procs) for procs in plain)
    samples["trace.overhead_s"] = [w - untraced for w in samples["trace.wall_s"]]
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/qclab/cli.py", "configs", "BENCHMARK.json") if not (root / p).exists()]
    if missing:
        print(f"run.py: not a qclab checkout (missing {', '.join(missing)}); run it from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(root, args.workload, args.seed, sample_setup=not args.trace)
    try:
        # the first import may compile bytecode; it is not a setup sample
        warmup = bench.spawn_setup()
        plain, traced = repeat(bench, args.seconds, args.trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    if args.workload == "verify-all":
        reps = plain + traced
        for index, message in gates.digest_failures([procs[0].digest for procs in reps]).items():
            reps[index][0].failures.append(message)

    all_procs = [warmup, *bench.setup] + [p for procs in plain + traced for p in procs]
    failed = [p for p in all_procs if p.failures]
    for proc in failed:
        for message in proc.failures:
            print(f"FAILED {message}")
        if proc.log_tail:
            print(f"  output: {proc.log_tail}")

    samples = per_layer(plain, traced) if args.trace else end_to_end(bench.setup, plain)
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)}"
          f"{f' + {len(traced)} traced' if traced else ''}  error_rate {len(failed)}/{len(all_procs)}")
    result = {}
    for metric in wanted:
        values = samples.get(metric["name"]) or [0.0]
        print(_summary(metric["name"], values, metric["unit"]))
        result[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    if args.trace:
        wall = statistics.median(samples["trace.wall_s"])
        for layer in metrics.LAYERS:
            share = metrics.ratio(statistics.median(samples[f"{layer}.busy_s"]), wall)
            print(f"share of traced wall_s in {layer:16s} {share['value']:8.2%}  (base {share['base']:.4g} s)")
    print(json.dumps({"correct": not failed, "attempted": len(all_procs), "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
