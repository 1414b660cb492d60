"""Benchmark runner for skewgalois: one client in a closed loop, each job
started only after the previous one returned.

    python3 perfbench/run.py --workload ore-large --seed 1 --seconds 12 --trace 0

Jobs run the way the CLI runs them, through `skewgalois.cli.run(argv)` with
stdout captured, so JSON parsing, table validation and output are timed
too.  Every output is checked by `oracle.py`.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
The lines before it repeat the metrics by name and unit with their sample
counts, the tail percentile and a digest of the workload's stdout.

The program is imported from `src/` of the checkout holding this file;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as workloads
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 3   # set-ups per run: this process plus fresh child processes
COLD_SAMPLES = 5    # fresh `python -m skewgalois` processes per run
CHILD_TIMEOUT = 150


# The host's speed moves by up to 1.8x over minutes (other tenants share its
# cores), far beyond the bounds.  Every end-to-end time is therefore scaled
# to a reference host speed: multiplied by PROBE_REFERENCE_S over the time a
# fixed pure-Python loop takes just before and just after the timed work.
# The raw times are printed beside the metrics.
PROBE_LOOP = 100_000
PROBE_REFERENCE_S = 0.0075  # the probe's typical time on the 2-vCPU Xeon host


def probe() -> float:
    """Seconds for PROBE_LOOP multiply-adds, the fastest of five: a slowdown
    shorter than the probe only ever lengthens some of the five."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t)
    return min(times)


def at_reference_speed(fn):
    """Run fn(); return its result and the factor that scales times taken
    during it to the reference host speed."""
    before = probe()
    result = fn()
    return result, 2 * PROBE_REFERENCE_S / (before + probe())


class ProgramMissing(Exception):
    pass


def load_program():
    """Import skewgalois from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import skewgalois.cli as cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import skewgalois from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"skewgalois was imported from {cli.__file__}, not from {SRC}")
    return cli


def modulus_of(p: int, n: int):
    from skewgalois.ffield import make_field

    return make_field(p, n).modulus


class Runner:
    """Runs jobs in-process, capturing stdout; returns (exit code, stdout)."""

    def __init__(self, cli):
        self.cli = cli
        from skewgalois import orepoly

        self.orepoly = orepoly

    def argv(self, job, outputs: list[str]) -> list[str]:
        if job.report_of is not None:
            return ["verify-report", "--report", outputs[job.report_of]]
        return job.argv

    def run(self, job, outputs: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job.kind == "ore.left_divmod":
                    self._left_divmod(*job.argv)
                    rc = 0
                else:
                    rc = self.cli.run(self.argv(job, outputs))
        except Exception as exc:  # a crash is a failed job, not a failed run
            return -1, f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue()

    def _left_divmod(self, f_json: str, g_json: str) -> None:
        # the CLI has no verb for left division; same parse and output path
        op = self.orepoly
        f = op.ore_poly_from_json(json.loads(f_json))
        g = op.ore_poly_from_json(json.loads(g_json))
        res = op.ore_left_divmod(f, g)
        payload = {"quotient": res.quotient.to_json(), "remainder": res.remainder.to_json()}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def setup(workload: str, seed: int, tiny: bool):
    """Imports, input generation and one warm-up of each job kind."""
    t0 = time.perf_counter()
    cli = load_program()
    wl = workloads.build(workload, seed, tiny)
    runner = Runner(cli)
    outputs: list[str] = []
    for job in wl.warmup:
        rc, out = runner.run(job, outputs)
        if rc != 0:
            raise RuntimeError(f"warm-up {job.kind} failed: {out.strip()[:200]}")
        outputs.append(out)
    return time.perf_counter() - t0, wl, runner


def child_setup(workload: str, seed: int, tiny: bool) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


@dataclass
class Pass:
    seconds: float
    latencies: list[float]  # scaled to the reference host speed
    outputs: list[tuple[int, str]]  # (exit code, stdout) per job
    factor: float


def run_pass(runner: Runner, wl, tracer: spans.Tracer | None = None) -> Pass:
    def timed():
        outputs: list[tuple[int, str]] = []
        stdouts: list[str] = []
        latencies = []
        gc.collect()  # every pass starts from the same collector state
        t_pass = time.perf_counter()
        for job in wl.jobs:
            t = time.perf_counter()
            if tracer is None:
                rc, out = runner.run(job, stdouts)
            else:
                rc, out = tracer.job(lambda: runner.run(job, stdouts))
            latencies.append(time.perf_counter() - t)
            outputs.append((rc, out))
            stdouts.append(out)
        return time.perf_counter() - t_pass, latencies, outputs

    (seconds, latencies, outputs), factor = at_reference_speed(timed)
    return Pass(seconds, [x * factor for x in latencies], outputs, factor)


class Checker:
    """Checks the first pass with the oracle; later passes must repeat its
    output byte for byte."""

    def __init__(self, wl):
        self.wl = wl
        self.reference: list[tuple[int, str]] | None = None
        self.bad: list[str | None] = []
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, p: Pass) -> None:
        if self.reference is None:
            self.reference = p.outputs
            self.bad = [oracle.check_job(job, rc, out, modulus_of)
                        for job, (rc, out) in zip(self.wl.jobs, p.outputs)]
            oracle.release()  # its tables would slow the collector in later passes
        for i, (job, got) in enumerate(zip(self.wl.jobs, p.outputs)):
            self.attempted += 1
            reason = self.bad[i] or (None if got == self.reference[i] else "output differs between passes")
            if reason:
                self.failures.append(f"job {i} ({job.kind}): {reason}")

    def digest(self) -> str:
        return hashlib.sha256("".join(out for _, out in self.reference).encode()).hexdigest()


def passes_for(seconds: int, wl, tiny: bool) -> int:
    """A fixed pass count per run length, so that every run pools the same
    number of samples whatever the machine's speed."""
    if tiny:
        return 2
    return max(3, round(seconds / wl.pass_seconds))


class ColdRunner:
    """Runs the workload's cold-start job as a fresh `python -m skewgalois`
    process; the first output is checked, later ones must repeat it."""

    def __init__(self, wl, checker: Checker):
        self.wl, self.checker = wl, checker
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.first: str | None = None
        self.raw: list[float] = []
        self.times: list[float] = []  # scaled to the reference host speed

    def run(self) -> None:
        job = self.wl.cold

        def timed():
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "skewgalois", *job.argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            return proc, time.perf_counter() - t

        (proc, seconds), factor = at_reference_speed(timed)
        self.raw.append(seconds)
        self.times.append(seconds * factor)
        self.checker.attempted += 1
        if self.first is None:
            self.first = proc.stdout
            reason = oracle.check_job(job, proc.returncode, proc.stdout, modulus_of)
            oracle.release()
        else:
            reason = None if (proc.returncode == 0 and proc.stdout == self.first) else "cold output differs"
        if reason:
            self.checker.failures.append(f"cold {job.kind}: {reason}")


def job_medians(passes: list[Pass]) -> list[float]:
    """Each job's median latency across the passes."""
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def typical_pass(passes: list[Pass]) -> float:
    """Wall time of a typical warm pass: the sum of the per-job medians.
    Short swings of the host's speed move a median of a few whole-pass
    times far more than this sum."""
    return sum(job_medians(passes))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The sample with exactly ten samples above it, and its percentile."""
    xs = sorted(latencies)
    idx = max(0, len(xs) - 11)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, Checker, list[str]]:
    (setup_s, wl, runner), factor = at_reference_speed(lambda: setup(args.workload, args.seed, args.tiny))
    checker = Checker(wl)
    cold = ColdRunner(wl, checker)
    raw_setups, setups = [setup_s], [setup_s * factor]
    n_passes = passes_for(args.seconds, wl, args.tiny)

    # the extra set-ups and cold starts are spread between the passes, so
    # that every metric samples the whole run and not one stretch of it
    def child():
        seconds, factor = at_reference_speed(lambda: child_setup(args.workload, args.seed, args.tiny))
        raw_setups.append(seconds)
        setups.append(seconds * factor)

    colds = [cold.run] * (1 if args.tiny else COLD_SAMPLES)
    children = [child] * (1 if args.tiny else SETUP_SAMPLES - 1)
    extras = [f for pair in itertools.zip_longest(colds, children) for f in pair if f]
    passes = []
    for i in range(n_passes):
        p = run_pass(runner, wl)
        checker.add(p)
        passes.append(p)
        for j, extra in enumerate(extras):
            if j * n_passes // len(extras) == i:
                extra()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [x for p in passes for x in p.latencies]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "batch_s": metric(typical_pass(passes), "s"),
        "job_p50_ms": metric(1000 * statistics.median(job_medians(passes)), "ms"),
        "job_tail_ms": metric(1000 * tail_s, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "cli_cold_s": metric(statistics.median(cold.times), "s"),
    }
    notes = [
        f"passes {len(passes)} x {len(wl.jobs)} jobs; set-ups {len(setups)}; cold runs {len(cold.times)}",
        "raw pass seconds " + " ".join(f"{p.seconds:.3f}" for p in passes),
        "raw set-up seconds " + " ".join(f"{s:.3f}" for s in raw_setups),
        "raw cold-start seconds " + " ".join(f"{s:.3f}" for s in cold.raw),
        "reference-speed factors of the passes " + " ".join(f"{p.factor:.3f}" for p in passes),
        f"job_tail_ms is p{tail_pct:.1f} of {len(lat)} job latencies",
        "cold-start job: " + " ".join(wl.cold.argv[:1] + [a for a in wl.cold.argv[1:] if len(a) < 16]),
    ]
    return metrics, checker, notes


def per_layer(args) -> tuple[dict, Checker, list[str]]:
    _, wl, runner = setup(args.workload, args.seed, args.tiny)
    checker = Checker(wl)
    tracer = spans.Tracer()
    plain, traced = [], []
    for _ in range(max(1, passes_for(args.seconds, wl, args.tiny) // 2)):
        p = run_pass(runner, wl)
        checker.add(p)
        plain.append(p)
        tracer.install()
        try:
            p = run_pass(runner, wl, tracer)
        finally:
            tracer.uninstall()
        checker.add(p)
        traced.append(p)
    calls, self_s, scan_closures = tracer.totals()
    n = len(traced)
    metrics = {}
    for name, _, _ in spans.LAYERS:
        c = calls.get(name, 0)
        metrics[f"{name}.calls"] = metric(c // n if c % n == 0 else c / n, "count")
        metrics[f"{name}.self_ms"] = metric(1000 * self_s.get(name, 0.0) / n, "ms")
    metrics["groups.subgroups_per_closure"] = metric(
        tracer.subgroups_returned / scan_closures if scan_closures else 0.0, "ratio")
    reports = [json.loads(out) for job, (rc, out) in zip(wl.jobs, checker.reference)
               if job.kind == "construct" and rc == 0]
    metrics["splitcon.precision_final"] = metric(max((r["precision"] for r in reports), default=0), "count")
    metrics["splitcon.coeff_digits"] = metric(
        max((len(str(abs(c))) for r in reports for c in r["Q"]), default=0), "count")
    successes = calls.get("splitcon.construct_lprime", 0)
    metrics["splitcon.candidates_per_success"] = metric(
        calls.get("splitcon.weak_approximation", 0) / successes if successes else 0.0, "ratio")
    metrics["cli.overhead_ms"] = metric(1000 * self_s.get(spans.JOB, 0.0) / n, "ms")
    metrics["trace.overhead_ratio"] = metric(typical_pass(traced) / typical_pass(plain), "ratio")
    path = SPAN_DIR / f"spans-{args.workload}.bin"
    tracer.write(path)
    notes = [
        f"traced passes {n}, untraced passes {len(plain)}, {len(tracer.start)} spans written to "
        f"{path.relative_to(ROOT)}",
        "per-layer calls and self_ms are per traced pass",
    ]
    return metrics, checker, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny job lists, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            setup_s, _, _ = setup(args.workload, args.seed, args.tiny)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        metrics, checker, notes = (per_layer if args.trace else end_to_end)(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    failed = len(checker.failures)
    print(f"  {'fail_ratio':40s} {failed / checker.attempted:.6g} ratio ({failed} of {checker.attempted})")
    print(f"  stdout_sha256 {checker.digest()}")
    for reason in checker.failures[:20]:
        print(f"  FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
