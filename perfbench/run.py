"""causalfs benchmark: one workload, one run, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload backtest-small --seed 3 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed amount of work twice, untraced and then traced, and reports
the per-layer metrics. Every run first checks the program against the
stored reference outputs of the default seed (at smoke size), and checks
every output it measures. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name with its unit,
the failed ratio with its base, and the environment fingerprint. A full
result, with quartiles and sample counts, is written under ``.perfbench/``.

Seeds: the workload's inputs are generated from ``--seed`` only. The stored
reference belongs to DEFAULT_SEED. HELD_OUT_SEED is kept out of
development; use it once to confirm a performance claim.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: with its default of one thread per core,
# OpenBLAS ran a wide Granger call about 2x slower on a 2-core machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
HELD_OUT_SEED = 4099
SETUP_REPEATS = 3
MIN_SAMPLES = 3  # per job, even when the measured seconds run out
HARD_LIMIT_S = 120.0  # stop scheduling new operations after this long
CALIBRATION_REF_S = 0.010  # about the calibration kernel's median on a 2-core x86_64 VM

SELECTORS_EVERYWHERE = ("granger", "seqicp", "sfs", "pcmci", "varlingam")
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    **{f"ops_per_s.{sid}": "1/s" for sid in SELECTORS_EVERYWHERE},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("backtest-small", "backtest-wide", "validate-sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="generate and export the inputs into DIR, then exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs as the reference")
    return parser.parse_args(argv)


def load_program():
    """Import causalfs from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "causalfs" / "__init__.py").is_file():
        print(f"perfbench: no causalfs sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import causalfs

    if Path(causalfs.__file__).resolve().parent != SRC / "causalfs":
        print(f"perfbench: imported causalfs from {causalfs.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return causalfs


# --- measurement helpers ---

class Tally:
    """Operations attempted and failed, fallbacks, and captured warnings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fallbacks = 0
        self.warnings: dict[str, int] = {}

    def add(self, result, extra_failed: int = 0):
        self.attempted += result.calls
        self.failed += min(result.calls, result.failed + extra_failed)

    def run(self, job, i, counter):
        """Run one operation, capturing its warnings and fallbacks."""
        before = counter.fallbacks + counter.timeouts
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = job.run(i)
        for w in caught:
            name = w.category.__name__
            self.warnings[name] = self.warnings.get(name, 0) + 1
        result.fallbacks = counter.fallbacks + counter.timeouts - before
        self.fallbacks += result.fallbacks
        return result


class Calibration:
    """How fast the machine runs right now, from a fixed kernel outside causalfs.

    On a shared 2-core VM the same work ran up to 2x slower for tens of
    seconds at a time, in CPU time as well as wall time, so a run's medians
    moved by up to 40% from one run to the next. The kernel mixes the two
    kinds of work causalfs does: interpreter work around small least-squares
    calls, and least squares at FRED-MD width (interpreter-bound code slowed
    more than large BLAS calls, so a kernel of either kind alone over- or
    under-corrects the other). It runs before every operation; each
    operation's time is scaled by CALIBRATION_REF_S over the median of the
    five kernel timings nearest to it. A change to causalfs does not touch
    the kernel, so it shows in full.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = (rng.standard_normal((60, 6)), rng.standard_normal(60))
        self.wide = (rng.standard_normal((130, 122)), rng.standard_normal(130))
        self.lstsq = np.linalg.lstsq
        self.points: list[tuple[float, float]] = []

    def run(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(100):
            acc += float(self.lstsq(*self.small, rcond=None)[0][0])
            acc += sum({j: j * j for j in range(20)}.values())
        for _ in range(2):
            acc += float(self.lstsq(*self.wide, rcond=None)[0][0])
        end = time.perf_counter()
        self.points.append((end, end - start))

    def scale(self, start: float, end: float, nearest: int = 5) -> float:
        middle = (start + end) / 2
        near = sorted(self.points, key=lambda p: abs(p[0] - middle))[:nearest]
        return CALIBRATION_REF_S / statistics.median(s for _, s in near)


def quartiles(values):
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload, seconds, tally, counter, outputs, calibration, min_samples):
    """Closed loop over the jobs until ``seconds`` have passed.

    The next operation always goes to the eligible job that has used the
    least time relative to its share, so jobs interleave and a burst of
    machine noise spreads over all of them.
    """
    jobs = workload.jobs
    used = {job.name: 0.0 for job in jobs}
    samples = {job.name: [] for job in jobs}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        short = any(len(samples[job.name]) < min_samples for job in jobs)
        if (elapsed >= seconds and not short) or elapsed >= HARD_LIMIT_S:
            break
        eligible = [job for job in jobs if job.ready(len(samples[job.name]))]
        job = min(eligible, key=lambda j: used[j.name] / j.share)
        i = len(samples[job.name])
        calibration.run()
        began = time.perf_counter()
        result = tally.run(job, i, counter)
        result.span = (began, time.perf_counter())
        used[job.name] += result.seconds
        samples[job.name].append(result)
        tally.add(result, check_rerun(outputs, job, i, workload, result))
    calibration.run()
    for runs in samples.values():
        for result in runs:
            result.scaled = result.seconds * calibration.scale(*result.span)
    return samples


def check_rerun(outputs, job, i, workload, result) -> int:
    """Compare with an earlier output for the same input (determinism)."""
    from workloads import compare_outputs

    key = (job.name, i % workload.pool)
    if key in outputs:
        return compare_outputs(result.output, outputs[key], job.reselect_every)
    outputs[key] = result.output
    return 0


def reference_path(workload: str, smoke: bool) -> Path:
    return HERE / "reference" / f"{workload}{'.smoke' if smoke else ''}.json"


def reference_outputs(workload, tally, counter, outputs=None) -> dict:
    """Outputs of inputs 0..reference_inputs-1 of every job."""
    got = {}
    for k in range(workload.reference_inputs):
        for job in workload.jobs:
            if outputs is not None and (job.name, k) in outputs:
                got.setdefault(job.name, []).append(outputs[(job.name, k)])
                continue
            result = tally.run(job, k, counter)
            tally.add(result)
            got.setdefault(job.name, []).append(result.output)
    return got


def check_reference(workload, ref: dict, got: dict) -> int:
    """Failed operations against a stored reference."""
    from workloads import compare_outputs

    if ref.get("inputs_sha256") != workload.inputs_sha256:
        print("reference: generated inputs differ from the stored reference", file=sys.stderr)
        return sum(len(v) for v in ref["outputs"].values())
    failed = 0
    for job in workload.jobs:
        for k, want in enumerate(ref["outputs"].get(job.name, [])):
            bad = compare_outputs(got[job.name][k], want, job.reselect_every)
            if bad:
                print(f"reference: {job.name} input {k}: {bad} mismatched operations",
                      file=sys.stderr)
            failed += bad
    return failed


# --- environment fingerprint ---

def fingerprint(causalfs, workload) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # noqa: BLE001 -- older numpy has no dict mode
        blas = {"error": repr(exc)}
    source = hashlib.sha256()
    for path in sorted((SRC / "causalfs").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    commit = None  # a checkout without .git has only the source hash
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        lines = done.stdout.split()
        if done.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        pass
    return {
        "causalfs": causalfs.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "inputs_sha256": workload.inputs_sha256,
    }


# --- the run ---

def time_setup(args, work: Path, calibration) -> list[tuple[float, float]]:
    """Wall time of a fresh interpreter that imports causalfs and generates
    and exports the workload's inputs, repeated SETUP_REPEATS times; each
    as (seconds, seconds scaled by the calibration runs around it)."""
    times = []
    for r in range(SETUP_REPEATS):
        for _ in range(3):
            calibration.run()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(work / f"setup{r}")]
        if args.smoke:
            cmd.append("--smoke")
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120)
        end = time.perf_counter()
        for _ in range(3):
            calibration.run()
        times.append((end - start, (end - start) * calibration.scale(start, end, 6)))
        if done.returncode != 0:
            raise RuntimeError(f"setup exited with {done.returncode}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    causalfs = load_program()
    import workloads
    from tracer import FallbackCounter, Tracer

    size = "smoke" if args.smoke else "full"
    if args.setup_only:
        workloads.build(args.workload, Path(args.setup_only), args.seed, size)
        return 0

    logger = logging.getLogger("causalfs")
    logger.propagate = False  # fallbacks are counted, not printed
    counter = FallbackCounter()
    logging.getLogger("causalfs.backtest").addHandler(counter)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = ROOT / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.write_reference:
        wl = workloads.build(args.workload, work / "inputs", DEFAULT_SEED, size)
        tally = Tally()
        ref = {
            "workload": args.workload, "size": size, "seed": DEFAULT_SEED,
            "inputs_sha256": wl.inputs_sha256, "tolerance": workloads.PRED_TOL,
            "outputs": reference_outputs(wl, tally, counter),
        }
        path = reference_path(args.workload, args.smoke)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path} ({tally.attempted} operations)")
        return 0

    calibration = Calibration()
    setup_times = time_setup(args, work, calibration)
    wl = workloads.build(args.workload, work / "inputs", args.seed, size)
    if wl.prepare is not None:
        for k in range(wl.pool):
            wl.prepare(k)
    tally = Tally()

    # reference check on the default seed at smoke size; it also warms up
    # every code path before anything is timed
    ref_wl = workloads.build(args.workload, work / "reference", DEFAULT_SEED, "smoke")
    smoke_ref = json.loads(reference_path(args.workload, True).read_text())
    ref_failed = check_reference(ref_wl, smoke_ref, reference_outputs(ref_wl, tally, counter))

    outputs: dict = {}
    metrics: dict = {}
    job_stats: dict = {}
    if args.trace == 0:
        samples = measure(wl, args.seconds, tally, counter, outputs, calibration,
                          1 if args.smoke else MIN_SAMPLES)
        metrics.update(end_to_end(wl, samples, setup_times))
        job_stats = {name: {"n": len(runs),
                            "seconds": quartiles(r.seconds for r in runs),
                            "scaled_seconds": quartiles(r.scaled for r in runs),
                            "records": sum(r.records for r in runs)}
                     for name, runs in samples.items()}
    else:
        metrics.update(traced(wl, tally, counter, outputs, Tracer, work))

    if args.seed == DEFAULT_SEED:
        ref = json.loads(reference_path(args.workload, args.smoke).read_text())
        got = reference_outputs(wl, tally, counter, outputs)
        ref_failed += check_reference(wl, ref, got)
    tally.failed += ref_failed

    env = fingerprint(causalfs, wl)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "n": 1}
    failed_ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    for name, m in sorted(metrics.items()):
        spread = f" (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "q1" in m else ""
        raw = f"; as timed {m['raw']:.6g}" if "raw" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{spread}{raw}")
    print(f"failed_ratio = {failed_ratio:.6g} ({tally.failed} failed of {tally.attempted} "
          f"operations; reference mismatches {ref_failed})")
    print(f"fallback_ratio = {tally.fallbacks / max(tally.attempted, 1):.6g} "
          f"({tally.fallbacks} selector fallbacks of {tally.attempted} operations)")
    print(f"warnings = {json.dumps(tally.warnings, sort_keys=True)}")
    print(f"env = {json.dumps(env, sort_keys=True)}")

    wanted = END_TO_END if args.trace == 0 else {
        name: m["unit"] for name, m in metrics.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in wanted.items()},
    }
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "smoke": args.smoke, "env": env,
            "failed_ratio": failed_ratio, "fallbacks": tally.fallbacks,
            "warnings": tally.warnings, "reference_failed": ref_failed,
            "metrics": metrics, "jobs": job_stats, "result": result}
    (work / "result.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end(wl, samples, setup_times) -> dict:
    """Medians at the calibration's reference speed; ``raw`` keeps the
    median as timed on this machine."""
    metrics = {}

    def put(name, values, raw, unit):
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
                         "raw": statistics.median(raw)}

    put("setup_s", [s for _, s in setup_times], [r for r, _ in setup_times], "s")
    pipeline = raw_pipeline = 0.0
    for job in wl.jobs:
        runs = samples[job.name]
        pipeline += statistics.median(r.scaled for r in runs)
        raw_pipeline += statistics.median(r.seconds for r in runs)
        if job.metric:
            put(job.metric, [r.records / r.scaled for r in runs],
                [r.records / r.seconds for r in runs], "1/s")
    n = min(len(samples[job.name]) for job in wl.jobs)
    metrics["pipeline_s"] = {"value": pipeline, "unit": "s", "n": n, "raw": raw_pipeline}
    return metrics


def traced(wl, tally, counter, outputs, tracer_cls, work) -> dict:
    """Fixed work run untraced, then traced; per-layer metrics."""
    def one_pass(tracer=None):
        total = 0.0
        results = {}
        for k in range(wl.trace_inputs):
            for op, job in enumerate(wl.jobs):
                if tracer is None:
                    result = tally.run(job, k, counter)
                else:
                    tracer.begin_op(k * len(wl.jobs) + op)
                    with tracer.span(f"op.{job.name}"):
                        result = tally.run(job, k, counter)
                total += result.seconds
                results[(job.name, k)] = result
        return total, results

    plain_s, plain = one_pass()
    for (name, k), result in plain.items():
        tally.add(result)
        outputs[(name, k)] = result.output
    tracer = tracer_cls()
    tracer.install()
    warnings_before = dict(tally.warnings)
    fallbacks_before = tally.fallbacks
    try:
        traced_s, seen = one_pass(tracer)
    finally:
        tracer.close()
    from workloads import compare_outputs

    jobs = {job.name: job for job in wl.jobs}
    for (name, k), result in seen.items():
        tally.add(result, compare_outputs(result.output, plain[(name, k)].output,
                                          jobs[name].reselect_every))
    counts = {name: tally.warnings.get(name, 0) - warnings_before.get(name, 0)
              for name in tally.warnings}
    metrics = tracer.layer_metrics(counts, tally.fallbacks - fallbacks_before)
    metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}
    tracer.write_spans(work / "spans.jsonl")
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, json.JSONDecodeError, subprocess.SubprocessError,
            ImportError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        sys.exit(1)
