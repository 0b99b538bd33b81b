"""prodsys benchmark: seeded `prodsys all` workloads, end to end and per layer.

    python3 perfbench/run.py --workload lindblad_m2 --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout that holds `src/prodsys`; nothing is
installed.  The seed generates the workload's configuration JSON (see
`workloads.py`), which is all the program receives besides `--seed`.
Every `all` run is a fresh process (`worker.py`) with the BLAS thread
count pinned and recorded.

With `--trace 0` the run measures, for about `--seconds` seconds and at
least twice, `wall_s` (time of `prodsys.cli.main(["all", ...])`),
`peak_rss_mb` (`ru_maxrss` of that process) and `setup_s` (`import
prodsys` plus `load_config` in a fresh process, sampled several times), and
reports medians.  With `--trace 1` it alternates untraced and traced runs
of `all` and reports the per-layer metrics of `layers.py`, medians over
the pairs, with `trace.overhead_s` = traced minus untraced wall time; the
traced CSVs must equal the untraced ones byte for byte and every wrapped
name must be restored.

Every run's verdicts are compared with `reference/<workload>.csv`; the
failed/attempted counts of the last output line give the fail ratio.
Human-readable lines, then one `record` line (machine info, seed, CSV meta
lines, the last run's checks with their defects, raw samples) precede that
last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

SETUP_SAMPLES = 2     # setup-only processes per run, after one discarded warm-up
MIN_REPS = 2          # untraced `all` runs per --trace 0 run, whatever --seconds says
LIMIT_S = 160         # no child is started that would be expected to end later
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with two, any competing runnable process leaves the BLAS
# threads spin-waiting for each other, and `all` on lindblad_m2 went from
# 14 s to 143 s on a 2-core machine; one thread slows it by 1.6x at worst.
BLAS_THREADS = 1

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, broken child)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": nproc(), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "cpu": cpu,
    }


class Runner:
    """Child processes of one benchmark run, with a shared time limit."""

    def __init__(self, run_dir: Path, config: Path, seed: int, start: float):
        self.run_dir, self.config, self.seed, self.start = run_dir, config, seed, start
        self.env = child_env()
        self.count = 0

    def child(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        result = self.run_dir / f"result{self.count}.json"
        args = [sys.executable, str(HERE / "worker.py"), mode, str(self.config), str(self.seed)]
        out_dir = None
        if mode == "run":
            out_dir = self.run_dir / f"all{self.count}"
            out_dir.mkdir()
            args += [str(out_dir), str(result)] + (["--trace"] if trace else [])
        else:
            args.append(str(result))
        timeout = self.start + LIMIT_S + 10 - time.perf_counter()
        try:
            proc = subprocess.run(args, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the time limit") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result) as fh:
            out = json.load(fh)
        out["out_dir"] = out_dir
        return out

    def left(self) -> float:
        return self.start + LIMIT_S - time.perf_counter()


def measure(args, reference, runner: Runner, deadline: float) -> dict:
    """Run children until --seconds is used up; return samples and verdicts."""
    from layers import run_metrics
    from verdicts import compare, read_outputs

    samples: dict[str, list] = {"setup_s": [], "wall_s": [], "peak_rss_mb": [], "traced_s": []}
    layers: list[dict] = []
    tally = {"attempted": 0, "failed": 0, "reasons": [], "meta": {}, "checks": {},
             "problems": []}

    def account(rep: dict) -> int:
        """Judge one `all` run against the reference; return its check count."""
        outputs = read_outputs(rep["out_dir"])
        attempted, failed, reasons = compare(reference, outputs)
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["reasons"] += reasons
        if rep["error"]:
            tally["reasons"].append("main raised: " + rep["error"].strip().splitlines()[-1])
        tally["meta"] = {suite: so.meta for suite, so in outputs.items()}
        tally["checks"] = {suite: so.checks for suite, so in outputs.items()}
        return sum(len(so.checks) for so in outputs.values())

    runner.child("setup")  # warm-up: bytecode and file cache, not sampled
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            samples["setup_s"].append(runner.child("setup")["setup_s"])
    durations = []
    while True:
        t0 = time.perf_counter()
        plain = runner.child("run")
        account(plain)
        samples["setup_s"].append(plain["setup_s"])
        samples["wall_s"].append(plain["wall_s"])
        samples["peak_rss_mb"].append(plain["rss_mb"])
        if args.trace:
            traced = runner.child("run", trace=True)
            n_checks = account(traced)
            samples["traced_s"].append(traced["wall_s"])
            layers.append(run_metrics(traced["layer"], tally["meta"], n_checks,
                                      traced["wall_s"] - plain["wall_s"]))
            if csv_bytes(plain["out_dir"]) != csv_bytes(traced["out_dir"]):
                tally["problems"].append("traced CSVs differ from the untraced CSVs")
            if traced["not_restored"]:
                tally["problems"].append(f"not restored after tracing: {traced['not_restored']}")
        durations.append(time.perf_counter() - t0)
        typical = statistics.median(durations)
        enough = len(durations) >= (1 if args.trace else MIN_REPS)
        if (enough and time.perf_counter() + typical > deadline) or typical > runner.left():
            break
    return {"samples": samples, "layers": layers, "tally": tally}


def csv_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def main(argv=None) -> int:
    from layers import LAYER_METRICS
    from workloads import WORKLOADS, check_shape

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not (SRC / "prodsys" / "__init__.py").is_file():
        print(f"error: no prodsys sources under {SRC}", file=sys.stderr)
        return 2
    ref_path = REFERENCE / f"{args.workload}.csv"
    if not ref_path.is_file():
        print(f"error: no verdict reference {ref_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from verdicts import load_reference

    reference = load_reference(ref_path)
    config = WORKLOADS[args.workload](args.seed)
    check_shape(args.workload, config)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    runner = Runner(run_dir, config_path, args.seed, start)
    try:
        res = measure(args, reference, runner, start + args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples, tally = res["samples"], res["tally"]

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in res["layers"])
                   for name, _, _ in LAYER_METRICS}
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "wall_s": statistics.median(samples["wall_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        units = dict(END_TO_END)
    attempted, failed = tally["attempted"], tally["failed"]
    correct = failed == 0 and not tally["problems"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"all-runs {len(samples['wall_s'])}  blas threads {BLAS_THREADS}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} 1  ({failed}/{attempted})")
    for reason in (tally["problems"] + tally["reasons"])[:20]:
        print(f"  ! {reason}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_info(), "meta": tally["meta"],
        "samples": samples, "checks": tally["checks"],
        "fail_ratio": failed / attempted, "problems": tally["problems"],
        "reasons": tally["reasons"][:50],
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
