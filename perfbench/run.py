"""ridepool benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh interpreter
(``rep.py``) that imports ridepool from ``src/`` and gets only the config
file generated from the workload and the seed.

``--trace 0`` times the workload: untraced repetitions until ``--seconds``
is used up (at least three), each followed by set-up-only starts, then one
more repetition whose matchings and reports are checked.  It reports the
end-to-end metrics of ``BENCHMARK.json``: medians over repetitions for the
timings and memory, and the quality of the checked repetition, which is
deterministic per seed.

Timings are scaled to a reference machine speed.  Every child also times a
fixed slice of interpreter work (``rep.reference_s``) next to what it
measures, and each timing is multiplied by ``REFERENCE_SCALE_S`` over that
reading.  The shared host this was built on switches between a fast state
and one about 1.5x slower every few seconds and drifts by as much over
minutes; the scaling takes that out.  Unscaled times are printed beside the
result.

``--trace 1`` runs the workload once untraced and once with the span
wrappers of ``instrument.py`` installed, and reports the per-layer metrics
of ``BENCHMARK.json``; ``trace.overhead_s`` is traced minus untraced wall
time.  The spans go to ``.perfbench_runs/<workload>-seed<N>-trace/trace.jsonl``.

Every run checks its outputs (see ``quality.py``) and that every repetition
wrote the same artifact bytes.  A failed check counts in ``failed``; the
command then still prints its result line but exits 1.  The last line of
standard output is one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, config_text  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES_PER_REP = 2
# timings are reported as if the reference work took this long, its time on
# the host this was built on when that host is not slowed by its neighbours
REFERENCE_SCALE_S = 0.005
MIN_REPS = 3
CHILD_TIMEOUT_S = 60
# one thread per process keeps timings steady on a shared two-core machine
BLAS_THREADS = 1
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}


def scaled(seconds, result):
    """``seconds`` at the reference speed: the child's own reading of the fixed
    reference work (``rep.reference_s``) stands for how fast the machine ran."""
    return seconds * REFERENCE_SCALE_S / result["reference_s"]


class BenchError(Exception):
    """The benchmark cannot run in this checkout; no result is printed."""


class RunFailed(Exception):
    """A repetition crashed; the run reports every attempt as failed."""

    def __init__(self, attempted, problem):
        super().__init__(problem)
        self.attempted = attempted


class Runner:
    """Spawns ``rep.py`` for one workload and seed inside ``run_dir``."""

    def __init__(self, workload, config, run_dir):
        self.workload = workload
        self.config = config
        self.run_dir = run_dir

    def child(self, tag, mode, *extra):
        """Run one repetition; return (result dict, spawn time) or raise RunFailed."""
        out = os.path.join(self.run_dir, tag)
        result_path = os.path.join(self.run_dir, f"{tag}.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "rep.py"),
            "--workload", self.workload.name,
            "--config", self.config,
            "--out", out,
            "--result", result_path,
            "--mode", mode,
            *extra,
        ]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=dict(os.environ, **CHILD_ENV),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(1, f"{tag}: no result after {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RunFailed(1, f"{tag}: exited with {proc.returncode}")
        with open(result_path) as fh:
            result = json.load(fh)
        shutil.rmtree(out, ignore_errors=True)
        return result, t_spawn

    def timed(self, seconds):
        """Untraced repetitions for ``seconds``, set-up-only starts between them."""
        setups, reps = [], []
        start = time.monotonic()
        while True:
            before = time.monotonic()
            try:
                res, t_spawn = self.child(f"rep{len(reps)}", "plain")
                for _ in range(SETUP_PROBES_PER_REP):
                    probe, t_spawn = self.child(f"setup{len(setups)}", "setup")
                    setups.append(scaled(probe["t_ready"] - t_spawn, probe))
            except RunFailed as exc:
                raise RunFailed(len(reps) + 1, str(exc)) from None
            reps.append(res)
            now = time.monotonic()
            if len(reps) >= MIN_REPS and (now - start) + (now - before) > seconds:
                break

        try:
            check, _ = self.child("check", "capture")
        except RunFailed as exc:
            raise RunFailed(len(reps), str(exc)) from None
        problems = list(check["problems"])
        differing = sum(res["digest"] != check["digest"] for res in reps)
        if differing:
            problems.append(f"{differing} of {len(reps)} repetitions wrote other artifact bytes than the checked one")
        failed = len(reps) if check["problems"] else differing
        quality = check["quality"]
        walls = [r["wall_s"] for r in reps]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(scaled(r["wall_s"], r) for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "value_vs_pair_opt": quality["value_vs_pair_opt"],
            "carpool_rate": quality["carpool_rate"],
            "vkm_saved_frac": quality["vkm_saved_frac"],
        }
        notes = {
            "runs": len(reps),
            "setup_runs": len(setups),
            "failed_frac": failed / len(reps),
            "unscaled_wall_s_median": statistics.median(walls),
            "unscaled_wall_s_each": [round(w, 4) for w in walls],
            "reference_s_each": [round(r["reference_s"], 5) for r in reps],
        }
        return values, len(reps), failed, problems, notes

    def traced(self):
        plain, _ = self.child("plain", "plain")
        trace_file = os.path.join(self.run_dir, "trace.jsonl")
        try:
            traced, _ = self.child("traced", "trace", "--trace-file", trace_file)
        except RunFailed as exc:
            raise RunFailed(2, str(exc)) from None
        problems = list(traced["problems"])
        if plain["digest"] != traced["digest"]:
            problems.append("tracing changed the artifact bytes")
        values = dict(traced["layers"])
        values["baselines.greedy_vs_opt"] = traced["quality"]["greedy_vs_opt"]
        values["pipeline.artifact_bytes"] = traced["artifact_bytes"]
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        # the embedding ablation matters only where the policy is trained
        values["embedding.ablation_delta"] = 0.0
        if self.workload.name == "train-heavy":
            ablated, _ = self.child("ablation", "capture", "--zero-features")
            values["embedding.ablation_delta"] = (
                ablated["quality"]["value_vs_pair_opt"] - traced["quality"]["value_vs_pair_opt"]
            )
        failed = 2 if problems else 0
        notes = {
            "runs": 2,
            "failed_frac": failed / 2,
            "untraced_wall_s": plain["wall_s"],
            "trace_file": os.path.relpath(trace_file, ROOT),
        }
        return values, 2, failed, problems, notes


def environment(numpy_version):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
    }


def prepare(args):
    """Write the config and make one untimed start; raise BenchError if ridepool cannot run here."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ridepool", "__init__.py")):
        raise BenchError(f"no ridepool sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS_DIR, f"{workload.name}-seed{args.seed}-{'trace' if args.trace else 'time'}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "config.ini")
    with open(config, "w") as fh:
        fh.write(config_text(workload, args.seed))
    runner = Runner(workload, config, run_dir)
    try:
        # compiles bytecode and warms the file cache before anything is timed
        warm, _ = runner.child("warmup", "setup")
    except RunFailed as exc:
        raise BenchError(f"ridepool does not start: {exc}") from None
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    return runner, metrics, environment(warm["numpy"])


def main(argv=None):
    parser = argparse.ArgumentParser(description="ridepool benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        runner, wanted, env = prepare(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            values, attempted, failed, problems, notes = runner.traced()
        else:
            values, attempted, failed, problems, notes = runner.timed(args.seconds)
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": exc.attempted, "metrics": {}}))
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    result = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  environment {json.dumps(env)}")
    for name, entry in result.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in notes.items():
        print(f"  {key:40s} {value}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
