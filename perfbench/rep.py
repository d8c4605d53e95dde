"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --config INI --out DIR --result JSON
                             [--mode setup|plain|capture|trace] [--zero-features]
                             [--trace-file PATH]

Imports ridepool from the ``src`` directory next to this one, parses the
config, records ``time.monotonic()`` just before the first stage call (the
parent subtracts its own reading taken before spawning, which gives set-up
time), then runs the workload's stages through ``pipeline.run_pipeline``.
Untimed, it also times a fixed reference workload (``reference_s``) after
set-up and on both sides of the stages, which tells the parent how fast the
machine ran at that moment.

Modes: ``setup`` stops before the first stage call; ``plain`` runs untouched;
``capture`` also keeps matchings and reports for the output check; ``trace``
adds the span wrappers on top of ``capture``.  ``--zero-features`` replaces
every user feature vector by zeros (the embedding ablation).
"""

import argparse
import hashlib
import heapq
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_SAMPLES = 25


def artifact_digest(out_dir):
    """sha256 over file names and contents, and the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data + b"\0")
        total += len(data)
    return digest.hexdigest(), total


def reference_once():
    """A fixed slice of interpreter work like the program's hot paths (stop-order
    permutations, heap-and-dict Dijkstra on a lattice); none of it is ridepool."""
    start = time.perf_counter()
    kept = sum(1 for p in itertools.permutations(range(8)) if p[0] < p[1])
    size = 40
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        row, col = divmod(u, size)
        for v, ok in ((u + 1, col + 1 < size), (u - 1, col > 0), (u + size, row + 1 < size), (u - size, row > 0)):
            nd = d + 1.0 + (v % 7) * 0.01
            if ok and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    assert kept == 20160 and len(done) == size * size
    return time.perf_counter() - start


def reference_s():
    """Current machine speed: median time of the fixed reference work."""
    return statistics.median(reference_once() for _ in range(REFERENCE_SAMPLES))


def zero_features(patch):
    import numpy as np

    from ridepool import embedding

    def make(fn):
        def compute_user_features(*args, **kwargs):
            return {uid: np.zeros_like(vec) for uid, vec in fn(*args, **kwargs).items()}

        return compute_user_features

    patch.function(embedding, "compute_user_features", make)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "capture", "trace"), default="plain")
    parser.add_argument("--zero-features", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import ridepool
    from ridepool import pipeline
    from ridepool.scenario import load_config

    if os.path.dirname(os.path.abspath(ridepool.__file__)) != os.path.join(SRC, "ridepool"):
        raise SystemExit(f"imported ridepool from {ridepool.__file__}, not from {SRC}")
    cfg = load_config(args.config)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "numpy": sys.modules["numpy"].__version__}
    if args.mode == "setup":
        result["reference_s"] = reference_s()
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    from instrument import Capture, Patcher, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    patch = Patcher()
    tracer = capture = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(patch)
    if args.mode in ("capture", "trace"):
        capture = Capture()
        capture.install(patch)
    if args.zero_features:
        zero_features(patch)

    reference_before = reference_s()
    start = time.perf_counter()
    pipeline.run_pipeline(cfg, args.out, workload.stages)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    patch.restore()
    result["reference_s"] = (reference_before + reference_s()) / 2.0

    digest, nbytes = artifact_digest(args.out)
    result.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, digest=digest, artifact_bytes=nbytes)
    if capture is not None:
        from quality import evaluate_capture

        result["quality"], result["problems"] = evaluate_capture(capture, cfg.capacity)
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.purpose_share"] = tracer.covered_s(set(workload.purpose_spans)) / wall_s
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload, "wall_s": wall_s, "layers": layers})
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
