"""entlab benchmark: one workload, one seed, a fixed number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the last stdout line is a
JSON object holding the end-to-end metrics of BENCHMARK.json; with --trace 1
it holds the per-layer metrics from a run whose units alternate between
untraced and traced.  The exit code is 0 only if every output check passed.
Results, machine info and the traced spans are also written to .perfbench/.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Wall time of reference_kernel() that the calibrated figures are scaled to.
REFERENCE_S = 0.08
REFERENCE_ITERS = 5000
#: Set-up is repeated this many times and reported as its median.
SETUP_REPEATS = 15
#: A measurement never stops before this many units (pairs, when traced).
MIN_UNITS = 3
MIN_TRACED_PAIRS = 2


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def reference_kernel() -> float:
    """Wall time of a fixed kernel with entlab's mix of work: a lazily filled
    table of small logit vectors keyed by (state, prefix), softmax and
    categorical sampling.

    The host's speed drifts by up to ~1.6x, for seconds to minutes at a time
    (see README.md).  Timing this kernel next to every measured piece of work and
    scaling by REFERENCE_S / its time removes most of that drift; the kernel
    runs no entlab code, so no change to entlab can move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table: dict = {}
    t0 = time.perf_counter()
    for i in range(REFERENCE_ITERS):
        key = (f"state#{i % 97}", tuple(range(i % 4)))
        vec = table.get(key)
        if vec is None:
            vec = table[key] = np.zeros(5)
        z = vec - vec.max()
        p = np.exp(z)
        p /= p.sum()
        vec[int(rng.choice(5, p=p))] += 0.01
    return time.perf_counter() - t0


class Timer:
    """Times pieces of work, scaling each by the reference-kernel timings on either side of it.

    ``raw`` and ``scaled`` accumulate seconds per kind ("work" or "check")
    until ``take`` hands them over and resets them.
    """

    def __init__(self) -> None:
        self.ref = reference_kernel()
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def __call__(self, kind: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        before, self.ref = self.ref, reference_kernel()
        self.raw[kind] = self.raw.get(kind, 0.0) + elapsed
        self.scaled[kind] = self.scaled.get(kind, 0.0) + elapsed * 2.0 * REFERENCE_S / (before + self.ref)
        return result

    def take(self) -> tuple[dict[str, float], dict[str, float]]:
        raw, scaled = self.raw, self.scaled
        self.raw, self.scaled = {}, {}
        return raw, scaled


def setup_once(doc: dict) -> tuple[float, float]:
    """Fresh import of entlab (numpy stays loaded), config validation and make_env.

    Returns (set-up seconds, of which make_env seconds).
    """
    for name in [n for n in sys.modules if n == "entlab" or n.startswith("entlab.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import entlab  # noqa: F401
    import entlab.cli  # noqa: F401
    from entlab.envs import make_env
    from entlab.trainer import TrainConfig

    config = TrainConfig(**doc)
    t1 = time.perf_counter()
    make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


def measure(workload, seconds: float, workdir: str, tracer=None, leftovers=None) -> tuple[list, list]:
    """Repeat the workload's unit until the next one would overrun ``seconds``.

    Traced runs alternate an untraced and a traced unit, so both see the same
    machine conditions and their ratio gives the tracing overhead.
    """
    plain: list = []
    traced: list = []
    minimum = MIN_TRACED_PAIRS if tracer else MIN_UNITS
    t_start = time.perf_counter()
    timer = Timer()

    def run(units: list, tracing) -> None:
        unit = workload.run_unit(workdir, tracing, timer)
        unit.raw, unit.scaled = timer.take()
        units.append(unit)

    while True:
        run(plain, nullcontext())
        if tracer is not None:
            run(traced, tracer.unit(leftovers))
        elapsed = time.perf_counter() - t_start
        if len(plain) >= minimum and elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entlab", "__init__.py")):
        print(f"error: no entlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    import layers
    import workloads
    from tracer import Tracer

    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        print("error: BENCHMARK.json and workloads.py list different workloads", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # Set-up takes ~2 s in all, too short for the host's speed to drift, so
    # one median of the reference timings around it scales the median set-up.
    refs = [reference_kernel()]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(setup_once(workload.setup_doc()))
        refs.append(reference_kernel())
    setup_raw = statistics.median(s for s, _ in setups)
    setup_s = setup_raw * REFERENCE_S / statistics.median(refs)
    make_env_s = statistics.median(m for _, m in setups)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    leftovers: list[str] = []
    tracer = None
    try:
        t0 = time.perf_counter()
        workload.prepare(args.seed)
        prepare_s = time.perf_counter() - t0
        if args.trace:
            tracer = Tracer()
            layers.register(tracer)
        plain, traced = measure(workload, args.seconds, workdir, tracer, leftovers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = plain + traced

    # Correctness gate: every check below adds to attempted, every miss to failed.
    failures = [f for u in units for f in u.failures]
    attempted = sum(u.checks for u in units)
    digests = sorted({u.digest for u in units})
    attempted += len(units)
    if len(digests) != 1:
        failures.append(f"unit outputs differ between repeats: {digests}")
    pinned = workloads.PINNED_DIGESTS[workload.name]
    if args.seed == 0:
        attempted += 1
        if digests != [pinned]:
            failures.append(f"seed-0 digest {digests} differs from the pinned {pinned}")
    if tracer is not None:
        attempted += 2
        if leftovers:
            failures.append(f"unwrapped references remain: {sorted(set(leftovers))}")
        if any(c != tracer.unit_counts[0] for c in tracer.unit_counts):
            failures.append("traced units disagree on their call counts")

    if args.trace:
        values = layers.per_layer(tracer, plain, traced, make_env_s, workload.calls_per_step)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "steps_per_s": statistics.median(u.steps / u.scaled["work"] for u in plain),
            "checks_per_s": statistics.median(u.checks / u.scaled["check"] for u in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_info(),
        "units": len(plain),
        "traced_units": len(traced),
        "unit_work_s": [round(u.raw["work"], 6) for u in plain],
        "unit_scaled_work_s": [round(u.scaled["work"], 6) for u in plain],
        "raw": {
            "setup_s": setup_raw,
            "steps_per_s": statistics.median(u.steps / u.raw["work"] for u in plain),
            "checks_per_s": statistics.median(u.checks / u.raw["check"] for u in plain),
        },
        "prepare_s": prepare_s,
        "final_success": plain[0].final_success,
        "max_abs_error": max(u.max_abs_error for u in units),
        "fail_frac": len(failures) / attempted,
        "digest": digests[0] if len(digests) == 1 else digests,
        "not_traced": tracer.missing if tracer else [],
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
        fh.write("\n")
    if tracer is not None:
        tracer.save(stem + "-spans.npz")

    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
