"""attrscope benchmark: one workload per run, closed loop, one client.

    python3 attrbench/run.py --workload ar-attribute --seed 1 --seconds 22 --trace 0

Run from the repository root. Every op is an in-process call to
``attrscope.cli.main(argv)`` on contract and corpus files made from the
seed; a subprocess per op would mostly measure interpreter start-up. Every
op's output is checked outside the timed region. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``. With ``--trace 1``
the run splits its seconds between an untraced and a traced phase and
reports the per-layer metrics. The line before it, starting ``record``,
holds the environment, the output digest and the per-case timings. See
README.md in this directory.
"""
from __future__ import annotations

import os

# Single-threaded BLAS: set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".attrbench"
SETUP_REPEATS = 3
P90_MIN_OPS = 100


def _import_program():
    """Imports attrscope from this checkout's source tree, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "attrscope", "__init__.py")):
        sys.exit(f"error: no attrscope source tree under {SRC}")
    sys.path.insert(0, SRC)
    import attrscope
    if not os.path.abspath(attrscope.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: attrscope imported from {attrscope.__file__}")


def environment() -> dict:
    import numpy
    import scipy
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        try:
            config = numpy.show_config(mode="dicts")
            blas = config.get("Build Dependencies", {}).get("blas")
        except TypeError:  # numpy < 1.26 has no mode argument
            numpy.show_config()
            blas = printed.getvalue()  # the printed build config
    cpu = platform.processor() or None
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
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                    if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


class Reference:
    """A fixed loop of small numpy ops driven from Python, shaped like the
    program's per-node work but using no attrscope code.

    On the shared 2-vCPU host the benchmark was tuned on, the vCPUs slowed
    down by a quarter to a half for tens of seconds to minutes at a time,
    in CPU time as well as wall time. The loop runs
    after every op, outside the timed region, about one repeat per 50 ms
    of op time, so it samples the host's speed evenly over the run. Op
    time over the loop's time cancels most of the slowdown."""

    ITERATIONS = 400
    EVERY_S = 0.05

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.x0 = rng.normal(size=(8, 64))
        self.w = rng.normal(size=(64, 32)) * 0.1
        self.v = rng.normal(size=(32, 64)) * 0.1
        self.times: list[float] = []

    def run_after(self, op_s: float) -> None:
        np = self.np
        for _ in range(max(1, round(op_s / self.EVERY_S))):
            start = time.perf_counter()
            x, vals = self.x0, []
            for _ in range(self.ITERATIONS):
                h = np.tanh(x @ self.w)
                x = (h @ self.v) * 0.5 + self.x0
                x = x - x.mean(axis=-1, keepdims=True)
                if not np.all(np.isfinite(x)):
                    raise ArithmeticError("reference loop diverged")
                vals.append(x)
            self.times.append(time.perf_counter() - start)


def _clear_graph_caches() -> None:
    """Empties the module graph caches, so that a set-up builds its graphs
    as a fresh CLI process does."""
    from attrscope.models import training, transformer
    training._LOSS_CACHE.clear()
    transformer._CACHE.clear()


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Phase:
    """Runs whole rounds of a workload's ops until ``seconds`` of op time
    have passed, checking each op's output outside the timed region."""

    def __init__(self, workload, outputs: dict, tracer=None):
        self.workload = workload
        self.outputs = outputs     # op key -> output digest, across phases
        self.tracer = tracer
        self.op_s: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.first_round: list[str] = []
        self.rounds = 0
        self.reference = Reference()

    def run(self, seconds: float) -> None:
        from attrscope.cli import main as cli_main
        wl = self.workload
        elapsed = 0.0
        while elapsed < seconds or self.rounds == 0:
            for op in wl.round(self.rounds):
                shutil.rmtree(wl.outdir, ignore_errors=True)
                if op.contract is not None:
                    with open(wl.contract_path, "w") as fh:
                        fh.write(op.contract)
                sink = io.StringIO()
                error = None
                if self.tracer is not None:
                    self.tracer.op = len(self.op_s)
                    self.tracer.active = True
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        rc = cli_main(list(op.argv))
                except Exception:
                    rc = None
                    error = traceback.format_exc(limit=-3)
                took = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.active = False
                elapsed += took
                self.op_s.append(took)
                self.by_case.setdefault(op.case, []).append(took)
                if error is None and rc != 0:
                    error = f"exit code {rc}: {sink.getvalue()[-500:]}"
                if error is None:
                    try:
                        digest = wl.check(op)
                    except Exception as exc:  # a parse error is a failed op too
                        error = f"check failed: {exc!r}"
                if error is None:
                    previous = self.outputs.setdefault(op.key, digest)
                    if previous != digest:
                        error = "same inputs gave different output bytes"
                    if self.rounds == 0:
                        self.first_round.append(f"{op.key} {digest}")
                if error is not None:
                    self.failures.append(f"{op.key}: {error}")
                self.reference.run_after(took)
            self.rounds += 1

    @property
    def ops_per_s(self) -> float:
        return len(self.op_s) / sum(self.op_s)

    @property
    def op_ref_ratio(self) -> float:
        """Mean op time over the mean time of one reference loop."""
        return statistics.mean(self.op_s) / statistics.mean(self.reference.times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)  # program paths are relative, so outputs do not name the checkout
    _import_program()
    from workloads import WORKLOADS
    from tracing import Tracer, aggregate, per_layer_metrics
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {sorted(WORKLOADS)}")

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    # Every set-up starts from empty graph caches; the ops then find them
    # as the last set-up left them.
    setup_s = []
    for i in range(SETUP_REPEATS):
        setup_dir = os.path.join(workdir, f"setup{i}")
        _clear_graph_caches()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(setup_dir)
        setup_s.append(time.perf_counter() - start)

    # A traced run splits its time between an untraced and a traced phase.
    seconds = args.seconds / 2 if args.trace else args.seconds
    outputs: dict[str, str] = {}
    plain = Phase(workload, outputs)
    plain.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [plain]

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase(workload, outputs, tracer)
            traced.run(seconds)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        phases.append(traced)

    attempted = sum(len(p.op_s) for p in phases)
    failures = [f for p in phases for f in p.failures]
    op_ms = [s * 1000.0 for s in plain.op_s]
    p90 = (_quantile(op_ms, 0.9) if len(op_ms) >= P90_MIN_OPS else None)

    e2e = {
        "op_ref_ratio": {"value": plain.op_ref_ratio, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }
    # Printed but not bounded: wall-clock time is too noisy on a shared host
    # (see README.md).
    shown = dict(e2e)
    shown["ops_per_s"] = {"value": plain.ops_per_s, "unit": "1/s"}
    shown["op_p50_ms"] = {"value": statistics.median(op_ms), "unit": "ms"}
    if p90 is not None:
        shown["op_p90_ms"] = {"value": p90, "unit": "ms"}
    shown["failed_frac"] = {"value": len(failures) / attempted, "unit": "ratio"}

    print(f"workload {args.workload}  seed {args.seed}  ops {len(op_ms)}"
          f"  rounds {plain.rounds}  op time {sum(plain.op_s):.2f} s")
    for name, m in shown.items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    if p90 is None:
        print(f"  op_p90_ms    omitted: {len(op_ms)} ops < {P90_MIN_OPS}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)

    metrics = e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": setup_s, "ops": len(op_ms), "rounds": plain.rounds,
        "digest": hashlib.sha256(
            "\n".join(plain.first_round).encode()).hexdigest(),
        "reference_ms": statistics.mean(plain.reference.times) * 1000.0,
        "case_ms": {case: {"min": min(v) * 1000.0,
                           "p50": statistics.median(v) * 1000.0,
                           "n": len(v)}
                    for case, v in plain.by_case.items()},
        "end_to_end": shown,
        "environment": environment(),
    }
    if traced is not None:
        agg = aggregate(tracer.spans)
        overhead = traced.op_ref_ratio / plain.op_ref_ratio - 1.0
        metrics = per_layer_metrics(agg, len(traced.op_s), overhead)
        record["traced_ops"] = len(traced.op_s)
        record["span_calls"] = {name: row["calls"] for name, row in agg.items()}
        if "training.train" in agg:
            # share of training time spent in the checkpoint loss passes
            record["checkpoint_share"] = (agg["training._mean_loss"]["total_s"]
                                          / agg["training.train"]["total_s"])
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
