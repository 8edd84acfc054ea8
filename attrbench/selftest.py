"""Self-test of the benchmark itself, on short runs.

    python3 attrbench/selftest.py

Run from the repository root. For each workload it makes one untraced and
one traced run with the same seed and checks that:

- both runs are correct and give the same output digest (tracing never
  changes output bytes, and the same inputs give the same bytes);
- every metric that BENCHMARK.json names is printed;
- every layer expected to work on the workload has calls > 0 there;
- the predicted zeros hold: no backward pass on diffusion-evaluate, and
  no diffusion or evaluation calls on ar-attribute and ar-train.

It also checks that the benchmark refuses to run, printing no result, in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 1

# Spans that must be called on each workload.
COMMON = ("autodiff.evaluate", "fileio.atomic_write_text", "fileio.file_digest",
          "cli.main")
EXPECT_CALLED = {
    "ar-attribute": COMMON + (
        "autodiff.grad", "attribution.integrated_gradients",
        "attribution.bind_score", "transformer.build_fresh_forward_graph",
        "params.load_model", "contract.validate", "contract.canonical_id",
        "heatmap.render_heatmap"),
    "diffusion-evaluate": COMMON + (
        "attribution.bind_score", "attribution.occlusion",
        "attribution.stage_attribution", "evaluation.context_score",
        "evaluation.perturb", "diffusion.masked_log_probs",
        "diffusion.run_chain", "diffusion.teacher_forced_score",
        "transformer.build_fresh_forward_graph",
        "transformer.build_forward_graph", "params.load_model",
        "contract.validate", "contract.canonical_id"),
    "ar-train": COMMON + ("autodiff.grad", "training.train",
                          "training._mean_loss", "params.save_model"),
}
# ``attribute`` reaches the map through evaluation.compute_map, the method
# dispatcher, so that one evaluation function runs on ar-attribute.
AR_ALLOWED = {"evaluation.compute_map"}


def predicted_zero(workload: str, span: str) -> bool:
    if workload == "diffusion-evaluate":
        return span == "autodiff.grad"
    return (span.startswith(("diffusion.", "evaluation."))
            and span not in AR_ALLOWED)


def run(cwd: str, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("attrbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def parse(lines: list[str]) -> tuple[dict, dict]:
    record = json.loads(lines[-2][len("record "):])
    return record, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    for w in bench["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            rc, lines = run(ROOT, name, trace)
            expect(rc == 0, f"{name} trace={trace}: exit code {rc}")
            if rc != 0:
                break
            record, result = parse(lines)
            runs[trace] = record
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace={trace}: {result['failed']} of"
                   f" {result['attempted']} ops failed")
            wanted = bench["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted
                       if m["name"] not in result["metrics"]]
            expect(not missing, f"{name} trace={trace}: metrics present"
                   f" {'(missing ' + ', '.join(missing) + ')' if missing else ''}")
        if len(runs) < 2:
            continue
        expect(runs[0]["digest"] == runs[1]["digest"],
               f"{name}: same output digest with and without tracing")
        calls = runs[1]["span_calls"]
        for span in EXPECT_CALLED[name]:
            expect(calls.get(span, 0) > 0, f"{name}: {span} called")
        zeros = {s: c for s, c in calls.items() if predicted_zero(name, s)}
        if name == "diffusion-evaluate":
            zeros.setdefault("autodiff.grad", 0)
        expect(not any(zeros.values()),
               f"{name}: predicted zeros hold {zeros or ''}")

    bare = os.path.join(ROOT, ".attrbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run(bare, bench["workloads"][0]["name"], 0)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           f"refuses to run without the program (exit code {rc})")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
