"""End-to-end and per-layer benchmark of the gMark reproduction.

Run one workload (the form the result line is made for)::

    python3 e2ebench/run.py --workload evaluate --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced round with
``--trace 1``.  ``--workload all`` runs the three workloads, and
``--repeat N`` runs each selected workload N times with seeds
``seed .. seed+N-1``, every run in its own process; they print one row
per workload (metric medians, attempted and failed counts), and for
``--repeat`` every metric's quartiles.  See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("generate", "evaluate", "serve")
#: A single workload run must end well inside this many seconds.
CHILD_TIMEOUT_S = 600


def _run_one(args) -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import harness

    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    if args.workload == "generate":
        from wl_generate import GenerateWorkload as workload_class
    elif args.workload == "evaluate":
        from wl_evaluate import EvaluateWorkload as workload_class
    else:
        from wl_serve import ServeWorkload as workload_class
    import_s = time.perf_counter() - STARTED
    workload = workload_class(args.seed, import_s, str(workdir))
    harness.finish(workload, args.seconds, bool(args.trace))


def _child(name: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name} seed {seed} exited with {done.returncode}")
    return json.loads(lines[-1])


def _run_many(args) -> None:
    """Child process per run; one row per workload, then the spreads."""
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results: dict[str, list[dict]] = {}
    for name in names:
        results[name] = [
            _child(name, args.seed + offset, args.seconds, args.trace)
            for offset in range(args.repeat)
        ]
    metrics = list(results[names[0]][0]["metrics"].items())
    header = ["workload", "runs", "correct", "attempted", "failed"] + [
        f"{metric} [{cell['unit']}]" for metric, cell in metrics
    ]
    rows = [header]
    for name, runs in results.items():
        rows.append([
            name, str(len(runs)), str(all(run["correct"] for run in runs)),
            "/".join(str(run["attempted"]) for run in runs),
            "/".join(str(run["failed"]) for run in runs),
        ] + [
            f"{statistics.median(run['metrics'][metric]['value'] for run in runs):.5g}"
            for metric, _ in metrics
        ])
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if args.repeat > 1:
        print("median, quartiles and quartile distance / median per metric:")
        for name, runs in results.items():
            for metric, cell in metrics:
                values = [run["metrics"][metric]["value"] for run in runs]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                print(f"  {name:<9} {metric:<31} {median:>12.6g} {cell['unit']:<9}"
                      f" q1 {q1:<12.6g} q3 {q3:<12.6g} {spread:.3f}")
    print(json.dumps(results))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in its own process")
    args = parser.parse_args(argv)
    if args.workload == "all" or args.repeat > 1:
        _run_many(args)
    else:
        _run_one(args)


if __name__ == "__main__":
    main()
