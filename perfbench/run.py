"""Benchmark of the ncdef engine: end-to-end and per-layer metrics.

Run one workload::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

or every workload, printing every metric by name with its unit::

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

ncdef is imported from ``src/`` of the checkout that holds this file.  A run
repeats passes over the workload's operations until ``--seconds`` have
elapsed (``run_s`` is the median pass).  Before each pass it sets the
workload up three times: a fresh import of ncdef plus input generation
(``setup_s`` is the median over the run).  With ``--trace 1`` it makes one
untraced pass, then traced passes, checks that both give identical outputs,
and reports the per-layer metrics instead.  The last line of standard output is one JSON object; the
exit status is 1 when any verdict is wrong or any operation failed, and 2
when ncdef cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
MODULES = ("commpoly", "freealg", "linalg", "ncgb", "exprparse", "zoo", "matfac", "cli")
# Set-ups before each untraced pass; setup_s is the median over the run.
# Spreading them over the run keeps a few slow seconds of a shared machine
# from moving the median.
SETUPS_PER_PASS = 3

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark module, found next to this file)
from tracer import Tracer  # noqa: E402


def load_ncdef() -> SimpleNamespace:
    """Import ncdef afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "ncdef" or n.startswith("ncdef.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ncdef")
    if Path(pkg.__file__).resolve().parent != SRC / "ncdef":
        raise ImportError(f"ncdef was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"ncdef.{n}") for n in MODULES})


@dataclass
class PassResult:
    seconds: float
    op_seconds: dict[str, float]
    outputs: dict[str, list]  # op label -> verdict outputs, or the error text
    verdicts: list = field(default_factory=list)
    failed: list[str] = field(default_factory=list)  # labels of ops that raised


def run_pass(wl: workloads.Workload, tracer: Optional[Tracer] = None) -> PassResult:
    res = PassResult(0.0, {}, {})
    t_pass = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                verdicts = op.run()
            else:
                with tracer.span("bench.op"):
                    verdicts = op.run()
        except Exception as exc:  # an op that raises is counted, not fatal
            res.failed.append(op.label)
            res.outputs[op.label] = [f"{type(exc).__name__}: {exc}"]
            print(f"[{wl.name}] {op.label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            verdicts = []
        else:
            res.outputs[op.label] = [v.output for v in verdicts]
        res.op_seconds[op.label] = time.perf_counter() - t0
        res.verdicts.extend(verdicts)
    res.seconds = time.perf_counter() - t_pass
    return res


def setup(name: str, seed: int, times: list[float]) -> tuple[SimpleNamespace, workloads.Workload]:
    """Set the workload up ``SETUPS_PER_PASS`` times, appending each time to
    ``times``; return the modules and workload of the last set-up."""
    for _ in range(SETUPS_PER_PASS):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        gc.collect()  # the previous pass's garbage is not set-up work
        t0 = time.perf_counter()
        m = load_ncdef()
        wl = workloads.build(name, m, seed, WORKDIR)
        times.append(time.perf_counter() - t0)
    return m, wl


def tail_percentile(samples: list[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One run of one workload; returns the result object and report lines."""
    setup_times: list[float] = []
    passes: list[PassResult] = []
    try:
        t_start = time.perf_counter()
        if trace:
            _, wl = setup(name, seed, setup_times)
            passes.append(run_pass(wl))
            tracer = Tracer()
            t_start = time.perf_counter()
            with tracer.installed():
                while len(passes) < 2 or time.perf_counter() - t_start < seconds:
                    passes.append(run_pass(wl, tracer))
        else:
            while not passes or time.perf_counter() - t_start < seconds:
                _, wl = setup(name, seed, setup_times)
                passes.append(run_pass(wl))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    lines = [f"workload {name}  seed {seed}  ops {len(wl.ops)}"]

    verdicts = [v for p in passes for v in p.verdicts]
    wrong = [v for v in verdicts if not v.ok]
    failed_ops = sum(len(p.failed) for p in passes)
    attempted_ops = len(wl.ops) * len(passes)
    identical = all(p.outputs == passes[0].outputs for p in passes)
    correct = not wrong and failed_ops == 0 and identical
    for v in {v.name: v for v in wrong}.values():
        lines.append(f"  WRONG {v.name}: {v.output!r}")
    if not identical:
        lines.append("  WRONG outputs differ between passes"
                     + (" (traced vs untraced)" if trace else ""))

    if trace:
        untraced_s = passes[0].seconds
        traced_s = statistics.median(p.seconds for p in passes[1:])
        metrics = tracer.layer_metrics(len(passes) - 1)
        metrics["tracing.slowdown"] = traced_s / untraced_s
        units = {e["name"]: e["unit"] for e in _benchmark()["per_layer"]}
        lines.append(f"  traced passes {len(passes) - 1}: median {traced_s:.3f} s, "
                     f"untraced {untraced_s:.3f} s")
    else:
        pass_s = [p.seconds for p in passes]
        certified = sum(1 for v in verdicts if v.certified)
        metrics = {
            "run_s": statistics.median(pass_s),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_ratio": certified / len(verdicts),
        }
        units = {e["name"]: e["unit"] for e in _benchmark()["end_to_end"]}
        tail = tail_percentile(pass_s)
        lines.append(
            f"  run_s over {len(pass_s)} passes: median {metrics['run_s']:.4f} s; "
            + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
               "no percentile above the median has 10 samples beyond it"))
        lines.append(f"  setup_s over {len(setup_times)} set-ups")
        lines.append(f"  certified verdicts {certified} of {len(verdicts)}")
        for op in wl.ops:
            op_med = statistics.median(p.op_seconds[op.label] for p in passes)
            lines.append(f"  op {op.label:<32} median {op_med:9.4f} s")
    for key, value in metrics.items():
        lines.append(f"  {key:<40} {value:14.6f} {units[key]}")
    lines.append(f"  {'wrong_verdicts':<40} {len(wrong):14d} count")
    lines.append(f"  {'failed_ratio':<40} {failed_ops / attempted_ops:14.6f} ratio "
                 f"({failed_ops} of {attempted_ops} operations)")
    result = {
        "correct": correct,
        "attempted": attempted_ops,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ncdef" / "__init__.py").is_file():
        print(f"run.py: no ncdef sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _benchmark()["run_seconds"]
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    all_correct = True
    for name in names:
        result, lines = measure(name, args.seed, seconds, bool(args.trace))
        all_correct = all_correct and result["correct"]
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
