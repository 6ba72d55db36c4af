"""The join optimizer's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload cold_haas --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

A run writes the warm log its workload starts from (warm workloads), then
starts fresh processes of ``measure.py``: ``SETUP_PROBES`` that only set
the system up, and one that sets up, serves and checks.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  ``--smoke`` runs every workload for
one round in both modes and exits non-zero unless each is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra processes that only set up, so ``setup_s`` is a median of several.
SETUP_PROBES = 2
#: A measured process that has not finished by then is killed.
CHILD_TIMEOUT = 150.0


def write_warm_log(workdir: Path, sharded: bool) -> None:
    """Write the log the warm workloads start from, through the service."""
    from repro import OptimizationService

    import workloads

    path = workloads.warm_log_path(workdir, sharded)
    path.parent.mkdir(exist_ok=True)
    with OptimizationService(workers=1, store_path=str(path)) as service:
        for query in workloads.WarmSet().log_queries():
            response = service.optimize(query)
            if response.status != "ok":
                raise RuntimeError(f"warm log query failed: {response.error}")
    shutil.copyfile(path, workdir / "pristine.rpl")


def start(args, mode: str, workdir: Path) -> dict:
    """Run one ``measure.py`` process to its end; return its JSON result."""
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    slowdown = hostspeed.slowdown()
    started = time.monotonic()
    completed = subprocess.run(
        command + ["--started", repr(started)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if "setup_s" in result:
        result["setup_s"] /= slowdown  # at the reference host speed
    return result


def run_once(args) -> dict:
    """One benchmark run of one workload; the JSON object it reports."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if workload.warm:
            write_warm_log(workdir, workload.sharded)
        setups = [start(args, "setup", workdir)["setup_s"] for _ in range(args.probes)]
        result = start(args, "run", workdir)
        checked = start(args, "check", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if checked["attempted"] != result["samples"]:
        raise RuntimeError("the records do not match the operations served")
    setups.append(result["setup_s"])
    if args.trace:
        from measure import LAYER_UNITS

        values = {**result["layers"], **checked["layers"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(
        f"{args.workload} seed={args.seed}: {result['rounds']} rounds, "
        f"{result['samples']} samples, setups {[round(s, 3) for s in setups]}, "
        f"rounds/s {[round(r, 1) for r in result['round_rates']]}, "
        f"host slowdown {[round(s, 2) for s in result['slowdowns']]}",
        file=sys.stderr,
    )
    return {
        "correct": checked["correct"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload for one round, untraced and traced."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(
                workload=workload, seed=1, seconds=0.0, trace=trace, probes=1
            )
            result = run_once(args)
            print(json.dumps({"workload": workload, "trace": trace, **result}))
            if not result["correct"] or result["attempted"] < 1:
                status = 1
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no optimizer source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=smoke.__doc__)
    args = parser.parse_args(argv)
    hostspeed.pin_to_one_cpu()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    args.probes = SETUP_PROBES
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
