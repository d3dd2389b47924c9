"""Phase-diagram sweep benchmark for wslab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each workload is timed end to end: set-up is measured in
fresh processes, and one fresh process runs checked ``wslab sweep`` calls for
``--seconds`` seconds. With ``--trace 1`` the sweep pipeline is replayed layer
by layer with spans instead (see ``tracing.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("probe", "sweeps"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p


def _child(args: argparse.Namespace) -> int:
    """Fresh process: set up (import wslab, build Sigma, write the config), then maybe sweep."""
    sys.path.insert(0, str(ROOT / "src"))
    import wslab.cli  # noqa: F401  (the import is part of set-up)
    from sweeps import SweepSetup, timed_sweeps
    from workloads import WORKLOADS

    setup = SweepSetup(WORKLOADS[args.workload], args.seed, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.t0}
    if args.role == "sweeps":
        result.update(timed_sweeps(setup, args.seconds))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def _run_child(args: argparse.Namespace, role: str, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--workdir", str(workdir), "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed(args: argparse.Namespace, workdir: Path) -> dict:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = [_run_child(args, "probe", workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _run_child(args, "sweeps", workdir, deadline)
    setups.append(res["setup_s"])
    sweep_s = statistics.median(res["sweep_times"])
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(
        f"# {w.name} seed {args.seed}: {len(res['sweep_times'])} timed sweeps, "
        f"{w.decisions} decisions each, set-up medians over {len(setups)} processes"
    )
    print(f"# sweep_s samples: {' '.join(f'{t:.3f}' for t in res['sweep_times'])}")
    print(f"# setup_s samples: {' '.join(f'{t:.3f}' for t in setups)}")
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": len(res["errors"]),
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "sweep_s": {"value": sweep_s, "unit": "s"},
            "decisions_per_s": {"value": w.decisions / sweep_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
        },
    }


def _traced(args: argparse.Namespace, workdir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import traced_run
    from workloads import WORKLOADS

    res = traced_run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "info": res["info"], "spans": res["spans"]}))
    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    for key, value in res["info"].items():
        print(f"# {key}: {value}")
    print(f"# spans: {spans_path.relative_to(ROOT)}")
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": len(res["errors"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }


def _all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}/{metric}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "wslab" / "__init__.py").is_file():
        print(f"error: no wslab sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.role is not None:
        return _child(args)
    from workloads import WORKLOADS

    if args.workload == "all":
        return _all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        result = (_traced if args.trace else _timed)(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
