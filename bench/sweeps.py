"""One benchmark operation: a checked ``wslab sweep`` call through ``cli.main``."""

from __future__ import annotations

import json
import time
from functools import cached_property
from pathlib import Path

from checks import CheckFailed, check_identical, check_sweep_csv, check_sweep_svg
from workloads import Workload, support_separations


class SweepSetup:
    """The generated config written to ``workdir`` and the covariance behind it."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.sigma = workload.sigma()
        self.cfg = workload.config(seed, self.sigma)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg))

    @cached_property
    def separations(self):
        """Computed on first use, after set-up has been timed."""
        return support_separations(self.sigma, self.workload.s)

    def sweep(self, tag: str, extra: tuple[str, ...] = ()) -> tuple[int, float, Path, Path]:
        """Run ``wslab sweep`` once; returns (exit code, seconds, csv path, svg path)."""
        from wslab import cli

        csv, svg = self.workdir / f"{tag}.csv", self.workdir / f"{tag}.svg"
        argv = ["sweep", "--config", str(self.config_path), "--out", str(csv), "--svg", str(svg), *extra]
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start, csv, svg

    def check(self, code: int, csv: Path, svg: Path) -> bytes:
        """Every output check on one sweep; returns the CSV bytes."""
        if code != 0:
            raise CheckFailed(f"wslab sweep exited with code {code}")
        data = csv.read_bytes()
        rows = check_sweep_csv(data.decode(), self.cfg, self.separations)
        check_sweep_svg(svg.read_text(), rows)
        return data


def timed_sweeps(setup: SweepSetup, seconds: float, min_sweeps: int = 3) -> dict:
    """One warm-up sweep, then sweeps until ``seconds`` have passed, each checked.

    On a workload that leaves ``threads`` to the CLI default, a final sweep
    with one worker must write a byte-identical CSV.
    """
    times: list[float] = []
    errors: list[str] = []
    attempted = 0
    last_csv = None

    def op(tag: str, extra: tuple[str, ...] = (), same_as: bytes | None = None) -> tuple[float, bytes | None]:
        nonlocal attempted
        attempted += 1
        code, elapsed, csv, svg = setup.sweep(tag, extra)
        try:
            data = setup.check(code, csv, svg)
            if same_as is not None:
                check_identical(data, same_as, "one-worker and threaded sweep CSVs")
            return elapsed, data
        except CheckFailed as exc:
            errors.append(f"{tag}: {exc}")
            return elapsed, None

    op("warmup")
    start = time.perf_counter()
    while len(times) < min_sweeps or time.perf_counter() - start < seconds:
        elapsed, csv = op("timed")
        last_csv = csv if csv is not None else last_csv
        times.append(elapsed)
    if setup.workload.threads is None:
        op("serial", ("--threads", "1"), same_as=last_csv or b"")
    return {"sweep_times": times, "attempted": attempted, "errors": errors}
