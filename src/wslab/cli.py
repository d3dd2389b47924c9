"""Command-line interface.

Subcommands: ``rates``, ``sweep``, ``risk``, ``verify``, ``oracle-demo``.
Runs are configured by a JSON file (``--config``) with flag overrides; the
fully resolved configuration is echoed into every output artifact's header
so a run can be reproduced from the artifact alone.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 combinatorial or oracle budget error. ``WSL_LOG`` sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import BudgetExceededError, CombinatorialBudgetError, ConfigError, WslabError
from .experiments import (
    SWEEP_TESTS,
    SweepGrid,
    demo_records_to_csv,
    oracle_demo,
    sweep_phase_diagram,
    sweep_rows_to_csv,
)
from .heatmap import render_heatmap_svg
from .model import KnownCovariance, sigma_from_spec
from .theory import info_rate, tractable_rate
from .tractable import TractableConfig
from .verify import SUITES, checks_to_csv, run_suites

log = logging.getLogger("wslab")

_DEFAULTS = {
    "d": 40, "s": 2, "n": 2000, "alpha": [0.0, 0.5, 1.0], "gamma": None, "beta": None,
    "sigma": "identity", "R": TractableConfig.R, "C": TractableConfig.C, "xi": None, "C0": 0.0,
    "trials": 200, "seed": 0, "tests": list(SWEEP_TESTS), "threads": None,
    "out": None, "svg": None, "suites": sorted(SUITES),
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what each plainly typed config value must be; a key whose default is null
# may also be null
_VALUE_TYPES = {
    **dict.fromkeys(("d", "s", "n", "trials", "seed", "threads"),
                    ("an integer", lambda v: _is_number(v) and isinstance(v, int))),
    **dict.fromkeys(("alpha", "gamma", "beta"), ("a number or a list of numbers",
                    lambda v: all(map(_is_number, v if isinstance(v, list) else [v])))),
    **dict.fromkeys(("R", "C", "C0", "xi"), ("a number", _is_number)),
    **dict.fromkeys(("tests", "suites"), ("a list of strings",
                    lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v))),
    **dict.fromkeys(("out", "svg"), ("a path string", lambda v: isinstance(v, str))),
}


def _load_config(path: str | None) -> dict:
    cfg = dict(_DEFAULTS)
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config root must be an object, got {type(loaded).__name__}")
    unknown = sorted(set(loaded) - _DEFAULTS.keys())
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    for key, value in loaded.items():
        if key in _VALUE_TYPES and not (value is None and _DEFAULTS[key] is None):
            what, ok = _VALUE_TYPES[key]
            if not ok(value):
                raise ConfigError(f"{key} must be {what}, got {json.dumps(value)}")
    cfg.update(loaded)
    return cfg


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    for key in ("seed", "trials", "threads", "out", "svg"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "tests", None) is not None:
        cfg["tests"] = [t.strip() for t in args.tests.split(",") if t.strip()]
    if getattr(args, "suite", None):
        cfg["suites"] = list(args.suite)
    # an output path that cannot be written fails here, before anything runs
    for key in ("out", "svg"):
        path = cfg[key]
        if path is not None and (path == "" or Path(path).is_dir()):
            raise ConfigError(f"{key} must name a file, got {json.dumps(path)}")
        if path and not Path(path).parent.is_dir():
            raise ConfigError(f"{key} {path}: directory {Path(path).parent} does not exist")
    return cfg


def _as_grid(value, field: str) -> list[float]:
    if value is None:
        raise ConfigError(f"missing {field} grid")
    if isinstance(value, (int, float)):
        value = [value]
    grid = [float(v) for v in value]
    if not grid:
        raise ConfigError(f"empty {field} grid")
    return grid


def _single(value, field: str, command: str) -> float:
    """The one value of ``field`` that ``command`` reads: a number or a one-entry grid."""
    if value is None:
        raise ConfigError(f"{command} needs {field}")
    grid = _as_grid(value, field)
    if len(grid) != 1:
        raise ConfigError(f"{command} needs a single {field}")
    return grid[0]


def _gamma_grid(cfg: dict) -> list[float]:
    if cfg.get("gamma") is not None:
        return _as_grid(cfg["gamma"], "gamma")
    if cfg.get("beta") is not None:
        d, s = int(cfg["d"]), int(cfg["s"])
        # s * beta^2 is the separation of the sweep's alternative only when Sigma is I
        if not KnownCovariance.of(sigma_from_spec(cfg["sigma"], d), d).is_identity:
            raise ConfigError('a beta grid needs sigma "identity"; give a gamma grid for another covariance')
        return [s * float(b) ** 2 for b in _as_grid(cfg["beta"], "beta")]
    raise ConfigError("config needs a gamma grid or a beta grid")


# the settings each command reads; delivery-only settings (out, svg, threads)
# never influence computed values, so leaving them out keeps equal runs
# byte-identical
_SWEEP_KEYS = ("C", "C0", "R", "alpha", "beta", "d", "gamma", "n", "s", "seed", "sigma", "tests", "trials", "xi")
_HEADER_KEYS = {"rates": ("alpha", "d", "n", "s"), "verify": ("seed", "suites"),
                "oracle-demo": ("C", "R", "alpha", "beta", "d", "n", "s", "xi"),
                "sweep": _SWEEP_KEYS, "risk": _SWEEP_KEYS}


def _header(command: str, cfg: dict) -> list[str]:
    relevant = {k: cfg[k] for k in _HEADER_KEYS[command] if cfg[k] is not None}
    return [f"command: {command}", f"config: {json.dumps(relevant, sort_keys=True)}"]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        log.info("wrote %s", out)


def cmd_rates(cfg: dict) -> int:
    alphas = _as_grid(cfg["alpha"], "alpha")
    d, s, n = int(cfg["d"]), int(cfg["s"]), int(cfg["n"])
    lines = [f"# {h}" for h in _header("rates", cfg)]
    lines.append("alpha,gamma_info,gamma_tract")
    for alpha in alphas:
        gi = info_rate(d, s, n, alpha)
        gt = tractable_rate(d, s, n, alpha)
        lines.append(f"{alpha!r},{gi!r},{gt!r}")
    _emit("\n".join(lines) + "\n", cfg["out"])
    return 0


def _run_sweep(cfg: dict, alphas: list[float], gammas: list[float]) -> list:
    grid = SweepGrid(
        alpha_values=tuple(sorted(alphas)),
        gamma_values=tuple(sorted(gammas)),
        d=int(cfg["d"]),
        s=int(cfg["s"]),
        n=int(cfg["n"]),
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
    )
    return sweep_phase_diagram(
        grid,
        tests=tuple(cfg["tests"]),
        threads=len(os.sched_getaffinity(0)) if cfg["threads"] is None else int(cfg["threads"]),
        null_mu_scale=float(cfg["C0"]),
        sigma=sigma_from_spec(cfg["sigma"], int(cfg["d"])),
        R=float(cfg["R"]),
        C=float(cfg["C"]),
        xi=cfg["xi"],
    )


def cmd_sweep(cfg: dict) -> int:
    alphas = _as_grid(cfg["alpha"], "alpha")
    gammas = _gamma_grid(cfg)
    rows = _run_sweep(cfg, alphas, gammas)
    _emit(sweep_rows_to_csv(rows, _header("sweep", cfg)), cfg["out"])
    if cfg["svg"] is not None:
        Path(cfg["svg"]).write_text(render_heatmap_svg(rows))
        log.info("wrote %s", cfg["svg"])
    return 0


def cmd_risk(cfg: dict) -> int:
    alpha = _single(cfg["alpha"], "alpha", "risk")
    gamma = _single(_gamma_grid(cfg), "gamma (or beta)", "risk")
    rows = _run_sweep(cfg, [alpha], [gamma])
    _emit(sweep_rows_to_csv(rows, _header("risk", cfg)), cfg["out"])
    return 0


def cmd_verify(cfg: dict) -> int:
    results = run_suites(cfg["suites"], seed=int(cfg["seed"]))
    _emit(checks_to_csv(results, _header("verify", cfg)), cfg["out"])
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAILED {r.suite}/{r.name}: {r.detail}", file=sys.stderr)
    return 1 if failed else 0


def cmd_oracle_demo(cfg: dict) -> int:
    report = oracle_demo(
        d=int(cfg["d"]),
        s=int(cfg["s"]),
        n=int(cfg["n"]),
        alpha=_single(cfg["alpha"], "alpha", "oracle-demo"),
        beta=_single(cfg["beta"], "beta", "oracle-demo"),
        R=float(cfg["R"]),
        C=float(cfg["C"]),
        xi=cfg["xi"],
    )
    _emit(demo_records_to_csv(report, _header("oracle-demo", cfg)), cfg["out"])
    print(
        f"verdict: {report.verdict} ({report.flagged} of {len(report.records)} queries flagged; "
        f"transcripts identical: {report.transcripts_identical})"
    )
    return 0


_COMMANDS = {
    "rates": cmd_rates,
    "sweep": cmd_sweep,
    "risk": cmd_risk,
    "verify": cmd_verify,
    "oracle-demo": cmd_oracle_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        if name in ("sweep", "risk", "verify"):
            p.add_argument("--seed", type=int, default=None)
        if name == "sweep":
            p.add_argument("--svg", type=str, default=None)
        if name in ("sweep", "risk"):
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--threads", type=int, default=None,
                           help="maximum number of worker processes (default: one per available core)")
            p.add_argument("--tests", type=str, default=None,
                           help="comma-separated subset of " + ",".join(SWEEP_TESTS))
        if name == "verify":
            p.add_argument("--suite", nargs="+", default=None, choices=sorted(SUITES))
    return parser


_LOG_LEVELS = {"DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"}


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("WSL_LOG", "WARNING").upper()
    logging.basicConfig(level=level if level in _LOG_LEVELS else "WARNING")
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(args.config), args)
        return _COMMANDS[args.command](cfg)
    except (CombinatorialBudgetError, BudgetExceededError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, WslabError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
