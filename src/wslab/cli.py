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
from .model import sigma_from_spec
from .theory import info_rate, tractable_rate
from .verify import SUITES, checks_to_csv, run_suites

log = logging.getLogger("wslab")

_CONFIG_KEYS = {
    "d", "s", "n", "alpha", "gamma", "beta", "sigma", "R", "C", "xi", "C0",
    "trials", "seed", "tests", "threads", "out", "svg", "suites",
}

_DEFAULTS = {
    "d": 40, "s": 2, "n": 2000, "alpha": [0.0, 0.5, 1.0], "gamma": None, "beta": None,
    "sigma": "identity", "R": 4.0, "C": 8.0, "xi": None, "C0": 0.0,
    "trials": 200, "seed": 0, "tests": list(SWEEP_TESTS), "threads": None,
    "out": None, "svg": None, "suites": sorted(SUITES),
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
    unknown = sorted(set(loaded) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    cfg.update(loaded)
    return cfg


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    for key in ("seed", "trials", "threads", "out", "svg"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "tests", None):
        cfg["tests"] = [t.strip() for t in args.tests.split(",") if t.strip()]
    if getattr(args, "suite", None):
        cfg["suites"] = list(args.suite)
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


def _gamma_grid(cfg: dict) -> list[float]:
    if cfg.get("gamma") is not None:
        return _as_grid(cfg["gamma"], "gamma")
    if cfg.get("beta") is not None:
        s = int(cfg["s"])
        return [s * float(b) ** 2 for b in _as_grid(cfg["beta"], "beta")]
    raise ConfigError("config needs a gamma grid or a beta grid")


# delivery-only settings: they never influence computed values, so leaving
# them out of the header keeps equal runs byte-identical
_NON_SEMANTIC_KEYS = {"out", "svg", "threads"}

# the settings each of these commands reads; sweep and risk echo every semantic key
_HEADER_KEYS = {"rates": ("alpha", "d", "n", "s"), "verify": ("seed", "suites"),
                "oracle-demo": ("C", "R", "alpha", "beta", "d", "n", "s", "xi")}


def _header(command: str, cfg: dict) -> list[str]:
    keys = _HEADER_KEYS.get(command, cfg.keys())
    relevant = {k: cfg[k] for k in keys if cfg[k] is not None and k not in _NON_SEMANTIC_KEYS}
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
        threads=1 if cfg["threads"] is None else int(cfg["threads"]),
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
    if cfg["svg"]:
        Path(cfg["svg"]).write_text(render_heatmap_svg(rows))
        log.info("wrote %s", cfg["svg"])
    return 0


def cmd_risk(cfg: dict) -> int:
    alphas = _as_grid(cfg["alpha"], "alpha")
    gammas = _gamma_grid(cfg)
    if len(alphas) != 1 or len(gammas) != 1:
        raise ConfigError("risk expects a single alpha and a single gamma (or beta)")
    rows = _run_sweep(cfg, alphas, gammas)
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
    beta = cfg.get("beta")
    if beta is None:
        raise ConfigError("oracle-demo needs beta")
    if isinstance(beta, list):
        if len(beta) != 1:
            raise ConfigError("oracle-demo needs a single beta")
        beta = beta[0]
    alpha = cfg["alpha"]
    if isinstance(alpha, list):
        if len(alpha) != 1:
            raise ConfigError("oracle-demo needs a single alpha")
        alpha = alpha[0]
    report = oracle_demo(
        d=int(cfg["d"]),
        s=int(cfg["s"]),
        n=int(cfg["n"]),
        alpha=float(alpha),
        beta=float(beta),
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
                           help="accepted for compatibility; sweeps run serially")
            p.add_argument("--tests", type=str, default=None,
                           help="comma-separated subset of " + ",".join(SWEEP_TESTS))
        if name == "verify":
            p.add_argument("--suite", nargs="*", default=None, choices=sorted(SUITES))
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
