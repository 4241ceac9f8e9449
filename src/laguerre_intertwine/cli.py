"""Experiment runner for the verification suite.

``laguerre-intertwine <subcommand> [options]`` runs one verification
experiment, writes RFC-4180-style CSV artifacts (header line first, floats
with 17 significant digits) plus a machine-readable ``summary.csv`` into the
output directory, and reports through its exit code:

* 0 -- every check passed,
* 1 -- at least one check failed,
* 2 -- configuration error, including input the library rejects as out
  of domain (any ``ValueError``), a ``--config`` file that cannot be read
  and an output directory that cannot be written (any ``OSError``).

Subcommands: ``kernels-check``, ``intertwine``, ``dual-check``,
``truncation``, ``invariance``, ``sde-vs-exact``, ``sample``; the options
may come before or after the subcommand.  Options can
also come from a flat ``key=value`` config file (``--config``); command-line
flags override file values and go through the same parse as a file line.
An option the subcommand does not read, set to other than its default by
either, exits 2 (``<subcommand> takes no --<flag>``).
Identical configuration and seed reproduce the CSV outputs byte for byte.
The experiments themselves live in :mod:`laguerre_intertwine.experiments`;
this module parses the options, writes the CSVs and maps the outcome to the
exit code.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import experiments
from .experiments import Check, ConfigError
from .numerics import checked_time

# the experiments' own dict, so an entry put into it is the one used
TEST_FUNCTIONS = experiments.TEST_FUNCTIONS


# config key -> the type its value is parsed to; the other keys are strings
VALUE_TYPES = {
    "x": lambda value: tuple(float(v) for v in value.split(",")),
    **dict.fromkeys(("n", "n_samples", "seed", "panels", "order"), int),
    **dict.fromkeys(("alpha", "t", "tol", "dt"), float),
    "out_dir": Path,
}

# config key -> the rule its parsed value must meet, whose ValueError names the
# reason.  A tolerance that is not finite and > 0 would decide every check alike.
VALUE_RULES = {
    "tol": lambda value: checked_time(value, name="tol"),
}


@dataclass
class ExperimentConfig:
    experiment: str = ""
    alpha: float | None = None
    n: int | None = None
    t: float | None = None
    x: tuple[float, ...] | None = None
    n_samples: int = 20_000
    dt: float = 1e-3
    seed: int = 20260808
    panels: int | None = None  # None: the experiment's default
    order: int | None = None
    tol: float | None = None
    out_dir: Path = Path("out")
    sampler: str = ""

    @classmethod
    def from_file(cls, path: Path) -> "ExperimentConfig":
        cfg = cls()
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg = cfg.with_option(key, value)
        return cfg

    def with_option(self, key: str, value: str) -> "ExperimentConfig":
        """This config with the option ``key`` (a key of ``FLAG_NAMES``) parsed from ``value``."""
        if key not in FLAG_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            parsed = VALUE_TYPES.get(key, str)(value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for {key}") from None
        if key in VALUE_RULES:
            parsed = VALUE_RULES[key](parsed)
        return replace(self, **{key: parsed})


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """RFC 4180 CSV: header line first, a field quoted only if it needs it."""
    if not rows:
        path.write_text("")
        return
    header: list[str] = []
    for row in rows:
        header += [key for key in row if key not in header]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row.get(key, "")) for key in header] for row in rows)


def _report(cfg: ExperimentConfig, csv_name: str, checks: list[Check]) -> int:
    """Write the checks and ``summary.csv``, print one line per check, give the exit code."""
    out = Path(cfg.out_dir)
    _write_csv(out / csv_name, [{**c.row, "pass": int(c.passed)} for c in checks])
    summary = [
        {"experiment": cfg.experiment, "detail": c.detail, "statistic": c.statistic,
         "threshold": c.threshold, "seed": cfg.seed, "pass": int(c.passed)}
        for c in checks
    ]
    _write_csv(out / "summary.csv", summary)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{cfg.experiment}] {c.detail}: statistic={_fmt(c.statistic)} "
              f"threshold={_fmt(c.threshold)} {status}")
    return 0 if all(c.passed for c in checks) else 1


def _write_samples(cfg: ExperimentConfig, csv_name: str, draws: np.ndarray, meta: dict) -> int:
    """Draws one per line, after ``# key=value`` metadata lines and the header."""
    path = Path(cfg.out_dir) / csv_name
    lines = [f"# {key}={_fmt(value)}" for key, value in meta.items()]
    lines.append(",".join(f"y{k + 1}" for k in range(draws.shape[1])))
    lines += [",".join(_fmt(v) for v in row) for row in draws]
    path.write_text("\n".join(lines) + "\n")
    print(f"[sample] wrote {draws.shape[0]} draws of {cfg.sampler} to {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand -> (experiment, CSV it writes, config keys it reads besides seed and
# out_dir); ``sample`` writes draws instead
COMMANDS = {
    "kernels-check": (experiments.kernels_check, "kernels_check.csv",
                      {"n", "alpha", "x", "tol", "panels", "order"}),
    "intertwine": (experiments.intertwine, "intertwine.csv", {"n", "alpha", "t", "x", "tol"}),
    "dual-check": (experiments.dual_check, "dual_check.csv", {"tol", "panels", "order"}),
    "truncation": (experiments.truncation, "truncation.csv", {"n", "alpha", "x", "n_samples"}),
    "invariance": (experiments.invariance, "invariance.csv", {"n", "alpha", "n_samples"}),
    "sde-vs-exact": (experiments.sde_vs_exact, "sde_vs_exact.csv", {"t", "dt", "n_samples"}),
    "sample": (experiments.sample, "samples.csv", {"sampler", "n", "alpha", "t", "x", "n_samples"}),
}


# command-line flag -> its config key; ``with_option`` parses the flag's value
# as it parses that key's line in a config file
FLAG_KEYS = {
    "--seed": "seed", "--alpha": "alpha", "--n": "n", "--t": "t", "--x": "x",
    "--n-samples": "n_samples", "--dt": "dt", "--panels": "panels", "--order": "order",
    "--tol": "tol", "--out": "out_dir", "--sampler": "sampler",
}
FLAG_NAMES = {key: flag for flag, key in FLAG_KEYS.items()}


def build_parser() -> argparse.ArgumentParser:
    """One parser: the subcommand, then the options every subcommand shares.

    A flag may come before the subcommand as well as after it.
    """
    parser = argparse.ArgumentParser(
        prog="laguerre-intertwine",
        description="Verification experiments for interlacing kernels and "
                    "non-colliding Laguerre diffusions.",
    )
    parser.add_argument("command", choices=COMMANDS, metavar="subcommand",
                        help="one of " + ", ".join(COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="flat key=value file")
    for flag, key in FLAG_KEYS.items():
        parser.add_argument(flag, dest=key, default=None, help=f"config key {key}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig() if args.config is None else ExperimentConfig.from_file(args.config)
        cfg = replace(cfg, experiment=args.command)
        for key in FLAG_KEYS.values():
            if getattr(args, key) is not None:
                cfg = cfg.with_option(key, getattr(args, key))
        experiment, csv_name, keys = COMMANDS[args.command]
        # a value the experiment would not read, from a flag or a config line
        unread = [FLAG_NAMES[f.name] for f in fields(cfg)
                  if f.name not in keys | {"experiment", "seed", "out_dir"}
                  and getattr(cfg, f.name) != f.default]
        if unread:
            raise ConfigError(f"{args.command} takes no {', '.join(unread)}")
        # before the experiment runs, so that an --out that cannot be made costs no work
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        if args.command == "sample":
            return _write_samples(cfg, csv_name, *experiment(cfg))
        return _report(cfg, csv_name, experiment(cfg))
    except (ValueError, OSError) as exc:
        # ConfigError, domain errors the library raises on bad input, and a
        # config file that cannot be read or an output directory that cannot be made
        print("configuration error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
