"""Command line interface.

Subcommands::

    bayesdn synthetic   loss/score benchmark over synthetic structures
    bayesdn sweep       threshold study over the eta grid
    bayesdn real        two-group differential network from a CSV
    bayesdn sample      one Gibbs chain over one CSV

Settings come from an optional JSON config file (same field names as the
config dataclasses, nested sections "gibbs" and "ista") with flag
overrides on top; :func:`bayesdn.config.decode` checks every field before
any work.  Desk-scale defaults (10 replications, 1000 burn-in,
2000 retained draws) keep runs in minutes; ``--paper-scale`` leaves the
config dataclasses' own defaults, the paper's run sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .config import FieldError, bound, check_fields, decode
from .gibbs import ChainRequest, GibbsConfig, run_chains
from .harness import (
    ExperimentConfig,
    RealAnalysisConfig,
    emit_experiment,
    emit_real,
    run_experiment,
    run_real_analysis,
    write_manifest,
)
# after harness, which imports diffnet: importing diffnet first reorders the
# package imports and raises the peak RSS of an uncached import by about 0.5 MB
from .diffnet import DN_MODES
from .linalg import NotPositiveDefiniteError, mirror_lower
from .metrics import is_na
from .pipeline import (
    ColumnError,
    EmptyDataError,
    nonparanormal_transform,
    read_csv,
    write_csv,
)

DESK_SCALE = {"replications": 10, "burn_in": 1000, "retained": 2000}


def _worker_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {threads}")
    return threads


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma list of ints: {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=_worker_count, default=1, help="worker processes")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=(
            f"full-size run: {ExperimentConfig.replications} replications, "
            f"{GibbsConfig.burn_in} burn-in, {GibbsConfig.retained} retained"
        ),
    )


def _desk_defaults(d: dict, args, *names: str) -> None:
    """Fill in the desk scale's ``names``; ``--paper-scale`` leaves the config defaults."""
    if not args.paper_scale:
        for name in names:
            d.setdefault(name, DESK_SCALE[name])


def _config_dict(args) -> dict:
    """``--config``'s settings, the run scale's sweep counts as defaults, ``--seed`` on top."""
    d = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
    gibbs = d.setdefault("gibbs", {})
    if not isinstance(gibbs, dict):
        raise FieldError("gibbs", f"must be an object, got {gibbs!r}")
    _desk_defaults(gibbs, args, "burn_in", "retained")
    if args.seed is not None:
        d["master_seed"] = args.seed
    return d


def _experiment_config(args) -> ExperimentConfig:
    d = _config_dict(args)
    _desk_defaults(d, args, "replications")
    # an empty flag value reaches decode, which names the field
    if args.structures is not None:
        d["structures"] = args.structures.split(",")
    if args.dims is not None:
        d["dims"] = args.dims
    if args.sizes is not None:
        d["sample_sizes"] = args.sizes
    if args.replications is not None:
        d["replications"] = args.replications
    if getattr(args, "eta", None) is not None:  # synthetic only
        d["eta"] = args.eta
    if args.mode is not None:
        d["dn_mode"] = args.mode
    if getattr(args, "estimators", None) is not None:  # synthetic only
        d["estimators"] = args.estimators.split(",")
    return decode(ExperimentConfig, d)


def _add_experiment_flags(parser) -> None:
    parser.add_argument("--structures", help="comma list, e.g. ar2,cluster")
    parser.add_argument("--dims", type=_int_list, help="comma list of dimensions")
    parser.add_argument(
        "--sizes", type=_int_list, help="comma list of sample sizes (pairs with dims)"
    )
    parser.add_argument("--replications", type=int)
    parser.add_argument("--mode", choices=DN_MODES)


def _cmd_experiment(args) -> int:
    """``synthetic`` and ``sweep``; ``sweep`` runs the threshold study alone."""
    cfg = _experiment_config(args)
    table = run_experiment(cfg, threads=args.threads, study_only=args.command == "sweep")
    for path in emit_experiment(table, cfg, args.out):
        print(f"wrote {path}")
    for st in table.studies:
        for rule, rs in st.rules.items():
            mcc = "NA" if is_na(rs.best_mcc) else f"{rs.best_mcc:.3f}"
            print(f"{st.structure} p={st.dim} rule={rule}: "
                  f"best eta {rs.best_eta:.2f} (median MCC {mcc})")
    return 0


def _cmd_real(args) -> int:
    d = _config_dict(args)
    if args.csv:
        d["csv_path"] = args.csv
    cfg = decode(RealAnalysisConfig, d)
    result = run_real_analysis(cfg, threads=args.threads)
    emit_real(result, cfg, args.out)
    print(
        f"groups {result.group_names} sizes {result.group_sizes}; "
        f"Box's M p-value {result.box_m_p_value:.4g}; "
        f"edges written to {os.path.join(args.out, 'edges.txt')}"
    )
    return 0


@dataclass(frozen=True)
class SampleConfig:
    """``sample``'s settings: the sampler's, and the seed of its one chain."""

    gibbs: GibbsConfig = GibbsConfig()
    master_seed: int = bound(0, ge=0)

    def __post_init__(self):
        check_fields(self)


def _cmd_sample(args) -> int:
    if args.threads > 1:
        raise ValueError(
            f"--threads must be 1 for sample, which runs one chain; got {args.threads}"
        )
    d = _config_dict(args)
    for name in ("burn_in", "retained"):
        if getattr(args, name) is not None:
            d["gibbs"][name] = getattr(args, name)
    cfg = decode(SampleConfig, d)
    ds = read_csv(args.csv, date_column=args.date_column)
    x = ds.rows
    if args.nonparanormal:
        try:
            x = nonparanormal_transform(x)
        except ColumnError as err:
            raise ValueError(f"column {ds.columns[err.column]!r} {err.problem}") from None
        except ValueError as err:
            raise ValueError(f"{args.csv}: {err}") from None
    request = ChainRequest(mirror_lower(x.T @ x), len(x), cfg.gibbs, cfg.master_seed)
    (chain,) = run_chains([request])
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "posterior_mean.csv"), ds.columns, chain.theta_mean)
    write_csv(
        os.path.join(args.out, "partial_correlation_mean.csv"), ds.columns, chain.partial_mean
    )
    write_manifest(
        args.out,
        asdict(cfg),
        [[cfg.master_seed]],
        csv=args.csv,
        date_column=args.date_column,
        nonparanormal=args.nonparanormal,
        n=len(x),
    )
    print(f"wrote posterior summaries for {len(ds.columns)} columns to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesdn", description="Bayesian differential network estimation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthetic", help="synthetic loss/score benchmark")
    _add_common(p_syn)
    _add_experiment_flags(p_syn)
    # sweep scans eta over its grid and runs no estimator, so these are synthetic's
    p_syn.add_argument("--eta", type=float)
    p_syn.add_argument("--estimators", help="comma subset of bnet,dnet")
    p_syn.set_defaults(fn=_cmd_experiment)

    p_sweep = sub.add_parser("sweep", help="threshold study over the eta grid")
    _add_common(p_sweep)
    _add_experiment_flags(p_sweep)
    p_sweep.set_defaults(fn=_cmd_experiment)

    p_real = sub.add_parser("real", help="two-group analysis of a CSV dataset")
    _add_common(p_real)
    p_real.add_argument("--csv", help="dataset path (overrides config csv_path)")
    p_real.set_defaults(fn=_cmd_real)

    p_sample = sub.add_parser("sample", help="run one Gibbs chain over one CSV")
    _add_common(p_sample)
    p_sample.add_argument("--csv", required=True)
    p_sample.add_argument("--date-column")
    p_sample.add_argument("--nonparanormal", action="store_true")
    p_sample.add_argument("--burn-in", type=int, dest="burn_in")
    p_sample.add_argument("--retained", type=int)
    p_sample.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EmptyDataError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NotPositiveDefiniteError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
