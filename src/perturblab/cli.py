"""Command line front end.

Experiment subcommands read an optional config file, apply flag
overrides, run, and write <out>.csv (per-trial records) plus <out>.json
(summary tables).  The analysis subcommands (lo-check, gap-verify, net,
classify) operate on small text inputs and print their results.

Exit codes: 0 success, 1 a check failed, 2 invalid input (a missing file,
a malformed token named by its file and line, or a malformed spec string),
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import concentration, experiments, gaps, witness
from .config import ExperimentConfig, default_b_exponent, load_config
from .errors import PerturbLabError, ResourceError, ValidationError
from .noise import BoundednessCertificate, certificate_from_symmetric, distribution_from_spec
from .records import format_summary_json, write_records_csv, write_summary_json
from .util import content_lines, parse_file, token


def _config_dict(cfg: ExperimentConfig) -> dict:
    out = dataclasses.asdict(cfg)
    if out["out"] is None:
        del out["out"]
    return out


def _resolve_config(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config, kind=kind)
    else:
        cfg = ExperimentConfig(kind=kind)
    # every experiment flag's dest is a config field name
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(cfg, **overrides)


def _emit(result, cfg: ExperimentConfig) -> None:
    summary = result.summary()
    summary["config"] = _config_dict(cfg)
    if cfg.out:
        write_records_csv(cfg.out + ".csv", result.records)
        write_summary_json(cfg.out + ".json", summary)
        print(f"wrote {cfg.out}.csv and {cfg.out}.json")
    else:
        print(format_summary_json(summary))


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file: [kind] sections of key = value lines")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--noise", help="bernoulli | lazy_coin:<alpha> | discretized_gaussian[:R] | gaussian | file:<path>")
    p.add_argument("--matrix", help="zero | graded_diagonal | rank_one_ones | duplicated_column | file:<path>")
    p.add_argument("--c-exponent", dest="c_exponent", type=float, help="graded_diagonal caps its entries at n^C")
    p.add_argument("--mask", help="none | zeros | random:<k>")
    p.add_argument("--threads", type=int)
    p.add_argument("--out", help="output stem; writes <out>.csv and <out>.json")
    p.add_argument("--precision", choices=["single", "double"])
    p.add_argument("--b-grid", dest="b_grid", type=float, nargs="+")
    p.add_argument("--target-exceedance", dest="target_exceedance", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--compare-gaussian", dest="compare_gaussian", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturblab",
        description="condition number experiments for randomly perturbed integer matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, runner, help_text in (
        ("tail", experiments.tail_curve, "exceedance curve of the inverse norm"),
        ("cond-tail", experiments.condition_tail, "P(kappa >= n^B) over a grid of B"),
        ("ge-check", experiments.ge_error_experiment,
         "elimination error against the exact rational solve"),
        ("minors", experiments.minors_experiment, "condition numbers of all leading principal minors"),
        ("frozen", experiments.frozen_entries_experiment,
         "condition tail with frozen entries vs the unmasked run"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_experiment_flags(p)
        p.set_defaults(run=_run_experiment, runner=runner)

    p = sub.add_parser(
        "singularity", help="exact P(det = 0): cofactor vectors of the first n-1 lines against the last"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="bernoulli")
    p.set_defaults(run=_run_singularity)

    p = sub.add_parser("lo-check", help="exact concentration vs its cosine product bound")
    p.add_argument("query", help="query file: dist/v/z/a/mu lines")
    p.set_defaults(run=_run_lo_check)

    p = sub.add_parser("gap-verify", help="check a discretization against its progression")
    p.add_argument("gap", help="progression file")
    p.add_argument("discretization", help="discretization file")
    p.set_defaults(run=_run_gap_verify)

    p = sub.add_parser("net", help="build a separated covering net on the unit sphere")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=20260818)
    p.add_argument("--out", help="points CSV path (default: stdout)")
    p.set_defaults(run=_run_net)

    p = sub.add_parser("classify", help="rich/poor and singular/nonsingular label for a witness")
    p.add_argument("witness", help="file of whitespace separated integers, '#' comments")
    p.add_argument("--dist", default="bernoulli")
    p.add_argument("--a-exponent", dest="a_exponent", type=float, default=1.0)
    p.add_argument("--b-exponent", dest="b_exponent", type=float, default=None)
    p.set_defaults(run=_run_classify)
    return parser


def _run_experiment(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, args.command)
    _emit(args.runner(cfg), cfg)
    return 0


def _run_singularity(args: argparse.Namespace) -> int:
    dist = distribution_from_spec(args.dist)
    value = experiments.singularity_probability(args.n, dist)
    print(f"P(singular) = {value} = {float(value):.10g}")
    return 0


def _run_lo_check(args: argparse.Namespace) -> int:
    parsed = parse_file(args.query, concentration.parse_query)
    query = parsed.query
    if parsed.mu is not None:
        # the mu line certifies every law at its own multiplier a_i
        certs = [BoundednessCertificate(parsed.mu, a, a) for a in query.multipliers]
    else:
        # no mu line: derive certificates from the (symmetric) noise laws
        certs = [certificate_from_symmetric(d) for d in query.dists]
    report = concentration.check_dominance(query, parsed.v, certs)
    print("exact,bound,gap,ok")
    print(f"{float(report.exact)!r},{report.bound!r},{report.gap!r},{int(report.ok)}")
    return 0 if report.ok else 1


def _run_gap_verify(args: argparse.Namespace) -> int:
    gap = parse_file(args.gap, gaps.parse_gap)
    result = parse_file(args.discretization, gaps.parse_discretization)
    report = gaps.verify_discretization(gap, result)
    print(f"scale={report.scale} smallness={report.smallness} "
          f"sparseness={report.sparseness} covering={report.covering}")
    return 0 if report.ok else 1


def _run_net(args: argparse.Namespace) -> int:
    net = witness.greedy_net(args.dimension, args.epsilon, args.seed)
    lines = ["# perturblab-net schema=1",
             f"# dimension={net.dimension} epsilon={net.epsilon!r} points={len(net.points)}"]
    for point in net.points:
        lines.append(",".join(repr(float(x)) for x in point))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(net.points)} points, "
              f"uncovered mass bound {net.uncovered_mass_bound:.3g})")
    else:
        sys.stdout.write(text)
    return 0


def _run_classify(args: argparse.Namespace) -> int:
    values = parse_file(args.witness, lambda text: tuple(
        token(lineno, tok) for lineno, row in content_lines(text) for tok in row
    ))
    if not values:
        raise ValidationError("witness file is empty")
    n = len(values)
    dist = distribution_from_spec(args.dist)
    b = args.b_exponent if args.b_exponent is not None else default_b_exponent(1.0, 1.0)
    w = witness.WitnessVector(values=values, norm=0.0, b_exponent=b)
    query = concentration.ConcentrationQuery(dists=(dist,) * n)
    report = concentration.classify_rich(query, values, args.a_exponent)
    labeled = witness.label_witness(w, report)
    print(f"class = {labeled.label.name}")
    print(f"sup concentration = {float(report.sup)!r} (threshold {report.threshold!r})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PerturbLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
