"""Command-line front end.

Every command emits CSV (default) or a JSON envelope ``{"metadata": ...,
"payload": ...}`` selected by ``--format``.  CSV cells carry 9 significant
digits; JSON carries full round-trip precision.  With ``--deterministic`` the
envelope omits the timestamp, making reruns byte-identical.

Exit codes: 0 ok, 2 domain error (including a non-finite value in JSON
output), 3 self-check failure, 4 insufficient data, 5 statistical failure.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import fit_abs_error_rate, sweep
from .chains import centered_chain_correlation_matrix, open_chain_correlation_matrix
from .circulant import _check_lag, circulant_matrix, cycle_correlation_sequence, limit_integral
from .errors import DomainError, InsufficientDataError, SelfCheckError
from .model import (
    GffParams,
    GraphKind,
    GraphSpec,
    decay_base,
    decay_params,
    gff_decay_rate,
    tau_from_gff,
)
from .oracle import fisher_z_discrepancies, model_correlation, sample

SELF_CHECK_TOLERANCE = 1e-8
Z_SCORE_LIMIT = 4.0


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _dumps(obj, indent=None) -> str:
    try:
        return json.dumps(obj, indent=indent, allow_nan=False, default=np.ndarray.tolist)
    except ValueError as exc:
        raise DomainError(f"non-finite value in JSON output ({exc})") from exc


def _csv_row(row) -> str:
    return ",".join(map(_fmt, row))


def _write(args, command, parameters, columns, rows, *, payload=None, metadata=None, note=None) -> None:
    """Write a command's result: a CSV table, or the JSON envelope.

    The JSON payload is ``payload`` if given, else one object per row; numpy
    arrays in it are written as nested lists.  ``metadata`` extends the
    envelope's metadata.  ``note`` is one more CSV row, written to stderr after
    the table.
    """
    if args.format == "json":
        meta = {"command": command, "parameters": parameters, "version": __version__}
        if metadata:
            meta.update(metadata)
        if not args.deterministic:
            meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        if payload is None:
            payload = [dict(zip(columns, row)) for row in rows]
        print(_dumps({"metadata": meta, "payload": payload}, indent=2))
        return
    print(_csv_row(columns))
    for row in rows:
        print(_csv_row(row))
    if note is not None:
        print(_csv_row(note), file=sys.stderr)


def _graph(kind: str, n: int) -> GraphSpec:
    return GraphSpec(GraphKind(kind), n)


def _implied_mass(tau: float) -> float:
    # unit-coupling mass that induces the same edge weight
    return math.sqrt((1.0 - 2.0 * tau) / (2.0 * tau))


def cmd_decay(args) -> int:
    by_tau = args.tau is not None
    by_field = args.mass is not None or args.beta is not None
    if by_tau == by_field:
        raise DomainError("give exactly one parameterisation: --tau, or --mass with --beta")
    if by_field and (args.mass is None or args.beta is None):
        raise DomainError("--mass and --beta must be given together")

    if by_tau:
        tau = args.tau
    else:
        tau = tau_from_gff(GffParams(beta=args.beta, mass=args.mass))
    p = decay_params(tau)
    if not by_tau and args.beta == 1.0:
        gff_rate = gff_decay_rate(args.mass)
    else:
        # rate via the unit-coupling field with the equivalent mass; equals
        # p.rate by the closed-form identity and is displayed as a cross-check
        gff_rate = gff_decay_rate(_implied_mass(p.tau))
    columns = ["tau", "rate", "base", "gff_rate"]
    rows = [(p.tau, p.rate, p.base, gff_rate)]
    params = {"tau": args.tau, "mass": args.mass, "beta": args.beta}
    _write(args, "decay", params, columns, rows)
    return 0


def _closed_matrix(graph: GraphSpec, tau: float) -> np.ndarray:
    if graph.kind is GraphKind.OPEN_CHAIN:
        return open_chain_correlation_matrix(graph.n, tau)
    if graph.kind is GraphKind.CENTERED_CHAIN:
        return centered_chain_correlation_matrix(graph.n, tau)
    seq = cycle_correlation_sequence(graph.n, tau)
    return circulant_matrix(seq.correlations)


def cmd_corr(args) -> int:
    graph = _graph(args.graph, args.n)
    deviation = None
    if args.method == "oracle":
        matrix = model_correlation(graph, args.tau).correlation
    elif args.method == "closed":
        matrix = _closed_matrix(graph, args.tau)
    else:
        matrix = _closed_matrix(graph, args.tau)
        reference = model_correlation(graph, args.tau).correlation
        deviation = float(np.max(np.abs(matrix - reference)))
        if deviation > SELF_CHECK_TOLERANCE:
            raise SelfCheckError(
                f"closed-form and inversion matrices deviate by {deviation:.3e} "
                f"(tolerance {SELF_CHECK_TOLERANCE:g})"
            )

    labels = list(graph.indices)
    params = {"graph": args.graph, "n": args.n, "tau": args.tau, "method": args.method}
    _write(
        args,
        "corr",
        params,
        ["i"] + [str(x) for x in labels],
        ((label, *matrix[pos]) for pos, label in enumerate(labels)),
        payload={"indices": labels, "matrix": matrix},
        metadata=None if deviation is None else {"max_abs_deviation": deviation},
        note=None if deviation is None else ("max_abs_deviation", deviation),
    )
    return 0


def cmd_converge(args) -> int:
    result = sweep(GraphKind(args.graph), args.i, args.j, args.tau, args.n_min, args.n_max)

    fit_info = None
    if args.fit:
        fit = fit_abs_error_rate(result)
        fit_info = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "expected_slope": fit.expected_slope,
            "relative_slope_error": fit.relative_slope_error,
            "n_points": fit.n_points,
        }

    columns = ["n", "exact", "limit", "abs_err", "rel_err", "scaled_rel"]
    rows = [(r.n, r.exact, r.limit, r.abs_err, r.rel_err, r.scaled_rel) for r in result]
    params = {
        "graph": args.graph,
        "i": args.i,
        "j": args.j,
        "tau": args.tau,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "fit": args.fit,
    }
    _write(
        args,
        "converge",
        params,
        columns,
        rows,
        payload={"records": [dict(zip(columns, row)) for row in rows], "fit": fit_info},
        note=None if fit_info is None else (_dumps(fit_info),),
    )
    return 0


def cmd_circulant(args) -> int:
    graph = _graph("cycle", args.n)
    lags = [_check_lag(graph.n, args.k)] if args.k is not None else range(graph.n)
    params = {"n": args.n, "tau": args.tau, "k": args.k, "riemann": args.riemann}
    seq = cycle_correlation_sequence(graph.n, args.tau)
    if args.riemann:
        # the n-point left Riemann sum of the spectral integrand is exactly 2 pi cov_k
        columns = ["k", "riemann_sum", "integral", "gap"]
        pairs = [(2.0 * math.pi * float(seq.covariances[k]), limit_integral(k, args.tau)) for k in lags]
    else:
        base = decay_base(args.tau)
        columns = ["k", "correlation", "limit", "gap"]
        pairs = [(float(seq.correlations[k]), base**k) for k in lags]
    rows = [(k, value, limit, value - limit) for k, (value, limit) in zip(lags, pairs)]
    _write(args, "circulant", params, columns, rows)
    return 0


def cmd_sample(args) -> int:
    if args.count < 100:
        raise DomainError(f"count must be >= 100, got {args.count}")
    graph = _graph(args.graph, args.n)
    batch = sample(graph, args.tau, args.count, args.seed)
    exact = model_correlation(graph, args.tau).correlation
    scores = fisher_z_discrepancies(batch, exact)

    labels = list(graph.indices)
    columns = ["i", "j", "empirical", "exact", "z_score"]
    rows = []
    dim = len(labels)
    for a in range(dim):
        for b in range(a + 1, dim):
            rows.append(
                (labels[a], labels[b], float(batch.correlation[a, b]), float(exact[a, b]), float(scores[a, b]))
            )
    max_z = max((row[4] for row in rows), default=0.0)
    params = {
        "graph": args.graph,
        "n": args.n,
        "tau": args.tau,
        "count": args.count,
        "seed": args.seed,
    }
    metadata = {
        "method": batch.method,
        "fisher_stderr": batch.fisher_stderr,
        "max_z_score": max_z,
        "z_score_limit": Z_SCORE_LIMIT,
    }
    _write(args, "sample", params, columns, rows, metadata=metadata)
    return 0 if max_z <= Z_SCORE_LIMIT else 5


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    shared.add_argument(
        "--deterministic",
        action="store_true",
        help="omit run-dependent metadata so identical invocations emit identical bytes",
    )

    parser = argparse.ArgumentParser(
        prog="ggchain",
        description="Pairwise correlations of one-dimensional Gaussian graphical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decay", parents=[shared], help="decay rate and base for an edge weight")
    p.add_argument("--tau", type=float)
    p.add_argument("--mass", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("corr", parents=[shared], help="full correlation matrix")
    p.add_argument("--graph", choices=("open", "centered", "cycle"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("converge", parents=[shared], help="finite-size error sweep for one pair")
    p.add_argument("--graph", choices=("open", "centered", "cycle"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n-min", type=int, required=True, dest="n_min")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--fit", action="store_true", help="fit the absolute-error decay rate")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("circulant", parents=[shared], help="cycle correlations and Riemann sums")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--riemann", action="store_true", help="emit Riemann sums and limit integrals")
    p.set_defaults(func=cmd_circulant)

    p = sub.add_parser("sample", parents=[shared], help="Monte Carlo check of the exact correlations")
    p.add_argument("--graph", choices=("open", "centered", "cycle"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DomainError, OverflowError) as exc:
        print(f"ggchain: domain error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"ggchain: self-check failure: {exc}", file=sys.stderr)
        return 3
    except InsufficientDataError as exc:
        print(f"ggchain: insufficient data: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
