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
from dataclasses import asdict, fields
from datetime import datetime, timezone
from operator import attrgetter

import numpy as np

from . import __version__
from .analysis import ConvergenceRecord, fit_abs_error_rate, sweep
from .chains import centered_chain_correlation_matrix, open_chain_correlation_matrix
from .circulant import _check_lag, _limit_integral_table, circulant_matrix, cycle_correlation_sequence
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
from .oracle import SAMPLE_BLOCK, fisher_z_discrepancies, model_correlation, sample

SELF_CHECK_TOLERANCE = 1e-8
Z_SCORE_LIMIT = 4.0


def _dumps(obj, indent=None) -> str:
    try:
        return json.dumps(obj, indent=indent, allow_nan=False, default=np.ndarray.tolist)
    except ValueError as exc:
        raise DomainError(f"non-finite value in JSON output ({exc})") from exc


def _csv_row(row) -> str:
    """One CSV line, formatted by a single ``%`` over the whole row.

    The template is built from each cell's type: ``%.9g`` for floats (Python
    and numpy) and ``%s`` for anything else (so a ``bool`` prints as ``True``,
    and a ``%`` inside a string cell is data, not a directive).
    """
    row = tuple(row)
    template = ",".join(["%.9g" if isinstance(c, (float, np.floating)) else "%s" for c in row])
    return template % row


# argparse dests that select the output or the handler, not a computation
_NOT_PARAMETERS = frozenset({"command", "format", "deterministic", "func"})


def _write(args, columns, rows, *, payload=None, metadata=None, note=None) -> None:
    """Write a command's result: a CSV table, or the JSON envelope.

    CSV is printed one line per row as the rows are generated, so ``rows``
    may be a lazy iterable; the header, every row and ``note`` (one more row,
    written to stderr after the table) all go through :func:`_csv_row`.  The
    JSON payload is ``payload`` if given, else one object per row; numpy
    arrays in it are written as nested lists.  The envelope names the
    command and its parameters, every other argparse dest in the order the
    parser defines them; ``metadata`` extends it.
    """
    if args.format == "json":
        parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
        meta = {"command": args.command, "parameters": parameters, "version": __version__}
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
    # unit-coupling mass that induces the same edge weight; below tau ~ 2.8e-309
    # the quotient overflows, and the square roots are taken apart instead
    ratio = (1.0 - 2.0 * tau) / (2.0 * tau)
    return math.sqrt(ratio) if ratio < math.inf else math.sqrt(1.0 - 2.0 * tau) / math.sqrt(2.0 * tau)


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
    _write(args, columns, rows)
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
    else:
        matrix = _closed_matrix(graph, args.tau)
    if args.method == "both":
        reference = model_correlation(graph, args.tau).correlation
        deviation = float(np.max(np.abs(matrix - reference)))
        if deviation > SELF_CHECK_TOLERANCE:
            raise SelfCheckError(
                f"closed-form and inversion matrices deviate by {deviation:.3e} "
                f"(tolerance {SELF_CHECK_TOLERANCE:g})"
            )

    labels = list(graph.indices)
    _write(
        args,
        ["i"] + [str(x) for x in labels],
        ((label, *matrix[pos].tolist()) for pos, label in enumerate(labels)),
        payload={"indices": labels, "matrix": matrix},
        metadata=None if deviation is None else {"max_abs_deviation": deviation},
        note=None if deviation is None else ("max_abs_deviation", deviation),
    )
    return 0


def cmd_converge(args) -> int:
    result = sweep(GraphKind(args.graph), args.i, args.j, args.tau, args.n_min, args.n_max)

    fit_info = asdict(fit_abs_error_rate(result)) if args.fit else None
    columns = [f.name for f in fields(ConvergenceRecord)]
    rows = list(map(attrgetter(*columns), result))
    _write(
        args,
        columns,
        rows,
        payload={"records": [dict(zip(columns, row)) for row in rows], "fit": fit_info},
        note=None if fit_info is None else (_dumps(fit_info),),
    )
    return 0


def cmd_circulant(args) -> int:
    graph = _graph("cycle", args.n)
    lags = [_check_lag(graph.n, args.k)] if args.k is not None else range(graph.n)
    seq = cycle_correlation_sequence(graph.n, args.tau)
    if args.riemann:
        # the n-point left Riemann sum of the spectral integrand is exactly 2 pi cov_k
        columns = ["k", "riemann_sum", "integral", "gap"]
        sums = [2.0 * math.pi * float(seq.covariances[k]) for k in lags]
        pairs = list(zip(sums, _limit_integral_table(lags, args.tau)))
    else:
        base = decay_base(args.tau)
        columns = ["k", "correlation", "limit", "gap"]
        pairs = [(float(seq.correlations[k]), base**k) for k in lags]
    rows = [(k, value, limit, value - limit) for k, (value, limit) in zip(lags, pairs)]
    _write(args, columns, rows)
    return 0


def cmd_sample(args) -> int:
    if args.count < 100:
        raise DomainError(f"count must be >= 100, got {args.count}")
    graph = _graph(args.graph, args.n)
    batch = sample(graph, args.tau, args.count, args.seed)
    exact = model_correlation(graph, args.tau).correlation
    scores = fisher_z_discrepancies(batch, exact)

    dim = graph.node_count
    a, b = np.triu_indices(dim, 1)
    labels = np.asarray(graph.indices)
    columns = ["i", "j", "empirical", "exact", "z_score"]
    cells = (labels[a], labels[b], batch.correlation[a, b], exact[a, b], scores[a, b])
    rows = list(zip(*(c.tolist() for c in cells)))
    # scores is symmetric with a zero diagonal: its max is the max over the rows
    max_z = float(scores.max())
    metadata = {
        "method": batch.method,
        "philox_words": batch.count * dim,
        "sample_block": SAMPLE_BLOCK,
        "fisher_stderr": batch.fisher_stderr,
        "max_z_score": max_z,
        "z_score_limit": Z_SCORE_LIMIT,
    }
    _write(args, columns, rows, metadata=metadata)
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
