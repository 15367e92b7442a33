"""Command-line front end.

Every command emits CSV (default) or a JSON envelope ``{"metadata": ...,
"payload": ...}`` selected by ``--format``.  CSV cells carry 9 significant
digits; JSON carries full round-trip precision on one compact line, which
``python -m json.tool`` pretty-prints.  With ``--deterministic`` the envelope
omits the timestamp, making reruns byte-identical.  Matrices are serialised
from their structure, in CSV and JSON alike: the rows of a circulant (closed
cycle) matrix are rotations of its one encoded first row, and the lower half
of a closed chain matrix, which is exactly reversal-symmetric, mirrors its
encoded upper half.  Inside a chain's upper half, the cells more than K-1
nodes from either end are exact powers ``base**d``, where K is the first k
whose finite-size factor ``1 - exp(-2 k rate)`` rounds to 1.0; such a row is
spliced from its encoded boundary cells and slices of one encoded power row,
after a bitwise check that its cells are those powers.  Every distinct row
(one, ceil(n/2), or all n for the oracle's matrix) is encoded before the first
byte is written, so a non-finite value in JSON exits 2 with nothing on stdout;
the rows are then written one at a time, and the whole matrix text is never
held.  ``corr`` refuses a route whose dense n x n arrays would not fit in
physical memory before it allocates them.

``decay``, ``converge``, ``circulant`` and ``corr --graph cycle --method
closed`` never load numpy: the cycle kernel is pure Python, and numpy is used
only by the chain matrices, the oracles and ``circulant_matrix``.

Exit codes: 0 ok, 2 domain error (including a non-finite value in JSON
output), 3 self-check failure, 4 insufficient data, 5 statistical failure,
6 resource limit (``corr`` arrays larger than physical memory), 141 (128 +
SIGPIPE) the reader closed stdout before the output ended.
"""

import argparse
import functools
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from operator import attrgetter

from . import __version__
from .analysis import ConvergenceRecord, fit_abs_error_rate, sweep
from .chains import _saturation, centered_chain_correlation_matrix, open_chain_correlation_matrix
from .circulant import circulant_matrix, cycle_correlation_sequence
from .errors import DomainError, GgchainError, InsufficientDataError, SelfCheckError
from .model import (
    GffParams,
    GraphKind,
    GraphSpec,
    as_index,
    decay_params,
    gff_decay_rate,
    sqrt_one_minus_4tau2,
    tau_from_gff,
)
from .oracle import SAMPLE_BLOCK, fisher_z_discrepancies, model_correlation, sample

# corr --method both admits SELF_CHECK_FACTOR * eps * min(kappa, n^2) between
# its two matrices (see _self_check); the factor was fixed before measuring
SELF_CHECK_FACTOR = 64
Z_SCORE_LIMIT = 4.0


def _dumps(obj) -> str:
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"non-finite value in JSON output ({exc})") from exc


# a run writes few row shapes; the cap bounds a long-lived process that writes many
@functools.lru_cache(maxsize=64)
def _template(types: tuple) -> str:
    real = [issubclass(t, numbers.Real) and not issubclass(t, numbers.Integral) for t in types]
    return ",".join(["%.9g" if r else "%s" for r in real])


def _csv_row(row) -> str:
    """One CSV line, formatted by a single ``%`` over the whole row.

    The template is built from each cell's type: ``%.9g`` for a
    ``numbers.Real`` that is not ``numbers.Integral`` (Python and numpy floats,
    which register with the ABC) and ``%s`` for anything else (so integers
    print exactly, a ``bool`` as ``True``, and a ``%`` inside a string cell is
    data, not a directive).  :func:`_template` builds it once per tuple of cell
    types and caches it for every row of that shape.
    """
    row = tuple(row)
    return _template(tuple(map(type, row))) % row


# argparse dests that select the output or the handler, not a computation
_NOT_PARAMETERS = frozenset({"command", "format", "deterministic", "func"})


def _write(args, columns, rows, *, payload=None, json_rows=None, metadata=None, notes=()) -> None:
    """Write a command's result: a CSV table, or the JSON envelope.

    CSV is printed one line per row as the rows are generated, so ``rows``
    may be a lazy iterable; the header, every row and each of ``notes`` (more
    rows, written to stderr after the table) all go through :func:`_csv_row`.  A
    cell may be text that is already encoded, such as a run of matrix
    cells; ``%s`` passes it through unchanged.  The JSON payload is
    ``payload`` if given, else one object per row.  The envelope names the
    command and its parameters, every other argparse dest in the order the
    parser defines them; ``metadata`` extends it.  It is printed as one compact line by
    :func:`_dumps`, which keeps ``json`` on its C encoder.

    ``json_rows``, if given, are the rows of the payload's last value, which
    ``payload`` holds as an empty list: JSON arrays already encoded by
    :func:`_json_cells`, so every value is checked before this is called.  The
    envelope is split where that list goes and the rows are written into it
    one at a time, without joining the whole matrix.
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
        envelope = _dumps({"metadata": meta, "payload": payload})
        if json_rows is None:
            print(envelope)
            return
        # the payload is the envelope's last value and the empty list its last
        head, _, tail = envelope.rpartition("[]")
        out = sys.stdout.write
        out(head + "[")
        sep = ""
        for line in json_rows:
            out(f"{sep}[{line}]")
            sep = ", "
        out("]" + tail + "\n")
        return
    print(_csv_row(columns))
    for row in rows:
        print(_csv_row(row))
    for note in notes:
        print(_csv_row(note), file=sys.stderr)


def _graph(kind: str, n: int) -> GraphSpec:
    return GraphSpec(GraphKind(kind), n)


class ResourceLimitError(GgchainError):
    """A command would build more than the machine's physical memory can hold."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report them."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    # sysconf returns -1 for a value it cannot determine
    return pages * page_size if pages > 0 and page_size > 0 else None


def _dense_bytes(graph: GraphSpec, method: str) -> int:
    """Bytes of the n x n float64 arrays that ``corr`` holds at once on this route.

    A lower bound: the closed chain matrix, or the closed cycle matrix that
    ``both`` checks, is one array (the closed cycle alone is O(n)), and the
    oracle holds its covariance and its correlation.  Temporaries come on top.
    """
    closed = method != "oracle" and (graph.kind is not GraphKind.CYCLE or method == "both")
    arrays = int(closed) + 2 * (method != "closed")
    return arrays * 8 * graph.node_count**2


def _check_memory(graph: GraphSpec, method: str) -> None:
    """Raise :class:`ResourceLimitError` if the route's dense arrays exceed physical memory."""
    needed, available = _dense_bytes(graph, method), _physical_memory()
    if available is not None and needed > available:
        raise ResourceLimitError(
            f"corr --method {method} on {graph.node_count} nodes needs at least "
            f"{needed / 2**30:.3g} GiB of dense arrays; physical memory is {available / 2**30:.3g} GiB"
        )


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
        if tau == 0.0:
            # name the field parameter at fault, not the derived tau = 0
            if args.beta == 0.0:
                raise DomainError(f"coupling must be > 0 for a finite decay rate, got {args.beta!r}")
            raise DomainError(
                f"mass {args.mass!r} is too large for coupling {args.beta!r}: "
                "the edge weight underflows to 0"
            )
    p = decay_params(tau)
    # rate via the unit-coupling field with the equivalent mass (m / sqrt(beta)
    # for a field input); equals p.rate by the closed-form identity and is
    # displayed as a cross-check
    mass = _implied_mass(p.tau) if by_tau else args.mass / math.sqrt(args.beta)
    gff_rate = gff_decay_rate(mass)
    columns = ["tau", "rate", "base", "gff_rate"]
    rows = [(p.tau, p.rate, p.base, gff_rate)]
    _write(args, columns, rows)
    return 0


def _json_cells(row) -> str:
    """One JSON row without its brackets: the cells of ``_dumps(row)``, joined by ``", "``."""
    return _dumps(row)[1:-1]


# per format: the row encoder and the separator between the cells it writes
_ROW_ENCODERS = {"csv": (_csv_row, ","), "json": (_json_cells, ", ")}


def _each_row(matrix, encode, sep):
    """Encoded rows of any matrix, each encoded before this returns (``sep`` unused)."""
    return [encode(row.tolist()) for row in matrix]


def _circulant_rows(first_row, encode, sep):
    """Encoded rows of the circulant matrix with ``first_row``, each value encoded once.

    Entry (r, j) is ``first_row[(j - r) % n]``, so row r is the encoded first
    row rotated right by r.  The first row is encoded before this returns; the
    rotations are joined one at a time as the rows are read.
    """
    cells = encode(first_row).split(sep)
    n = len(cells)
    return (sep.join(cells[n - r :] + cells[: n - r]) for r in range(n))


def _mirrored_rows(matrix, encode, sep, saturation):
    """Encoded rows of a closed chain matrix, each mirror pair encoded once.

    The matrix is symmetric and centrosymmetric: entry (n-1-r, j) equals
    (n-1-j, r) by reversal and (r, n-1-j) by symmetry, so row n-1-r (0-based)
    is row r reversed.  The first ceil(n/2) rows are encoded before this
    returns; the rest are the cells of a kept row in reverse order, joined one
    at a time as the rows are read.

    ``saturation`` is K, the first k with ``f(k) == 1.0`` (n+1 if there is
    none): in the block of rows and columns K..n+1-K (1-based) both ratios of
    the kernel are 1, and entry (r, c) is ``base**|c-r|``.  Row K-1 (0-based) is
    encoded in full and its cells in that block, the power row, are kept.
    Each later kept row whose cells in the block equal, bit for bit, the
    power row reflected about its diagonal is spliced from its encoded
    boundary cells and the reversed and forward slices of the power cells;
    every other row is encoded in full.  The bytes are those of encoding each
    cell of the matrix as it is.
    """
    import numpy as np

    n = len(matrix)
    lo, hi = saturation - 1, n + 1 - saturation  # the block: rows and columns lo..hi-1, 0-based
    kept, power = [], None
    for i, row in enumerate(matrix[: (n + 1) // 2]):
        block = row[lo:hi].view(np.uint64)
        # reflected is base**d for d = hi-lo-1 .. 1, 0, 1 .. hi-lo-1; row i's block starts at hi-1-i
        if power is not None and np.array_equal(block, reflected[hi - 1 - i : 2 * hi - lo - 1 - i]):
            # K = 1 leaves no boundary, and an empty row would split into one empty cell
            boundary = encode(row[:lo].tolist() + row[hi:].tolist()).split(sep) if lo else []
            cells = boundary[:lo] + power[i - lo : 0 : -1] + power[: hi - i] + boundary[lo:]
            kept.append(sep.join(cells))
        else:
            kept.append(encode(row.tolist()))
        if i == lo < hi:
            power = kept[-1].split(sep)[lo:hi]
            reflected = np.concatenate((block[:0:-1], block))
    # an odd n's middle row is its own mirror
    mirrored = (sep.join(line.split(sep)[::-1]) for line in reversed(kept[: n // 2]))
    return itertools.chain(kept, mirrored)


def _self_check(graph: GraphSpec, tau: float, matrix) -> dict:
    """Compare a closed-form matrix with the inversion oracle's; raise if they disagree.

    Returns ``self_check_tolerance``, ``SELF_CHECK_FACTOR * eps * min(kappa, n**2)``
    with ``kappa = (1 + 2 tau) / (1 - 2 tau)``, the bound on the precision
    matrix's condition number, and ``n`` the node count, then
    ``max_abs_deviation``, the largest entry-wise gap.  The tolerance is an
    empirical envelope, not a proven error bound: on open, centered and cycle
    graphs of 3 to 2001 nodes and tau up to 1/2 - 2**-40 the deviation stays
    below 0.17 eps * min(kappa, n**2).  Raises :class:`SelfCheckError` above it.
    """
    import numpy as np

    reference = model_correlation(graph, tau).correlation
    deviation = float(np.max(np.abs(matrix - reference)))
    kappa = (1.0 + 2.0 * tau) / (1.0 - 2.0 * tau)
    n = graph.node_count
    tolerance = SELF_CHECK_FACTOR * sys.float_info.epsilon * min(kappa, n * n)
    if deviation > tolerance:
        raise SelfCheckError(
            f"closed-form and inversion matrices deviate by {deviation:.3e} "
            f"(tolerance {tolerance:.3e})"
        )
    return {"self_check_tolerance": tolerance, "max_abs_deviation": deviation}


def cmd_corr(args) -> int:
    graph = _graph(args.graph, args.n)
    _check_memory(graph, args.method)
    # each route yields what its rows are encoded from, and the matrix to check
    if args.method == "oracle":
        # an inverted matrix is neither exactly circulant nor exactly centrosymmetric
        matrix = source = model_correlation(graph, args.tau).correlation
        layout = _each_row
    elif graph.kind is GraphKind.CYCLE:
        source = cycle_correlation_sequence(graph.n, args.tau).correlations
        matrix = circulant_matrix(source) if args.method == "both" else None
        layout = _circulant_rows
    else:
        build = (
            open_chain_correlation_matrix
            if graph.kind is GraphKind.OPEN_CHAIN
            else centered_chain_correlation_matrix
        )
        matrix = source = build(graph.n, args.tau)
        n = len(matrix)
        # tau = 0 builds the identity, and decay_params refuses it
        k = n + 1 if args.tau == 0.0 else _saturation(n, decay_params(args.tau).rate)
        layout = functools.partial(_mirrored_rows, saturation=k)
    # checked before any row is encoded: the oracle's matrix and the encoded
    # rows are never held at once
    check = _self_check(graph, args.tau, matrix) if args.method == "both" else None
    lines = layout(source, *_ROW_ENCODERS[args.format])

    labels = list(graph.indices)
    _write(
        args,
        ["i"] + [str(x) for x in labels],
        zip(labels, lines),
        payload={"indices": labels, "matrix": []},
        json_rows=lines,
        metadata=check,
        # the deviation is the last line of stderr, where scripts read it
        notes=() if check is None else check.items(),
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
        notes=() if fit_info is None else [(_dumps(fit_info),)],
    )
    return 0


def cmd_circulant(args) -> int:
    graph = _graph("cycle", args.n)
    lags = [as_index(args.k, "lag", 0, graph.n - 1)] if args.k is not None else range(graph.n)
    seq = cycle_correlation_sequence(graph.n, args.tau)
    if args.riemann:
        # the n-point left Riemann sum of the spectral integrand is exactly 2 pi cov_k,
        # and its limit the integral 2 pi base**k / s
        columns = ["k", "riemann_sum", "integral", "gap"]
        two_pi = 2.0 * math.pi
        s = sqrt_one_minus_4tau2(seq.tau)
        values = [two_pi * c for c in seq.covariances]
        limits = [two_pi * (b / s) for b in seq.limits]
    else:
        columns = ["k", "correlation", "limit", "gap"]
        values, limits = seq.correlations, seq.limits
    rows = [(k, values[k], limits[k], values[k] - limits[k]) for k in lags]
    _write(args, columns, rows)
    return 0


def cmd_sample(args) -> int:
    import numpy as np

    count = as_index(args.count, "count", 100)
    graph = _graph(args.graph, args.n)
    batch = sample(graph, args.tau, count, args.seed)
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull so the
        # interpreter's final flush stays quiet, and exit 128 + SIGPIPE, as a
        # shell reports a process that the signal ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DomainError, OverflowError) as exc:
        print(f"ggchain: domain error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"ggchain: self-check failure: {exc}", file=sys.stderr)
        return 3
    except InsufficientDataError as exc:
        print(f"ggchain: insufficient data: {exc}", file=sys.stderr)
        return 4
    except ResourceLimitError as exc:
        print(f"ggchain: resource limit: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
