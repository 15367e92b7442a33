"""Command-line front end.

Every command emits CSV (default) or a JSON envelope ``{"metadata": ...,
"payload": ...}`` selected by ``--format``.  CSV cells carry 9 significant
digits; JSON carries full round-trip precision on one compact line, which
``python -m json.tool`` pretty-prints.  With ``--deterministic`` the envelope
omits the timestamp, making reruns byte-identical.  Matrices are serialised
from their structure, in CSV and JSON alike: the rows of a circulant (closed
cycle) matrix are rotations of its one encoded first row, and every other
matrix goes through :func:`_matrix_rows`, which writes each row as it encodes
it and reuses an encoding only where the bits show the same value: a row takes
the run of cells around its diagonal that repeat the previous row, one column
to the left (a chain's exact powers ``base**d``), from that row's encoded
cells, and a lower row that is an upper row reversed (every chain matrix is
centrosymmetric) reverses that row's encoding, kept until then.  The whole
matrix text is never held, and every other table streams row by row too.  A
non-finite value in JSON exits 2 with nothing on stdout: the matrix is checked
before the first byte.  ``corr`` holds at most one n x n array: under
``--method both`` the closed form is compared with the oracle's correlation
as it is made, in the oracle's buffer.  ``corr`` and ``sample`` predict
their peak allocation and refuse a run that physical memory cannot hold
before it starts; ``converge`` and ``circulant`` hold one row at a time.

``decay``, ``converge``, ``circulant`` and ``corr --graph cycle --method
closed`` never load numpy: the cycle kernel is pure Python, and numpy is used
only by the chain matrices and the oracles.

Exit codes: 0 ok, 2 domain error (including a non-finite value in JSON
output), 3 self-check failure, 4 insufficient data, 5 statistical failure,
6 resource limit (``corr`` or ``sample`` arrays larger than physical
memory), 141 (128 + SIGPIPE) the reader closed stdout before the output
ended.
"""

import argparse
import functools
import itertools
import json
import math
import numbers
import os
import sys
from datetime import datetime, timezone
from operator import attrgetter

from . import __version__
from .analysis import ConvergenceRecord, fit_abs_error_rate, sweep
from .chains import open_chain_correlation_matrix, open_chain_correlation_rows
from .circulant import cycle_correlation, cycle_correlation_sequence, cycle_lags
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
from .oracle import ROW_BLOCK, SAMPLE_BLOCK, SAMPLE_BUFFER, fisher_z_discrepancies, model_correlation, sample

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
# rows' objects per JSON item when a command passes no json_rows
_JSON_ROWS = 64


def _write(args, columns, rows, *, payload=None, json_rows=None, metadata=None, notes=()) -> None:
    """Write a command's result: a CSV table, or the JSON envelope.

    CSV is printed one line per row as the rows are generated, so ``rows``
    may be a lazy iterable; the header, every row and each of ``notes`` (more
    rows, written to stderr after the table) all go through :func:`_csv_row`.  A
    cell may be text that is already encoded, such as a run of matrix
    cells; ``%s`` passes it through unchanged.  The envelope names the
    command and its parameters, every other argparse dest in the order the
    parser defines them; ``metadata`` extends it.  It is one compact line,
    encoded by :func:`_dumps`, which keeps ``json`` on its C encoder.

    JSON streams too.  The envelope is split at the payload's last empty list
    (the payload is ``[]`` when none is given), and that list's items are
    written one by one: ``json_rows``, each one or more JSON values checked by
    :func:`_json_cells`, else the rows' objects, ``_JSON_ROWS`` to an item.
    The envelope and the first item are encoded before the first byte, so a
    non-finite value there exits 2 with stdout empty.  Later rows are finite:
    ``corr`` checks its matrix's extremes first, or encodes a cycle's one
    distinct row; a non-finite ``sample`` value makes its metadata's
    ``max_z_score`` non-finite; ``converge`` makes a first pass over its
    sweep, its columns are bounded and ``scaled_rel`` raises rather than
    overflow; ``circulant``'s values are bounded at every admissible tau (at
    most about 1.9e16, at tau = 1/2 - 2**-54 and n = 3).
    """
    if args.format == "json":
        parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
        meta = {"command": args.command, "parameters": parameters, "version": __version__}
        if metadata:
            meta.update(metadata)
        if not args.deterministic:
            meta["timestamp"] = datetime.now(timezone.utc).isoformat()
        if json_rows is None:
            objects = (dict(zip(columns, row)) for row in rows)
            json_rows = map(_json_cells, iter(lambda: list(itertools.islice(objects, _JSON_ROWS)), []))
        items = iter(json_rows)
        envelope = _dumps({"metadata": meta, "payload": [] if payload is None else payload})
        head, _, tail = envelope.rpartition("[]")
        out = sys.stdout.write
        out(head + "[" + next(items, ""))  # the first item is encoded before any byte is written
        for item in items:
            out(", " + item)
        out("]" + tail + "\n")
        return
    print(_csv_row(columns))
    for row in rows:
        print(_csv_row(row))
    for note in notes:
        print(_csv_row(note), file=sys.stderr)


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


# the widest encoded cell with its separator: "%.9g" writes at most 16
# characters ("-1.23456789e-308"), a float's repr at most 24
_CELL_BYTES = {"csv": 17, "json": 26}
# what a run allocates besides its n x n array and encoded rows: a fixed part
# (the argument parser and other per-run objects) and a part per node (O(n)
# tables, the cycle's sequences, a row split into cells, the correlation
# transform's ROW_BLOCK-row block of 512 B a node), from tracemalloc at 3-2000 nodes
_FIXED_BYTES, _NODE_BYTES = 2**17, 1024


def _peak_bytes(graph: GraphSpec, method: str, fmt: str) -> int:
    """Bytes ``corr`` allocates at its peak on this route, predicted before it allocates.

    A route holds one n x n array at most: the oracle's correlation (in which
    ``both`` checks the closed form, and on a chain writes it) or a chain's
    closed-form matrix.  Its rows are written as they are encoded, and a row
    encoded in full is kept only until its mirror row: with the row being
    encoded, ceil(n/2) rows at their widest cells.  The closed cycle holds no
    n x n array, as its rows are rotations of one encoded row; under ``both``
    it holds the oracle's, which is checked against windows of that row.
    """
    n = graph.node_count
    square = 8 * n * n
    if graph.kind is GraphKind.CYCLE and method != "oracle":
        held = square if method == "both" else 0
    else:
        held = square + (n + 1) // 2 * n * _CELL_BYTES[fmt]
    return held + _FIXED_BYTES + _NODE_BYTES * n


def _sample_peak_bytes(graph: GraphSpec, count: int) -> int:
    """Bytes ``sample`` allocates at its peak, predicted before it allocates.

    The peak is the larger of two phases.  First the sampler: two dim x dim
    arrays (the cross products and one block's product; the factor is three
    vectors) beside one block of variates and the buffer that fills it.  Then
    four dim x dim arrays (cross products, empirical and exact correlations,
    z-scores) beside the z-scores' ``ROW_BLOCK``-row float block and its two
    boolean masks.  Rows are written one node at a time after the cross
    products go.
    """
    dim = graph.node_count
    square = 8 * dim * dim
    draws = min(count, SAMPLE_BLOCK)
    sampling = 2 * square + 8 * dim * (draws + min(draws, SAMPLE_BUFFER))
    comparison = 4 * square + (8 + 2) * min(ROW_BLOCK, dim) * dim
    return max(sampling, comparison) + _FIXED_BYTES + _NODE_BYTES * dim


def _check_memory(needed: int, run: str) -> None:
    """Raise :class:`ResourceLimitError` if ``needed``, ``run``'s predicted peak, exceeds physical memory."""
    available = _physical_memory()
    if available is not None and needed > available:
        raise ResourceLimitError(
            f"{run} needs about {needed / 2**30:.3g} GiB; "
            f"physical memory is {available / 2**30:.3g} GiB"
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


def _json_cells(values) -> str:
    """A JSON array without its brackets: the values of ``_dumps(values)``, joined by ``", "``."""
    return _dumps(values)[1:-1]


# per format: the row encoder and the separator between the cells it writes
_ROW_ENCODERS = {"csv": (_csv_row, ","), "json": (_json_cells, ", ")}


def _circulant_rows(first_row, encode, sep):
    """Encoded rows of the circulant matrix with ``first_row``, each value encoded once.

    Entry (r, j) is ``first_row[(j - r) % n]``, so row r is the encoded first
    row rotated right by r.  The first row is encoded before this returns; the
    rotations are joined one at a time as the rows are read.
    """
    cells = encode(first_row).split(sep)
    n = len(cells)
    return (sep.join(cells[n - r :] + cells[: n - r]) for r in range(n))


def _matrix_rows(matrix, encode, sep):
    """Encoded rows of a dense matrix, yielded as encoded, reusing an encoding only where the bits are equal.

    In each row after the first, the run of columns c around the diagonal
    where entry (r, c) equals (r-1, c-1) (a chain's powers ``base**|c-r|``
    past saturation) takes its cells from the previous row's; the other cells
    are encoded in one call.  Column 0 is never in a run, and a run of one
    cell is encoded with its row.  A row r encoded in full whose mirror row
    n-1-r is its reverse (every chain matrix is centrosymmetric) is kept until
    that row, which is its cells in reverse order, so at most n/2 rows are
    held.  The bytes are those of encoding each cell as it is.
    """
    import numpy as np

    n = len(matrix)
    bits = matrix.view(np.uint64)
    kept = {}  # rows encoded in full, by index, until their mirror row is written
    line = cells = None  # the previous row's encoding, and its cells once split
    for i in range(n):
        if n - 1 - i in kept:  # row i is that row reversed
            cells = kept.pop(n - 1 - i).split(sep)[::-1]
            yield (line := sep.join(cells))
            continue
        # column j + 1 does not continue the previous row for each j in stops; the
        # run lies between two such columns, or column 0 and the row's end (row 0 has none)
        stops = np.flatnonzero(bits[i, 1:] != bits[i - 1, :-1])
        k = stops.searchsorted(i - 1)
        start = stops[k - 1] + 2 if k else 1
        stop = stops[k] + 1 if k < len(stops) else n
        if i and stop - start > 1:
            if cells is None:
                cells = line.split(sep)
            outside = encode(matrix[i, :start].tolist() + matrix[i, stop:].tolist()).split(sep)
            cells = outside[:start] + cells[start - 1 : stop - 1] + outside[start:]
            line = sep.join(cells)
        else:
            line, cells = encode(matrix[i].tolist()), None
            if i < n - 1 - i and np.array_equal(bits[i], bits[n - 1 - i, ::-1]):
                kept[i] = line
        yield line


def _self_check(graph: GraphSpec, tau: float, closed) -> tuple:
    """Compare the closed form with the oracle's correlation, in the oracle's buffer; raise if they disagree.

    For the cycle, ``closed`` is the first row, whose rotations (a view) are
    the rows; the gap is formed in the oracle's buffer, which is dropped, and
    the matrix returned is None.  For a chain, ``closed`` yields the upper rows
    (:func:`~ggchain.chains.open_chain_correlation_rows`), each compared with
    the oracle's row and column and then written over both: the buffer
    returned is the closed-form matrix that was checked.  Both diagonals are
    exact ones.  Also returns a dict of ``self_check_tolerance``,
    ``SELF_CHECK_FACTOR * eps * min(kappa, n**2)`` with
    ``kappa = (1 + 2 tau) / (1 - 2 tau)``, the bound on the precision
    matrix's condition number, and ``n`` the node count, then
    ``max_abs_deviation``, the largest entry-wise gap.  The tolerance is an
    empirical envelope, not a proven error bound: on open, centered and cycle
    graphs of 3 to 2001 nodes and tau up to 1/2 - 2**-40 the deviation stays
    below 0.17 eps * min(kappa, n**2).  Raises :class:`SelfCheckError` above it.
    """
    import numpy as np

    matrix = model_correlation(graph, tau).correlation
    n = graph.node_count
    if graph.kind is GraphKind.CYCLE:
        # row i is the window starting at n - 1 - i: entry (i, j) is closed[(j - i) % n]
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((closed[1:], closed)), n)[::-1]
        np.subtract(windows, matrix, out=matrix)
        deviation = float(np.max(np.abs(matrix, out=matrix)))
        matrix = None
    else:
        gaps = np.zeros(n)
        for i, row in enumerate(closed):
            upper, lower = matrix[i, i + 1 :], matrix[i + 1 :, i]
            gaps[i] = np.maximum(np.max(np.abs(row - upper)), np.max(np.abs(row - lower)))
            upper[...] = lower[...] = row
        deviation = float(np.max(gaps))
    kappa = (1.0 + 2.0 * tau) / (1.0 - 2.0 * tau)
    tolerance = SELF_CHECK_FACTOR * sys.float_info.epsilon * min(kappa, n * n)
    if deviation > tolerance:
        raise SelfCheckError(
            f"closed-form and inversion matrices deviate by {deviation:.3e} "
            f"(tolerance {tolerance:.3e})"
        )
    return matrix, {"self_check_tolerance": tolerance, "max_abs_deviation": deviation}


def cmd_corr(args) -> int:
    graph = GraphSpec(args.graph, args.n)
    run = f"corr --method {args.method} --format {args.format} on {graph.node_count} nodes"
    _check_memory(_peak_bytes(graph, args.method, args.format), run)
    # each route yields what its rows are encoded from; under both the closed
    # form is checked before any row is encoded
    layout, check = _matrix_rows, None
    if args.method == "oracle":
        source = model_correlation(graph, args.tau).correlation
    elif graph.kind is GraphKind.CYCLE:
        source = cycle_correlation_sequence(graph.n, args.tau).correlations
        layout = _circulant_rows
        if args.method == "both":
            _, check = _self_check(graph, args.tau, source)
    elif args.method == "both":
        source, check = _self_check(graph, args.tau, open_chain_correlation_rows(graph.node_count, args.tau))
    else:  # the centered chain's matrix is the open chain's on as many nodes
        source = open_chain_correlation_matrix(graph.node_count, args.tau)
    if args.format == "json" and layout is _matrix_rows:
        # JSON refuses a non-finite value anywhere before the first byte
        _json_cells([source.min().item(), source.max().item()])
    lines = layout(source, *_ROW_ENCODERS[args.format])

    labels = list(graph.indices)
    _write(
        args,
        ["i"] + [str(x) for x in labels],
        zip(labels, lines),
        payload={"indices": labels, "matrix": []},
        json_rows=(f"[{line}]" for line in lines),
        metadata=check,
        # the deviation is the last line of stderr, where scripts read it
        notes=() if check is None else check.items(),
    )
    return 0


def cmd_converge(args) -> int:
    result = sweep(args.graph, args.i, args.j, args.tau, args.n_min, args.n_max)
    # a first pass (the fit's, or a bare one) evaluates every record before the
    # first byte: an overflowing scaled_rel or too few usable points leaves stdout empty
    fit = fit_abs_error_rate(result) if args.fit else None
    if fit is None:
        for _ in result:
            pass
    fit_info = None if fit is None else {name: getattr(fit, name) for name in fit._fields}
    columns = list(ConvergenceRecord._fields)
    rows = map(attrgetter(*columns), result)
    notes = () if fit_info is None else [(_dumps(fit_info),)]
    _write(args, columns, rows, payload={"records": [], "fit": fit_info}, notes=notes)
    return 0


def cmd_circulant(args) -> int:
    # (k, covariance, correlation, limit) at one lag, or at every lag one at a time
    if args.k is None:
        lags = cycle_lags(args.n, args.tau)
    else:
        lags = [(args.k, *cycle_correlation(args.n, args.k, args.tau))]
    if args.riemann:
        # the n-point left Riemann sum of the spectral integrand is exactly 2 pi cov_k,
        # and its limit the integral 2 pi base**k / s
        columns = ["k", "riemann_sum", "integral", "gap"]
        two_pi, s = 2.0 * math.pi, sqrt_one_minus_4tau2(args.tau)
        values = ((k, two_pi * cov, two_pi * (b / s)) for k, cov, _, b in lags)
    else:
        columns = ["k", "correlation", "limit", "gap"]
        values = ((k, corr, b) for k, _, corr, b in lags)
    _write(args, columns, ((k, value, limit, value - limit) for k, value, limit in values))
    return 0


def cmd_sample(args) -> int:
    count = as_index(args.count, "count", 100)
    graph = GraphSpec(args.graph, args.n)
    run = f"sample --count {count} --format {args.format} on {graph.node_count} nodes"
    _check_memory(_sample_peak_bytes(graph, count), run)
    batch = sample(graph, args.tau, count, args.seed)
    exact = model_correlation(graph, args.tau).correlation
    scores = fisher_z_discrepancies(batch, exact)

    labels = list(graph.indices)
    columns = ["i", "j", "empirical", "exact", "z_score"]
    # the max over the rows (scores is symmetric, zero diagonal); count >= 100 keeps fisher_stderr
    # finite, so a NaN or inf in any matrix makes it non-finite and JSON exits 2 before any byte
    max_z = float(scores.max())
    metadata = {
        "method": batch.method,
        "philox_words": batch.count * len(labels),
        "sample_block": SAMPLE_BLOCK,
        "fisher_stderr": batch.fisher_stderr,
        "max_z_score": max_z,
        "z_score_limit": Z_SCORE_LIMIT,
    }
    matrices = (batch.correlation, exact, scores)
    del batch  # its cross products are not written

    def pairs(a):  # the rows of pairs (a, b), b > a, from row a of each matrix when read
        return zip(itertools.repeat(labels[a]), labels[a + 1 :], *(m[a, a + 1 :].tolist() for m in matrices))

    rows = itertools.chain.from_iterable(map(pairs, range(len(labels) - 1)))  # the last node has no pair
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
