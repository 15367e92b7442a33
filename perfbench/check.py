"""Correctness checks of ggchain CLI outputs, run outside the timed region.

Every value is compared with a reference computed here, not with the kernel
that produced it:

* chain matrices and sampler ``exact`` columns: the package's inversion
  oracle ``model_correlation`` (tridiagonal elimination, then rescaling);
* cycle correlations: the method-of-images closed form
  ``(b^k + b^(n-k)) / (1 + b^n)``, evaluated in log space;
* Riemann rows: ``2 pi (b^k + b^(n-k)) / ((1 - b^n) s)`` for the sum and
  ``2 pi b^k / s`` for the integral, with ``s = sqrt(1 - 4 tau^2)``;
* decay rates: ``arccosh(1 / (2 tau))``;
* converge records: the open-chain ``sinh`` form in log space.

An output fails on an unexpected exit code, unparseable or non-strict JSON
(``NaN``/``Infinity``), a wrong shape or label, or any value further than
:data:`TOLERANCE` from its reference, plus the rounding of a CSV cell.
Outputs that are right but break a documented contract are counted
separately: cycle correlations outside (0, 1) whose true value is a
positive double, and ``sample`` exits of 5 whose empirical correlations pass
a family-wise check at the CLI's own per-entry level.

The runner calls this module as a separate process, so that its own memory
never shows in the children's peak RSS (a child starts with its parent's
high-water mark):

    python perfbench/check.py MANIFEST

MANIFEST is a JSON list of ``{"op": [command, params, fmt], "exit": code,
"out": path, "err": path}``; one verdict per entry is printed as JSON.
"""

import json
import math
import sys
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

TOLERANCE = 1e-8  # the CLI's own self-check tolerance
CSV_ROUNDING = 5e-9  # relative rounding of a CSV cell's 9 significant digits
Z_LIMIT = 4.0  # the CLI's per-entry Fisher-z limit
_NORMAL = NormalDist()


class CheckFailure(Exception):
    pass


@dataclass
class Verdict:
    failure: str | None = None
    nonpositive: int = 0  # off-diagonal cycle correlations outside (0, 1)
    false_alarm: bool = False  # sample exit 5 that passes the family-wise check


def check(op, exit_code: int, stdout: bytes, stderr: bytes) -> Verdict:
    """Verdict on one CLI invocation ``op`` (a :class:`workloads.Op`)."""
    try:
        if exit_code not in (0, 5) or (exit_code == 5 and op.command != "sample"):
            raise CheckFailure(f"exit code {exit_code}: {stderr.decode(errors='replace')[-300:]}")
        return _CHECKS[op.command](op, exit_code, stdout.decode(), stderr.decode())
    except CheckFailure as exc:
        return Verdict(failure=str(exc))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Verdict(failure=f"unparseable output: {exc!r}")


# -- parsing -----------------------------------------------------------------


def _reject_constant(name):
    raise CheckFailure(f"JSON contains {name}")


def _payload(text: str):
    doc = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(doc.get("metadata"), dict):
        raise CheckFailure("JSON envelope has no metadata object")
    return doc["payload"], doc["metadata"]


def _records(op, text: str, columns: list[str]) -> dict[str, np.ndarray]:
    """Columns of a row-per-record output (CSV, or a JSON list of objects)."""
    if op.fmt == "json":
        rows, _ = _payload(text)
        return {c: np.array([row[c] for row in rows], dtype=float) for c in columns}
    lines = text.splitlines()
    if lines[0].split(",") != columns:
        raise CheckFailure(f"CSV header {lines[0]!r}, expected {','.join(columns)}")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], ndmin=2)
    return {c: table[:, pos] for pos, c in enumerate(columns)}


def _matrix(op, text: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """(labels, matrix, metadata) of a ``corr`` output."""
    if op.fmt == "json":
        payload, meta = _payload(text)
        return np.array(payload["indices"]), np.array(payload["matrix"], dtype=float), meta
    header, _, body = text.partition("\n")
    labels = np.array([int(v) for v in header.split(",")[1:]])
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if table.shape[0] and not np.array_equal(table[:, 0], labels):
        raise CheckFailure("row labels differ from column labels")
    return labels, table[:, 1:], {}


def _close(op, name: str, got, want) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailure(f"{name}: shape {got.shape}, expected {want.shape}")
    if got.size and not np.all(np.isfinite(got)):
        raise CheckFailure(f"{name}: non-finite values")
    err = np.abs(got - want) - TOLERANCE
    if op.fmt == "csv":
        err -= CSV_ROUNDING * np.abs(want)
    if got.size and err.max() > 0.0:
        at = np.unravel_index(int(err.argmax()), err.shape)
        raise CheckFailure(f"{name}{list(at)}: {got[at]!r}, reference {want[at]!r}")


# -- references --------------------------------------------------------------


def _rate(tau: float) -> float:
    return math.acosh(1.0 / (2.0 * tau))


def _log_cycle(n: int, tau: float) -> np.ndarray:
    """log of the images-form cycle correlation at every lag 0..n-1."""
    log_b = -_rate(tau)
    k = np.arange(n)
    m = np.minimum(k, n - k)
    return m * log_b + np.log1p(np.exp((n - 2 * m) * log_b)) - math.log1p(math.exp(n * log_b))


def _log_sinh(x):
    return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)


def _open_chain(n, lo: int, hi: int, tau: float):
    """Open-chain correlation sqrt(s(lo) s(n+1-hi) / (s(hi) s(n+1-lo))), s(k) = sinh(k rate)."""
    r = _rate(tau)
    n = np.asarray(n, dtype=float)
    return np.exp(0.5 * (_log_sinh(lo * r) + _log_sinh((n + 1 - hi) * r)
                         - _log_sinh(hi * r) - _log_sinh((n + 1 - lo) * r)))


def _model(graph: str, n: int, tau: float) -> np.ndarray:
    from ggchain import GraphKind, GraphSpec, model_correlation

    return model_correlation(GraphSpec(GraphKind(graph), n), tau).correlation


def _labels(graph: str, n: int) -> np.ndarray:
    return np.arange(-n, n + 1) if graph == "centered" else np.arange(1, n + 1)


def _count_nonpositive(values: np.ndarray, lags: np.ndarray, log_ref: np.ndarray) -> int:
    """Distinct nonzero lags with a value outside (0, 1) whose true value is a positive double."""
    bad = (lags != 0) & ((values <= 0.0) | (values >= 1.0)) & (np.exp(log_ref[lags]) > 0.0)
    return int(np.unique(lags[bad]).size)


# -- per-command checks ------------------------------------------------------


def _check_decay(op, exit_code, out, err) -> Verdict:
    p = op.params
    tau = p["tau"] if "tau" in p else (p["beta"] / 4.0) / (p["beta"] / 2.0 + p["mass"] ** 2 / 2.0)
    rate = _rate(tau)
    rec = _records(op, out, ["tau", "rate", "base", "gff_rate"])
    _close(op, "tau", rec["tau"], [tau])
    _close(op, "rate", rec["rate"], [rate])
    _close(op, "base", rec["base"], [math.exp(-rate)])
    _close(op, "gff_rate", rec["gff_rate"], [rate])
    return Verdict()


def _check_corr(op, exit_code, out, err) -> Verdict:
    graph, n, tau = op.params["graph"], op.params["n"], op.params["tau"]
    labels, matrix, meta = _matrix(op, out)
    if not np.array_equal(labels, _labels(graph, n)):
        raise CheckFailure("matrix labels differ from the graph's node indices")
    verdict = Verdict()
    if graph == "cycle":
        log_ref = _log_cycle(n, tau)
        lags = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        _close(op, "corr", matrix, np.exp(log_ref)[lags])
        verdict.nonpositive = _count_nonpositive(matrix.ravel(), lags.ravel(), log_ref)
    else:
        _close(op, "corr", matrix, _model(graph, n, tau))
    if op.params.get("method") == "both":
        if op.fmt == "json":
            deviation = meta["max_abs_deviation"]
        else:
            key, _, value = err.strip().splitlines()[-1].partition(",")
            if key != "max_abs_deviation":
                raise CheckFailure("stderr lacks max_abs_deviation")
            deviation = float(value)
        if not 0.0 <= deviation <= TOLERANCE:
            raise CheckFailure(f"max_abs_deviation {deviation!r}")
    return verdict


def _check_converge(op, exit_code, out, err) -> Verdict:
    p = op.params
    columns = ["n", "exact", "limit", "abs_err", "rel_err", "scaled_rel"]
    if op.fmt == "json":
        payload, _ = _payload(out)
        rec = {c: np.array([r[c] for r in payload["records"]], dtype=float) for c in columns}
        fit = payload["fit"]
    else:
        rec = _records(op, out, columns)
        fit = json.loads(err.strip().splitlines()[-1], parse_constant=_reject_constant) if p["fit"] else None
    sizes = np.arange(p["n_min"], p["n_max"] + 1)
    _close(op, "n", rec["n"], sizes)
    lo, hi = min(p["i"], p["j"]), max(p["i"], p["j"])
    d = hi - lo
    if p["graph"] == "centered":
        exact = _open_chain(2 * sizes + 1, sizes + 1 + lo, sizes + 1 + hi, p["tau"])
        limit = np.full(sizes.shape, math.exp(-d * _rate(p["tau"])))
    else:
        exact = _open_chain(sizes, lo, hi, p["tau"])
        r = _rate(p["tau"])
        limit = np.full(sizes.shape, math.exp(0.5 * (_log_sinh(lo * r) - _log_sinh(hi * r)) - 0.5 * d * r))
    _close(op, "exact", rec["exact"], exact)
    _close(op, "limit", rec["limit"], limit)
    _close(op, "abs_err", rec["abs_err"], exact - limit)
    _close(op, "rel_err", rec["rel_err"], exact / limit - 1.0)
    if p["fit"]:
        if fit is None or fit["n_points"] < 5 or not fit["slope"] < 0.0:
            raise CheckFailure(f"bad fit {fit!r}")
        _close(op, "expected_slope", [fit["expected_slope"]], [-2.0 * _rate(p["tau"])])
    return Verdict()


def _check_circulant(op, exit_code, out, err) -> Verdict:
    n, tau, k = op.params["n"], op.params["tau"], op.params.get("k")
    lags = np.arange(n) if k is None else np.array([k])
    log_ref = _log_cycle(n, tau)
    if op.params.get("riemann"):
        rec = _records(op, out, ["k", "riemann_sum", "integral", "gap"])
        _close(op, "k", rec["k"], lags)
        log_b = -_rate(tau)
        two_pi_over_s = 2.0 * math.pi / math.sqrt((1.0 - 2.0 * tau) * (1.0 + 2.0 * tau))
        # images form of the covariance: (b^k + b^(n-k)) / ((1 - b^n) s)
        riemann = two_pi_over_s * np.exp(log_ref[lags]) * (1.0 + math.exp(n * log_b)) / (
            1.0 - math.exp(n * log_b))
        integral = two_pi_over_s * np.exp(lags * log_b)
        _close(op, "riemann_sum", rec["riemann_sum"], riemann)
        _close(op, "integral", rec["integral"], integral)
        _close(op, "gap", rec["gap"], riemann - integral)
        return Verdict()
    rec = _records(op, out, ["k", "correlation", "limit", "gap"])
    _close(op, "k", rec["k"], lags)
    limit = np.exp(-lags * _rate(tau))
    _close(op, "correlation", rec["correlation"], np.exp(log_ref[lags]))
    _close(op, "limit", rec["limit"], limit)
    _close(op, "gap", rec["gap"], np.exp(log_ref[lags]) - limit)
    return Verdict(nonpositive=_count_nonpositive(rec["correlation"], lags, log_ref))


def _family_wise_limit(pairs: int) -> float:
    """|z| bound holding the CLI's per-entry two-sided level across ``pairs`` entries."""
    level = 2.0 * _NORMAL.cdf(-Z_LIMIT)
    return -_NORMAL.inv_cdf(level / (2.0 * pairs))


def _check_sample(op, exit_code, out, err) -> Verdict:
    graph, n, tau, count = (op.params[k] for k in ("graph", "n", "tau", "count"))
    rec = _records(op, out, ["i", "j", "empirical", "exact", "z_score"])
    labels = _labels(graph, n)
    a, b = np.triu_indices(labels.size, k=1)
    _close(op, "i", rec["i"], labels[a])
    _close(op, "j", rec["j"], labels[b])
    exact = _model(graph, n, tau)[a, b]
    _close(op, "exact", rec["exact"], exact)
    empirical = rec["empirical"]
    if not np.all(np.abs(empirical) < 1.0):
        raise CheckFailure("empirical correlation outside (-1, 1)")
    z = np.abs(np.arctanh(empirical) - np.arctanh(exact)) * math.sqrt(count - 3)
    limit = _family_wise_limit(a.size)
    if z.max() > limit:
        raise CheckFailure(f"max |z| {z.max():.3f} fails the family-wise limit {limit:.3f}")
    expected_exit = 5 if rec["z_score"].max() > Z_LIMIT else 0
    if exit_code != expected_exit:
        raise CheckFailure(f"exit code {exit_code} with max reported z {rec['z_score'].max()!r}")
    return Verdict(false_alarm=exit_code == 5)


_CHECKS = {
    "decay": _check_decay,
    "corr": _check_corr,
    "converge": _check_converge,
    "circulant": _check_circulant,
    "sample": _check_sample,
}


def main(manifest_path: str) -> int:
    from workloads import Op

    with open(manifest_path) as f:
        manifest = json.load(f)
    verdicts = []
    for item in manifest:
        with open(item["out"], "rb") as out, open(item["err"], "rb") as err:
            verdict = check(Op(*item["op"]), item["exit"], out.read(), err.read())
        verdicts.append(asdict(verdict))
    json.dump(verdicts, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
