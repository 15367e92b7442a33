"""Public surface: the names ``ggchain`` exports, where each is defined, what importing loads."""

import ast
import functools
import json
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ggchain as gg
from ggchain import analysis, chains, circulant, errors, model, oracle
from ggchain.cli import main

PUBLIC_NAMES = {
    "__version__",
    # errors
    "GgchainError", "DomainError", "NotPositiveDefiniteError", "InsufficientDataError",
    "SelfCheckError",
    # model
    "GraphKind", "GraphSpec", "DecayParams", "GffParams",
    "check_tau", "sqrt_one_minus_4tau2", "decay_params", "tau_from_gff",
    "gff_decay_rate", "precision_matrix",
    # chains
    "open_chain_covariance", "open_chain_correlation",
    "open_chain_correlation_limit", "open_chain_relative_error",
    "open_chain_limit_envelope_error", "open_chain_correlation_matrix", "open_chain_correlation_rows",
    "centered_chain_correlation", "centered_chain_correlation_limit",
    "centered_chain_relative_error", "centered_chain_correlation_matrix",
    "rel_error_coefficient_open", "rel_error_coefficient_centered",
    # circulant
    "CycleCorrelation", "circulant_matrix", "precision_eigenvalues", "cycle_inverse_sum",
    "cycle_inverse_sum_imag", "cycle_lags", "cycle_correlation_sequence", "cycle_correlation", "riemann_sum", "limit_integral", "cycle_correlation_limit",
    # oracle
    "CorrelationResult", "SampleBatch", "invert_tridiagonal",
    "correlation_transform", "model_correlation", "sample", "fisher_z_discrepancies",
    "NORMAL_METHOD",
    # analysis
    "ConvergenceRecord", "ConvergenceSweep", "RateFit", "GffRow", "ERROR_FLOOR",
    "ERROR_CEILING", "sweep", "fit_abs_error_rate", "gff_table",
}


def test_exported_names():
    assert len(gg.__all__) == len(set(gg.__all__)) == 57
    assert set(gg.__all__) == PUBLIC_NAMES


def test_names_are_the_defining_objects():
    """Every export is the very object its module lists in ``__all__``."""
    modules = (errors, model, chains, circulant, oracle, analysis)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed)), "two modules export the same name"
    for module in modules:
        for name in module.__all__:
            assert getattr(gg, name) is getattr(module, name), name


SCIPY_FREE_COMMANDS = [
    ["decay", "--tau", "0.4"],
    ["converge", "--graph", "centered", "--i", "0", "--j", "1", "--tau", "0.45",
     "--n-min", "5", "--n-max", "40"],
    ["circulant", "--n", "16", "--tau", "0.3", "--riemann"],
    ["circulant", "--n", "8", "--tau", "0.4", "--k", "3"],
    ["corr", "--graph", "open", "--n", "4", "--tau", "0.4", "--method", "both"],
    ["corr", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--method", "closed"],
    ["corr", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--method", "oracle"],
    ["corr", "--graph", "cycle", "--n", "5", "--tau", "0.4", "--method", "both"],
]


def test_scipy_stays_off_the_import_path():
    """Importing ggchain and running any command but ``sample`` loads no scipy
    module: both inversion routes are numpy's, and scipy is imported at call
    time by the sampler alone."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import ggchain, ggchain.cli
        for argv in {SCIPY_FREE_COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert ggchain.cli.main(argv) == 0, argv
        print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SCALAR_COMMANDS = [
    ["decay", "--tau", "0.4"],
    ["decay", "--mass", "1.5", "--beta", "2"],
    ["converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
     "--n-min", "3", "--n-max", "200", "--fit"],
    ["converge", "--graph", "centered", "--i", "0", "--j", "1", "--tau", "0.45",
     "--n-min", "5", "--n-max", "40", "--fit"],
    ["converge", "--graph", "open", "--i", "2", "--j", "3", "--tau", "0.3",
     "--n-min", "3", "--n-max", "20"],
    ["circulant", "--n", "20000", "--tau", "0.4", "--k", "5"],
    ["circulant", "--n", "64", "--tau", "0.45", "--riemann"],
    ["circulant", "--n", "16", "--tau", "0.3"],
    ["corr", "--graph", "cycle", "--n", "600", "--tau", "0.45", "--method", "closed"],
]


def test_numpy_stays_off_the_scalar_path():
    """Importing ggchain and running ``decay``, ``converge``, ``circulant`` and
    ``corr --graph cycle --method closed``, in CSV and in JSON, loads no numpy
    or scipy module: the cycle kernel is pure Python, and numpy is imported by
    the functions that build arrays.  The sibling modules still load on
    import, and the CLI binds the builders under their own names, which is
    what the traced benchmark wraps."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import ggchain, ggchain.cli
        for argv in {SCALAR_COMMANDS!r}:
            for fmt in ([], ["--format", "json"]):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    assert ggchain.cli.main(argv + fmt) == 0, argv + fmt
        assert "ggchain.oracle" in sys.modules
        assert ggchain.cli.open_chain_correlation_matrix.__module__ == "ggchain.chains"
        assert ggchain.cli.cycle_correlation_sequence.__module__ == "ggchain.circulant"
        assert ggchain.cli.open_chain_correlation_rows.__module__ == "ggchain.chains"
        print(sorted(name for name in sys.modules if name.partition(".")[0] in ("numpy", "scipy")))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_compiles_no_record_code():
    """Importing the CLI loads neither ``dataclasses`` nor ``inspect`` (with
    ``ast``, ``dis`` and ``tokenize`` about 15 ms of every process): the record
    types are built by ``ggchain._record``, which generates no code."""
    script = "import sys, ggchain.cli; print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_exact_fit_loads_no_rational_arithmetic():
    """``converge --fit`` keeps its exact sums in plain integers: neither the
    import of the CLI nor the fit loads ``fractions`` or ``decimal``."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from ggchain.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["converge", "--graph", "open", "--i", "1", "--j", "2", "--tau", "0.4",
                         "--n-min", "3", "--n-max", "30", "--fit"])
        print(code, *sorted({"fractions", "decimal"} & set(sys.modules)))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_chain_sampling_loads_only_scipy_special():
    """``sample`` needs scipy only for the inverse normal CDF: on a chain and on
    the cycle the factor comes from numpy and the solve is a back-substitution,
    so no ``scipy.linalg`` module is loaded.  On this scipy the sampler takes
    ``ndtri`` from the ``_ufuncs`` extension: the ``scipy.special`` package is
    neither imported nor bound on ``scipy``, and its array-API layer stays
    unloaded.  A later ``import scipy.special`` works and holds the very ufunc
    the sampler used, its other functions evaluate, and the ufunc's bits did
    not depend on the package's ``__init__``."""
    script = textwrap.dedent(
        """
        import contextlib, io, math, sys
        import numpy as np
        import ggchain.cli
        from ggchain import oracle
        for graph in ["open", "cycle"]:
            argv = ["sample", "--graph", graph, "--n", "6", "--tau", "0.4", "--count", "500", "--seed", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert ggchain.cli.main(argv) == 0, argv
        print(*(name for name in sys.modules if name.partition(".")[0] == "scipy"))
        import scipy
        assert "special" not in vars(scipy)
        ndtri = oracle._ndtri()
        u = np.random.Generator(np.random.Philox(key=5)).random(10**6)
        u = np.concatenate([u, [2.0**-53, 0.5, 1.0 - 2.0**-53]])
        before = ndtri(u)
        import scipy.special
        assert scipy.special.ndtri is ndtri
        assert scipy.special.ndtri(u).tobytes() == before.tobytes()
        assert np.isfinite(before).all() and before[-2] == 0.0
        assert abs(scipy.special.erf(0.5) - math.erf(0.5)) <= 1e-15
        assert scipy.special.gamma(5.0) == 24.0
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "scipy.special._ufuncs" in loaded
    assert "scipy.special" not in loaded
    assert not [name for name in loaded if name.startswith("scipy.linalg")]
    assert not [name for name in loaded if name.startswith("scipy._lib.array_api_compat")]


SAMPLE_COMMANDS = [
    ["sample", "--graph", graph, "--n", "7", "--tau", "0.45", "--count", "3000", "--seed", "11", *fmt]
    for graph in ("open", "cycle")
    for fmt in ([], ["--format", "json", "--deterministic"])
]

# run before the commands: what makes the sampler take, or not take, the fast path
NDTRI_ROUTES = {
    "fast": "",
    "special_imported": "import scipy.special",
    "import_error": "def fail():\n    raise ImportError('no _ufuncs')\noracle._ufuncs_ndtri = fail",
    "attribute_error": "def fail():\n    raise AttributeError('no find_spec')\noracle._ufuncs_ndtri = fail",
    "threads": "import threading\nrelease = threading.Event()\n"
    "threading.Thread(target=release.wait, daemon=True).start()",
}


@functools.cache
def _sample_outputs(route: str) -> tuple[list[str], bool]:
    """stdout of each of ``SAMPLE_COMMANDS`` in one fresh process that first
    runs ``NDTRI_ROUTES[route]``, and whether ``scipy.special`` was imported
    by the end (if so, its ``ndtri`` is the sampler's)."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "import ggchain.cli",
        "from ggchain import oracle",
        NDTRI_ROUTES[route],
        "outputs = []",
        f"for argv in {SAMPLE_COMMANDS!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()) as out:",
        "        assert ggchain.cli.main(argv) == 0, argv",
        "    outputs.append(out.getvalue())",
        "special = sys.modules.get('scipy.special')",
        "assert special is None or special.ndtri is oracle._ndtri()",
        "print(json.dumps([outputs, special is not None]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outputs, special_imported = json.loads(proc.stdout)
    return outputs, special_imported


@pytest.mark.parametrize("route", sorted(set(NDTRI_ROUTES) - {"fast"}))
def test_ndtri_fallback_gives_the_same_bytes(route):
    """When ``scipy.special`` is already imported, when the private import
    raises ``ImportError`` or ``AttributeError``, or when another thread runs,
    the sampler imports ``scipy.special`` and uses its ``ndtri``; the CSV and
    ``--deterministic`` JSON outputs equal the fast path's byte for byte."""
    fast, fast_imported = _sample_outputs("fast")
    outputs, imported = _sample_outputs(route)
    assert not fast_imported and imported
    assert outputs == fast


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(language: str, after: str) -> str:
    """The first fenced ``language`` block of the README that follows the line ``after``."""
    text = README.read_text()
    start = text.index(f"```{language}\n", text.index(after)) + len(language) + 4
    return text[start : text.index("```", start)]


def test_readme_examples_run(capsys):
    """The README's library block runs, and every ``ggchain`` command line of its
    "Command line" block exits 0, so the README names no API that is gone."""
    exec(compile(_readme_block("python", "## Library"), str(README), "exec"), {})
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in _readme_block("sh", "## Command line").replace("\\\n", " ").splitlines()
        if line.startswith("ggchain ")
    ]
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in ``path`` that are neither used nor listed in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*":
                    bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    """Every name a module or test imports is used or re-exported.  The package's
    ``__init__`` re-exports by star-import and is left out."""
    root = README.parent
    paths = [p for p in sorted((root / "src" / "ggchain").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def _private_imports(path: Path) -> list[str]:
    """Each ``_``-prefixed name that ``path`` imports from another ggchain module.

    A relative import, or an absolute one from ``ggchain``, counts; dunder
    names such as ``__version__`` are public.
    """
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").partition(".")[0] == "ggchain":
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    sites.append(f"{path.name}:{node.lineno} {alias.name}")
    return sites


def test_no_private_cross_module_import():
    """No module of the package imports another module's private name: what
    two modules share is public in its owner, or it is not shared."""
    paths = sorted((README.parent / "src" / "ggchain").glob("*.py"))
    assert [site for path in paths for site in _private_imports(path)] == []


def _writer_sites(path: Path) -> list[tuple[str, str]]:
    """Each place in ``path`` that spells an output writer, as (what, enclosing function).

    A writer is a ``json.dump``/``json.dumps`` reference (or an import of either
    from ``json``) or a string holding the ``.9g`` cell format, however spelled
    (``%``, ``format`` or an f-string).  Docstrings are prose and do not count.
    """
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node) is not None
    }
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                sites.append(("json.dumps", scope))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if {"dump", "dumps"} & {alias.name for alias in node.names}:
                sites.append(("json.dumps", scope))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".9g" in node.value and id(node) not in docstrings:
                sites.append(("%.9g", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return [(what, f"{path.stem}.{scope}") for what, scope in sites]


def test_one_output_writer():
    """JSON is encoded only in ``cli._dumps`` and the CSV cell format is spelled
    only in ``cli._template``, the row template that ``cli._csv_row`` applies, so
    every command shares one writer per format."""
    paths = sorted((README.parent / "src" / "ggchain").glob("*.py"))
    sites = {site for path in paths for site in _writer_sites(path)}
    assert sites == {("json.dumps", "cli._dumps"), ("%.9g", "cli._template")}


def _module_probe_sites(path: Path) -> list[str]:
    """Each function of ``path`` that reads ``sys.modules`` (or imports ``modules`` from ``sys``)."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr == "modules":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                sites.append(scope)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if "modules" in {alias.name for alias in node.names}:
                sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return [f"{path.stem}.{scope}" for scope in sites]


def test_no_numpy_probe():
    """Numeric types are recognised through the ``numbers`` ABCs, which numpy
    registers with, and no command hands the JSON writer an array, so no
    function asks whether numpy is loaded.  The one reader of ``sys.modules``
    is the sampler's ``ndtri`` loader, which asks whether ``scipy.special`` is
    imported and stands a placeholder package in for it."""
    paths = sorted((README.parent / "src" / "ggchain").glob("*.py"))
    sites = {site for path in paths for site in _module_probe_sites(path)}
    assert sites == {"oracle._ndtri", "oracle._ufuncs_ndtri"}
