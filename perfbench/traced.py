"""Run one ggchain command in this process, with spans around its layers.

    python perfbench/traced.py SPANS_FILE time|alloc GGCHAIN_ARGV...

The command's output goes to this process's stdout, as with
``python -m ggchain``.  Spans cover the import of ``ggchain.cli``,
``ggchain.cli.main`` and every function that ``ggchain.cli`` and
``ggchain.oracle`` call in the chains, circulant, oracle and analysis
modules.  ``model`` functions take microseconds and count toward their
callers.  In ``alloc`` mode ``tracemalloc`` runs from the start of ``main``
and spans record peak allocations; its overhead distorts times, so the two
modes are separate passes.  Spans and counters are written to SPANS_FILE as
JSON when the command ends.
"""

import importlib
import sys

from spans import Recorder

LAYERS = ("chains", "circulant", "oracle", "analysis")


def _count_entries(recorder, matrix) -> None:
    recorder.add("chains.matrix_entries", int(matrix.size))


def _count_words(recorder, batch) -> None:
    # one Philox word per variate: count draws of dimension dim
    recorder.add("oracle.philox_words", batch.count * batch.correlation.shape[0])


COUNTERS = {
    "chains.open_chain_correlation_matrix": _count_entries,
    "chains.centered_chain_correlation_matrix": _count_entries,
    "oracle.sample": _count_words,
}


def _wrap_layers(recorder, cli, oracle) -> None:
    for namespace in (cli, oracle):
        for attr, obj in list(vars(namespace).items()):
            module = getattr(obj, "__module__", None) or ""
            layer = module.rpartition(".")[2]
            if callable(obj) and not isinstance(obj, type) and module.startswith("ggchain.") and layer in LAYERS:
                name = f"{layer}.{attr}"
                recorder.wrap(namespace, attr, name, COUNTERS.get(name))


def main() -> int:
    spans_file, mode, *argv = sys.argv[1:]
    recorder = Recorder()
    rc = 1
    try:
        cli = recorder.call("import.ggchain", importlib.import_module, "ggchain.cli")
        _wrap_layers(recorder, cli, sys.modules["ggchain.oracle"])
        if mode == "alloc":
            import tracemalloc

            tracemalloc.start()
            recorder.memory = tracemalloc
        rc = recorder.call("cli.main", cli.main, argv)
        sys.stdout.flush()
    finally:
        import json

        with open(spans_file, "w") as f:
            json.dump({"spans": recorder.spans, "counters": recorder.counters}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
