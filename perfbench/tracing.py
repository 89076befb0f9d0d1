"""Spans around the public functions of cohortchain's modules, recorded from
outside the package.

    python3 perfbench/tracing.py <trace.json> <cohortchain CLI arguments...>

runs one CLI command traced. The coverage worker calls `install` itself.

Each public function defined in records, synth, estimate, bootstrap,
markov, svgplot or cli (and the estimators' point / contributions /
from_indices methods) is replaced by one wrapper, bound under every name
that referred to it in any package module: `estimate.build_matrix`,
`cli.bootstrap` and `cli.load_records` are the same objects as the
functions in their home modules. Modules are taken from sys.modules,
because the package attribute `cohortchain.bootstrap` is the re-exported
function, not the module.

Spans (id, parent, name, start, end) stay in memory until `write`.
Per-record functions get no span, only a call count.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from functools import partial, wraps
from pathlib import Path

LAYERS = ("records", "synth", "estimate", "bootstrap", "markov", "svgplot", "cli")
METHODS = ("point", "contributions", "from_indices")
# Called once per record (100k+ times on the large panel): counted, not spanned.
COUNTED = {"records.derive_transitions", "records.la_truncate"}


def _rows(result):
    return {"rows": len(result)}


def _replicates(summary):
    kept = len(summary.ensemble)
    return {"attempted": kept + summary.n_failed, "retained": kept}


# Result sizes recorded beside the span, by span name.
SIZES = {
    "records.parse_records": _rows,
    "synth.generate_panel": _rows,
    "bootstrap.bootstrap": _replicates,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.calls = Counter()
        self.sizes = defaultdict(Counter)

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        size = SIZES.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if size is not None:
                self.sizes[name].update(size(result))
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        """Per span name: calls, busy_s (total duration) and self_s (duration
        not covered by child spans); per layer: self_s summed over its
        names, i.e. the time the innermost span belonged to that layer."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            child[parent] += end - start
        names = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, _parent, name, start, end in self.spans:
            entry = names[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child[sid]
        layers = Counter()
        for name, entry in names.items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        return {
            "names": dict(names),
            "layers": dict(layers),
            "calls": dict(self.calls),
            "sizes": {k: dict(v) for k, v in self.sizes.items()},
        }

    def write(self, path):
        path = Path(path)
        path.write_text(json.dumps(self.summary(), indent=1), encoding="utf-8")
        with open(path.with_suffix(".spans.csv"), "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def install(tracer):
    """Wrap every public function and estimator method of the package.
    Returns a function that puts the originals back."""
    import cohortchain.cli  # noqa: F401  (loads every module)

    modules = {layer: sys.modules[f"cohortchain.{layer}"] for layer in LAYERS}
    namespaces = [vars(m) for m in modules.values()] + [vars(sys.modules["cohortchain"])]
    wrapped = {}
    undo = []
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                # private classes too: _ChainEstimator holds the chain
                # estimators' contributions and from_indices
                for method in METHODS:
                    fn = vars(obj).get(method)
                    if callable(fn):
                        setattr(obj, method, tracer.span(f"{layer}.{method}", fn))
                        undo.append(partial(setattr, obj, method, fn))
            elif callable(obj) and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                make = tracer.count if name in COUNTED else tracer.span
                wrapped[id(obj)] = (obj, make(name, obj))
    for namespace in namespaces:
        for attr, obj in list(namespace.items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                namespace[attr] = wrapped[id(obj)][1]
                undo.append(partial(namespace.__setitem__, attr, obj))

    def uninstall():
        for restore in undo:
            restore()

    return uninstall


def main(argv):
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from cohortchain import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
