"""Run one avgvar CLI command in this interpreter with a span around each layer.

    python perfbench/trace.py TRACE_JSON CLI_ARG...

``src`` must be on PYTHONPATH. The script times the import of avgvar.cli,
wraps the names through which the program calls each layer, runs
``avgvar.cli.main(CLI_ARGS)`` and writes TRACE_JSON: every span with its
parent, the total and self time of each span name, and the counts taken
at the same boundaries. It exits with the command's exit code.

A span's self time is its duration minus the time covered by its child
spans. Work done between spans is charged to the enclosing span, so the
self times plus the import time cover the whole command.
"""

import time

STARTED = time.time()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters kept in memory until the command ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.open = []           # indices into spans, innermost last
        self.child_s = []        # time covered by children, per open span
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, count=None):
        """fn with a span named ``name``; ``count(counts, args, result)``
        records counters from the call's arguments and result."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.open[-1] if self.open else None])
            self.open.append(index)
            self.child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.open.pop()
                children = self.child_s.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
                self.total_s[name] += end - start
                self.self_s[name] += end - start - children
                if self.child_s:
                    self.child_s[-1] += end - start
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def counter(self, key, fn):
        """fn with a call counter and no span."""
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def _count_states(key):
    def count(counts, args, result):
        counts[key] += result.states.size
    return count


def _count_batch(key):
    def count(counts, args, result):
        counts[key] += args[0].states.size
    return count


def _count_normals(counts, args, result):
    counts["rng.normals"] += result.size


def _count_vol(counts, args, result):
    counts["models.vol_evals"] += result.size


def _count_ensemble(counts, args, result):
    counts["ensemble.paths"] += result.n_paths
    counts["ensemble.failed_paths"] += result.n_failures


def install(tracer, cli):
    """Wrap every layer boundary the CLI reaches, at the name it calls."""
    from avgvar import ensemble, paths, pricing, rng, weights_cir

    stream = rng.NoiseStream
    stream.normal_matrix = tracer.wrap("rng.normal_matrix", stream.normal_matrix,
                                       _count_normals)
    stream._rewind = tracer.counter("rng.rewinds", stream._rewind)

    paths.simulate_ou_paths = tracer.wrap("paths.simulate", paths.simulate_ou_paths,
                                          _count_states("paths.nodes"))
    paths.simulate_cir_paths = tracer.wrap("paths.simulate", paths.simulate_cir_paths,
                                           _count_states("paths.nodes"))
    paths.sample_terminal_asset = tracer.wrap("paths.terminal_asset",
                                              paths.sample_terminal_asset)

    make_vol = cli.reference_vol_family

    def traced_vol_family(*args, **kwargs):
        spec = make_vol(*args, **kwargs)
        return dataclasses.replace(spec, **{
            name: tracer.wrap("models.vol_eval", getattr(spec, name), _count_vol)
            for name in ("sigma", "sigma_prime", "sigma_second")})
    cli.reference_vol_family = traced_vol_family

    cli.run_ensemble = tracer.wrap("ensemble.run", cli.run_ensemble, _count_ensemble)
    ensemble.skorokhod_weight_ou = tracer.wrap(
        "weights_ou.weight", ensemble.skorokhod_weight_ou,
        _count_batch("weights_ou.nodes"))
    ensemble.skorokhod_weight_cir = tracer.wrap(
        "weights_cir.weight", ensemble.skorokhod_weight_cir,
        _count_batch("weights_cir.nodes"))
    weights_cir.cir_kernel = tracer.wrap("weights_cir.kernel", weights_cir.cir_kernel)

    cli.auto_grid = tracer.wrap("density.grid", cli.auto_grid)
    cli.malliavin_density = tracer.wrap("density.malliavin", cli.malliavin_density)
    cli.kde_density = tracer.wrap("density.kde", cli.kde_density)

    pricing.price_from_density = tracer.wrap("pricing.density_quadrature",
                                             pricing.price_from_density)
    pricing.price_mixing = tracer.wrap("pricing.mixing", pricing.price_mixing)
    pricing.price_plain_mc = tracer.wrap("pricing.plain_mc", pricing.price_plain_mc)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import avgvar.cli as cli
    import_s = perf_counter() - start

    tracer = Tracer()
    install(tracer, cli)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    # epoch times let the parent tell interpreter start-up and shutdown
    # apart from the time this script ran
    trace = {"exit_code": code, "import_s": import_s,
             "started": STARTED, "finished": time.time(),
             "total_s": tracer.total_s, "self_s": tracer.self_s,
             "counts": tracer.counts,
             "spans": [{"name": n, "start": s - start, "end": e - start, "parent": p}
                       for n, s, e, p in tracer.spans]}
    with open(out_path, "w") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
