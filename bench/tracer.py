"""Span tracer for the benchmark's traced runs, and the per-layer metrics.

The tracer wraps public functions of rtm's modules from outside: it
replaces every binding of each function in the rtm package (the defining
module and any module that imported the name) with a wrapper, and puts
the originals back on exit.  This reaches calls made inside the package
because its modules look these names up at call time.

Calls into the functions in SPANS each record a span (id, name, parent,
start, end, self time); a span's self time is its duration minus the
time of the wrapped calls made inside it.  The functions in LEAVES and
VariationalState.set_phi run hundreds of thousands of times per fit, so
they are only counted and timed in aggregate, but their time is still
subtracted from the self time of the span that called them.  Spans stay
in memory until `write_spans` is called at the end of the run.
"""

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import rtm
from rtm import baselines, cli, corpus, estimation, inference, linkfn, prediction

#: every module of the package, searched for bindings of a wrapped function
PACKAGE = (rtm, corpus, linkfn, inference, estimation, baselines, prediction, cli)

SPANS = {
    corpus: ("load_corpus", "split_folds", "training_view"),
    inference: ("init_state", "run_e_step", "elbo"),
    estimation: ("fit", "update_beta", "collect_stats", "fit_link_exponential",
                 "fit_link_gaussian", "fit_link_sigmoid_probit", "load_model"),
    baselines: ("fit_lda", "fit_lda_regression", "unigram"),
    prediction: ("train_posteriors", "evaluate_fold", "infer_heldout",
                 "score_train_docs", "retrieval_order"),
}
LEAVES = {
    linkfn: ("gradient_coefficient", "expected_log_link_batch"),
    estimation: ("regularized_link_gradient", "regularized_link_objective"),
}


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans and counts at the boundaries of rtm's modules."""

    def __init__(self):
        self.spans = []                          # (id, name, parent, start, end, self_s)
        self.leaves = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.sweeps = 0                          # sum of len(trace) - 1 of run_e_step
        self.em_iters = 0                        # sum of len(elbo_trace) of fit
        self.pair_evals = 0                      # change of linkfn.pair_evals
        self._stack = []                         # open spans: [id, name, start, child_s]
        self._next_id = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        """Record a span around a block: the harness's own operations."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += end - start
        self.spans.append((span_id, name, parent, start, end, end - start - child_s))

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if name == "inference.run_e_step":
                self.sweeps += len(result[1]) - 1
            elif name == "estimation.fit":
                self.em_iters += len(result.elbo_trace)
            return result
        return wrapper

    def _leaf_wrapper(self, name, fn):
        record = self.leaves[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                record[0] += 1
                record[1] += elapsed
                if stack:
                    stack[-1][3] += elapsed
        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _replace(self, original, wrapper):
        for module in PACKAGE:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        for module, names in SPANS.items():
            for fn_name in names:
                self._replace(getattr(module, fn_name),
                              self._span_wrapper(f"{_layer(module)}.{fn_name}",
                                                 getattr(module, fn_name)))
        for module, names in LEAVES.items():
            for fn_name in names:
                self._replace(getattr(module, fn_name),
                              self._leaf_wrapper(f"{_layer(module)}.{fn_name}",
                                                 getattr(module, fn_name)))
        set_phi = inference.VariationalState.set_phi
        self._restore.append((inference.VariationalState, "set_phi", set_phi))
        inference.VariationalState.set_phi = self._leaf_wrapper("inference.set_phi", set_phi)
        self._pair_evals_start = linkfn.pair_evals.count
        return self

    def __exit__(self, *exc):
        self.pair_evals += linkfn.pair_evals.count - self._pair_evals_start
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path, header):
        """Write a header line, then one JSON object per span, in end order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, name, parent, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                     "start": start, "end": end, "self_s": self_s}) + "\n")
            for name, (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "s": seconds}) + "\n")


#: layers reported as their share of the traced pass: the self time of their
#: spans plus the time of their leaf calls
SHARE_LAYERS = ("inference", "linkfn", "estimation", "prediction")


def per_layer(tracer, quality, traced_s, plain_s):
    """Every per-layer metric as name -> (value, unit).

    Times are reported only for functions that every workload in
    BENCHMARK.json calls.  A layer that only some workloads use is given as
    its self-time share of the traced pass, and as call counts; a share,
    count or quality value is 0 where a workload does not use it.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    names = {span_id: name for span_id, name, *_ in tracer.spans}
    elbo_in_e_step = 0.0
    for _, name, parent, start, end, own in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        layer_s[name.split(".", 1)[0]] += own
        if name == "inference.elbo" and names.get(parent) == "inference.run_e_step":
            elbo_in_e_step += end - start
    leaf = tracer.leaves
    for name, (_, seconds) in leaf.items():
        layer_s[name.split(".", 1)[0]] += seconds
    sweeps = tracer.sweeps
    metrics = {
        "inference.run_e_step.calls": (calls["inference.run_e_step"], "count"),
        "inference.run_e_step.self_s": (self_s["inference.run_e_step"], "s"),
        "inference.sweeps": (sweeps, "count"),
        "inference.sweep_s": ((total["inference.run_e_step"] - elbo_in_e_step) / sweeps
                              if sweeps else 0.0, "s"),
        "inference.elbo.calls": (calls["inference.elbo"], "count"),
        "inference.elbo.s": (total["inference.elbo"], "s"),
        "inference.set_phi.calls": (leaf["inference.set_phi"][0], "count"),
        "inference.set_phi.s": (leaf["inference.set_phi"][1], "s"),
        "inference.init_state.s": (total["inference.init_state"], "s"),
        "linkfn.gradient_coefficient.calls": (leaf["linkfn.gradient_coefficient"][0], "count"),
        "linkfn.expected_log_link_batch.calls": (leaf["linkfn.expected_log_link_batch"][0],
                                                 "count"),
        "linkfn.pair_evals": (tracer.pair_evals, "count"),
        "estimation.em_iters": (tracer.em_iters, "count"),
        "prediction.infer_heldout.calls": (calls["prediction.infer_heldout"], "count"),
        "corpus.load_corpus.s": (total["corpus.load_corpus"], "s"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = (layer_s[layer] / traced_s, "ratio")
    for name, unit in (("topic_error", "L1"), ("link_rank", "rank")):
        metrics[f"quality.{name}"] = (quality.get(name, 0.0), unit)
    return metrics
