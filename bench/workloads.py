"""Workloads of the rtm benchmark: inputs, operations and correctness checks.

Every workload drives the public API of rtm the way the matching CLI
command does with its default flags, on inputs made by seeded
`generate_synthetic` draws:

  fit-exponential  one exponential-link fit of each of sixteen 15-doc corpora,
                   saved as a model file (`rtm fit`); an operation is one
                   fit
  eval-sigmoid     fold 0 of a 5-fold split of each of three 40-doc
                   sigmoid-link corpora: the RTM fit, both LDA baselines,
                   unigram, and `evaluate_fold` for all four models
                   (`rtm eval`); an operation is one fold
  suggest          link-suggestion queries against three 200-doc draws,
                   each with a model file written from its generating
                   parameters (`rtm suggest-links`); an operation is one
                   query

eval-sigmoid is not in BENCHMARK.json: the fitted RTM ranks held-out links
no better than chance, so its "link_rank below chance" check fails on about
half of the folds.  It stays runnable to show that defect.

`generate` writes a workload's inputs to a directory.  The run_* functions
read only those files, time their set-up and operations, and check every
operation's output; `RUNNERS` maps workload names to them.
"""

import statistics
import time
import traceback
from contextlib import nullcontext
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from rtm import baselines, corpus, estimation, inference, prediction

from hostspeed import Clock

#: the CLI's --seed default, used for model initialisation and the fold split
FIT_SEED = 42
#: the CLI's --top-k default for eval and suggest-links
TOP_K = 20
#: the CLI's --folds default: eval-sigmoid runs fold 0 of this many
FOLDS = 5
#: symmetric Dirichlet alpha of every draw, and of the suggest model file
ALPHA = 0.1


@dataclass(frozen=True)
class Draw:
    """Parameters of one `generate_synthetic` draw (symmetric eta, alpha ALPHA)."""

    num_docs: int
    kind: str
    eta: float
    nu: float
    num_topics: int = 10
    num_terms: int = 500
    doc_length: int = 40


@dataclass(frozen=True)
class Config:
    """A workload's draw plus how many set-ups a run makes.

    draws is the number of independent draws a run uses: fit and eval
    cycle through them, one per operation, and suggest serves queries
    against all of them; train_docs is the number of leading documents of
    each suggest draw that form its training corpus, the rest being the
    queries.
    """

    draw: Draw
    setups: int = 9
    draws: int = 1
    train_docs: int = 0


CONFIGS = {
    "full": {
        # sixteen small draws per run: a fit's time varies with its draw by
        # about a fifth, so a run reports the median over many
        "fit-exponential": Config(Draw(15, "exponential", 2.5, -2.5), setups=25,
                                  draws=16),
        # three small draws per run: a fold's time varies with its draw, and
        # the median over three is steadier than one larger fold of equal cost
        "eval-sigmoid": Config(Draw(40, "sigmoid", 3.0, -3.0), draws=3),
        # three draws per set-up: set-up time varies with the draw by about a
        # fifth, and the sum over three is steadier than one larger draw
        "suggest": Config(Draw(200, "exponential", 2.5, -2.5), setups=2, draws=3,
                          train_docs=40),
    },
    # for the smoke test: the same code paths on 15-25 doc corpora with K=4
    "tiny": {
        "fit-exponential": Config(Draw(15, "exponential", 2.5, -2.5, num_topics=4,
                                       num_terms=40, doc_length=10), setups=2, draws=2),
        "eval-sigmoid": Config(Draw(15, "sigmoid", 3.0, -3.0, num_topics=4,
                                    num_terms=40, doc_length=10), setups=2, draws=2),
        "suggest": Config(Draw(25, "exponential", 2.5, -2.5, num_topics=4,
                               num_terms=40, doc_length=10), setups=2, draws=2,
                          train_docs=10),
    },
}


# --- input generation ------------------------------------------------------

def _corpus_paths(directory):
    return tuple(directory / f"{part}.txt" for part in ("docs", "vocab", "links"))


def generate(name, config, seed, out):
    """Write the inputs of workload `name` for workload seed `seed` to `out`.

    Draw i, made with seed [seed, i], goes to out/draw<i>.  Every workload
    gets truth_beta.npy, the generating topics, which only
    quality.topic_error and the fit-exponential check read.  fit-exponential
    and eval-sigmoid get the draw's corpus files.
    suggest gets instead the training corpus, the query words (one
    `term:count ...` line per query, the format of `rtm suggest-links
    --new-doc`), each query's true links into the training corpus, and
    model.txt, written with `save_model` from the generating parameters
    with beta smoothed by +0.01 and renormalised.
    """
    for i in range(config.draws):
        (out / f"draw{i}").mkdir()
        _generate_draw(name, config, [seed, i], out / f"draw{i}")


def _generate_draw(name, config, seed, out):
    d = config.draw
    full, truth = corpus.generate_synthetic(
        d.num_topics, d.num_terms, d.num_docs, d.doc_length, ALPHA,
        np.full(d.num_topics, d.eta), d.nu, d.kind, seed)
    np.save(out / "truth_beta.npy", truth.beta)
    if name != "suggest":
        corpus.write_corpus(full, *_corpus_paths(out))
        return

    n_train = config.train_docs
    corpus.write_corpus(corpus.subcorpus(full, range(n_train)), *_corpus_paths(out))
    with open(out / "queries.txt", "w", encoding="utf-8") as words_fh, \
            open(out / "query_links.txt", "w", encoding="utf-8") as links_fh:
        for doc in range(n_train, full.num_docs):
            terms, counts = full.doc(doc)
            words_fh.write(" ".join(f"{t}:{c}" for t, c in zip(terms, counts)) + "\n")
            linked = full.neighbors[doc][full.neighbors[doc] < n_train]
            links_fh.write(" ".join(str(t) for t in linked) + "\n")
    beta = truth.beta + 0.01
    beta /= beta.sum(axis=1, keepdims=True)
    params = inference.ModelParams(beta=beta, alpha=np.full(d.num_topics, ALPHA),
                                   link=truth.link_params)
    model = estimation.FittedModel(params=params, kind=d.kind,
                                   config={"smoothing": 0.01})
    estimation.save_model(model, out / "model.txt")


# --- results ---------------------------------------------------------------

@dataclass
class Outcome:
    """What one pass of a workload measured and checked.

    setups and ops hold the (start, end) of every set-up and operation,
    read from clock; failures one message per operation that raised or
    failed a check.  bounds holds (variational bound reached, tokens) for
    each result, reported pooled as the negated bound per token; quality
    the topic_error and link_rank values where they apply.
    Reports give the median of the rest, and times scaled by the clock
    except a p99.
    """

    clock: Clock = field(default_factory=Clock)
    setups: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    quality: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def attempted(self):
        return len(self.ops)

    def durations(self, intervals, scaled=True):
        factor = self.clock.factor() if scaled else 1.0
        return np.array([end - start for start, end in intervals]) * factor

    def end_to_end(self, scaled=True):
        op_s = self.durations(self.ops, scaled)
        ms = op_s * 1e3
        tail = tail_percentile(len(ms))
        # a true tail is reported as measured: across runs, the p99 of the
        # sub-ms queries hardly followed host speed, and scaling it by the
        # probe's speed widened its spread up to threefold; a median is
        # scaled like op_p50_ms
        tail_ms = ms if tail == 50.0 else self.durations(self.ops, scaled=False) * 1e3
        return {
            "setup_s": float(np.median(self.durations(self.setups, scaled))),
            "op_p50_ms": float(np.percentile(ms, 50)),
            "op_tail_ms": float(np.percentile(tail_ms, tail)),
            "ops_per_s": len(ms) / float(np.sum(op_s)),
            "neg_elbo_per_token": -sum(b for b, _ in self.bounds)
                                  / sum(t for _, t in self.bounds),
        }

    def quality_medians(self):
        return {name: statistics.median(values) for name, values in self.quality.items()}


def tail_percentile(n):
    """The highest percentile, at most p99, with at least 10 of n samples
    beyond it; the median when there are fewer than 20."""
    return 50.0 if n < 20 else min(99.0, 100.0 * (1 - 10 / n))


def _attempt(outcome, span, name, operation, check):
    """Time one operation, then check its result outside the timed region.

    An operation that raises counts as failed; its time is still kept.
    Returns the operation's result, or None if it raised.
    """
    start = outcome.clock.now()
    try:
        with span(name):
            result = operation()
    except Exception as exc:  # a failed operation is counted, not fatal
        outcome.ops.append((start, outcome.clock.now()))
        traceback.print_exc()
        outcome.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        return None
    outcome.ops.append((start, outcome.clock.now()))
    problems = check(result)
    if problems:
        outcome.failures.append(f"{name}: " + "; ".join(problems))
    return result


def _timed_setups(outcome, span, count, setup):
    result = None
    for _ in range(count):
        start = outcome.clock.now()
        with span("bench.setup"):
            result = setup()
        outcome.setups.append((start, outcome.clock.now()))
    return result


def _keep_going(started, seconds, done, ops, least):
    """Closed-loop stop rule: a fixed op count if given, else the time budget
    with at least `least` operations."""
    if ops is not None:
        return done < ops
    return done < least or time.perf_counter() - started < seconds


def topic_error(beta, truth_beta):
    """Mean L1 distance between topics, matched by linear_sum_assignment."""
    cost = np.abs(beta[:, None, :] - truth_beta[None, :, :]).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _load_draws(config, inputs):
    return [corpus.load_corpus(*_corpus_paths(inputs / f"draw{i}"))
            for i in range(config.draws)]


# --- fit-exponential -------------------------------------------------------

#: how far one EM bound may fall below the one before it, relative to its size
BOUND_SLACK = 1e-9


def random_topic_error(truth_beta):
    """topic_error of a fixed random topic matrix: rows drawn from Dirichlet(1)."""
    rng = np.random.default_rng(FIT_SEED)
    return topic_error(rng.dirichlet(np.ones(truth_beta.shape[1]), truth_beta.shape[0]),
                       truth_beta)


def _check_fit(model, path, truth_beta):
    problems = []
    trace = np.array(model.elbo_trace)
    if not (trace.size and np.all(np.isfinite(trace))):
        problems.append("EM bound trace empty or not finite")
    elif np.any(np.diff(trace) < -BOUND_SLACK * np.abs(trace[1:])):
        problems.append(f"EM bound decreased: {trace.tolist()}")
    loaded = estimation.load_model(path)
    params = model.params
    if not (loaded.kind == model.kind
            and np.allclose(loaded.params.beta, params.beta, rtol=1e-9, atol=0)
            and np.array_equal(loaded.params.alpha, params.alpha)
            and np.array_equal(loaded.params.link.eta, params.link.eta)
            and loaded.params.link.nu == params.link.nu):
        problems.append("save_model/load_model round trip changed the parameters")
    error, chance = topic_error(params.beta, truth_beta), random_topic_error(truth_beta)
    if not error < chance:
        problems.append(f"topic_error {error:.4f} not below a random matrix's {chance:.4f}")
    return problems


def run_fit(config, inputs, work, seconds, ops=None, least=1, setups=None,
            span=None, clock=None):
    """fit-exponential: `rtm fit` with its default flags on each draw in turn.

    Set-up is `load_corpus` for every draw; each operation is one draw's
    `fit` and `save_model`.
    """
    span = span or nullcontext
    out = Outcome(clock or Clock())
    draws = _timed_setups(out, span, setups or config.setups,
                          lambda: _load_draws(config, inputs))
    k, kind = config.draw.num_topics, config.draw.kind
    path = work / "model.txt"

    def fit(train):
        model = estimation.fit(train, k, kind=kind, seed=FIT_SEED)
        estimation.save_model(model, path)
        return model

    started = time.perf_counter()
    while _keep_going(started, seconds, out.attempted, ops, least):
        i = out.attempted % len(draws)
        train = draws[i]
        truth_beta = np.load(inputs / f"draw{i}" / "truth_beta.npy")
        model = _attempt(out, span, "bench.fit", lambda: fit(train),
                         lambda m: _check_fit(m, path, truth_beta))
        if model is None:
            continue
        out.bounds.append((model.elbo_trace[-1], float(train.lengths.sum())))
        out.quality["topic_error"].append(topic_error(model.params.beta, truth_beta))
    return out


# --- eval-sigmoid ----------------------------------------------------------

def _eval_fold(train, full, plan, config, work):
    """One fold as cmd_eval runs it: four models, then evaluate_fold each."""
    k = config.draw.num_topics
    reg = estimation.RegularizationConfig()
    models = {"rtm": estimation.fit(train, k, kind=config.draw.kind, seed=FIT_SEED),
              "lda": baselines.fit_lda(train, k, reg=reg, seed=FIT_SEED),
              "lda_regression": baselines.fit_lda_regression(train, k, reg=reg,
                                                             seed=FIT_SEED),
              "unigram": baselines.unigram(train)}
    reports = {}
    for name, model in models.items():
        reports[name] = prediction.evaluate_fold(model, full, plan, 0, top_k=TOP_K)
        (work / f"fold0_{name}.tsv").write_text(reports[name].to_tsv(), encoding="utf-8")
    return models, reports


def _check_fold(reports, num_candidates, num_terms):
    problems = []
    limits = {"link_rank": num_candidates, "word_rank": num_terms, "precision_at_k": 1}
    lowest = {"link_rank": 1, "word_rank": 1, "precision_at_k": 0}
    for name, report in reports.items():
        for doc, metric, value in report.rows:
            if metric in limits and not lowest[metric] <= value <= limits[metric]:
                problems.append(f"{name} doc {doc}: {metric} {value} outside "
                                f"[{lowest[metric]}, {limits[metric]}]")
        if not np.isfinite(report.mean_word_rank):
            problems.append(f"{name}: no word rank")
    chance = (num_candidates + 1) / 2
    link_rank = reports["rtm"].mean_link_rank
    if not link_rank < chance:
        problems.append(f"rtm link_rank {link_rank:.3f} not below chance {chance}")
    return problems


def run_eval(config, inputs, work, seconds, ops=None, least=1, setups=None,
             span=None, clock=None):
    """eval-sigmoid: fold 0 of `rtm eval --folds FOLDS` on each draw in turn.

    Set-up is `load_corpus` and `split_folds` for every draw; each
    operation is one draw's fold: `training_view`, its four fits and four
    `evaluate_fold` calls.
    """
    span = span or nullcontext

    def setup():
        return [(full, corpus.split_folds(full, FOLDS, FIT_SEED))
                for full in _load_draws(config, inputs)]

    out = Outcome(clock or Clock())
    draws = _timed_setups(out, span, setups or config.setups, setup)

    def fold(full, plan):
        train, _ = corpus.training_view(full, plan, 0)
        return train, *_eval_fold(train, full, plan, config, work)

    started = time.perf_counter()
    while _keep_going(started, seconds, out.attempted, ops, least):
        i = out.attempted % len(draws)
        full, plan = draws[i]
        result = _attempt(out, span, "bench.fold", lambda: fold(full, plan),
                          lambda r: _check_fold(r[2], plan.train_docs(0).size,
                                                full.num_terms))
        if result is None:
            continue
        train, models, reports = result
        rtm = models["rtm"]
        truth_beta = np.load(inputs / f"draw{i}" / "truth_beta.npy")
        out.bounds.append((rtm.elbo_trace[-1], float(train.lengths.sum())))
        out.quality["topic_error"].append(topic_error(rtm.params.beta, truth_beta))
        out.quality["link_rank"].append(reports["rtm"].mean_link_rank)
    return out


# --- suggest ---------------------------------------------------------------

def _read_queries(inputs):
    queries = []
    with open(inputs / "queries.txt", encoding="utf-8") as fh:
        for line in fh:
            queries.append([tuple(int(x) for x in entry.split(":"))
                            for entry in line.split()])
    with open(inputs / "query_links.txt", encoding="utf-8") as fh:
        links = [np.array(line.split(), dtype=np.int64) for line in fh]
    return queries, links


def _check_query(result, num_train):
    scores, order = result
    problems = []
    if not (np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))):
        problems.append("scores not finite or outside [0, 1]")
    if not np.array_equal(np.sort(order), np.arange(num_train)):
        problems.append("retrieval order is not a permutation of the training docs")
    return problems


def run_suggest(config, inputs, work, seconds, ops=None, least=1, setups=None,
                span=None, clock=None):
    """suggest: `rtm suggest-links` queries in a closed loop with one client.

    Set-up is `load_corpus`, `load_model` and `train_posteriors` for every
    draw.  Each operation is one query against its draw's model:
    `infer_heldout` on its words, `score_train_docs`, and `retrieval_order`
    keeping the top TOP_K.  Queries run in a fixed order, draw by draw,
    repeated in passes.
    """
    span = span or nullcontext
    paths = [inputs / f"draw{i}" for i in range(config.draws)]

    def setup():
        served = []
        for path in paths:
            train = corpus.load_corpus(*_corpus_paths(path))
            model = estimation.load_model(path / "model.txt")
            served.append((train, model,
                           prediction.train_posteriors(model, train, seed=FIT_SEED)))
        return served

    out = Outcome(clock or Clock())
    served = _timed_setups(out, span, setups or config.setups, setup)
    queries = []                       # (draw, words, true links into its training docs)
    for i, path in enumerate(paths):
        queries.extend((i, *query) for query in zip(*_read_queries(path)))
    for train, model, state in served:
        out.bounds.append((inference.elbo(train, model.params, state).total,
                           float(train.lengths.sum())))

    def query(draw, words):
        _, model, state = served[draw]
        heldout = prediction.infer_heldout(model, words=words)
        scores = prediction.score_train_docs(model, heldout, state.phi_bar, state.var_bar)
        # the whole order is kept for the permutation check; the top TOP_K
        # of it is the suggestion list cmd_suggest_links prints
        return scores, prediction.retrieval_order(scores)

    link_ranks = []
    started = time.perf_counter()
    while _keep_going(started, seconds, out.attempted, ops, least):
        draw, words, links = queries[out.attempted % len(queries)]
        num_train = served[draw][0].num_docs
        result = _attempt(out, span, "bench.query", lambda: query(draw, words),
                          lambda r: _check_query(r, num_train))
        if result is not None and out.attempted <= len(queries) and links.size:
            link_ranks.extend(prediction.average_ranks(result[0])[links])
    if link_ranks:
        out.quality["link_rank"].append(float(np.mean(link_ranks)))
    return out


RUNNERS = {"fit-exponential": run_fit, "eval-sigmoid": run_eval,
           "suggest": run_suggest}
