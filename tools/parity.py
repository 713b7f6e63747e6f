"""Write the outputs of an rtm source tree that a change must keep byte for
byte, and compare two sets of them.

    python tools/parity.py SRC OUT
    python tools/parity.py compare OLD NEW

SRC is the src directory of an rtm checkout, OUT a directory that must
not exist yet.  The script imports rtm from SRC only, so two trees (a
change and its parent, say) are compared by running it once on each and
then `diff -r OUT1 OUT2`.  Two runs on the same tree must give identical
directories.  The compare mode is for a change that moves results on
purpose: it prints how far each file of NEW is from the same file of OLD
(see `compare`), and decides nothing.  OUT holds:

  cli/       on the two corpora of the CI end-to-end step (`rtm synth`, nu
             -1 and -2.5): `rtm fit --em-iters 10` model files of the four
             link kinds, an LDA model file and its bound trace,
             `report-topics`, `suggest-links --top-k 30` and `eval --folds 2
             --em-iters 10` directories, with each command's stdout and
             stderr; fit and eval run with --verbose, so stderr holds their
             bound traces
  skewed/    a copy of tools/skewed-corpus, the hand-written corpus of
             skewed lengths that the E-step splits into runs, and on it
             `rtm fit --em-iters 5 --verbose` model files of the four link
             kinds and `suggest-links --top-k 5` on each, with stdout and
             stderr
  readme/    the README walk-through's commands and their stdout
  fit/       `fit` + `save_model` of the 16 draws of the benchmark's
             fit-exponential workload for seeds 1 and 2: model files and
             bound traces
  suggest/   the 3 draws of the benchmark's suggest workload for seeds 1
             and 2: `train_posteriors` arrays and bound, and every query's
             score vector and `infer_heldout` posterior from its words
             (words-*.npy: gamma, phi_bar and var, one row per query);
             and for each query with links into the training documents,
             the links-only posterior from them (links-*.npy, and the
             queries they belong to in links-docs.npy); words-maps.npy
             and links-maps.npy hold each query's number of maps, counted
             through the one `psi` call that each map of the loop makes
  e_step/    3-sweep `run_e_step` states and traces of 100-doc draws of
             every link kind under their generating models, and the
             converged E-step of a 10-doc probit draw whose sweeps lower
             the bound, so that `run_e_step` steps them back
  log.txt    what rtm logged: isolated documents, E-steps stopped at
             max_sweeps or with sweeps stepped back

Bounds are written with repr, which round-trips every float exactly.
Single-threaded BLAS is pinned before numpy loads.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import logging
import shutil
from pathlib import Path

import numpy as np

#: the hand-written corpus of skewed lengths (see `skewed_outputs`)
SKEWED_CORPUS = Path(__file__).resolve().parent / "skewed-corpus"
#: link kinds, in the order the CLI lists them
KINDS = ("sigmoid", "exponential", "probit", "gaussian")
#: the benchmark's draws: K, V, alpha, doc length, eta (all topics), nu
K, V, ALPHA, LENGTH, ETA, NU = 10, 500, 0.1, 40, 2.5, -2.5
#: guarded and unguarded E-step draws: eta (all topics), nu
E_STEP_LINKS = {"sigmoid": (3.0, -3.0), "exponential": (2.5, -2.5),
                "probit": (1.5, -2.5), "gaussian": (10.0, 0.0)}
#: scores within this relative difference of each other, in both trees, may
#: swap places without moving a top-20 retrieval order (see `compare`)
ORDER_TOL = 1e-6


def run_cli(rtm, argv, out):
    """`rtm ARGV` in this process, its stdout and stderr written to out.txt / out.err."""
    with open(f"{out}.txt", "w", encoding="utf-8") as stdout, \
            open(f"{out}.err", "w", encoding="utf-8") as stderr, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = rtm.cli.main(argv)
    if status != 0:
        raise SystemExit(f"rtm {' '.join(argv)} exited {status}")


def write_trace(values, path):
    Path(path).write_text("".join(f"{value!r}\n" for value in values), encoding="utf-8")


def cli_outputs(rtm):
    for nu in ("-1", "-2.5"):
        work = f"cli/nu{nu}"
        os.makedirs(work)
        run_cli(rtm, ["synth", "--out", f"{work}/corpus", "--topics", "3", "--num-terms", "30",
                      "--num-docs", "30", "--doc-length", "20", "--eta=-1", f"--nu={nu}",
                      "--seed", "1"], f"{work}/synth")
        files = [f"{work}/corpus/{part}.txt" for part in ("docs", "vocab", "links")]
        flags = ["--docs", files[0], "--vocab", files[1], "--links", files[2]]
        for kind in KINDS:
            model = f"{work}/{kind}.model"
            run_cli(rtm, ["fit", *flags, "--topics", "3", "--em-iters", "10", "--link-fn", kind,
                          "--seed", "42", "--verbose", "--out", model], f"{work}/fit-{kind}")
            run_cli(rtm, ["report-topics", "--model", model, "--vocab", files[1],
                          "--top-k", "5"], f"{work}/topics-{kind}")
            run_cli(rtm, ["suggest-links", *flags, "--model", model, "--new-doc", "0:2 11:1",
                          "--top-k", "30"], f"{work}/suggest-{kind}")
            run_cli(rtm, ["eval", *flags, "--topics", "3", "--em-iters", "10", "--folds", "2",
                          "--link-fn", kind, "--seed", "42", "--verbose",
                          "--out", f"{work}/eval-{kind}"],
                    f"{work}/eval-{kind}")
        lda = rtm.baselines.fit_lda(rtm.load_corpus(*files), 3, seed=42, em_iters=10)
        rtm.save_model(lda, f"{work}/lda.model")
        write_trace(lda.elbo_trace, f"{work}/lda.trace")


def skewed_outputs(rtm):
    """The corpus of skewed lengths in tools/skewed-corpus, which the CI
    end-to-end step runs too: document 0 has 50 distinct terms and the
    other 8 have 1 to 5; document 8 has no links."""
    os.makedirs("skewed")
    files = [f"skewed/{part}.txt" for part in ("docs", "vocab", "links")]
    for path in files:
        shutil.copyfile(SKEWED_CORPUS / Path(path).name, path)
    flags = ["--docs", files[0], "--vocab", files[1], "--links", files[2]]
    for kind in KINDS:
        model = f"skewed/{kind}.model"
        run_cli(rtm, ["fit", *flags, "--topics", "3", "--em-iters", "5", "--link-fn", kind,
                      "--seed", "42", "--verbose", "--out", model], f"skewed/fit-{kind}")
        run_cli(rtm, ["suggest-links", *flags, "--model", model, "--new-doc", "0:2 50:1",
                      "--top-k", "5"], f"skewed/suggest-{kind}")


def readme_outputs(rtm):
    flags = ["--docs", "demo/corpus/docs.txt", "--vocab", "demo/corpus/vocab.txt",
             "--links", "demo/corpus/links.txt"]
    commands = [
        ["synth", "--out", "demo/corpus", "--topics", "3", "--num-terms", "30",
         "--num-docs", "60", "--doc-length", "30", "--eta=-1", "--nu", "-1.5", "--seed", "1"],
        ["fit", *flags, "--topics", "3", "--out", "demo/model.txt"],
        ["report-topics", "--model", "demo/model.txt", "--vocab", "demo/corpus/vocab.txt",
         "--top-k", "5"],
        ["suggest-links", *flags, "--model", "demo/model.txt", "--new-doc", "0:3 4:2 7:1",
         "--top-k", "5"],
        ["eval", *flags, "--topics", "3", "--folds", "2", "--out", "demo/eval"],
    ]
    os.makedirs("readme")
    os.chdir("readme")
    for i, argv in enumerate(commands):
        run_cli(rtm, argv, f"step{i}-{argv[0]}")
    os.chdir("..")


def draw(rtm, num_docs, seed, kind="exponential", eta=ETA, nu=NU):
    return rtm.generate_synthetic(K, V, num_docs, LENGTH, ALPHA, np.full(K, eta), nu, kind,
                                  seed)


def reloaded(rtm, corpus, directory):
    """The corpus as the benchmark reads it: written to files, then loaded."""
    os.makedirs(directory, exist_ok=True)
    files = [f"{directory}/{part}.txt" for part in ("docs", "vocab", "links")]
    rtm.write_corpus(corpus, *files)
    return rtm.load_corpus(*files)


def fit_outputs(rtm):
    for seed in (1, 2):
        for i in range(16):
            name = f"fit/seed{seed}-draw{i}"
            train = reloaded(rtm, draw(rtm, 15, [seed, i])[0], name)
            model = rtm.fit(train, K, kind="exponential", seed=42)
            rtm.save_model(model, f"{name}/model.txt")
            write_trace(model.elbo_trace, f"{name}/trace.txt")


def counted_query(rtm, model, **evidence):
    """`infer_heldout(model, **evidence)` and its number of maps, counted
    through `rtm.prediction.psi`, which its loop calls once per map."""
    prediction = rtm.prediction
    psi, maps = prediction.psi, []
    prediction.psi = lambda x: maps.append(None) or psi(x)
    try:
        return prediction.infer_heldout(model, **evidence), len(maps)
    finally:
        prediction.psi = psi


def suggest_outputs(rtm):
    for seed in (1, 2):
        for i in range(3):
            name = f"suggest/seed{seed}-draw{i}"
            full, truth = draw(rtm, 200, [seed, i])
            train = reloaded(rtm, rtm.corpus.subcorpus(full, range(40)), name)
            beta = truth.beta + 0.01
            beta /= beta.sum(axis=1, keepdims=True)
            params = rtm.ModelParams(beta=beta, alpha=np.full(K, ALPHA), link=truth.link_params)
            rtm.save_model(rtm.FittedModel(params=params, kind="exponential",
                                           config={"smoothing": 0.01}), f"{name}/model.txt")
            model = rtm.load_model(f"{name}/model.txt")
            state = rtm.prediction.train_posteriors(model, train)
            for array in ("phi", "gamma", "phi_bar", "var_bar"):
                np.save(f"{name}/{array}.npy", getattr(state, array))
            write_trace([rtm.elbo(train, model.params, state).total], f"{name}/bound.txt")
            scores, by_words, by_links, linked = [], [], [], []
            maps = {"words": [], "links": []}
            for doc in range(40, full.num_docs):
                words = list(zip(*(part.tolist() for part in full.doc(doc))))
                heldout, count = counted_query(rtm, model, words=words)
                by_words.append(heldout)
                maps["words"].append(count)
                scores.append(rtm.score_train_docs(model, heldout, state.phi_bar,
                                                   state.var_bar))
                links = [other for other in full.neighbors[doc].tolist() if other < 40]
                if links:
                    linked.append(doc)
                    heldout, count = counted_query(rtm, model, links=links,
                                                   train_phi_bar=state.phi_bar)
                    by_links.append(heldout)
                    maps["links"].append(count)
            np.save(f"{name}/scores.npy", np.array(scores))
            np.save(f"{name}/links-docs.npy", np.array(linked, dtype=np.int64))
            for prefix, posteriors in (("words", by_words), ("links", by_links)):
                for array in ("gamma", "phi_bar", "var"):
                    np.save(f"{name}/{prefix}-{array}.npy",
                            np.array([getattr(post, array) for post in posteriors]))
                np.save(f"{name}/{prefix}-maps.npy", np.array(maps[prefix], dtype=np.int64))


def e_step_outputs(rtm):
    os.makedirs("e_step", exist_ok=True)
    runs = []
    for kind, (eta, nu) in E_STEP_LINKS.items():
        corpus, truth = draw(rtm, 100, [1, 0], kind, eta, nu)
        beta = truth.beta + 0.01
        beta /= beta.sum(axis=1, keepdims=True)
        params = rtm.ModelParams(beta=beta, alpha=np.full(K, ALPHA), link=truth.link_params)
        runs.append((kind, corpus, params, 3))
    # two topics, documents of 2 tokens and eta (-33, -35): probit sweeps that
    # move both ends of a link at once lower the bound here
    corpus, _ = rtm.generate_synthetic(2, 8, 10, 2, np.full(2, 0.5), np.full(2, -1.0), -0.5,
                                       "exponential", 0)
    beta = np.random.default_rng(0).dirichlet(np.ones(8), size=2)
    link = rtm.LinkParams(np.array([-33.0, -35.0]), 0.0, "probit")
    runs.append(("probit-stepped-back", corpus,
                 rtm.ModelParams(beta=beta, alpha=np.full(2, 0.5), link=link), 100))
    for name, corpus, params, max_sweeps in runs:
        state = rtm.init_state(corpus, params.num_topics, params.alpha)
        state, trace = rtm.run_e_step(corpus, params, state, max_sweeps=max_sweeps)
        for array in ("phi", "gamma", "phi_bar", "var_bar"):
            np.save(f"e_step/{name}-{array}.npy", getattr(state, array))
        write_trace(trace, f"e_step/{name}-trace.txt")


def relative_difference(old, new):
    """The largest |old - new| / max(|old|, |new|) over two same-shape float
    arrays; entries equal on both sides (inf and nan too) count 0."""
    old, new = np.asarray(old, dtype=np.float64), np.asarray(new, dtype=np.float64)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    with np.errstate(invalid="ignore", over="ignore"):
        rel = np.abs(old - new) / np.maximum(np.abs(old), np.abs(new))
    rel = np.where(same, 0.0, rel)
    return float(np.where(np.isnan(rel), np.inf, rel).max(initial=0.0))


def as_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def top_orders_agree(old, new, top=20, tol=ORDER_TOL):
    """Per row of two score matrices, whether the first `top` candidates by
    descending score, ties by index (as `retrieval_order`), agree up to
    swaps within tol: no two candidates of either tree's first `top` are
    ranked in opposite order by the trees while their scores differ by
    more than tol relative, max(|a|, |b|) * tol, in both trees.  A
    candidate that leaves the first `top` swaps with one that enters."""
    old, new = np.atleast_2d(old), np.atleast_2d(new)
    agree = []
    for a, b in zip(old, new):
        ranks = []
        for scores in (a, b):
            rank = np.empty(scores.size, dtype=np.int64)
            rank[np.argsort(-scores, kind="stable")] = np.arange(scores.size)
            ranks.append(rank)
        pool = np.flatnonzero((ranks[0] < top) | (ranks[1] < top))
        swapped = ((ranks[0][pool, None] < ranks[0][pool]) !=
                   (ranks[1][pool, None] < ranks[1][pool]))
        for scores in (a, b):
            x = scores[pool]
            gap = np.abs(x[:, None] - x) > tol * np.maximum(np.abs(x[:, None]), np.abs(x))
            swapped &= gap
        agree.append(not swapped.any())
    return np.array(agree)


def compare_file(old, new):
    """(detail, relative difference or None, top-20 rows (agree, total) or
    None, (old, new) line counts of a file of float lines or None) for two
    versions of one output file that are not byte-identical."""
    if old.suffix == ".npy":
        a, b = np.load(old), np.load(new)
        if a.shape != b.shape:
            return f"shape {a.shape} -> {b.shape}", None, None, None
        rel = relative_difference(a, b)
        orders = None
        if old.name == "scores.npy":
            agree = top_orders_agree(a, b)
            orders = int(agree.sum()), agree.shape[0]
        return f"max rel {rel:.3g}", rel, orders, None
    a_lines = old.read_text(encoding="utf-8").splitlines()
    b_lines = new.read_text(encoding="utf-8").splitlines()
    lengths = None
    if all(as_float(line) is not None for line in a_lines + b_lines):
        lengths = len(a_lines), len(b_lines)
    a, b = " ".join(a_lines).split(), " ".join(b_lines).split()
    a_num, b_num = [as_float(t) for t in a], [as_float(t) for t in b]
    if len(a) != len(b) or any((x is None) != (y is None) or (x is None and s != t)
                               for s, t, x, y in zip(a, b, a_num, b_num)):
        line = next((i for i, (s, t) in enumerate(zip(a_lines, b_lines), 1) if s != t),
                    min(len(a_lines), len(b_lines)) + 1)
        detail = f"text differs from line {line}"
        if lengths is not None:
            detail += f", lines {lengths[0]} -> {lengths[1]}"
        return detail, None, None, lengths
    pairs = [(x, y) for x, y in zip(a_num, b_num) if x is not None]
    rel = relative_difference(*zip(*pairs)) if pairs else 0.0
    detail = f"max rel {rel:.3g}"
    if lengths is not None:
        detail += f", lines {lengths[0]}"
    return detail, rel, None, lengths


def compare(old, new):
    """Print, for each file of two parity directories, whether it is
    byte-identical and, if not, how far apart its numbers are.

    A .npy array or a text file whose words match up to their numbers
    gets the largest relative difference of its numbers; each row of a
    scores.npy, whether its top-20 retrieval order agrees up to swaps
    within ORDER_TOL (`top_orders_agree`); a file of one number per line
    (a bound trace, or a bound), its line count: EM iterations for `fit`
    traces, sweeps + 1 for E-step traces.  Ends with the largest
    difference per kind of file among the files that differ, the traces
    whose length moved, how many rows of all scores.npy files keep their
    top-20 order, and the mean, median, p95 and max of each tree's
    held-out maps per query (words-maps.npy and links-maps.npy).
    """
    def files(root):
        return {str(path.relative_to(root)) for path in root.rglob("*") if path.is_file()}

    old_files, new_files = files(old), files(new)
    largest, moved, orders = {}, [], [0, 0]
    counts = dict.fromkeys(("same", "differs", "only"), 0)
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            counts["only"] += 1
            print(f"only in {'OLD' if name in old_files else 'NEW'}  {name}")
            continue
        a, b = old / name, new / name
        if a.read_bytes() == b.read_bytes():
            counts["same"] += 1
            print(f"same     {name}")
            if a.name == "scores.npy":
                orders[0] += np.load(a).shape[0]
            continue
        counts["differs"] += 1
        detail, rel, rows, lengths = compare_file(a, b)
        print(f"differs  {name}  {detail}")
        parts = name.split("/")
        kind = f"{parts[0]}/*/{parts[-1]}" if len(parts) > 2 else name
        if rel is not None and rel >= largest.get(kind, (-1.0, ""))[0]:
            largest[kind] = rel, name
        if rows is not None:
            orders[0] += rows[0]
            orders[1] += rows[1] - rows[0]
        if lengths is not None and lengths[0] != lengths[1]:
            moved.append(f"{name} {lengths[0]} -> {lengths[1]}")
    print(f"\n{sum(counts.values())} files: {counts['same']} byte-identical, "
          f"{counts['differs']} differ, {counts['only']} in one tree only")
    print("largest relative difference, by kind of file:" + ("" if largest else " none"))
    for kind, (rel, name) in sorted(largest.items()):
        print(f"  {kind:<32} {rel:.3g}  ({name})")
    print("files of one number per line whose line count moved:", ", ".join(moved) or "none")
    print(f"top-20 retrieval orders of the scores.npy rows, up to swaps within "
          f"{ORDER_TOL:g} relative: {orders[0]} agree, {orders[1]} differ")
    for prefix in ("words", "links"):
        for label, root in (("OLD", old), ("NEW", new)):
            print(f"maps per {prefix} query, {label}: {map_summary(root, prefix)}")


def map_summary(root, prefix):
    """Mean, median, p95 and max of the map counts in a tree's
    <prefix>-maps.npy files, or "none" if it has none."""
    counts = [np.load(path) for path in sorted(root.rglob(f"{prefix}-maps.npy"))]
    if not counts:
        return "none"
    counts = np.concatenate(counts)
    return (f"mean {counts.mean():.2f}, median {np.median(counts):g}, "
            f"p95 {np.percentile(counts, 95):g}, max {counts.max()} "
            f"({counts.size} queries)")


def main(argv):
    if len(argv) == 4 and argv[1] == "compare":
        compare(Path(argv[2]), Path(argv[3]))
        return
    if len(argv) != 3:
        raise SystemExit(__doc__)
    src, out = Path(argv[1]).resolve(), Path(argv[2])
    if not (src / "rtm" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'rtm'} not found")
    sys.path.insert(0, str(src))
    import rtm
    import rtm.cli
    if Path(rtm.__file__).resolve().parent != src / "rtm":
        raise SystemExit(f"error: imported rtm from {rtm.__file__}, not from {src}")
    out.mkdir(parents=True)
    os.chdir(out)
    logging.basicConfig(filename="log.txt", format="%(levelname)s %(name)s: %(message)s")
    cli_outputs(rtm)
    skewed_outputs(rtm)
    readme_outputs(rtm)
    fit_outputs(rtm)
    suggest_outputs(rtm)
    e_step_outputs(rtm)


if __name__ == "__main__":
    main(sys.argv)
