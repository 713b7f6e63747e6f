"""Write the outputs of an rtm source tree that a change must keep byte for byte.

    python tools/parity.py SRC OUT

SRC is the src directory of an rtm checkout, OUT a directory that must
not exist yet.  The script imports rtm from SRC only, so two trees (a
change and its parent, say) are compared by running it once on each and
then `diff -r OUT1 OUT2`.  Two runs on the same tree must give identical
directories.  OUT holds:

  cli/       on the two corpora of the CI end-to-end step (`rtm synth`, nu
             -1 and -2.5): `rtm fit --em-iters 10` model files of the four
             link kinds, an LDA model file and its bound trace,
             `report-topics`, `suggest-links --top-k 30` and `eval --folds 2
             --em-iters 10` directories, with each command's stdout and
             stderr; fit and eval run with --verbose, so stderr holds their
             bound traces
  readme/    the README walk-through's commands and their stdout
  fit/       `fit` + `save_model` of the 16 draws of the benchmark's
             fit-exponential workload for seeds 1 and 2: model files and
             bound traces
  suggest/   the 3 draws of the benchmark's suggest workload for seeds 1
             and 2: `train_posteriors` arrays and bound, and every query's
             score vector
  e_step/    3-sweep `run_e_step` states and traces of 100-doc draws of
             every link kind under their generating models
  log.txt    what rtm logged: isolated documents, E-steps stopped at
             max_sweeps

Bounds are written with repr, which round-trips every float exactly.
Single-threaded BLAS is pinned before numpy loads.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import logging
from pathlib import Path

import numpy as np

#: link kinds, in the order the CLI lists them
KINDS = ("sigmoid", "exponential", "probit", "gaussian")
#: the benchmark's draws: K, V, alpha, doc length, eta (all topics), nu
K, V, ALPHA, LENGTH, ETA, NU = 10, 500, 0.1, 40, 2.5, -2.5
#: guarded and unguarded E-step draws: eta (all topics), nu
E_STEP_LINKS = {"sigmoid": (3.0, -3.0), "exponential": (2.5, -2.5),
                "probit": (1.5, -2.5), "gaussian": (10.0, 0.0)}


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
            scores = []
            for doc in range(40, full.num_docs):
                words = list(zip(*(part.tolist() for part in full.doc(doc))))
                heldout = rtm.infer_heldout(model, words=words)
                scores.append(rtm.score_train_docs(model, heldout, state.phi_bar,
                                                   state.var_bar))
            np.save(f"{name}/scores.npy", np.array(scores))


def e_step_outputs(rtm):
    os.makedirs("e_step", exist_ok=True)
    for kind, (eta, nu) in E_STEP_LINKS.items():
        corpus, truth = draw(rtm, 100, [1, 0], kind, eta, nu)
        beta = truth.beta + 0.01
        beta /= beta.sum(axis=1, keepdims=True)
        params = rtm.ModelParams(beta=beta, alpha=np.full(K, ALPHA), link=truth.link_params)
        state = rtm.init_state(corpus, K, params.alpha)
        state, trace = rtm.run_e_step(corpus, params, state, max_sweeps=3)
        for array in ("phi", "gamma", "phi_bar", "var_bar"):
            np.save(f"e_step/{kind}-{array}.npy", getattr(state, array))
        write_trace(trace, f"e_step/{kind}-trace.txt")


def main(argv):
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
    readme_outputs(rtm)
    fit_outputs(rtm)
    suggest_outputs(rtm)
    e_step_outputs(rtm)


if __name__ == "__main__":
    main(sys.argv)
