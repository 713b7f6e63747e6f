"""Command-line interface: fit, eval, report-topics, suggest-links, synth.

All corpus and model file formats are documented in the corpus and
estimation modules.  Reports are tab-separated; diagnostics go to
stderr.  Commands exit 0 on success and nonzero with a single-line
message on failure, or with status 1 and no message when the reader of
stdout goes away early; model files are written atomically (a uniquely
named temp file in the target directory, flushed to disk, then renamed
over the target).
"""

import argparse
import os
import sys

import numpy as np

from . import baselines, estimation, linkfn, prediction
from .corpus import (CorpusFormatError, _parse_entries, generate_synthetic,
                     load_corpus, read_vocab, split_folds, training_view,
                     write_corpus)


def _add_corpus_flags(p, links_required=False):
    p.add_argument("--docs", required=True, help="documents file")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--links", required=links_required, default=None, help="links file")


def _add_fit_flags(p):
    p.add_argument("--topics", type=int, default=10, metavar="K")
    p.add_argument("--alpha-total", type=float, default=1.0)
    p.add_argument("--link-fn", default="exponential",
                   choices=linkfn.KINDS)
    p.add_argument("--rho", type=float, default=None,
                   help="pseudo non-link count of every link M-step, LDA+regression's "
                        "too (default: number of links)")
    p.add_argument("--smoothing", type=float, default=0.01,
                   help="pseudocount of every topic-word count in the topic update "
                        "(and of the unigram baseline)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--em-iters", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="EM stopping tolerance on the bound's relative change (0 "
                        "stops only on an unchanged bound); posteriors under a "
                        "fitted model use their own loops' tolerance")
    p.add_argument("--verbose", action="store_true",
                   help="write bound traces to stderr")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rtm",
        description="Relational topic model: fit, evaluate, and predict on "
                    "document networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model and write a model file")
    _add_corpus_flags(p)
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="k-fold held-out evaluation vs baselines")
    _add_corpus_flags(p, links_required=True)
    _add_fit_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--out", required=True, help="output directory for reports")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report-topics", help="top words per topic by score")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", default=None, help="optional vocabulary file")
    p.add_argument("--top-k", type=int, default=10, metavar="N")
    p.set_defaults(func=cmd_report_topics)

    p = sub.add_parser("suggest-links", help="rank training docs for a new document")
    _add_corpus_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--new-doc", required=True,
                   help="words of the new document as term:count pairs, "
                        "e.g. '3:2 7:1'")
    p.add_argument("--top-k", type=int, default=20)
    p.set_defaults(func=cmd_suggest_links)

    p = sub.add_parser("synth", help="sample a synthetic document network")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--topics", type=int, default=10, metavar="K")
    p.add_argument("--num-terms", type=int, default=50)
    p.add_argument("--num-docs", type=int, default=100)
    p.add_argument("--doc-length", type=int, default=40)
    p.add_argument("--alpha-total", type=float, default=1.0)
    p.add_argument("--eta", default="0",
                   help="link coefficients: one float (broadcast) or K "
                        "comma-separated floats")
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--link-fn", default="exponential",
                   choices=linkfn.KINDS)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_synth)
    return parser


def _load(args):
    return load_corpus(args.docs, args.vocab, args.links)


def _fit(corpus, args):
    reg = estimation.RegularizationConfig(rho=args.rho, smoothing=args.smoothing)
    model = estimation.fit(
        corpus, args.topics, kind=args.link_fn,
        alpha_total=args.alpha_total, reg=reg, seed=args.seed,
        em_iters=args.em_iters, tol=args.tol)
    if args.verbose:
        sys.stderr.write("".join(f"{value:.10f}\n" for value in model.elbo_trace))
    return model


def _check_top_k(args):
    if args.top_k < 1:
        raise ValueError(f"--top-k must be at least 1, got {args.top_k}")


def cmd_fit(args):
    corpus = _load(args)
    model = _fit(corpus, args)
    estimation.save_model(model, args.out)
    print(f"fit: {len(model.elbo_trace)} EM iterations, "
          f"final bound {model.elbo_trace[-1]:.6f}")
    print(f"model written to {args.out}")
    return 0


def _baseline_suite(corpus, args):
    reg = estimation.RegularizationConfig(rho=args.rho, smoothing=args.smoothing)
    lda = baselines.fit_lda(corpus, args.topics, alpha_total=args.alpha_total,
                            reg=reg, seed=args.seed, em_iters=args.em_iters,
                            tol=args.tol)
    return {"lda": lda, "lda_regression": baselines.fit_link_regression(corpus, lda),
            "unigram": baselines.unigram(corpus, smoothing=args.smoothing)}


def cmd_eval(args):
    _check_top_k(args)
    corpus = _load(args)
    plan = split_folds(corpus, args.folds, args.seed)
    os.makedirs(args.out, exist_ok=True)

    summaries = {}
    for fold in range(args.folds):
        train_corpus, _ = training_view(corpus, plan, fold)
        models = {"rtm": _fit(train_corpus, args)}
        models.update(_baseline_suite(train_corpus, args))
        for name, model in models.items():
            report = prediction.evaluate_fold(model, corpus, plan, fold, top_k=args.top_k)
            path = os.path.join(args.out, f"fold{fold}_{name}.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_tsv())
            summaries.setdefault(name, []).append(report)
            if args.verbose:
                print(f"fold {fold} {name}: link_rank={report.mean_link_rank:.3f} "
                      f"word_rank={report.mean_word_rank:.3f}", file=sys.stderr)

    summary_path = os.path.join(args.out, "summary.tsv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("model\tmetric\tvalue\n")
        for name, reports in summaries.items():
            for metric, values in (
                    ("mean_link_rank", [r.mean_link_rank for r in reports]),
                    ("mean_word_rank", [r.mean_word_rank for r in reports]),
                    (f"precision_at_{args.top_k}",
                     [r.precision_at_k for r in reports])):
                values = [v for v in values if np.isfinite(v)]
                mean = float(np.mean(values)) if values else float("nan")
                fh.write(f"{name}\t{metric}\t{mean:.6f}\n")
                print(f"{name}\t{metric}\t{mean:.6f}")
    print(f"reports written to {args.out}")
    return 0


def topic_word_scores(params):
    """Per-(topic, word) salience of a ModelParams' topics:
    beta * (log beta - mean over topics), with its floored log beta."""
    return params.beta * (params.log_beta - params.log_beta.mean(axis=0))


def cmd_report_topics(args):
    _check_top_k(args)
    model = estimation.load_model(args.model)
    vocab = read_vocab(args.vocab) if args.vocab else None
    if vocab is not None and len(vocab) < model.params.num_terms:
        raise ValueError(f"vocab file {args.vocab} has {len(vocab)} tokens, fewer than "
                         f"the model's {model.params.num_terms} terms")
    scores = topic_word_scores(model.params)
    for k in range(scores.shape[0]):
        order = prediction.retrieval_order(scores[k])[:args.top_k]
        words = [vocab[w] if vocab else f"w{w}" for w in order]
        print(f"topic {k}:\t" + "\t".join(
            f"{word} ({scores[k, w]:.4f})" for word, w in zip(words, order)))
    return 0


def cmd_suggest_links(args):
    _check_top_k(args)
    corpus = _load(args)
    model = estimation.load_model(args.model)
    prediction.check_scores_links(model)
    heldout = prediction.infer_heldout(model, words=_parse_entries(args.new_doc.split()))
    state = prediction.train_posteriors(model, corpus)
    scores = prediction.score_train_docs(model, heldout,
                                         state.phi_bar, state.var_bar)
    order = prediction.retrieval_order(scores)[:args.top_k]
    print("rank\tdoc_id\tscore")
    for rank, doc in enumerate(order, start=1):
        print(f"{rank}\t{doc}\t{scores[doc]:.6f}")
    return 0


def cmd_synth(args):
    k = args.topics
    eta_parts = [float(x) for x in args.eta.split(",")]
    eta = np.full(k, eta_parts[0]) if len(eta_parts) == 1 else np.array(eta_parts)
    if eta.shape != (k,):
        raise ValueError(f"--eta needs 1 or {k} values")
    # an elementwise division, so that K = 0 reaches generate_synthetic's check
    alpha = np.full(k, args.alpha_total) / k
    corpus, _ = generate_synthetic(k, args.num_terms, args.num_docs,
                                   args.doc_length, alpha, eta, args.nu,
                                   args.link_fn, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_corpus(corpus,
                 os.path.join(args.out, "docs.txt"),
                 os.path.join(args.out, "vocab.txt"),
                 os.path.join(args.out, "links.txt"))
    print(f"synthetic corpus: {corpus.num_docs} docs, {corpus.num_terms} terms, "
          f"{corpus.num_links} links -> {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `rtm eval ... | head -1`);
        # send what is still buffered to devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FileNotFoundError as exc:
        path = exc.filename if exc.filename else exc
        print(f"error: file not found: {path}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. a directory given as a file, or an existing file as --out
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except (CorpusFormatError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. a size flag far beyond the host: numpy names the request
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
