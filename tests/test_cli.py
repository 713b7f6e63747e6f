"""End-to-end tests of the command-line surface."""

import numpy as np
import pytest

from rtm import cli, estimation
from rtm.cli import main, topic_word_scores
from rtm.corpus import generate_synthetic, load_corpus, write_corpus
from rtm.estimation import FittedModel, save_model
from rtm.inference import ModelParams


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus, _ = generate_synthetic(2, 8, 20, 15, np.array([0.5, 0.5]),
                                   np.array([-2.0, -2.0]), -1.5,
                                   "exponential", seed=51)
    docs, vocab, links = (str(root / n) for n in ("docs.txt", "vocab.txt",
                                                  "links.txt"))
    write_corpus(corpus, docs, vocab, links)
    return docs, vocab, links


def fit_args(docs, vocab, links, out, **extra):
    args = ["fit", "--docs", docs, "--vocab", vocab, "--links", links,
            "--out", out, "--topics", "2", "--em-iters", "3", "--seed", "7"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestFitCommand:
    def test_fit_writes_model_and_round_trips(self, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        out = str(tmp_path / "model.txt")
        assert main(fit_args(docs, vocab, links, out)) == 0
        printed = capsys.readouterr().out
        assert "final bound" in printed
        loaded = estimation.load_model(out)
        assert loaded.kind == "exponential"
        assert loaded.params.beta.shape == (2, 8)

    def test_fit_deterministic_bytes(self, corpus_files, tmp_path):
        docs, vocab, links = corpus_files
        outs = []
        for run in range(2):
            out = tmp_path / f"m{run}.txt"
            assert main(fit_args(docs, vocab, links, str(out))) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_vocab_exits_2(self, corpus_files, tmp_path, capsys):
        docs, _, links = corpus_files
        missing = str(tmp_path / "nope.txt")
        code = main(fit_args(docs, missing, links, str(tmp_path / "m.txt")))
        assert code == 2
        assert missing in capsys.readouterr().err

    def test_malformed_corpus_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "docs.txt"
        bad.write_text("1 9:1\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\n")
        code = main(["fit", "--docs", str(bad), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err


class TestEvalCommand:
    def test_two_folds_emit_reports_and_summary(self, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        out = tmp_path / "reports"
        code = main(["eval", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--out", str(out), "--topics", "2", "--folds", "2",
                     "--em-iters", "2", "--seed", "7", "--top-k", "5"])
        assert code == 0
        for fold in range(2):
            for name in ("rtm", "lda", "lda_regression", "unigram"):
                assert (out / f"fold{fold}_{name}.tsv").exists()
        summary = (out / "summary.tsv").read_text().splitlines()
        assert summary[0] == "model\tmetric\tvalue"

        # summary mean equals the mean of per-fold means
        fold_means = []
        for fold in range(2):
            for line in (out / f"fold{fold}_rtm.tsv").read_text().splitlines():
                parts = line.split("\t")
                if parts[0] == "summary" and parts[1] == "mean_link_rank":
                    fold_means.append(float(parts[2]))
        summary_value = next(float(l.split("\t")[2]) for l in summary
                             if l.startswith("rtm\tmean_link_rank"))
        np.testing.assert_allclose(summary_value, np.mean(fold_means), atol=5e-7)


def assert_one_line_error(capsys, code, starts):
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(starts)


class TestTopKRejected:
    def test_eval(self, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        code = main(["eval", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--out", str(tmp_path / "reports"), "--top-k", "0"])
        assert_one_line_error(capsys, code, "error: --top-k must be at least 1")
        assert not (tmp_path / "reports").exists()

    def test_report_topics(self, tmp_path, capsys):
        model = FittedModel(params=ModelParams(beta=np.full((2, 2), 0.5),
                                               alpha=np.full(2, 0.5)),
                            kind="lda", config={"smoothing": 0.01})
        path = str(tmp_path / "m.txt")
        save_model(model, path)
        code = main(["report-topics", "--model", path, "--top-k", "0"])
        assert_one_line_error(capsys, code, "error: --top-k must be at least 1")

    def test_suggest_links(self, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        model_path = str(tmp_path / "m.txt")
        assert main(fit_args(docs, vocab, links, model_path, em_iters=1)) == 0
        capsys.readouterr()
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab,
                     "--links", links, "--model", model_path,
                     "--new-doc", "0:2", "--top-k=-1"])
        assert_one_line_error(capsys, code, "error: --top-k must be at least 1")


class TestSizeFlagsRejected:
    @pytest.mark.parametrize("flag, value, message", [
        ("topics", 0, "num_topics"), ("em_iters", 0, "em_iters"), ("em_iters", -1, "em_iters")])
    def test_fit(self, corpus_files, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.txt"
        code = main(fit_args(*corpus_files, str(out), **{flag: value}))
        assert_one_line_error(capsys, code, f"error: {message} must be at least 1")
        assert not out.exists()

    def test_eval(self, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        code = main(["eval", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--out", str(tmp_path / "reports"), "--topics", "0"])
        assert_one_line_error(capsys, code, "error: num_topics must be at least 1")

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--topics", "0"])
        assert_one_line_error(capsys, code, "error: num_topics must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("length", [0, -1])
    def test_synth_doc_length(self, tmp_path, capsys, length):
        # rejected before sampling, so no numpy warning precedes the error
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--topics", "4", "--doc-length", str(length)])
        assert_one_line_error(capsys, code, "error: doc_length must be at least 1")
        assert not out.exists()

    def test_synth_num_docs(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--num-docs", "0"])
        assert_one_line_error(capsys, code, "error: num_docs must be at least 1")
        assert not out.exists()


class TestNonFiniteRejected:
    @pytest.mark.parametrize("flags, message", [
        (["--eta", "nan"], "link coefficients eta and nu must be finite"),
        (["--nu", "nan"], "link coefficients eta and nu must be finite"),
        (["--eta=-inf"], "link coefficients eta and nu must be finite"),
        (["--alpha-total", "nan"], "alpha must be a positive finite vector")])
    def test_synth(self, tmp_path, capsys, flags, message):
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--topics", "2", *flags])
        assert_one_line_error(capsys, code, f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("l2", "nan", "lam must be finite"), ("tol", "nan", "tol must be finite"),
        ("smoothing", "inf", "smoothing must be finite"), ("rho", "inf", "rho must be finite"),
        ("alpha_total", "inf", "alpha_total must be finite")])
    def test_fit(self, corpus_files, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.txt"
        code = main(fit_args(*corpus_files, str(out), **{flag: value}))
        assert_one_line_error(capsys, code, f"error: {message}")
        assert not out.exists()


class TestTruncatedModelRejected:
    """A model file cut short: 4 lines of header and link coefficients, then K rows."""

    @pytest.fixture
    def truncated(self, tmp_path):
        model = FittedModel(params=ModelParams(beta=np.full((3, 8), 0.125),
                                               alpha=np.full(3, 0.5)),
                            kind="lda", config={"smoothing": 0.01})
        path = tmp_path / "m.txt"
        save_model(model, str(path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 4 + 3

        def cut(num_lines):
            path.write_text("".join(lines[:num_lines]))
            return str(path)
        return cut

    @pytest.mark.parametrize("num_lines, message", [
        (1, "fewer than 4 lines"), (2, "fewer than 4 lines"), (3, "fewer than 4 lines"),
        (6, "fewer than 7 lines for 3 topic rows")])
    def test_report_topics(self, truncated, capsys, num_lines, message):
        path = truncated(num_lines)
        code = main(["report-topics", "--model", path])
        assert_one_line_error(capsys, code, f"error: {path}: truncated model file: {message}")

    @pytest.mark.parametrize("num_lines", [1, 2, 6])
    def test_suggest_links(self, truncated, corpus_files, capsys, num_lines):
        docs, vocab, links = corpus_files
        path = truncated(num_lines)
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--model", path, "--new-doc", "0:2 1:1"])
        assert_one_line_error(capsys, code, f"error: {path}: truncated model file")


class TestReportTopics:
    def test_short_vocab_rejected(self, tmp_path, capsys):
        model = FittedModel(params=ModelParams(beta=np.full((2, 20), 0.05),
                                               alpha=np.full(2, 0.5)),
                            kind="lda", config={"smoothing": 0.01})
        path = str(tmp_path / "m.txt")
        save_model(model, path)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        code = main(["report-topics", "--model", path, "--vocab", str(vocab)])
        assert_one_line_error(capsys, code, f"error: vocab file {vocab} has 2 tokens")

    def test_hand_computed_scores(self, tmp_path, capsys):
        beta = np.array([[0.9, 0.1], [0.1, 0.9]])
        model = FittedModel(params=ModelParams(beta=beta, alpha=np.full(2, 0.5)),
                            kind="lda", config={"smoothing": 0.01})
        path = str(tmp_path / "m.txt")
        save_model(model, path)
        assert main(["report-topics", "--model", path, "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("topic 0:")
        score = float(first.split("(")[1].split(")")[0])
        np.testing.assert_allclose(score, 0.45 * np.log(9.0), atol=1e-4)

    def test_identical_rows_score_zero(self):
        beta = np.array([[0.3, 0.7], [0.3, 0.7]])
        np.testing.assert_allclose(topic_word_scores(beta), 0.0, atol=1e-12)

    def test_single_topic_scores_zero(self):
        beta = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_allclose(topic_word_scores(beta), 0.0, atol=1e-12)

    def test_hand_computed_matrix_value(self):
        beta = np.array([[0.9, 0.1], [0.1, 0.9]])
        scores = topic_word_scores(beta)
        expected = 0.9 * (np.log(0.9) - 0.5 * (np.log(0.9) + np.log(0.1)))
        np.testing.assert_allclose(scores[0, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(scores[0, 0], 0.988751, atol=1e-6)


class TestSuggestLinks:
    def make_planted(self, tmp_path):
        # two linked docs per topic; block vocabulary
        docs = tmp_path / "docs.txt"
        vocab = tmp_path / "vocab.txt"
        links = tmp_path / "links.txt"
        vocab.write_text("a\nb\nc\nd\n")
        docs.write_text("2 0:5 1:5\n2 0:6 1:4\n2 2:5 3:5\n2 2:4 3:6\n")
        links.write_text("0 1\n2 3\n")
        return str(docs), str(vocab), str(links)

    def test_topical_match_ranks_first(self, tmp_path, capsys):
        docs, vocab, links = self.make_planted(tmp_path)
        model_path = str(tmp_path / "m.txt")
        assert main(["fit", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--out", model_path, "--topics", "2", "--em-iters", "10",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["suggest-links", "--docs", docs, "--vocab", vocab,
                     "--links", links, "--model", model_path,
                     "--new-doc", "0:4 1:4", "--top-k", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\tdoc_id\tscore"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 4  # top_k = D returns every training doc
        scores = [float(r[2]) for r in rows]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert {int(rows[0][1]), int(rows[1][1])} == {0, 1}

    @pytest.mark.parametrize("new_doc", ["-1:2", "99:2"])
    def test_out_of_range_term_rejected(self, tmp_path, capsys, new_doc):
        # -1 must not wrap to the last term, 99 must not end in a traceback
        docs, vocab, links = self.make_planted(tmp_path)
        model_path = str(tmp_path / "m.txt")
        main(["fit", "--docs", docs, "--vocab", vocab, "--links", links,
              "--out", model_path, "--topics", "2", "--em-iters", "2"])
        capsys.readouterr()
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab,
                     "--links", links, "--model", model_path,
                     f"--new-doc={new_doc}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: term id {new_doc.split(':')[0]} out of range")

    def test_model_vocabulary_smaller_than_corpus_rejected(self, tmp_path, capsys):
        small, _ = generate_synthetic(2, 20, 10, 15, np.array([0.5, 0.5]),
                                      np.array([-2.0, -2.0]), -1.5, "exponential", seed=3)
        large, _ = generate_synthetic(2, 30, 10, 15, np.array([0.5, 0.5]),
                                      np.array([-2.0, -2.0]), -1.5, "exponential", seed=4)
        paths = {}
        for name, corpus in (("small", small), ("large", large)):
            paths[name] = [str(tmp_path / f"{name}_{n}.txt")
                           for n in ("docs", "vocab", "links")]
            write_corpus(corpus, *paths[name])
        model_path = str(tmp_path / "m.txt")
        assert main(fit_args(*paths["small"], model_path, em_iters=1)) == 0
        capsys.readouterr()
        docs, vocab, links = paths["large"]
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--model", model_path, "--new-doc", "0:2"])
        assert_one_line_error(capsys, code, "error: corpus has 30 terms, more than the model's 20")

    def test_empty_new_doc_rejected(self, tmp_path, capsys):
        docs, vocab, links = self.make_planted(tmp_path)
        model_path = str(tmp_path / "m.txt")
        main(["fit", "--docs", docs, "--vocab", vocab, "--links", links,
              "--out", model_path, "--topics", "2", "--em-iters", "2"])
        capsys.readouterr()
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab,
                     "--links", links, "--model", model_path,
                     "--new-doc", "   "])
        assert code == 1


class TestSynthCommand:
    def test_writes_loadable_corpus(self, tmp_path, capsys):
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--topics", "2",
                     "--num-terms", "6", "--num-docs", "12",
                     "--doc-length", "8", "--eta", "-1.0", "--nu", "-0.5",
                     "--link-fn", "exponential", "--seed", "5"])
        assert code == 0
        corpus = load_corpus(str(out / "docs.txt"), str(out / "vocab.txt"),
                             str(out / "links.txt"))
        assert corpus.num_docs == 12
        assert corpus.num_terms == 6

    def test_inadmissible_eta_rejected(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--topics", "2",
                     "--eta", "1.0", "--nu", "0.5", "--link-fn", "exponential"])
        assert code == 1
        assert "inadmissible" in capsys.readouterr().err
