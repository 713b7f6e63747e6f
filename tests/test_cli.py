"""End-to-end tests of the command-line surface."""

import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtm import cli, estimation, inference, prediction
from rtm.cli import main, topic_word_scores
from rtm.corpus import (generate_synthetic, load_corpus, split_folds, training_view,
                        write_corpus)
from rtm.estimation import FittedModel, save_model
from rtm.inference import ModelParams
from rtm.linkfn import LinkParams

ROOT = Path(__file__).resolve().parents[1]


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

    def test_blank_docs_line_before_a_document_exits_1(self, tmp_path, capsys):
        docs = tmp_path / "docs.txt"
        docs.write_text("1 0:1\n\n1 1:1\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        code = main(["fit", "--docs", str(docs), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.txt")])
        assert_one_line_error(capsys, code, f"error: {docs}: line 2 is blank")
        assert not (tmp_path / "m.txt").exists()


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

    def eval_args(self, corpus_files, out, tol):
        docs, vocab, links = corpus_files
        return ["eval", "--docs", docs, "--vocab", vocab, "--links", links,
                "--out", str(out), "--topics", "2", "--folds", "2", "--em-iters", "2",
                "--seed", "7", "--tol", tol]

    def test_zero_tol_runs(self, corpus_files, tmp_path):
        # --tol is the EM stopping tolerance, which accepts 0
        out = tmp_path / "reports"
        assert main(self.eval_args(corpus_files, out, "0")) == 0
        assert (out / "summary.tsv").exists()

    def test_tol_reaches_no_posterior_loop(self, corpus_files, tmp_path, monkeypatch):
        # posteriors under a fitted model run at their loops' default tolerances
        seen = {}
        for module, name in ((inference, "run_e_step"), (prediction, "infer_heldout")):
            original = getattr(module, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                bound = inspect.signature(_original).bind(*args, **kwargs)
                bound.apply_defaults()
                seen.setdefault(_name, set()).add(bound.arguments["tol"])
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        assert main(self.eval_args(corpus_files, tmp_path / "reports", "1e-2")) == 0
        assert seen == {"run_e_step": {1e-6}, "infer_heldout": {1e-6}}


class TestVerbose:
    """--verbose writes each fit's bound trace to stderr, one `%.10f` line per
    EM iteration, as the fit's elbo_trace holds it."""

    def test_fit_writes_the_trace_of_the_fit(self, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        assert main(fit_args(docs, vocab, links, str(tmp_path / "model.txt")) + ["--verbose"]) == 0
        trace = estimation.fit(load_corpus(docs, vocab, links), 2, seed=7,
                               em_iters=3).elbo_trace
        assert len(trace) > 1
        assert capsys.readouterr().err.splitlines() == [f"{value:.10f}" for value in trace]

    def test_eval_writes_each_fold_trace_before_its_reports(self, corpus_files, tmp_path,
                                                             capsys):
        docs, vocab, links = corpus_files
        assert main(["eval", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--out", str(tmp_path / "reports"), "--topics", "2", "--folds", "2",
                     "--em-iters", "3", "--seed", "7", "--verbose"]) == 0
        lines = capsys.readouterr().err.splitlines()
        corpus = load_corpus(docs, vocab, links)
        plan = split_folds(corpus, 2, 7)
        for fold in range(2):
            trace = estimation.fit(training_view(corpus, plan, fold)[0], 2, seed=7,
                                   em_iters=3).elbo_trace
            assert len(trace) > 1
            assert lines[:len(trace)] == [f"{value:.10f}" for value in trace]
            lines = lines[len(trace):]
            for name in ("rtm", "lda", "lda_regression", "unigram"):
                assert lines.pop(0).startswith(f"fold {fold} {name}: link_rank=")
        assert lines == []


def checkout_env():
    """The environment of a child interpreter that imports this checkout's sources."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_strict(*args):
    """`python -W error -m rtm.cli ARGS` on this checkout's sources."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "rtm.cli", *map(str, args)],
                          capture_output=True, text=True, env=checkout_env(), timeout=300)


def test_import_loads_neither_scipy_stats_nor_optimize():
    # every command loads what `import rtm.cli` loads, and scipy.stats would
    # bring optimize, sparse, linalg and more: about 47 MB and 0.5 s of
    # start-up on a 2-core host.  What scipy.special loads for itself
    # differs between scipy versions, so only these two are checked
    probe = ("import sys, rtm, rtm.cli; "
             "print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=checkout_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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


class TestSeedRejected:
    @pytest.mark.parametrize("command", ["fit", "eval", "synth"])
    def test_negative_seed_names_the_flag(self, command, corpus_files, tmp_path, capsys):
        docs, vocab, links = corpus_files
        corpus = ["--docs", docs, "--vocab", vocab, "--links", links]
        out = tmp_path / "out"
        if command == "synth":
            args = [command, "--out", str(out)]
        else:
            args = [command, *corpus, "--out", str(out)]
        code = main([*args, "--seed", "-5"])
        assert_one_line_error(capsys, code, "error: --seed must be non-negative, got -5")
        assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "eval", "suggest-links"])
def test_drop_isolated_is_not_a_flag(command, corpus_files, tmp_path, capsys):
    # every report and suggestion names a document by its docs-file line, so
    # no flag may renumber the corpus
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert "--drop-isolated" not in capsys.readouterr().out
    docs, vocab, links = corpus_files
    if command == "suggest-links":
        rest = ["--model", str(tmp_path / "model.txt"), "--new-doc", "0:1"]
    else:
        rest = ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--docs", docs, "--vocab", vocab, "--links", links, *rest,
              "--drop-isolated"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --drop-isolated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_l2_is_not_a_flag(command, capsys):
    # rho's pseudo non-links are the link M-step's only regularizer
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert "--l2" not in capsys.readouterr().out


def readme_walkthrough():
    """(argv, stdout) of each `$ rtm` command of the README walk-through: the
    command with its `\\` continuations joined, and the lines shown under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Walk-through\n", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in section.split("\n\n"):
        lines = [line[4:] for line in block.split("\n")]
        if not lines[0].startswith("$ rtm "):
            continue
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        steps.append((shlex.split(command)[2:], "".join(line + "\n" for line in lines)))
    return steps


def test_readme_walkthrough_is_what_the_commands_print(tmp_path, monkeypatch, capsys):
    # the walk-through must be regenerated whenever a fit changes
    steps = readme_walkthrough()
    assert [argv[0] for argv, _ in steps] == ["synth", "fit", "report-topics",
                                               "suggest-links", "eval"]
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert main(argv) == 0
        assert capsys.readouterr().out == shown, argv


class TestOutOfMemory:
    """A size beyond the host's memory ends in one line, not a traceback."""

    def test_synth(self, tmp_path, capsys, monkeypatch):
        def oversized(*args):
            raise MemoryError("Unable to allocate 218. TiB for an array with shape "
                              "(10000000000000, 3) and data type float64")

        monkeypatch.setattr(cli, "generate_synthetic", oversized)
        out = tmp_path / "synthetic"
        code = main(["synth", "--out", str(out), "--num-docs", "10000000000000"])
        assert_one_line_error(capsys, code, "error: out of memory: Unable to allocate 218. TiB")
        assert not out.exists()

    def test_fit(self, corpus_files, tmp_path, capsys, monkeypatch):
        def oversized(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(estimation, "fit", oversized)
        out = tmp_path / "m.txt"
        code = main(fit_args(*corpus_files, str(out)))
        assert_one_line_error(capsys, code, "error: out of memory")
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
        ("tol", "nan", "tol must be finite"),
        ("tol", "-1", "tol must be finite and >= 0"),
        ("smoothing", "inf", "smoothing must be finite"), ("rho", "inf", "rho must be finite"),
        ("alpha_total", "inf", "alpha_total must be finite")])
    def test_fit(self, corpus_files, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.txt"
        code = main(fit_args(*corpus_files, str(out), **{flag: value}))
        assert_one_line_error(capsys, code, f"error: {message}")
        assert not out.exists()


class TestSubnormalAlphaRejected:
    """A per-topic alpha below the smallest normal float overflows psi(alpha)
    to -inf: one error line, not a numpy warning and a nan bound."""

    MESSAGE = "alpha must be at least 2.225e-308 per topic (the smallest normal float)"

    @staticmethod
    def linked_pair(tmp_path):
        """Two linked documents over 3 terms, so no line warns of isolated ones."""
        paths = [tmp_path / f"{n}.txt" for n in ("docs", "vocab", "links")]
        for path, text in zip(paths, ("2 0:2 1:1\n2 0:1 2:2\n", "a\nb\nc\n", "0 1\n")):
            path.write_text(text)
        return paths

    def assert_rejected(self, result, starts):
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(f"error: {starts}{self.MESSAGE}, got ")

    def test_fit(self, tmp_path):
        out = tmp_path / "m.txt"
        result = run_strict(*fit_args(*self.linked_pair(tmp_path), out, alpha_total="1e-320"))
        self.assert_rejected(result, "")
        assert not out.exists()

    def test_suggest_links_model_file(self, tmp_path):
        docs, vocab, links = self.linked_pair(tmp_path)
        model = tmp_path / "m.txt"
        row = " ".join([repr(float(np.log(1 / 3)))] * 3)
        model.write_text(f"rtm-model v1\n2 3 exponential 1e-320 0.01\n-1\n-0.5 -0.5\n"
                         f"{row}\n{row}\n")
        self.assert_rejected(run_strict("suggest-links", "--docs", docs, "--vocab", vocab,
                                        "--links", links, "--model", model, "--new-doc", "0:2"),
                             f"{model}: ")


class TestFileErrors:
    """A file that cannot be opened, written or decoded: one line naming it."""

    FIT = "fit --docs {docs} --vocab {vocab} --links {links} --topics 2 --em-iters 1"
    CASES = {
        "fit_out_dir": (FIT + " --out {dir}", "dir"),
        "fit_docs_dir": (FIT.replace("{docs}", "{dir}") + " --out {model}", "dir"),
        "fit_links_dir": (FIT.replace("{links}", "{dir}") + " --out {model}", "dir"),
        "report_topics_model_dir": ("report-topics --model {dir}", "dir"),
        "eval_out_file": (FIT.replace("fit", "eval") + " --folds 2 --out {file}", "file"),
        "synth_out_file": ("synth --topics 2 --out {file}", "file"),
        "fit_docs_undecodable": (FIT.replace("{docs}", "{bad}") + " --out {model}", "bad"),
        "fit_vocab_undecodable": (FIT.replace("{vocab}", "{bad}") + " --out {model}", "bad"),
        "fit_links_undecodable": (FIT.replace("{links}", "{bad}") + " --out {model}", "bad"),
    }

    @pytest.fixture
    def paths(self, corpus_files, tmp_path):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "a_file").write_text("x\n")
        (tmp_path / "undecodable.txt").write_bytes(b"\xff\xfe 1 0:1\n")
        return dict(zip(("docs", "vocab", "links"), corpus_files),
                    dir=str(tmp_path / "a_directory"), file=str(tmp_path / "a_file"),
                    bad=str(tmp_path / "undecodable.txt"), model=str(tmp_path / "m.txt"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_line_naming_the_file(self, case, paths, tmp_path, capsys):
        command, named = self.CASES[case]
        code = main(command.format(**paths).split())
        captured = capsys.readouterr()
        assert code != 0
        assert captured.err.count("\n") == 1
        assert paths[named] in captured.err
        assert "Traceback" not in captured.err
        # a failed model write leaves no temp file behind
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_out_directory_names_the_target(self, corpus_files, tmp_path, capsys):
        out = str(tmp_path / "missing" / "m.txt")
        code = main(fit_args(*corpus_files, out))
        assert code == 2
        assert capsys.readouterr().err == f"error: file not found: {out}\n"


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


def replace_field(line_no, field, text):
    """Edit of a model file's lines: field `field` of line `line_no` becomes text."""
    def edit(lines):
        fields = lines[line_no].split()
        fields[field] = text
        lines[line_no] = " ".join(fields)
    return edit


class TestCorruptModelRejected:
    """Model files that parse badly or hold inadmissible values: one line naming the file."""

    CASES = {
        "inadmissible_nu": (replace_field(2, 0, "5"), "inadmissible exponential link"),
        "nan_alpha_total": (replace_field(1, 3, "nan"), "alpha_total must be finite and > 0"),
        "negative_alpha_total": (replace_field(1, 3, "-1"),
                                 "alpha_total must be finite and > 0"),
        "nan_smoothing": (replace_field(1, 4, "nan"), "smoothing must be finite and > 0"),
        "negative_smoothing": (replace_field(1, 4, "-2"), "smoothing must be finite and > 0"),
        "infinite_nu": (replace_field(2, 0, "inf"), "link coefficients eta and nu must be finite"),
        "text_num_topics": (replace_field(1, 0, "two"), "invalid literal for int()"),
        "text_eta": (replace_field(3, 1, "abc"), "could not convert string to float"),
        "text_topic_row": (replace_field(5, 3, "abc"), "could not convert string to float"),
        "nan_topic_row": (replace_field(5, 3, "nan"), "topic rows not normalized"),
    }

    @pytest.fixture(params=sorted(CASES))
    def corrupt(self, request, tmp_path):
        link = LinkParams(eta=np.array([-1.0, -1.0]), nu=-1.0, kind="exponential")
        model = FittedModel(params=ModelParams(beta=np.full((2, 8), 0.125),
                                               alpha=np.full(2, 0.5), link=link),
                            kind="exponential", config={"smoothing": 0.01})
        path = tmp_path / "m.txt"
        save_model(model, str(path))
        edit, message = self.CASES[request.param]
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return str(path), message

    def test_report_topics(self, corrupt, capsys):
        path, message = corrupt
        code = main(["report-topics", "--model", path])
        assert_one_line_error(capsys, code, f"error: {path}: {message}")

    def test_suggest_links(self, corrupt, corpus_files, capsys):
        docs, vocab, links = corpus_files
        path, message = corrupt
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--model", path, "--new-doc", "0:2 1:1"])
        assert_one_line_error(capsys, code, f"error: {path}: {message}")


def test_closed_stdout_exits_without_traceback(tmp_path):
    # the pipe's read end is closed before the command starts, so its first
    # write of stdout fails; the report is larger than stdout's buffer, so
    # that write happens inside the command rather than at interpreter exit
    model = FittedModel(params=ModelParams(beta=np.full((40, 200), 1 / 200),
                                           alpha=np.full(40, 0.5)),
                        kind="lda", config={"smoothing": 0.01})
    path = str(tmp_path / "m.txt")
    save_model(model, path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "rtm.cli", "report-topics", "--model", path,
             "--top-k", "200"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=checkout_env(),
            timeout=300)
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr
    assert result.returncode == 1


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

    @staticmethod
    def scores(beta):
        beta = np.array(beta)
        return topic_word_scores(ModelParams(beta=beta, alpha=np.ones(beta.shape[0])))

    def test_identical_rows_score_zero(self):
        np.testing.assert_allclose(self.scores([[0.3, 0.7], [0.3, 0.7]]), 0.0, atol=1e-12)

    def test_single_topic_scores_zero(self):
        np.testing.assert_allclose(self.scores([[0.2, 0.3, 0.5]]), 0.0, atol=1e-12)

    def test_hand_computed_matrix_value(self):
        scores = self.scores([[0.9, 0.1], [0.1, 0.9]])
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

    def test_takes_no_seed(self, corpus_files, capsys):
        # the training posteriors start from uniform phi, so no seed reaches them
        docs, vocab, links = corpus_files
        with pytest.raises(SystemExit) as exit_info:
            main(["suggest-links", "--docs", docs, "--vocab", vocab, "--links", links,
                  "--model", "m.txt", "--new-doc", "0:2", "--seed", "42"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 42" in capsys.readouterr().err

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

    LOG_HALF = "-0.6931471805599453"

    @staticmethod
    def suggest_below_the_floor(tmp_path, log_beta_rows, new_doc):
        """The outputs of `python -W error -m rtm.cli suggest-links` with a
        2-topic, 3-term exponential model over two linked training documents
        that use terms 0 and 1, with each `{low}` of the log beta rows set to
        -inf (zero beta), to -800 (beta underflows to zero) and to the floor
        log 1e-300."""
        docs, vocab, links = (tmp_path / f"{n}.txt" for n in ("docs", "vocab", "links"))
        docs.write_text("2 0:2 1:1\n2 0:1 1:2\n")
        vocab.write_text("a\nb\nc\n")
        links.write_text("0 1\n")
        outputs = []
        for low in ("-inf", "-800", repr(float(np.log(1e-300)))):
            model = tmp_path / f"m{low}.txt"
            model.write_text("rtm-model v1\n2 3 exponential 1 0.01\n-1\n-0.5 -0.5\n"
                             + "".join(row.format(low=low) + "\n" for row in log_beta_rows))
            result = run_strict("suggest-links", "--docs", docs, "--vocab", vocab,
                                "--links", links, "--model", model, "--new-doc", new_doc)
            assert (result.returncode, result.stderr) == (0, "")
            assert result.stdout.splitlines()[0] == "rank\tdoc_id\tscore"
            outputs.append(result.stdout)
        return outputs

    def test_zero_beta_column_is_served_as_the_floor(self, tmp_path):
        # term 2 is below the floor in both topics and no training document
        # uses it, so only the query reads it
        half = self.LOG_HALF
        outputs = self.suggest_below_the_floor(tmp_path, [f"{half} {half} {{low}}"] * 2,
                                               "0:1 2:1")
        assert outputs[0] == outputs[1] == outputs[2]

    def test_training_term_zero_in_one_topic_is_served_as_the_floor(self, tmp_path):
        # term 1, used by the training documents, is below the floor in
        # topic 0, where the training posteriors' E-step reads it
        half = self.LOG_HALF
        outputs = self.suggest_below_the_floor(
            tmp_path, [f"{half} {{low}} {half}", f"{half} {half} {{low}}"], "0:1")
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("kind", ["lda", "unigram"])
    def test_model_without_link_function_rejected_first(self, tmp_path, capsys, monkeypatch,
                                                        kind):
        # before the query and the training documents' E-step run
        docs, vocab, links = self.make_planted(tmp_path)
        model = FittedModel(params=ModelParams(beta=np.full((2, 4), 0.25),
                                               alpha=np.full(2, 0.5)),
                            kind=kind, config={"smoothing": 0.01})
        model_path = str(tmp_path / "m.txt")
        save_model(model, model_path)
        called = []
        for name in ("infer_heldout", "train_posteriors"):
            monkeypatch.setattr(prediction, name,
                                lambda *args, name=name, **kwargs: called.append(name))
        code = main(["suggest-links", "--docs", docs, "--vocab", vocab, "--links", links,
                     "--model", model_path, "--new-doc", "0:2"])
        assert_one_line_error(capsys, code, f"error: model kind '{kind}' does not score links")
        assert called == []

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
    def test_eta_needs_one_or_k_values(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--topics", "3", "--eta=-1,-2"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: --eta needs 1 or 3 values\n")

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
