"""End-to-end checks of the command line front end via cli.main()."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from perturblab import ExperimentConfig, concentration, experiments, matrix_from_spec
from perturblab.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- singularity


def test_singularity_n2_exact(capsys):
    code, out, _ = run(capsys, "singularity", "--n", "2")
    assert code == 0
    assert "P(singular) = 1/2 = 0.5" in out


def test_singularity_orders_match(capsys):
    # the transpose of an iid matrix has its law: row and column prefixes agree
    code_rows, out_rows, _ = run(capsys, "singularity", "--n", "3", "--order", "rows")
    code_cols, out_cols, _ = run(capsys, "singularity", "--n", "3", "--order", "cols")
    assert code_rows == code_cols == 0
    assert out_rows == out_cols
    assert "5/8" in out_cols
    with pytest.raises(SystemExit) as exc:
        main(["singularity", "--n", "3", "--order", "both"])
    assert exc.value.code == 2


def test_singularity_default_order_computes_once(capsys, monkeypatch):
    orders = []
    real = experiments.singularity_probability

    def counted(n, dist, order="rows", *args, **kwargs):
        orders.append(order)
        return real(n, dist, order, *args, **kwargs)

    monkeypatch.setattr(experiments, "singularity_probability", counted)
    code, out, _ = run(capsys, "singularity", "--n", "3")
    assert code == 0
    assert "5/8" in out
    assert orders == ["rows"]


def test_singularity_over_budget_exits_3_without_enumerating(capsys, monkeypatch):
    # bernoulli n=9: C(263, 8) prefix multisets, refused before any cofactor
    def cofactors(*args):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(experiments, "_cofactors", cofactors)
    code, _, err = run(capsys, "singularity", "--n", "9")
    assert code == 3
    assert "budget" in err


def test_singularity_budget_exceeded(capsys):
    # 17 atoms at n=4: C(1203, 3) prefix multisets of 1201 row classes
    code, _, err = run(capsys, "singularity", "--n", "4", "--dist", "discretized_gaussian")
    assert code == 3
    assert "budget" in err


# ------------------------------------------------------------------- lo-check


def test_lo_check_with_mu(tmp_path, capsys):
    query = tmp_path / "q.txt"
    query.write_text("dist bernoulli\nv 2 2\nmu 1/4\n")
    code, out, _ = run(capsys, "lo-check", str(query))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exact,bound,gap,ok"
    exact, bound, gap, ok = lines[1].split(",")
    assert float(exact) == 0.5
    assert float(bound) == pytest.approx(19 / 32)
    assert ok == "1"


def test_lo_check_without_mu_derives_certificate(tmp_path, capsys):
    query = tmp_path / "q.txt"
    query.write_text("dist lazy_coin:0.5\nv 1 1 1\n")
    code, out, _ = run(capsys, "lo-check", str(query))
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",1")


def test_lo_check_bound_violated_exits_1(tmp_path, capsys):
    # mu = 1/2 claims more than bernoulli's |cos| envelope gives at frequency 1
    query = tmp_path / "q.txt"
    query.write_text("dist bernoulli\nv 1 1\nmu 1/2\n")
    code, out, _ = run(capsys, "lo-check", str(query))
    assert code == 1
    assert out.strip().splitlines() == ["exact,bound,gap,ok", "0.5,0.375,-0.125,0"]


def test_lo_check_refuses_multipliers_without_mu(tmp_path, capsys):
    # without a mu line the multipliers come from the laws' certificates, so
    # an 'a' line would have no effect
    query = tmp_path / "q.txt"
    query.write_text("dist bernoulli\nv 1 1 1\na 3 3 3\n")
    code, out, err = run(capsys, "lo-check", str(query))
    assert code == 2
    assert out == ""
    assert "line 3: an 'a' line needs a 'mu' line" in err


def test_lo_check_bad_file(tmp_path, capsys):
    query = tmp_path / "q.txt"
    query.write_text("v 1 2 3\n")  # missing dist line
    code, _, err = run(capsys, "lo-check", str(query))
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------- gap-verify


GAP_TEXT = "rank 1\n3 40\n"
DISC_TEXT = (
    "R 3\nS 2\nR0 60\nD 0\n"
    "small rank 1\n3 0\n"
    "sparse rank 1\n3 40\n"
)


def test_gap_verify_pass(tmp_path, capsys):
    gap = tmp_path / "g.txt"
    disc = tmp_path / "d.txt"
    gap.write_text(GAP_TEXT)
    disc.write_text(DISC_TEXT)
    code, out, _ = run(capsys, "gap-verify", str(gap), str(disc))
    assert code == 0
    assert out.strip() == "scale=True smallness=True sparseness=True covering=True"


def test_gap_verify_failure_is_nonzero(tmp_path, capsys):
    gap = tmp_path / "g.txt"
    disc = tmp_path / "d.txt"
    gap.write_text(GAP_TEXT)
    # sparse part too long: dim 40 at step 3 cannot sit inside a width-3 window
    disc.write_text(
        "R 3\nS 2\nR0 60\nD 0\n"
        "small rank 1\n3 40\n"
        "sparse rank 1\n3 40\n"
    )
    code, out, _ = run(capsys, "gap-verify", str(gap), str(disc))
    assert code == 1
    assert "smallness=False" in out


# ------------------------------------------------------------------------ net


def test_net_stdout(capsys):
    code, out, _ = run(capsys, "net", "--dimension", "2", "--epsilon", "0.9", "--seed", "20260818")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# perturblab-net schema=1"
    assert lines[1].startswith("# dimension=2 epsilon=0.9")
    points = [tuple(float(t) for t in line.split(",")) for line in lines[2:]]
    for p in points:
        assert np.hypot(*p) == pytest.approx(1.0, abs=1e-12)


def test_net_out_file(tmp_path, capsys):
    path = tmp_path / "net.csv"
    code, out, _ = run(capsys, "net", "--dimension", "3", "--epsilon", "0.8",
                       "--seed", "5", "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    body = path.read_text().splitlines()
    assert body[0] == "# perturblab-net schema=1"
    assert len(body) > 2


def test_net_bad_epsilon(capsys):
    code, _, err = run(capsys, "net", "--dimension", "3", "--epsilon", "2.5")
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------- classify


def test_classify_ap_witness(tmp_path, capsys):
    witness = tmp_path / "w.txt"
    witness.write_text("1 2 3 4 5 6 7 8\n")
    code, out, _ = run(capsys, "classify", str(witness), "--a-exponent", "4.0")
    assert code == 0
    assert "class = RICH_SINGULAR" in out
    assert "sup concentration" in out


def test_classify_poor_witness(tmp_path, capsys):
    # powers of two spread concentration as thin as possible: sup = 2^-18,
    # below the n^-(0.01+4) threshold
    witness = tmp_path / "w.txt"
    witness.write_text(" ".join(str(2**k) for k in range(18)) + "\n")
    code, out, _ = run(capsys, "classify", str(witness), "--a-exponent", "0.01")
    assert code == 0
    assert "class = POOR" in out


def test_classify_runs_the_exact_convolution_once(tmp_path, capsys, monkeypatch):
    calls = []
    exact = concentration.exact_concentration

    def counting(*args, **kwargs):
        calls.append(1)
        return exact(*args, **kwargs)

    monkeypatch.setattr(concentration, "exact_concentration", counting)
    witness = tmp_path / "w.txt"
    witness.write_text("1 2 3 4 5 6 7 8\n")
    code, out, _ = run(capsys, "classify", str(witness), "--a-exponent", "4.0")
    assert code == 0
    assert "class = RICH_SINGULAR" in out
    assert len(calls) == 1


def test_classify_empty_file(tmp_path, capsys):
    witness = tmp_path / "w.txt"
    witness.write_text("\n")
    code, _, err = run(capsys, "classify", str(witness))
    assert code == 2
    assert "empty" in err


# ---------------------------------------------------------------- experiments


def test_tail_writes_csv_and_json(tmp_path, capsys):
    stem = tmp_path / "tailrun"
    code, out, _ = run(capsys, "tail", "--sizes", "6", "--trials", "100",
                       "--seed", "3", "--out", str(stem))
    assert code == 0
    assert "wrote" in out
    csv_lines = (tmp_path / "tailrun.csv").read_text().splitlines()
    assert csv_lines[0] == "# perturblab-records schema=1"
    assert csv_lines[1].split(",")[0] == "trial"
    assert len(csv_lines) == 102
    summary = json.loads((tmp_path / "tailrun.json").read_text())
    assert summary["experiment"] == "tail"
    assert summary["config"]["trials"] == 100
    assert summary["config"]["sizes"] == [6]


def test_tail_stdout_json(capsys):
    code, out, _ = run(capsys, "tail", "--sizes", "5", "--trials", "100", "--seed", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["experiment"] == "tail"


def test_tail_too_few_trials(capsys):
    code, _, err = run(capsys, "tail", "--sizes", "6", "--trials", "10")
    assert code == 2
    assert "100" in err


def test_cond_tail_with_flags(tmp_path, capsys):
    stem = tmp_path / "cond"
    code, out, _ = run(capsys, "cond-tail", "--sizes", "8", "--trials", "60",
                       "--seed", "2", "--b-grid", "1.5", "3.0",
                       "--matrix", "graded_diagonal", "--out", str(stem))
    assert code == 0
    summary = json.loads((tmp_path / "cond.json").read_text())
    assert summary["config"]["b_grid"] == [1.5, 3.0]
    rows = summary["tables"]["8"]
    assert {row["b"] for row in rows} == {1.5, 3.0}


def test_ge_check_runs(capsys):
    code, out, _ = run(capsys, "ge-check", "--sizes", "6", "--trials", "30", "--seed", "9")
    assert code == 0
    summary = json.loads(out)
    assert summary["experiment"] == "ge-check"
    assert summary["eps_machine"] == 2.0**-24


def test_minors_gaussian_noise_runs(capsys):
    code, out, _ = run(capsys, "minors", "--sizes", "4", "--trials", "5", "--noise", "gaussian")
    assert code == 0
    assert json.loads(out)["experiment"] == "minors"


def test_experiment_flag_dests_are_config_fields():
    # overrides are taken by name, so a dest that names no config field
    # would be dropped without an error
    names = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"config"}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for kind in ("tail", "cond-tail", "ge-check", "minors", "frozen"):
        for action in sub.choices[kind]._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in names, (kind, action.dest)
        # and the converse: every field but the subcommand's own kind has a flag
        dests = {action.dest for action in sub.choices[kind]._actions}
        assert names - {"kind"} <= dests, (kind, names - {"kind"} - dests)


def test_cond_tail_c_exponent_changes_the_base(monkeypatch, capsys):
    bases = []

    def spy(spec, n, c_exponent):
        base = matrix_from_spec(spec, n, c_exponent)
        bases.append(base.entries)
        return base

    monkeypatch.setattr(experiments, "matrix_from_spec", spy)
    argv = ["cond-tail", "--sizes", "8", "--trials", "10", "--matrix", "graded_diagonal"]
    code, default_out, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--c-exponent", "0.5")
    assert code == 0
    assert json.loads(out)["config"]["c_exponent"] == 0.5
    # C = 1 caps the diagonal at 8, C = 1/2 at floor(sqrt 8) = 2
    assert np.diag(bases[0]).tolist() == [1, 2, 4, 8, 8, 8, 8, 8]
    assert np.diag(bases[1]).tolist() == [1, 2, 2, 2, 2, 2, 2, 2]
    assert json.loads(out)["tables"] != json.loads(default_out)["tables"]


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[tail]\nsizes = 6\ntrials = 100\nseed = 3\nnoise = bernoulli\n"
    )
    code, out, _ = run(capsys, "tail", "--config", str(cfg), "--trials", "120")
    assert code == 0
    summary = json.loads(out)
    assert summary["config"]["trials"] == 120
    assert summary["config"]["seed"] == 3


def test_config_file_flag_left_out_is_kept(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[cond-tail]\nsizes = 4\ntrials = 10\ncompare_gaussian = true\n")
    code, out, _ = run(capsys, "cond-tail", "--config", str(cfg), "--seed", "5")
    assert code == 0
    summary = json.loads(out)
    assert summary["config"]["compare_gaussian"] is True
    assert "gaussian_tables" in summary


def test_same_seed_same_output(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(capsys, "tail", "--sizes", "6", "--trials", "100", "--seed", "7",
        "--threads", "1", "--out", str(a))
    run(capsys, "tail", "--sizes", "6", "--trials", "100", "--seed", "7",
        "--threads", "4", "--out", str(b))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ------------------------------------------------------------- input formats

# the command that reads each line-based format from {path}
READERS = {
    "distribution": ["singularity", "--n", "2", "--dist", "file:{path}"],
    "matrix": ["cond-tail", "--sizes", "2", "--trials", "1", "--matrix", "file:{path}"],
    "query": ["lo-check", "{path}"],
    "gap": ["gap-verify", "{path}", "{disc}"],
    "discretization": ["gap-verify", "{gap}", "{path}"],
    "witness": ["classify", "{path}"],
    "config": ["tail", "--config", "{path}"],
}

# malformed input: (format, text, the line the error must name)
MALFORMED = {
    "distribution-token": ("distribution", "-1 1/2\n# comment\n1 x\n", 3),
    "distribution-zero-denominator": ("distribution", "-1 1/2\n1 1/0\n", 2),
    "matrix-token": ("matrix", "2\n1 2\n3 x\n", 3),
    "query-token": ("query", "dist bernoulli\nv 1 x 2\n", 2),
    "query-unknown-key": ("query", "dist bernoulli\nv 1 2\nexclud 1\n", 3),
    "query-repeated-key": ("query", "dist bernoulli\nv 1 2\nmu 1/4\nv 2 2\n", 4),
    "gap-token": ("gap", "# progression\nrank x\n3 40\n", 2),
    "gap-trailing-line": ("gap", "rank 1\n3 40\n5 2\n", 3),
    "discretization-token": ("discretization", DISC_TEXT.replace("S 2", "S x"), 2),
    "witness-token": ("witness", "1 2 3\n4 x 6\n", 2),
    "config-token": ("config", "[tail]\ntrials = abc\n", 2),
}


def _read(capsys, tmp_path, fmt, path):
    gap = tmp_path / "gap.txt"
    gap.write_text(GAP_TEXT)
    disc = tmp_path / "disc.txt"
    disc.write_text(DISC_TEXT)
    return run(capsys, *(arg.format(path=path, gap=gap, disc=disc) for arg in READERS[fmt]))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_its_line(case, tmp_path, capsys):
    fmt, text, lineno = MALFORMED[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, _, err = _read(capsys, tmp_path, fmt, path)
    assert code == 2
    assert err.startswith("error:")
    assert f"line {lineno}:" in err


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_missing_input_file_exits_2(fmt, tmp_path, capsys):
    code, _, err = _read(capsys, tmp_path, fmt, tmp_path / "no-such-file.txt")
    assert code == 2
    assert err.startswith("error:") and "no-such-file.txt" in err


def test_empty_gap_file_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("# nothing but a comment\n\n")
    code, _, err = _read(capsys, tmp_path, "gap", path)
    assert code == 2
    assert "rank d" in err


def test_classify_witness_with_comments(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("1 2 3 4 5 6 7 8\n")
    commented = tmp_path / "commented.txt"
    commented.write_text("# an arithmetic progression\n1 2 3 4  # first half\n\n5 6 7 8\n")
    outs = []
    for path in (plain, commented):
        code, out, _ = run(capsys, "classify", str(path), "--a-exponent", "4.0")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "class = RICH_SINGULAR" in outs[1]


def test_gap_verify_error_names_the_discretization_file(tmp_path, capsys):
    gap = tmp_path / "g.txt"
    disc = tmp_path / "d.txt"
    gap.write_text(GAP_TEXT)
    disc.write_text(DISC_TEXT.replace("S 2", "S x"))
    code, _, err = run(capsys, "gap-verify", str(gap), str(disc))
    assert code == 2
    assert f"{disc}: line 2:" in err and str(gap) not in err


def test_matrix_file_error_names_the_matrix_file(tmp_path, capsys):
    law = tmp_path / "law.txt"
    law.write_text("-1 1/2\n1 1/2\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text("2\n1 2\n3 x\n")
    code, _, err = run(capsys, "cond-tail", "--sizes", "2", "--trials", "1",
                       "--noise", f"file:{law}", "--matrix", f"file:{matrix}")
    assert code == 2
    assert f"{matrix}: line 3:" in err and str(law) not in err


# ------------------------------------------------------------- spec strings

# a malformed spec: the flags that carry it
MALFORMED_SPECS = {
    "mask-bad-count": ["ge-check", "--sizes", "3", "--trials", "2", "--mask", "random:x"],
    "mask-missing-count": ["ge-check", "--sizes", "3", "--trials", "2", "--mask", "random"],
    "dist-bad-radius": ["singularity", "--n", "2", "--dist", "discretized_gaussian:x"],
    "noise-argument-to-bernoulli": ["cond-tail", "--sizes", "3", "--trials", "2", "--noise", "bernoulli:7"],
    "noise-empty-alpha": ["cond-tail", "--sizes", "3", "--trials", "2", "--noise", "lazy_coin:"],
    "noise-unknown-head": ["tail", "--sizes", "3", "--trials", "100", "--noise", "cauchy"],
    "noise-misspelt-gaussian": ["tail", "--sizes", "3", "--trials", "100", "--noise", "gausian"],
    "noise-argument-to-gaussian": ["cond-tail", "--sizes", "3", "--trials", "2", "--noise", "gaussian:3"],
    "matrix-argument-to-zero": ["cond-tail", "--sizes", "3", "--trials", "2", "--matrix", "zero:9"],
    "matrix-user-file-alias": ["cond-tail", "--sizes", "2", "--trials", "2", "--matrix", "user_file:{path}"],
    "matrix-empty-path": ["cond-tail", "--sizes", "2", "--trials", "2", "--matrix", "file:"],
}
# what the message must say besides the spec
MALFORMED_SPEC_REASONS = {
    "noise-misspelt-gaussian": "file, gaussian)",
    "noise-argument-to-gaussian": "gaussian takes no argument",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_exits_2_naming_the_spec(case, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2\n1 0\n0 1\n")
    argv = [arg.format(path=path) for arg in MALFORMED_SPECS[case]]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(argv[-1]) in err
    assert MALFORMED_SPEC_REASONS.get(case, "") in err


def test_spec_help_names_exactly_the_dispatched_heads():
    from perturblab import linalg, noise

    heads = {
        "noise": set(noise.NOISE_ARGS),
        "matrix": set(linalg._MATRIX_ARGS),
        "mask": set(experiments._MASK_ARGS),
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for kind in ("tail", "cond-tail", "ge-check", "minors", "frozen"):
        for action in sub.choices[kind]._actions:
            if action.dest in heads:
                named = {re.split(r"[:\[]", part.strip())[0] for part in action.help.split("|")}
                assert named == heads[action.dest], (kind, action.dest)
