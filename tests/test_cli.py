import filecmp
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cohortchain import cli
from cohortchain.bootstrap import percentile_ci
from cohortchain.cli import main, round_pct
from cohortchain.records import CSV_HEADER

GEN_SPEC = """\
seed = 11
horizon_year = 2021
cohort_sizes = 2013:300 2014:300 2015:300 2017:200 2019:200
aalana_rate = 0.25
first_gen_rate = 0.3
la_rate = 0.3
la_year_dist = 1:0.7 2:0.3
matrix =
0 0.86 0 0 0 0 0.10 0.04
0 0 0.92 0 0 0 0.06 0.02
0 0 0 0.93 0 0 0.04 0.03
0 0 0 0 0.55 0 0.03 0.42
0 0 0 0 0 0.25 0.05 0.70
0 0 0 0 0 0 0.30 0.70
0 0 0 0 0 0 1 0
0 0 0 0 0 0 0 1
effect_matrix =
0 0.95 0 0 0 0 0.03 0.02
0 0 0.95 0 0 0 0.03 0.02
0 0 0 0.95 0 0 0.02 0.03
0 0 0 0 0.50 0 0.02 0.48
0 0 0 0 0 0.20 0.04 0.76
0 0 0 0 0 0 0.24 0.76
0 0 0 0 0 0 1 0
0 0 0 0 0 0 0 1
"""


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    root = tmp_path_factory.mktemp("panel")
    spec_path = root / "gen.spec"
    spec_path.write_text(GEN_SPEC)
    assert main(["synth", "--spec", str(spec_path), "--out", str(root)]) == 0
    return root / "panel.csv"


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSynth:
    def test_outputs_exist_with_truth_metadata(self, panel):
        assert panel.exists()
        meta = (panel.parent / "metadata.txt").read_text()
        assert "true_sygr = " in meta
        assert "true_effect_sygr = " in meta
        assert "seed = " in meta

    def test_deterministic_output(self, tmp_path):
        spec_path = tmp_path / "gen.spec"
        spec_path.write_text(GEN_SPEC)
        for d in ("a", "b"):
            assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / d)]) == 0
        assert filecmp.cmp(tmp_path / "a/panel.csv", tmp_path / "b/panel.csv", shallow=False)

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 1

    def test_bad_spec_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("seed = 1\n")
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path)]) == 2


class TestEstimate:
    def test_both_methods_agree_within_rounding(self, panel, tmp_path):
        code = main([
            "estimate", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--cohort", "2013", "--seed", "3",
            "--replicates", "300", "--method", "traditional",
            "--method", "markov-reduced", "--export-ensemble",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "summary_rounded.csv")
        assert [r["method"] for r in rows] == ["traditional", "markov-reduced"]
        medians = [int(r["median"]) for r in rows]
        assert abs(medians[0] - medians[1]) <= 1
        assert (tmp_path / "ensemble_traditional.csv").exists()
        assert (tmp_path / "summary_full.csv").exists()
        assert (tmp_path / "metadata.txt").exists()

    def test_full_precision_width_is_exact_difference(self, panel, tmp_path):
        main([
            "estimate", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--cohort", "2013", "--seed", "3",
            "--replicates", "200", "--method", "traditional",
        ])
        (row,) = read_csv(tmp_path / "summary_full.csv")
        assert float(row["width"]) == pytest.approx(
            float(row["p97_5"]) - float(row["p2_5"]), abs=1e-9
        )

    def test_empty_subgroup_is_data_error(self, panel, tmp_path):
        code = main([
            "estimate", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--cohort", "2013", "--seed", "3",
            "--college", "NOPE", "--method", "traditional",
        ])
        assert code == 2

    def test_missing_horizon_is_usage_error(self, panel, tmp_path):
        assert main(["estimate", "--input", str(panel), "--out", str(tmp_path)]) == 1

    def test_deterministic_outputs(self, panel, tmp_path):
        for d in ("a", "b"):
            main([
                "estimate", "--input", str(panel), "--out", str(tmp_path / d),
                "--horizon", "2021", "--cohort", "2013", "--seed", "8",
                "--replicates", "150", "--export-ensemble",
            ])
        for name in ("summary_full.csv", "summary_rounded.csv", "ensemble_traditional.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_metadata_does_not_depend_on_out(self, panel, tmp_path):
        for d in ("a", "b"):
            assert main([
                "estimate", "--input", str(panel), "--out", str(tmp_path / d),
                "--horizon", "2021", "--cohort", "2013", "--seed", "8",
                "--replicates", "50", "--method", "traditional",
            ]) == 0
        assert filecmp.cmp(tmp_path / "a/metadata.txt", tmp_path / "b/metadata.txt",
                           shallow=False)

    def test_config_file_with_flag_override(self, panel, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {panel}\nhorizon = 2021\ncohort = 2013\nseed = 3\n"
            "replicates = 100\nmethod = traditional\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main([
            "estimate", "--config", str(cfg), "--out", str(out_b), "--cohort", "2014",
        ]) == 0
        assert read_csv(out_a / "summary_full.csv")[0]["cohort"] == "2013"
        assert read_csv(out_b / "summary_full.csv")[0]["cohort"] == "2014"


class TestValidate:
    def test_passes_on_synthetic_panel(self, panel, tmp_path, capsys):
        code = main([
            "validate", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--seed", "3", "--replicates", "120",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        rows = read_csv(tmp_path / "validation.csv")
        statuses = {r["cohort"]: r["status"] for r in rows}
        assert statuses["2013"] == "PASS"
        assert statuses["2019"] == "SKIP"

    def test_injected_error_fails_with_exit_3(self, panel, tmp_path, capsys, monkeypatch):
        # a negative tolerance fails even an exact agreement
        monkeypatch.setattr(cli, "POSITIVE_CONTROL_TOL", -1.0)
        code = main([
            "validate", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--seed", "3", "--replicates", "120",
        ])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out
        # a failed control still writes its report
        assert read_csv(tmp_path / "validation.csv")[0]["status"] == "FAIL"


class TestCompare:
    def test_recovers_injected_effect_direction(self, panel, tmp_path, capsys):
        code = main([
            "compare", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--seed", "3", "--replicates", "200",
            "--export-ensemble",
        ])
        assert code == 0
        (diff,) = read_csv(tmp_path / "difference.csv")
        assert float(diff["median_diff"]) > 0
        rows = read_csv(tmp_path / "comparison.csv")
        assert {r["group"] for r in rows} == {"exposed", "unexposed"}
        pers = read_csv(tmp_path / "persistence.csv")
        assert len(pers) == 5
        for row in pers:
            assert float(row["difference"]) == pytest.approx(
                float(row["exposed"]) - float(row["unexposed"]), abs=1e-9
            )
        # the difference interval is that of the exported ensembles, paired
        # by replicate id
        un, ex = ({int(r["replicate"]): float(r["estimate"])
                   for r in read_csv(tmp_path / f"ensemble_all_{g}.csv")}
                  for g in ("unexposed", "exposed"))
        expected = percentile_ci([ex[b] - un[b] for b in ex if b in un], 0.95)
        got = [float(diff[k]) for k in ("diff_p2_5", "diff_median", "diff_p97_5")]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_strata_rows_present(self, panel, tmp_path):
        code = main([
            "compare", "--input", str(panel), "--out", str(tmp_path),
            "--horizon", "2021", "--seed", "3", "--replicates", "150", "--strata",
        ])
        assert code == 0
        strata = {r["stratum"] for r in read_csv(tmp_path / "comparison.csv")}
        assert strata == {"all", "aalana", "first_gen"}

    def test_unobserved_year_reported_as_na(self, tmp_path):
        # under the effect matrix every exposed student leaves by year 4, so
        # the exposed chain never visits Y5 and its Y5 row is imputed
        effect = GEN_SPEC.split("effect_matrix =")[0] + (
            "effect_matrix =\n"
            "0 0.95 0 0 0 0 0.03 0.02\n"
            "0 0 0.95 0 0 0 0.03 0.02\n"
            "0 0 0 0.95 0 0 0.02 0.03\n"
            "0 0 0 0 0 0 0.10 0.90\n"
            "0 0 0 0 0 0 1 0\n"
            "0 0 0 0 0 0 1 0\n"
            "0 0 0 0 0 0 1 0\n"
            "0 0 0 0 0 0 0 1\n"
        )
        spec_path = tmp_path / "gen.spec"
        spec_path.write_text(effect.replace("la_year_dist = 1:0.7 2:0.3", "la_year_dist = 1:1"))
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
        out = tmp_path / "cmp"
        code = main([
            "compare", "--input", str(tmp_path / "panel.csv"), "--out", str(out),
            "--horizon", "2021", "--seed", "3", "--replicates", "100",
        ])
        assert code == 0
        rows = {r["transition"]: r for r in read_csv(out / "persistence.csv")}
        assert rows["Y4->Y5"]["exposed"] == "0"
        assert float(rows["Y5->Y6"]["unexposed"]) > 0
        assert rows["Y5->Y6"]["exposed"] == "n/a"
        assert rows["Y5->Y6"]["difference"] == "n/a"
        txt = (out / "persistence.txt").read_text().splitlines()
        assert txt[4].split()[:2] == ["all", "Y4->Y5"] and txt[4].split()[3] == "0"
        assert txt[5].split()[:2] == ["all", "Y5->Y6"] and txt[5].split()[3:] == ["n/a", "n/a"]


def _paired_difference_by_dict(s_a, s_b):
    """Reference: per-replicate differences b - a for replicates that
    survived in both, paired through a dict keyed by replicate id."""
    ids_a = {int(b): v for b, v in zip(s_a.replicate_ids, s_a.ensemble)}
    diffs = [
        v - ids_a[int(b)]
        for b, v in zip(s_b.replicate_ids, s_b.ensemble)
        if int(b) in ids_a
    ]
    return np.array(diffs)


@pytest.mark.parametrize("ids_a, ids_b", [
    ([1, 2, 4, 5], [1, 3, 4, 5]),
    ([1, 2, 3, 4, 5], [2, 5]),
    ([3, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 9]),
    ([1, 2], [3, 4]),
])
def test_paired_difference_matches_dict_pairing(ids_a, ids_b):
    rng = np.random.default_rng(len(ids_a) * 10 + len(ids_b))

    def summary(ids):
        return SimpleNamespace(replicate_ids=np.array(ids), ensemble=rng.random(len(ids)))

    s_a, s_b = summary(ids_a), summary(ids_b)
    got = cli._paired_difference(s_a, s_b)
    assert np.array_equal(got, _paired_difference_by_dict(s_a, s_b))
    assert got.shape == (len(set(ids_a) & set(ids_b)),)


class TestPlot:
    @pytest.fixture()
    def ensembles(self, panel, tmp_path):
        out = tmp_path / "est"
        main([
            "estimate", "--input", str(panel), "--out", str(out),
            "--horizon", "2021", "--cohort", "2013", "--seed", "3",
            "--replicates", "200", "--export-ensemble",
        ])
        return [out / "ensemble_traditional.csv", out / "ensemble_markov-full.csv"]

    def test_svg_well_formed_with_curves(self, ensembles, tmp_path):
        out = tmp_path / "plots"
        args = ["plot", "--out", str(out)]
        for e in ensembles:
            args += ["--input", str(e)]
        assert main(args) == 0
        svg = (out / "kde.svg").read_text()
        root = ET.fromstring(svg)
        assert root.get("viewBox") == "0 0 720 432"
        assert svg.count("<polyline") == 2
        assert (out / "kde_ensemble_traditional.csv").exists()
        kde_rows = read_csv(out / "kde_ensemble_traditional.csv")
        assert len(kde_rows) == 256

    def test_degenerate_ensemble_rendered_as_marker(self, tmp_path):
        const = tmp_path / "const.csv"
        const.write_text("replicate,estimate\n" + "".join(f"{i},0.8\n" for i in range(1, 51)))
        out = tmp_path / "plots"
        assert main(["plot", "--input", str(const), "--out", str(out)]) == 0
        svg = (out / "kde.svg").read_text()
        assert "<polyline" not in svg
        assert "stroke-dasharray" in svg

    def test_deterministic_svg(self, ensembles, tmp_path):
        for d in ("a", "b"):
            main(["plot", "--input", str(ensembles[0]), "--out", str(tmp_path / d)])
        assert filecmp.cmp(tmp_path / "a/kde.svg", tmp_path / "b/kde.svg", shallow=False)


class TestRounding:
    def test_round_half_up(self):
        assert round_pct(0.715) == 72
        assert round_pct(0.7049) == 70
        assert round_pct(0.0) == 0
        assert round_pct(1.0) == 100

    def test_rounded_width_can_disagree_with_rounded_bounds(self):
        # the caption caveat: width is rounded from the exact difference
        lo, hi = 0.664, 0.752
        assert round_pct(hi - lo) == 9
        assert round_pct(hi) - round_pct(lo) == 75 - 66


def test_no_command_prints_help(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["estimate", "--nope"]) == 1


def _error_cases(panel, tmp):
    """(case, argv, exit code[, start of stderr]); every argv but the first
    ends in an error."""
    cfg = tmp / "run.cfg"
    cfg.write_text(
        f"input = {panel}\nhorizon = 2021\ncohort = 2013\nreplicates = 20\n"
        "method = traditional\n"
    )
    latin1 = tmp / "latin1.csv"
    latin1.write_bytes(panel.read_bytes().replace(b"SCI", b"SCI\xe9", 1))
    bad_ensemble = tmp / "bad.csv"
    bad_ensemble.write_text("replicate,estimate\n1,0.5\n2;0.6\n")
    nan_ensemble = tmp / "nan.csv"
    nan_ensemble.write_text("replicate,estimate\n1,0.5\n2,nan\n")
    inf_ensemble = tmp / "inf.csv"
    inf_ensemble.write_text("replicate,estimate\n1,0.5\n2,inf\n")
    word_replicate = tmp / "word.csv"
    word_replicate.write_text("replicate,estimate\n1,0.5\nx,0.5\n")
    blank_replicate = tmp / "blank.csv"
    blank_replicate.write_text("replicate,estimate\n1,0.5\n,0.6\n")
    afile = tmp / "afile"
    afile.write_text("")
    header = ",".join(CSV_HEADER)
    bad_row = tmp / "bad_row.csv"
    bad_row.write_text(f"{header}\nr1,2013,true,false,SCI,,G,4\nr2,2013,maybe,false,SCI,,G,4\n")
    # the exposed group's resamples lose every row out of Y2 whenever they
    # hold only the censored e1, about one in four
    small = tmp / "small.csv"
    small.write_text(f"{header}\nu1,2013,false,false,SCI,,G,4\nu2,2013,false,false,SCI,,G,4\n"
                     "e1,2019,false,false,SCI,1,E,1\ne2,2013,false,false,SCI,1,D,2\n")
    for d in ("x", "y"):
        (tmp / d).mkdir()
        (tmp / d / "e.csv").write_text("replicate,estimate\n1,0.5\n2,0.6\n")
    no_matrix = tmp / "no_matrix.spec"
    no_matrix.write_text("seed = x\n")
    no_seed = tmp / "no_seed.spec"
    no_seed.write_text(GEN_SPEC.replace("seed = 11\n", ""))
    bad_number = tmp / "bad_number.spec"
    bad_number.write_text(GEN_SPEC.replace("0 0.86 ", "0 0.8.6 "))
    plot = ["plot", "--input", str(tmp / "x" / "e.csv"), "--out", str(tmp / "plot")]
    estimate = ["estimate", "--input", str(panel), "--out", str(tmp / "out"),
                "--horizon", "2021", "--cohort", "2013"]
    return [
        ("config_equals_form", ["estimate", f"--config={cfg}", "--out", str(tmp / "eq")], 0),
        ("config_last_argument", [*estimate, "--config"], 1),
        ("config_missing", [*estimate, "--config", str(tmp / "missing.cfg")], 1),
        ("replicates_1", [*estimate, "--replicates", "1"], 1),
        ("ci_1_5", [*estimate, "--ci", "1.5"], 1),
        ("seed_negative", [*estimate, "--seed", "-1"], 1),
        ("compare_seed_negative", ["compare", "--input", str(panel), "--out", str(tmp / "cmp"),
                                   "--horizon", "2021", "--seed", "-1"], 1),
        ("estimate_horizon_too_early",
         ["estimate", "--input", str(panel), "--out", str(tmp / "partial"),
          "--horizon", "2021", "--cohort", "2019", "--method", "markov-full",
          "--method", "traditional", "--replicates", "50", "--export-ensemble"], 2),
        ("input_missing", ["estimate", "--input", str(tmp / "missing.csv"),
                           *estimate[3:]], 2),
        ("estimate_no_cohort", ["estimate", "--input", str(tmp / "missing.csv"),
                                "--out", str(tmp / "nocohort"), "--horizon", "2021",
                                "--method", "traditional"], 1),
        ("compare_empty_group", ["compare", "--input", str(panel), "--out", str(tmp / "nope"),
                                 "--horizon", "2021", "--college", "NOPE"], 1),
        ("input_not_utf8", ["estimate", "--input", str(latin1), *estimate[3:]], 2),
        ("inputs_repeat_a_student", [*estimate, "--input", str(panel)], 2,
         f"error: {panel}: duplicate student_id "),
        ("input_error_names_its_file", [*estimate, "--input", str(bad_row)], 2,
         f"error: {bad_row}: row 3, column 'aalana': "),
        ("compare_group_bootstrap_fails", ["compare", "--input", str(small), "--out",
                                           str(tmp / "small_cmp"), "--horizon", "2021",
                                           "--replicates", "200"], 2,
         "error: all: exposed group: "),
        ("spec_without_matrix", ["synth", "--spec", str(no_matrix), "--out", str(tmp / "s1")],
         2, f"error: {no_matrix}: missing required matrix block"),
        ("spec_without_seed", ["synth", "--spec", str(no_seed), "--out", str(tmp / "s2")],
         2, f"error: {no_seed}: missing required key 'seed'"),
        ("spec_bad_number", ["synth", "--spec", str(bad_number), "--out", str(tmp / "s3")],
         2, f"error: {bad_number}: line 9: bad number '0.8.6' in matrix block"),
        ("plot_malformed_ensemble", ["plot", "--input", str(bad_ensemble),
                                     "--out", str(tmp / "plot")], 2),
        ("plot_nan_estimate", ["plot", "--input", str(nan_ensemble),
                               "--out", str(tmp / "plot")], 2),
        ("plot_inf_estimate", ["plot", "--input", str(inf_ensemble),
                               "--out", str(tmp / "plot")], 2),
        ("plot_word_replicate", ["plot", "--input", str(word_replicate),
                                 "--out", str(tmp / "plot")], 2),
        ("plot_blank_replicate", ["plot", "--input", str(blank_replicate),
                                  "--out", str(tmp / "plot")], 2),
        ("plot_good_then_malformed", [*plot, "--input", str(bad_ensemble),
                                      "--out", str(tmp / "plot_partial")], 2),
        ("plot_shared_stem", [*plot, "--input", str(tmp / "y" / "e.csv"),
                              "--out", str(tmp / "plot_stem")], 1),
        ("plot_bandwidth_0", [*plot, "--bandwidth", "0"], 1),
        ("plot_bandwidth_negative", [*plot, "--bandwidth", "-1"], 1),
        ("plot_bandwidth_nan", [*plot, "--bandwidth", "nan"], 1),
        ("plot_bandwidth_inf", [*plot, "--bandwidth", "inf"], 1),
        ("plot_out_not_a_directory", [*plot, "--out", str(afile / "sub")], 2),
    ]


def test_error_contract(panel, tmp_path, capsys):
    """Each failure exits with its documented code and one stderr line, and
    creates no --out: not when a later input or method fails after an earlier
    one succeeded (plot_good_then_malformed, estimate_horizon_too_early), nor
    when a usage error comes after the inputs are read."""
    for case, argv, expected, *start in _error_cases(panel, tmp_path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == expected, (case, err)
        if expected == 0:
            assert err == "", case
        else:
            prefix = start[0] if start else "usage error: " if expected == 1 else "error: "
            assert err.startswith(prefix) and err.count("\n") == 1, (case, err)
            # the last --out wins, as argparse takes it
            out = argv[max(i for i, arg in enumerate(argv) if arg == "--out") + 1]
            assert not Path(out).exists(), case
