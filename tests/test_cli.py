import filecmp
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import format_records_by_record, traced_peak

from cohortchain import cli
from cohortchain.bootstrap import bootstrap, percentile_ci
from cohortchain.cli import main, round_pct
from cohortchain.records import _PIECE_ROWS, CSV_HEADER, format_records
from cohortchain.synth import generate_panel, load_generator_spec

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

# 6 x 3,334 students: more than one piece of the panel writer's text
LARGE_SPEC = GEN_SPEC.replace(
    "cohort_sizes = 2013:300 2014:300 2015:300 2017:200 2019:200",
    "cohort_sizes = 2013:3334 2014:3334 2015:3334 2016:3334 2017:3334 2018:3334",
)

# a cohort of more than one piece of the panel writer's text, one of a few rows
UNEVEN_SPEC = GEN_SPEC.replace(
    "cohort_sizes = 2013:300 2014:300 2015:300 2017:200 2019:200",
    f"cohort_sizes = 2013:{_PIECE_ROWS + 7} 2014:3 2016:300",
)


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

    def test_panel_of_several_pieces_is_written_whole(self, tmp_path):
        spec_path = tmp_path / "large.spec"
        spec_path.write_text(LARGE_SPEC)
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 0
        panel = generate_panel(load_generator_spec(spec_path))
        assert len(panel) > _PIECE_ROWS
        written = (tmp_path / "o/panel.csv").read_bytes()
        assert written == format_records(panel).encode()
        assert written == format_records_by_record(panel).encode()

    def test_cohorts_across_piece_boundaries_are_written_whole(self, tmp_path):
        spec_path = tmp_path / "uneven.spec"
        spec_path.write_text(UNEVEN_SPEC)
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 0
        panel = generate_panel(load_generator_spec(spec_path))
        written = (tmp_path / "o/panel.csv").read_bytes()
        assert written == format_records(panel).encode()
        assert written == format_records_by_record(panel).encode()
        rows = written.count(b"\n") - 1
        assert f"students = {rows}" in (tmp_path / "o/metadata.txt").read_text().splitlines()

    def test_peak_memory_below_the_whole_panel(self, tmp_path):
        # synth writes each cohort's panel as it is walked, and never holds
        # the whole panel: its traced peak over that of generate_panel alone
        # on these 20,004 students read 1.14 building the whole panel before
        # writing it, and 0.57 cohort by cohort.
        spec_path = tmp_path / "large.spec"
        spec_path.write_text(LARGE_SPEC)
        synth = ["synth", "--spec", str(spec_path), "--out"]
        # a first run, untraced, so that neither peak counts one-time set-up
        assert main([*synth, str(tmp_path / "warm")]) == 0
        spec = load_generator_spec(spec_path)
        panel_peak = traced_peak(lambda: generate_panel(spec))[1]
        code, peak = traced_peak(lambda: main([*synth, str(tmp_path / "o")]))
        assert code == 0
        assert peak < 0.8 * panel_peak

    def test_peak_memory_beyond_the_panel_bounded_by_text_size(self, tmp_path):
        # The run's traced peak, less that of generate_panel alone, over the
        # panel text's size on these 20,004 students: 3.26 holding a string
        # per row, the joined text and its encoded copy at once; 1.32
        # writing the text in pieces of 16,384 rows. With the ids packed a
        # piece builds a str per id: 2.66 in pieces of 16,384 rows, 0.18 in
        # pieces of _PIECE_ROWS (4,096). Written cohort by cohort, the run
        # holds less than generate_panel alone, and this reads -0.70.
        spec_path = tmp_path / "large.spec"
        spec_path.write_text(LARGE_SPEC)
        synth = ["synth", "--spec", str(spec_path), "--out"]
        # a first run, untraced, so that neither peak counts one-time set-up
        assert main([*synth, str(tmp_path / "warm")]) == 0
        spec = load_generator_spec(spec_path)
        panel_peak = traced_peak(lambda: generate_panel(spec))[1]
        code, peak = traced_peak(lambda: main([*synth, str(tmp_path / "o")]))
        assert code == 0
        assert peak - panel_peak < 2.0 * (tmp_path / "o/panel.csv").stat().st_size

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == 1

    def test_input_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "gen.spec"
        spec_path.write_text(GEN_SPEC)
        missing = tmp_path / "missing.csv"
        code = main(["synth", "--spec", str(spec_path), "--input", str(missing),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: unrecognized arguments: --input {missing}\n"
        assert not (tmp_path / "o").exists()

    def test_config_input_is_ignored(self, tmp_path):
        spec_path = tmp_path / "gen.spec"
        spec_path.write_text(GEN_SPEC)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {tmp_path / 'missing.csv'}\n")
        synth = ["synth", "--spec", str(spec_path), "--out"]
        assert main([*synth, str(tmp_path / "a"), "--config", str(cfg)]) == 0
        assert main([*synth, str(tmp_path / "b")]) == 0
        assert filecmp.cmp(tmp_path / "a/panel.csv", tmp_path / "b/panel.csv", shallow=False)

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

    def test_config_ignores_command_and_func(self, panel, tmp_path):
        # one config path, as the metadata's configuration hash covers it
        cfg = tmp_path / "run.cfg"
        settings = (f"input = {panel}\nhorizon = 2021\ncohort = 2013\nreplicates = 20\n"
                    "method = traditional\n")
        for text, out in ((settings, "a"), (settings + "command = synth\nfunc = x\n", "b")):
            cfg.write_text(text)
            assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    @pytest.mark.parametrize("word, on", [("YES", True), ("1", True), ("No", False),
                                          ("false", False)])
    def test_config_switch_words(self, panel, tmp_path, word, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {panel}\nhorizon = 2021\ncohort = 2013\nreplicates = 20\n"
            f"method = traditional\nexport-ensemble = {word}\n"
        )
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "ensemble_traditional.csv").exists() is on


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

    @pytest.mark.parametrize("flag, column", [("--aalana", "aalana"), ("--first-gen", "first_gen")])
    def test_strata_follow_the_subgroup_flags(self, panel, tmp_path, flag, column):
        code = main([
            "compare", "--input", str(panel), "--out", str(tmp_path), "--horizon", "2021",
            "--seed", "3", "--replicates", "30", "--strata", flag,
        ])
        assert code == 0
        # every stratum lies within the rows the flag selects
        students = [r for r in read_csv(panel) if r[column] == "true"]
        within = {"all": lambda r: True, "aalana": lambda r: r["aalana"] == "true",
                  "first_gen": lambda r: r["first_gen"] == "true"}
        rows = read_csv(tmp_path / "comparison.csv")
        assert [(r["stratum"], r["group"]) for r in rows] == [
            (stratum, group) for stratum in within for group in ("unexposed", "exposed")]
        for row in rows:
            exposed = row["group"] == "exposed"
            n = sum(within[row["stratum"]](r) and (r["la_year"] != "") == exposed
                    for r in students)
            assert int(row["n"]) == n, row

    @pytest.mark.parametrize("flag, repeated, other", [
        ("--aalana", "aalana", "first_gen"), ("--first-gen", "first_gen", "aalana")])
    def test_repeated_stratum_is_read_once(self, panel, tmp_path, monkeypatch, flag, repeated,
                                           other):
        # the flag makes one stratum select all's records: its groups are
        # bootstrapped once, and its rows repeat all's under its own name
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(cli, "bootstrap", counted)
        argv = ["compare", "--input", str(panel), "--horizon", "2021", "--seed", "3",
                "--replicates", "30", "--export-ensemble", "--aalana", "--first-gen"]
        both, strata = tmp_path / "both", tmp_path / "strata"
        assert main([*argv, "--out", str(both)]) == 0
        del calls[:]
        assert main([*argv[:-2], flag, "--strata", "--out", str(strata)]) == 0
        assert len(calls) == 4

        def rows(out, name, stratum):
            return [{k: v for k, v in r.items() if k != "stratum"}
                    for r in read_csv(out / name) if r["stratum"] == stratum]

        # the other stratum selects the records both flags select
        for name in ("comparison.csv", "difference.csv", "persistence.csv"):
            assert rows(strata, name, repeated) == rows(strata, name, "all"), name
            assert rows(strata, name, other) == rows(both, name, "all"), name
        for group in ("unexposed", "exposed"):
            ensemble = (strata / f"ensemble_all_{group}.csv").read_bytes()
            assert (strata / f"ensemble_{repeated}_{group}.csv").read_bytes() == ensemble
            assert ((strata / f"ensemble_{other}_{group}.csv").read_bytes()
                    == (both / f"ensemble_all_{group}.csv").read_bytes())

    def test_each_group_is_an_estimate_la_run(self, panel, tmp_path):
        # a group is `estimate --la <group> --method markov-full` run with
        # its own seed, drawn from the compare seed
        argv = ["--input", str(panel), "--horizon", "2021", "--replicates", "60", "--aalana",
                "--export-ensemble"]
        cmp_ = tmp_path / "cmp"
        assert main(["compare", *argv, "--seed", "17", "--out", str(cmp_)]) == 0
        rows = {r["group"]: r for r in read_csv(cmp_ / "comparison.csv")}
        seeds = np.random.SeedSequence(17).generate_state(2, dtype=np.uint64)
        for group, seed in zip(("unexposed", "exposed"), seeds):
            out = tmp_path / group
            assert main(["estimate", *argv, "--seed", str(seed), "--la", group,
                         "--method", "markov-full", "--out", str(out)]) == 0
            assert ((out / "ensemble_markov-full.csv").read_bytes()
                    == (cmp_ / f"ensemble_all_{group}.csv").read_bytes())
            (summary,) = read_csv(out / "summary_full.csv")
            for k in ("p2_5", "median", "p97_5", "width"):
                assert summary[k] == rows[group][k], (group, k)

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


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


class TestByteOrderMark:
    """Every input file may start with a UTF-8 byte-order mark, as
    spreadsheet programs write it, and reads as its twin without one; a bad
    byte's offset still counts from the start of the file."""

    def test_panel(self, panel, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(BOM + panel.read_bytes().replace(b"\n", b"\r\n"))
        run = ["estimate", "--horizon", "2021", "--cohort", "2013", "--replicates", "50"]
        for path in (panel, bom):
            assert main([*run, "--input", str(path), "--out", str(tmp_path / path.stem)]) == 0
        bom_summary, plain_summary = (tmp_path / d / "summary_full.csv" for d in ("bom", "panel"))
        assert bom_summary.read_bytes() == plain_summary.read_bytes()

    def test_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(BOM + b"seed = 7\nreplicates = 20\n")
        args = cli._parse_args(cli.build_parser(), ["estimate", "--config", str(cfg)])
        assert (args.seed, args.replicates) == (7, 20)

    def test_spec(self, tmp_path):
        plain, bom = tmp_path / "plain.spec", tmp_path / "bom.spec"
        plain.write_text(GEN_SPEC)
        bom.write_bytes(BOM + GEN_SPEC.replace("\n", "\r\n").encode())
        for spec in (plain, bom):
            assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / spec.stem)]) == 0
        bom_panel, plain_panel = (tmp_path / d / "panel.csv" for d in ("bom", "plain"))
        assert bom_panel.read_bytes() == plain_panel.read_bytes()

    def test_ensemble(self, tmp_path):
        text = "replicate,estimate\n" + "".join(f"{i},{0.5 + i / 1000}\n" for i in range(1, 51))
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        (tmp_path / "plain/e.csv").write_text(text)
        (tmp_path / "bom/e.csv").write_bytes(BOM + text.encode())
        for d in ("plain", "bom"):
            assert main(["plot", "--input", str(tmp_path / d / "e.csv"),
                         "--out", str(tmp_path / d / "out")]) == 0
        for name in ("kde_e.csv", "kde.svg"):
            assert ((tmp_path / "bom/out" / name).read_bytes()
                    == (tmp_path / "plain/out" / name).read_bytes())

    @pytest.mark.parametrize("reader", ["panel", "config", "spec", "ensemble"])
    def test_bad_byte_offset_counts_from_the_file_start(self, panel, tmp_path, capsys, reader):
        # each file runs past the 8 KiB that a text file decodes at a time,
        # and its bad byte lies past them
        path = tmp_path / f"bad.{reader}"
        padding = b"# padding\n" * 1000
        replicates = b"".join(b"%d,0.5\n" % i for i in range(1, 2000))
        argv, body = {
            "panel": (["estimate", "--input", str(path), "--horizon", "2021", "--cohort", "2013"],
                      panel.read_bytes()),
            "config": (["estimate", "--config", str(path)], b"seed = 7\n" + padding),
            "spec": (["synth", "--spec", str(path)], GEN_SPEC.encode() + padding),
            "ensemble": (["plot", "--input", str(path)], b"replicate,estimate\n" + replicates),
        }[reader]
        data = bytearray(BOM + body)
        at = len(data) - 3
        assert at > 8192
        data[at] = 0xFF
        path.write_bytes(data)
        code, start = (1, f"usage error: config file {path}") if reader == "config" else (
            2, f"error: {path}")
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"{start}: not UTF-8 text (byte {at})\n"


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


def test_commands_leave_numpy_ma_unloaded(panel, tmp_path):
    # np.percentile imports numpy.ma, which costs every process that loads
    # it about 13 ms and 1.3 MB
    est = tmp_path / "est"
    runs = [
        ["estimate", "--input", str(panel), "--out", str(est), "--horizon", "2021",
         "--cohort", "2013", "--replicates", "50", "--export-ensemble"],
        ["validate", "--input", str(panel), "--out", str(tmp_path / "val"), "--horizon", "2021",
         "--replicates", "50"],
        ["compare", "--input", str(panel), "--out", str(tmp_path / "cmp"), "--horizon", "2021",
         "--replicates", "50"],
        ["plot", "--input", str(est / "ensemble_markov-full.csv"), "--out", str(tmp_path / "plot")],
    ]
    code = ("import sys; from cohortchain.cli import main; "
            "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv in runs:
        out = subprocess.run(
            [sys.executable, "-B", "-c", code, *argv], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src}, timeout=120,
        )
        assert out.stdout.splitlines()[-1] == "0 False", (argv[0], out.stdout, out.stderr)


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["estimate", "--help"]) == 0


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
    above_one = tmp / "above_one.csv"
    above_one.write_text("replicate,estimate\n1,5.0\n2,6.0\n3,5.5\n")
    one_row = tmp / "one_row.csv"
    one_row.write_text("replicate,estimate\n1,0.5\n")
    header_only = tmp / "header_only.csv"
    header_only.write_text("replicate,estimate\n")
    word_replicate = tmp / "word.csv"
    word_replicate.write_text("replicate,estimate\n1,0.5\nx,0.5\n")
    blank_replicate = tmp / "blank.csv"
    blank_replicate.write_text("replicate,estimate\n1,0.5\n,0.6\n")
    repeated_replicate = tmp / "repeated.csv"
    repeated_replicate.write_text("replicate,estimate\n1,0.5\n1,0.6\n1,0.7\n")
    afile = tmp / "afile"
    afile.write_text("")
    header = ",".join(CSV_HEADER)
    bad_row = tmp / "bad_row.csv"
    bad_row.write_text(f"{header}\nr1,2013,true,false,SCI,,G,4\nr2,2013,maybe,false,SCI,,G,4\n")
    underscore_year = tmp / "underscore_year.csv"
    underscore_year.write_text(f"{header}\nr1,20_13,true,false,SCI,,G,1_0\n")
    # the exposed group's resamples lose every row out of Y2 whenever they
    # hold only the censored e1, about one in four
    small = tmp / "small.csv"
    small.write_text(f"{header}\nu1,2013,false,false,SCI,,G,4\nu2,2013,false,false,SCI,,G,4\n"
                     "e1,2019,false,false,SCI,1,E,1\ne2,2013,false,false,SCI,1,D,2\n")
    # the unexposed student reached Y2 and nobody is seen leaving it
    gap = tmp / "gap.csv"
    gap.write_text(f"{header}\nu1,2019,false,false,SCI,,E,1\ne1,2019,false,false,SCI,1,D,1\n")
    for d in ("x", "y"):
        (tmp / d).mkdir()
        (tmp / d / "e.csv").write_text("replicate,estimate\n1,0.5\n2,0.6\n")
    no_matrix = tmp / "no_matrix.spec"
    no_matrix.write_text("seed = x\n")
    no_seed = tmp / "no_seed.spec"
    no_seed.write_text(GEN_SPEC.replace("seed = 11\n", ""))
    bad_number = tmp / "bad_number.spec"
    bad_number.write_text(GEN_SPEC.replace("0 0.86 ", "0 0.8.6 "))
    negative_seed = tmp / "negative_seed.spec"
    negative_seed.write_text(GEN_SPEC.replace("seed = 11\n", "seed = -1\n"))
    fractional_size = tmp / "fractional_size.spec"
    fractional_size.write_text(GEN_SPEC.replace("2013:300 ", "2013:30.7 "))
    negative_la_year = tmp / "negative_la_year.spec"
    negative_la_year.write_text(GEN_SPEC.replace("1:0.7 2:0.3", "1:1.5 2:-0.5"))
    negative_college = tmp / "negative_college.spec"
    negative_college.write_text(GEN_SPEC + "colleges = A:1.5 B:-0.5\n")
    repeated_matrix = tmp / "repeated_matrix.spec"
    repeated_matrix.write_text(GEN_SPEC + GEN_SPEC[GEN_SPEC.index("matrix =") :])
    switch_word = tmp / "switch_word.cfg"
    switch_word.write_text(cfg.read_text() + "export-ensemble = on\n")
    repeated_key = tmp / "repeated_key.cfg"
    repeated_key.write_text(cfg.read_text() + "seed = 1\nseed = 2\n")
    repeated_input = tmp / "repeated_input.cfg"
    repeated_input.write_text(cfg.read_text() + f"input = {panel}\n")
    seed_cfg = tmp / "seed.cfg"
    seed_cfg.write_text("seed = 3\n")
    nested_cfg = tmp / "nested.cfg"
    nested_cfg.write_text(cfg.read_text() + f"config = {seed_cfg}\n")
    wrong_header = tmp / "wrong_header.csv"
    wrong_header.write_text("replicate,rate\n1,0.5\n2,0.6\n")
    no_equals_cfg = tmp / "no_equals.cfg"
    no_equals_cfg.write_text(cfg.read_text() + "seed 3\n")
    first_no_equals = tmp / "first_no_equals.spec"
    first_no_equals.write_text(GEN_SPEC.replace("seed = 11\n", "seed 11\n"))
    no_equals = tmp / "no_equals.spec"
    no_equals.write_text(GEN_SPEC.replace("la_rate = 0.3\n", "la_rate 0.3\n"))
    inline_matrix = tmp / "inline_matrix.spec"
    inline_matrix.write_text(GEN_SPEC.replace("matrix =\n0 0.86", "matrix = 0.1\n0 0.86", 1))
    pair_without_colon = tmp / "pair_without_colon.spec"
    pair_without_colon.write_text(GEN_SPEC.replace("1:0.7 2:0.3", "1:0.7 2=0.3"))
    pair_not_a_number = tmp / "pair_not_a_number.spec"
    pair_not_a_number.write_text(GEN_SPEC.replace("1:0.7 2:0.3", "1:0.7 2:x"))
    zero_size = tmp / "zero_size.spec"
    zero_size.write_text(GEN_SPEC.replace("2013:300 ", "2013:0 "))
    la_year_sum = tmp / "la_year_sum.spec"
    la_year_sum.write_text(GEN_SPEC.replace("1:0.7 2:0.3", "1:0.7 2:0.2"))
    commented_cfg = tmp / "commented.cfg"
    commented_cfg.write_text("# a run\n\n" + cfg.read_text() + "seed 3\n")
    blank_line_ensemble = tmp / "blank_line.csv"
    blank_line_ensemble.write_text("replicate,estimate\n1,0.5\n\n2,x\n")
    # the matrix block's last row is left out, with a `#` and a blank line
    # in its place, and the block ends at `effect_matrix =`
    short_matrix = tmp / "short_matrix.spec"
    short_matrix.write_text(GEN_SPEC.replace("0 0 0 0 0 0 0 1\neffect_matrix =",
                                             "# Y8\n\neffect_matrix ="))
    no_sizes = tmp / "no_sizes.spec"
    no_sizes.write_text(GEN_SPEC.replace("2013:300 2014:300 2015:300 2017:200 2019:200", ""))
    long_id = tmp / "long_id.csv"
    long_id.write_text(f"{header}\n{'s' * 200_000},2013,true,false,SCI,,G,4\n")
    plot = ["plot", "--input", str(tmp / "x" / "e.csv"), "--out", str(tmp / "plot")]
    estimate = ["estimate", "--input", str(panel), "--out", str(tmp / "out"),
                "--horizon", "2021", "--cohort", "2013"]
    return [
        ("config_equals_form", ["estimate", f"--config={cfg}", "--out", str(tmp / "eq")], 0),
        ("config_last_argument", [*estimate, "--config"], 1),
        ("config_missing", [*estimate, "--config", str(tmp / "missing.cfg")], 1),
        ("config_switch_word", ["estimate", "--config", str(switch_word),
                                "--out", str(tmp / "switch")], 1,
         f"usage error: {switch_word}:6: export_ensemble must be one of "
         "1, true, yes, 0, false, no, got 'on'\n"),
        ("config_repeated_key", ["estimate", "--config", str(repeated_key),
                                 "--out", str(tmp / "repeated_key")], 1,
         f"usage error: {repeated_key}:7: seed repeats line 6\n"),
        ("config_repeated_input", ["estimate", "--config", str(repeated_input),
                                   "--out", str(tmp / "repeated_input")], 2,
         f"error: {panel}: duplicate student_id "),
        ("config_line_without_equals", ["estimate", "--config", str(no_equals_cfg),
                                        "--out", str(tmp / "no_equals")], 1,
         f"usage error: {no_equals_cfg}:6: expected key = value\n"),
        ("config_comment_and_blank_lines", ["estimate", "--config", str(commented_cfg),
                                            "--out", str(tmp / "commented")], 1,
         f"usage error: {commented_cfg}:8: expected key = value\n"),
        ("config_given_twice", ["estimate", "--config", str(seed_cfg), "--config", str(cfg),
                                "--out", str(tmp / "two_configs")], 1,
         "usage error: --config may be given once\n"),
        ("config_names_a_config", ["estimate", "--config", str(nested_cfg),
                                   "--out", str(tmp / "nested")], 1,
         f"usage error: {nested_cfg}:6: a config file cannot name another\n"),
        ("config_and_flag_repeat_method", ["estimate", "--config", str(cfg),
                                           "--method", "traditional",
                                           "--out", str(tmp / "cfg_method")], 1,
         "usage error: --method traditional is given twice\n"),
        ("estimate_no_input", ["estimate", "--out", str(tmp / "noinput"), "--horizon", "2021",
                               "--cohort", "2013"], 1,
         "usage error: estimate requires at least one --input\n"),
        ("estimate_repeated_method", [*estimate, "--method", "markov-full", "--method",
                                      "markov-full", "--export-ensemble"], 1,
         "usage error: --method markov-full is given twice\n"),
        ("replicates_1", [*estimate, "--replicates", "1"], 1),
        ("replicates_2_32", [*estimate, "--replicates", str(2**32)], 1,
         "usage error: replicates must be below 2**32, got 4294967296\n"),
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
                                 "--horizon", "2021", "--college", "NOPE"], 2,
         "error: all: unexposed group: no records match the subgroup filters (1300 loaded)\n"),
        ("input_not_utf8", ["estimate", "--input", str(latin1), *estimate[3:]], 2),
        ("inputs_repeat_a_student", [*estimate, "--input", str(panel)], 2,
         f"error: {panel}: duplicate student_id "),
        ("input_error_names_its_file", [*estimate, "--input", str(bad_row)], 2,
         f"error: {bad_row}: row 3, column 'aalana': "),
        ("input_integer_with_underscore", ["estimate", "--input", str(underscore_year),
                                           *estimate[3:]], 2,
         f"error: {underscore_year}: row 2, column 'cohort_year': "
         "expected an integer, got '20_13'\n"),
        ("input_field_too_long", ["estimate", "--input", str(long_id), *estimate[3:]], 2,
         f"error: {long_id}: row 2, column 'row': field larger than field limit (131072)\n"),
        ("compare_group_bootstrap_fails", ["compare", "--input", str(small), "--out",
                                           str(tmp / "small_cmp"), "--horizon", "2021",
                                           "--replicates", "200"], 2,
         "error: all: exposed group: "),
        ("estimate_undefined_on_original", ["estimate", "--input", str(gap), "--out",
                                            str(tmp / "gap_est"), "--horizon", "2021",
                                            "--method", "markov-full"], 2,
         "error: no observed transitions out of state Y2\n"),
        ("estimate_filters_match_nothing", [*estimate[:-2], "--college", "NOPE",
                                            "--method", "markov-full"], 2,
         "error: no records match the subgroup filters (1300 loaded)\n"),
        ("compare_undefined_on_original", ["compare", "--input", str(gap), "--out",
                                           str(tmp / "gap_cmp"), "--horizon", "2021"], 2,
         "error: all: unexposed group: no observed transitions out of state Y2\n"),
        ("spec_without_matrix", ["synth", "--spec", str(no_matrix), "--out", str(tmp / "s1")],
         2, f"error: {no_matrix}: missing required matrix block"),
        ("spec_without_seed", ["synth", "--spec", str(no_seed), "--out", str(tmp / "s2")],
         2, f"error: {no_seed}: missing required key 'seed'"),
        ("spec_bad_number", ["synth", "--spec", str(bad_number), "--out", str(tmp / "s3")],
         2, f"error: {bad_number}: line 9: bad number '0.8.6' in matrix block"),
        ("spec_negative_seed", ["synth", "--spec", str(negative_seed), "--out", str(tmp / "s4")],
         2, f"error: {negative_seed}: seed must be non-negative, got -1\n"),
        ("spec_fractional_size", ["synth", "--spec", str(fractional_size),
                                  "--out", str(tmp / "s5")],
         2, f"error: {fractional_size}: line 3: bad value for cohort_sizes: "
         "'2013:30.7 2014:300 2015:300 2017:200 2019:200'\n"),
        ("spec_negative_la_year_dist", ["synth", "--spec", str(negative_la_year),
                                        "--out", str(tmp / "s6")],
         2, f"error: {negative_la_year}: la_year_dist probabilities must be non-negative\n"),
        ("spec_negative_college", ["synth", "--spec", str(negative_college),
                                   "--out", str(tmp / "s7")],
         2, f"error: {negative_college}: college proportions must be non-negative\n"),
        ("spec_repeated_matrix", ["synth", "--spec", str(repeated_matrix),
                                  "--out", str(tmp / "s8")],
         2, f"error: {repeated_matrix}: line 26: matrix repeats line 8\n"),
        ("spec_line_without_equals", ["synth", "--spec", str(no_equals),
                                      "--out", str(tmp / "s9")],
         2, f"error: {no_equals}: line 6: expected key = value, got 'la_rate 0.3'\n"),
        ("spec_first_line_without_equals", ["synth", "--spec", str(first_no_equals),
                                            "--out", str(tmp / "s17")],
         2, f"error: {first_no_equals}: line 1: expected key = value, got 'seed 11'\n"),
        ("spec_inline_matrix", ["synth", "--spec", str(inline_matrix),
                                "--out", str(tmp / "s10")],
         2, f"error: {inline_matrix}: line 8: matrix block must start on the next line\n"),
        ("spec_pair_without_colon", ["synth", "--spec", str(pair_without_colon),
                                     "--out", str(tmp / "s11")],
         2, f"error: {pair_without_colon}: line 7: expected key:value, got '2=0.3'\n"),
        ("spec_pair_not_a_number", ["synth", "--spec", str(pair_not_a_number),
                                    "--out", str(tmp / "s12")],
         2, f"error: {pair_not_a_number}: line 7: bad pair '2:x'\n"),
        ("spec_zero_cohort_size", ["synth", "--spec", str(zero_size),
                                   "--out", str(tmp / "s13")],
         2, f"error: {zero_size}: cohort 2013 size must be positive, got 0\n"),
        ("spec_la_year_dist_sum", ["synth", "--spec", str(la_year_sum),
                                   "--out", str(tmp / "s14")],
         2, f"error: {la_year_sum}: la_year_dist probabilities must sum to 1\n"),
        ("spec_short_matrix_block", ["synth", "--spec", str(short_matrix),
                                     "--out", str(tmp / "s15")],
         2, f"error: {short_matrix}: line 8: matrix block needs 64 numbers, got 56\n"),
        ("spec_empty_cohort_sizes", ["synth", "--spec", str(no_sizes),
                                     "--out", str(tmp / "s16")],
         2, f"error: {no_sizes}: cohort_sizes must be non-empty\n"),
        ("plot_no_input", ["plot", "--out", str(tmp / "plot")], 1,
         "usage error: plot requires at least one --input ensemble CSV\n"),
        ("plot_wrong_header", ["plot", "--input", str(wrong_header), "--out", str(tmp / "plot")],
         2, f"error: {wrong_header}: expected header 'replicate,estimate'\n"),
        ("plot_malformed_ensemble", ["plot", "--input", str(bad_ensemble),
                                     "--out", str(tmp / "plot")], 2),
        ("plot_blank_line_counted", ["plot", "--input", str(blank_line_ensemble),
                                     "--out", str(tmp / "plot")], 2,
         f"error: {blank_line_ensemble}: line 4: expected 'replicate,estimate' "
         "with an estimate in [0, 1]\n"),
        ("plot_nan_estimate", ["plot", "--input", str(nan_ensemble),
                               "--out", str(tmp / "plot")], 2),
        ("plot_inf_estimate", ["plot", "--input", str(inf_ensemble),
                               "--out", str(tmp / "plot")], 2),
        ("plot_estimate_above_one", ["plot", "--input", str(above_one),
                                     "--out", str(tmp / "plot")], 2,
         f"error: {above_one}: line 2: expected 'replicate,estimate' "
         "with an estimate in [0, 1]\n"),
        ("plot_one_row", ["plot", "--input", str(one_row), "--out", str(tmp / "plot")], 2,
         f"error: {one_row}: ensemble of size 1 is too small (need >= 2)\n"),
        ("plot_header_only", ["plot", "--input", str(header_only), "--out", str(tmp / "plot")],
         2, f"error: {header_only}: ensemble of size 0 is too small (need >= 2)\n"),
        ("plot_word_replicate", ["plot", "--input", str(word_replicate),
                                 "--out", str(tmp / "plot")], 2),
        ("plot_blank_replicate", ["plot", "--input", str(blank_replicate),
                                  "--out", str(tmp / "plot")], 2),
        ("plot_repeated_replicate", ["plot", "--input", str(repeated_replicate),
                                     "--out", str(tmp / "plot")], 2,
         f"error: {repeated_replicate}: line 3: replicate 1 repeats line 2\n"),
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
