import csv
import importlib.resources
import io
import itertools
import json
import math

import pytest

from conftest import make_ranking as R
from shortlist import Ranking
from shortlist.errors import CapacityError, DimensionError, DomainError, ProfileParseError
from shortlist.experiments import (
    beta_sweep,
    emit_csv,
    load_profile,
    mip_bench,
    run_config,
    sushi_experiment,
    sushi_profile,
    tension_experiment,
    tension_population,
)
from shortlist import cli

# cumulative fractions as printed alongside the shipped 33 rows (denominator
# 5000 = the full survey)
SUSHI_CUMULATIVE = [
    0.0252, 0.0492, 0.0730, 0.0968, 0.1206, 0.1436, 0.1624, 0.1786, 0.1942,
    0.2096, 0.2246, 0.2394, 0.2540, 0.2682, 0.2822, 0.2956, 0.3088, 0.3220,
    0.3350, 0.3478, 0.3606, 0.3734, 0.3860, 0.3986, 0.4110, 0.4230, 0.4348,
    0.4460, 0.4572, 0.4682, 0.4790, 0.4898, 0.5006,
]


class TestLoadProfile:
    def test_text_line(self):
        profile = load_profile(io.StringIO("126 4 5 2 1 3\n"))
        ranking, count = profile.entries[0]
        assert ranking == R(3, 4, 1, 0, 2)
        assert count == 126

    def test_csv_variant(self):
        text = "count,r1,r2,r3\n10,2,1,3\n5,1,2,3\n"
        profile = load_profile(io.StringIO(text), fmt="csv")
        assert profile.entries[0][0] == R(1, 0, 2)
        assert profile.total == 15

    def test_malformed_line_reports_number(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile(io.StringIO("10 1 2 3\nxx 1 2 3\n"))
        assert err.value.line == 2

    def test_inconsistent_m(self):
        with pytest.raises(ProfileParseError):
            load_profile(io.StringIO("10 1 2 3\n5 2 1\n"))

    def test_bad_ranking(self):
        with pytest.raises(ProfileParseError):
            load_profile(io.StringIO("10 1 1 3\n"))

    def test_empty_source(self):
        with pytest.raises(ProfileParseError):
            load_profile(io.StringIO("# only a comment\n"))


class TestSushiFixture:
    def test_row_count_and_total(self):
        profile = sushi_profile()
        assert len(profile.entries) == 33
        assert profile.total == 2503

    def test_cumulative_fractions(self):
        profile = sushi_profile()
        running = 0.0
        for (ranking, count), expected in zip(profile.entries, SUSHI_CUMULATIVE):
            running += count / 5000.0
            assert running == pytest.approx(expected, abs=1e-4)

    def test_modal_ranking(self):
        assert sushi_profile().modal_ranking() == R(3, 4, 1, 0, 2)

    def test_population_weights(self):
        pop = sushi_profile().to_population(1.0)
        assert math.fsum(pop.weights()) == pytest.approx(1.0, abs=1e-12)
        assert pop.n == 33 and pop.m == 5


@pytest.fixture(scope="module")
def rows():
    return sushi_experiment(phi_grid=(0.5, 1.5, 3.0))


class TestSushiExperiment:
    def test_row_schema(self, rows):
        assert {r["algorithm"] for r in rows} == {"A_m", "A_w", "A_u"}
        assert list(rows[0].keys()) == ["phi_h", "algorithm", "welfare", "uplift_fraction", "menu"]

    def test_modal_menu(self, rows):
        assert all(r["menu"] == "2+4+5" for r in rows if r["algorithm"] == "A_m")

    def test_pinned_welfare_maximum_at_unit_accuracy(self):
        one = sushi_experiment(phi_grid=(1.0,))
        a_w = next(r for r in one if r["algorithm"] == "A_w")
        assert a_w["menu"] == "2+4+5"
        assert a_w["welfare"] == pytest.approx(3.3612455172652966, rel=1e-12)

    def test_argmax_dominance(self, rows):
        by = {(r["phi_h"], r["algorithm"]): r for r in rows}
        for phi in (0.5, 1.5, 3.0):
            assert by[(phi, "A_w")]["welfare"] >= by[(phi, "A_m")]["welfare"] - 1e-12
            assert by[(phi, "A_u")]["uplift_fraction"] >= max(
                by[(phi, "A_m")]["uplift_fraction"], by[(phi, "A_w")]["uplift_fraction"]
            ) - 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.25, 0.5, 1.0])
    def test_welfare_row_has_the_bits_of_enumeration(self, phi):
        from shortlist import enumerate_best_menu

        a_w = next(r for r in sushi_experiment(phi_grid=(phi,)) if r["algorithm"] == "A_w")
        best = enumerate_best_menu(sushi_profile().to_population(phi), 3)
        assert a_w["menu"] == "+".join(str(x + 1) for x in best.menu)
        assert a_w["welfare"] == best.welfare

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            sushi_experiment(phi_grid=())
        with pytest.raises(DomainError):
            sushi_experiment(phi_grid=(0.5, float("inf")))

    def test_rejects_wrong_m(self):
        profile = load_profile(io.StringIO("3 1 2\n1 2 1\n"))
        with pytest.raises(DimensionError):
            sushi_experiment(profile=profile)
        rows = sushi_experiment(profile=profile, phi_grid=(1.0,), k=1, allow_any_m=True)
        assert rows


class TestBetaSweep:
    def test_zero_decay_all_ties(self):
        rows = beta_sweep(beta_grid=(0.0,))
        assert all(abs(r["utility_difference"]) < 1e-12 for r in rows)

    def test_reversed_tail_center_dominates_at_large_decay(self):
        rows = beta_sweep(beta_grid=(6.0,), families=("mallows",))
        best = max(rows, key=lambda r: r["utility_difference"])
        assert best["center"] == "1 4 3 2"

    def test_top_aligned_overtake_has_threshold(self):
        rows = beta_sweep(beta_grid=(0.5, 2.0, 4.0, 6.0), families=("mallows",))
        by_beta: dict[float, dict[str, float]] = {}
        for r in rows:
            by_beta.setdefault(r["beta"], {})[r["center"]] = r["utility_difference"]
        top_aligned_wins = []
        for beta, diffs in sorted(by_beta.items()):
            aligned_class = [v for c, v in diffs.items() if c.startswith("1 ")]
            top_aligned_wins.append(min(aligned_class) >= -1e-12)
        # once decay is strong enough every top-aligned center beats aligned
        assert top_aligned_wins[-1]
        assert not all(top_aligned_wins)

    def test_rum_family_runs(self):
        rows = beta_sweep(beta_grid=(2.0,), families=("rum",))
        assert len(rows) == 23
        best = max(rows, key=lambda r: r["utility_difference"])
        assert best["center"].startswith("1 ")


class TestTensionExperiment:
    def test_constrained_never_beats_unconstrained(self):
        for gamma in (0.5, 3.0):
            rows = tension_experiment(gamma, phi_grid=(0.0, 0.9, 1.8))
            for row in rows:
                if row["welfare_uplift_constrained"] != "":
                    assert (
                        row["welfare_uplift_constrained"]
                        <= row["welfare_unconstrained"] + 1e-12
                    )

    def test_divergence_at_concentrated_population(self):
        rows = tension_experiment(3.0, phi_grid=(0.9,))
        row = rows[0]
        assert row["menu_unconstrained"] != row["menu_uplift_constrained"]
        assert row["welfare_uplift_constrained"] < row["welfare_unconstrained"] - 1e-6

    def test_pinned_extreme_gap_values(self):
        # regression pin for the concentrated-population gap at phi_h = 1
        pop = tension_population(3.0, 1.0)
        from shortlist import enumerate_best_menu, optimize_with_uplift

        unconstrained = enumerate_best_menu(pop, 3)
        constrained = optimize_with_uplift(pop, 3)
        assert unconstrained.welfare == pytest.approx(0.9895172542708971, rel=1e-12)
        assert constrained.welfare == pytest.approx(0.9549847134148095, rel=1e-12)
        assert unconstrained.menu == (0, 1, 5)
        assert constrained.menu == (0, 1, 2)

    def test_population_weights_follow_head_orderings(self):
        pop = tension_population(3.0, 1.0)
        assert pop.n == 6 and pop.m == 6
        weights = sorted(pop.weights(), reverse=True)
        assert weights[0] > 0.9  # concentrated on the central ordering
        identity_type = max(pop, key=lambda h: h.weight)
        assert identity_type.ground_truth == Ranking.identity(6)


class TestMipBench:
    def test_reduced_scale_rows(self):
        rows = mip_bench(sizes=(6, 8, 10), k_list=(2,), type_counts=(1, 2, 3))
        families = [r["family"] for r in rows]
        assert families.count("two-type") == 3
        assert {r["n_types"] for r in rows if r["family"].startswith("mallows-pop")} == {1, 2, 6}
        for row in rows:
            assert row["seconds"] >= 0.0
            assert row.get("welfare_gap_vs_enumeration", 0.0) <= 1e-9
        # search size is a deterministic proxy for the runtime trend over m
        two_type = {r["m"]: r["nodes"] for r in rows if r["family"] == "two-type"}
        assert two_type[6] <= two_type[8] <= two_type[10]

    def test_external_solver_row(self):
        rows = mip_bench(sizes=(5,), k_list=(2,), type_counts=(1,), solver="mip")
        for row in rows:
            assert row["solver"] == "mip"
            assert row.get("welfare_gap_vs_enumeration", 0.0) <= 1e-6


class TestCsvAndConfig:
    def test_csv_determinism(self, tmp_path):
        rows = sushi_experiment(phi_grid=(0.5,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(sushi_experiment(phi_grid=(0.5,)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_header_order(self, tmp_path):
        rows = sushi_experiment(phi_grid=(0.5,))
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "phi_h,algorithm,welfare,uplift_fraction,menu"

    def test_run_config_roundtrip(self, tmp_path):
        out = tmp_path / "sushi.csv"
        config = {"experiment": "sushi", "output": str(out), "phi_grid": [0.5], "k": 3}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        written = run_config(cfg_path)
        assert written == [str(out)]
        assert out.exists()
        # byte-identical on re-run
        first = out.read_bytes()
        run_config(cfg_path)
        assert out.read_bytes() == first

    def test_run_config_other_experiments(self, tmp_path):
        bench_out = tmp_path / "bench.csv"
        run_config(
            {
                "experiment": "bench",
                "output": str(bench_out),
                "sizes": [5, 6],
                "k_list": [2],
                "type_counts": [1],
            }
        )
        assert "seconds" in bench_out.read_text().splitlines()[0]
        sweep_out = tmp_path / "sweep.csv"
        run_config(
            {
                "experiment": "beta-sweep",
                "output": str(sweep_out),
                "beta_grid": [0.0],
                "families": ["mallows"],
            }
        )
        assert len(sweep_out.read_text().splitlines()) == 24  # header + 23 centers

    @pytest.mark.parametrize(
        "knobs",
        [{"experiment": "beta-sweep", "m": 8}, {"experiment": "bench", "type_counts": [8]}],
        ids=["beta-sweep-m8", "bench-types8"],
    )
    def test_run_config_refuses_factorial_enumerations(self, tmp_path, monkeypatch, capsys, knobs):
        def refuse(*args):
            raise AssertionError("rankings were enumerated")

        monkeypatch.setattr(itertools, "permutations", refuse)
        config = {**knobs, "output": str(tmp_path / "x.csv")}
        with pytest.raises(CapacityError):
            run_config(config)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_experiment_lists_names(self, tmp_path):
        with pytest.raises(DomainError) as err:
            run_config({"experiment": "nope", "output": str(tmp_path / "x.csv")})
        message = str(err.value)
        for name in ("sushi", "beta-sweep", "tension", "bench"):
            assert name in message


class TestCli:
    def test_prob_perm(self, capsys):
        assert cli.main([
            "prob", "perm", "--center", "1 2 3", "--phi", "0.6931471805599453",
            "--ranking", "1 2 3",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(8 / 21, abs=1e-12)

    def test_prob_choice_pl(self, capsys):
        assert cli.main([
            "prob", "choice", "--center", "1 2 3", "--pl-values", "1 0 -1",
            "--beta", "1.0", "--menu", "1 2 3", "--target", "1",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.e / (math.e + 1 + math.exp(-1)), abs=1e-12)

    def test_collab_reports_uplift(self, capsys):
        code = cli.main([
            "collab", "--human-center", "1 2 3", "--phi-h", "0.6931471805599453",
            "--values", "top", "--alg-center", "1 2 3",
            "--phi-a", "0.6931471805599453", "-k", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "uplifted: True" in out

    def test_optimize_with_lp_export(self, tmp_path, capsys):
        lp_path = tmp_path / "instance.lp"
        code = cli.main([
            "optimize", "--phi-h", "1.0", "-k", "3", "--export-lp", str(lp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "menu: 2 4 5" in out
        assert lp_path.exists() and "Binary" in lp_path.read_text()

    def test_welfare_report(self, capsys):
        code = cli.main([
            "welfare", "--phi-h", "1.0", "--alg-center", "2 4 5 1 3",
            "--noiseless", "-k", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "social welfare:" in out and "uplift fraction" in out

    def test_analyze_swap(self, capsys):
        code = cli.main([
            "analyze", "swap", "--human-center", "1 2 3", "--phi-h", "0.6931471805599453",
            "--values", "top", "--alg-center", "1 2 3", "--phi-a", "0.6931471805599453",
            "-k", "2", "--pair", "2 3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "utility delta" in out

    def test_analyze_order(self, capsys):
        code = cli.main([
            "analyze", "order", "--human-center", "1 2 3", "--phi-h", "1.0",
            "--values", "1 0.25 0.25", "--phi-a", "1.0", "-k", "2",
            "--candidates", "1 2 3; 1 3 2; 3 1 2; 3 2 1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "candidate 1 > candidate 0" in out
        assert "[swap-least]" in out

    def test_prob_pairwise_and_topk(self, capsys):
        assert cli.main([
            "prob", "pairwise", "--center", "1 2 3", "--phi", "0.6931471805599453",
            "--pair", "1 3",
        ]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(16 / 21, abs=1e-12)
        assert cli.main([
            "prob", "topk", "--center", "1 2 3", "--phi", "0.6931471805599453",
            "--menu", "1 2",
        ]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(4 / 7, abs=1e-12)

    def test_analyze_conditions(self, capsys):
        code = cli.main([
            "analyze", "conditions", "--family", "mallows", "--kind", "helpful",
            "--values", "100 2 1 1", "--human-center", "1 2 3 4", "--phi-h", "1.0",
            "--alg-center", "1 2 3 4", "--phi-a", "1.0", "--ranks", "2 3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds: True" in out and "lhs: 50.0" in out

    def test_experiment_tension(self, tmp_path, capsys):
        out_path = tmp_path / "tension.csv"
        code = cli.main([
            "experiment", "tension", "--gamma", "3.0", "--phi-grid", "0.9",
            "--output", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        assert "welfare_unconstrained" in out_path.read_text().splitlines()[0]

    def test_cli_error_exit_code(self, capsys):
        code = cli.main(["experiment", "sushi"])  # missing --output
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["prob", "first", "--center", "1 x 3", "--phi", "1", "--item", "1"], "--center"),
            (["collab", "--human-center", "1 2 3", "--phi-h", "1", "--values", "1 a 0",
              "--alg-center", "1 2 3", "--noiseless", "-k", "2"], "--values"),
            (["experiment", "sushi", "--phi-grid", "0.5,,1", "--output", "out.csv"], "--phi-grid"),
            (["analyze", "conditions", "--family", "mallows", "--kind", "harmful",
              "--values", "3 2 1", "--phi-h", "1", "--ranks", "1 x"], "--ranks"),
            (["experiment", "bench", "--sizes", "4,x", "--output", "out.csv"], "--sizes"),
            (["prob", "pairwise", "--center", "1 2 3", "--phi", "1", "--pair", "1"], "--pair"),
            (["analyze", "conditions", "--family", "mallows", "--kind", "harmful",
              "--values", "3 2 1", "--phi-h", "1", "--ranks", "1"], "--ranks"),
        ],
    )
    def test_bad_token_is_an_error(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--profile", "{tmp}/missing.txt", "--phi-h", "1", "-k", "2"],
            ["experiment", "tension", "--phi-grid", "0.5", "--output", "{tmp}/no/dir/out.csv"],
            ["experiment", "tension", "--phi-grid", "0.5", "--output", "{tmp}"],
            ["optimize", "--phi-h", "1", "-k", "2", "--export-lp", "{tmp}/no/dir/x.lp"],
            ["experiment", "--config", "{tmp}/missing.json"],
            ["experiment", "--config", "{tmp}/bad.json"],
        ],
    )
    def test_file_error_is_an_error(self, tmp_path, capsys, argv):
        (tmp_path / "bad.json").write_text("{not json")
        assert cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("name", ["sushi", "tension", "beta-sweep"])
    def test_experiment_k_zero_is_an_error(self, tmp_path, capsys, name):
        out_path = tmp_path / "out.csv"
        code = cli.main(["experiment", name, "-k", "0", "--output", str(out_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "sushi", "phi-grid": [0.5]},
            {"experiment": "sushi", "seed": 1},
            {"experiment": "sushi", "k": "x"},
            {"experiment": "sushi", "k": 2.5},
            {"experiment": "sushi", "k": True},
            {"experiment": "sushi", "phi_grid": "0.5"},
            {"experiment": "tension", "gamma": "3"},
            {"experiment": "tension", "sizes": [5]},
            {"experiment": "bench", "sizes": 8},
            {"experiment": "bench", "sizes": []},
            {"experiment": "bench", "k_list": []},
            {"experiment": "bench", "type_counts": [1, False]},
            {"experiment": "bench", "solver": "glpk"},
            {"experiment": "beta-sweep", "families": "mallows"},
            {"experiment": "beta-sweep", "families": ["mallows", "plackett"]},
            {"experiment": ["sushi"]},
            {"experiment": "sushi", "output": 5},
        ],
    )
    def test_bad_config_is_an_error(self, tmp_path, capsys, config):
        out_path = tmp_path / "out.csv"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"output": str(out_path), **config}))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert list(config)[-1] in err  # the error names the offending key
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "sushi", "--config", "{tmp}/config.json"],
            ["experiment", "--config", "{tmp}/config.json", "--output", "{tmp}/out.csv"],
            ["experiment", "--config", "{tmp}/config.json", "-k", "2"],
            ["experiment", "sushi", "--gamma", "1.0", "--output", "{tmp}/out.csv"],
            ["experiment", "bench", "-k", "2", "--sizes", "5", "--output", "{tmp}/out.csv"],
            ["experiment", "tension", "--sizes", "5", "--output", "{tmp}/out.csv"],
            ["experiment", "beta-sweep", "--phi-grid", "0.5", "--output", "{tmp}/out.csv"],
        ],
    )
    def test_flag_that_does_not_apply_is_an_error(self, tmp_path, capsys, argv):
        config = {"experiment": "tension", "output": str(tmp_path / "config.csv"), "phi_grid": [0.5]}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "config.csv").exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["sushi", "-k", "2", "--phi-grid", "0.5,1", "--profile", "{tmp}/profile.txt"],
             {"experiment": "sushi", "k": 2, "phi_grid": [0.5, 1], "profile": "{tmp}/profile.txt"}),
            (["tension", "--gamma", "1.5", "--phi-grid", "0.3,0.9", "-k", "2"],
             {"experiment": "tension", "gamma": 1.5, "phi_grid": [0.3, 0.9], "k": 2}),
            (["beta-sweep", "--beta-grid", "0,1.5", "-k", "2"],
             {"experiment": "beta-sweep", "beta_grid": [0, 1.5], "k": 2}),
            (["bench", "--sizes", "5,6", "--solver", "bnb"],
             {"experiment": "bench", "sizes": [5, 6], "solver": "bnb"}),
        ],
    )
    def test_flags_and_config_write_the_same_csv(self, tmp_path, capsys, argv, config):
        fixture = importlib.resources.files("shortlist").joinpath("data/sushi_top33.txt")
        (tmp_path / "profile.txt").write_text(fixture.read_text(encoding="utf-8"))
        config = {key: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v for key, v in config.items()}
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert cli.main(["experiment", *argv, "--output", str(tmp_path / "cli.csv")]) == 0
        (tmp_path / "config.json").write_text(json.dumps({**config, "output": str(tmp_path / "config.csv")}))
        assert cli.main(["experiment", "--config", str(tmp_path / "config.json")]) == 0
        cli_rows = list(csv.DictReader((tmp_path / "cli.csv").read_text().splitlines()))
        config_rows = list(csv.DictReader((tmp_path / "config.csv").read_text().splitlines()))
        if config["experiment"] == "bench":
            for row in cli_rows + config_rows:
                del row["seconds"]
            assert cli_rows == config_rows and len(cli_rows) == 7
        else:
            assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()

    @pytest.mark.parametrize("center", ["1 2 3 4", "2 1 3"])
    def test_prob_pl_center_must_match_the_values(self, capsys, center):
        code = cli.main([
            "prob", "topk", "--center", center, "--pl-values", "-1 -2 -3", "--menu", "1 2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--center" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["prob", "topk", "--center", "1 2 3", "--pl-values", "1 0 -1", "--phi", "0.5",
              "--menu", "1 2"], "--phi"),
            (["prob", "topk", "--center", "1 2 3", "--phi", "0.5", "--beta", "7", "--menu", "1 2"], "--beta"),
            (["collab", "--human-center", "1 2 3", "--phi-h", "1", "--beta", "1", "--values", "top",
              "--alg-center", "1 2 3", "--noiseless", "-k", "2"], "--phi-h"),
            (["analyze", "swap", "--human-center", "1 2 3", "--phi-h", "1", "--beta", "1",
              "--values", "borda", "--alg-center", "1 2 3", "--phi-a", "1", "-k", "2", "--pair", "1 2"],
             "--phi-h"),
            (["analyze", "conditions", "--family", "mallows", "--kind", "harmful",
              "--values", "3 2 1", "--phi-h", "1", "--beta", "1", "--ranks", "1 2"], "--beta"),
            (["analyze", "conditions", "--family", "pl", "--kind", "harmful",
              "--values", "3 2 1", "--phi-h", "1", "--beta", "1", "--ranks", "2"], "--phi-h"),
        ],
    )
    def test_flag_of_the_other_model_family_is_an_error(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_prob_pl_beta_defaults_to_one(self, capsys):
        argv = ["prob", "topk", "--center", "1 2 3", "--pl-values", "1 0 -1", "--menu", "1 2"]
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--beta", "1"]) == 0
        default, explicit = capsys.readouterr().out.split()
        assert default == explicit

    @pytest.mark.parametrize("given", [[], ["--phi-h", "1.0"]])
    def test_collab_missing_accuracy_is_an_error(self, capsys, given):
        code = cli.main([
            "collab", "--human-center", "1 2 3", "--alg-center", "2 1 3",
            "--values", "top", "-k", "2", *given,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and ("--phi-a" if given else "--phi-h") in err
