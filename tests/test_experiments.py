import csv
import importlib.resources
import inspect
import io
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from conftest import declared_flags, make_ranking as R
from shortlist import MallowsModel, PlackettLuceModel, Ranking, ValueProfile, enumerate_event_prob
from shortlist.analysis import check_mallows_harmful, check_pl_harmful
from shortlist.collab import expected_utility, joint_pick_dist
from shortlist.errors import CapacityError, DomainError, ProfileParseError
from shortlist.experiments import (
    DEFAULT_PHI_GRID,
    TENSION_PHI_GRID,
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
from shortlist.models import clear_caches
from shortlist.rankings import NOISELESS, AlgorithmPolicy, HumanType, Population, borda_values, menu_policy
from shortlist.welfare import verify_uplift
from shortlist import cli, collab, experiments, models, optimize, welfare

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
        profile = load_profile(io.StringIO(text))
        assert profile.entries[0][0] == R(1, 0, 2)
        assert profile.total == 15

    def test_malformed_line_reports_number(self):
        with pytest.raises(ProfileParseError) as err:
            load_profile(io.StringIO("10 1 2 3\nxx 1 2 3\n"))
        assert err.value.line == 2

    def test_inconsistent_m(self):
        with pytest.raises(ProfileParseError):
            load_profile(io.StringIO("10 1 2 3\n5 2 1\n"))

    @pytest.mark.parametrize("text", ["10 1\n", "count,r1\n10,1\n"], ids=["text", "csv"])
    def test_a_row_of_fewer_than_three_fields_is_refused(self, text):
        with pytest.raises(ProfileParseError, match="too few fields") as err:
            load_profile(io.StringIO(text))
        assert err.value.line == text.count("\n")

    def test_bad_ranking(self):
        with pytest.raises(ProfileParseError):
            load_profile(io.StringIO("10 1 1 3\n"))

    def test_csv_without_a_header_is_refused(self):
        with pytest.raises(ProfileParseError, match="header") as err:
            load_profile(io.StringIO("10,1,2,3\n5,2,1,3\n"))
        assert err.value.line == 1

    def test_modal_ranking_adds_up_repeated_rankings(self):
        profile = load_profile(io.StringIO("5 2 1 3\n5 2 1 3\n8 1 2 3\n"))
        assert profile.modal_ranking() == R(1, 0, 2)
        tied = load_profile(io.StringIO("4 2 1 3\n4 2 1 3\n8 1 2 3\n"))
        assert tied.modal_ranking() == R(0, 1, 2)  # a tie goes to the lexicographically smallest

    def test_empty_source(self):
        with pytest.raises(ProfileParseError):
            load_profile(io.StringIO("# only a comment\n"))

    def test_csv_empty_cell_among_the_items_is_refused(self):
        with pytest.raises(ProfileParseError, match="empty cell") as err:
            load_profile(io.StringIO("count,a,b,c\n4,2,1,3\n3,1,,2\n"))
        assert err.value.line == 3
        trailing = load_profile(io.StringIO("count,a,b,c,\n4,2,1,3,\n3,1,3,2,,\n"))
        assert [r for r, _ in trailing.entries] == [R(1, 0, 2), R(0, 2, 1)]

    @pytest.mark.parametrize("source", [["10 1 2 3\n"], ("10 1 2 3",), iter(["10 1 2 3"]), None, 3])
    def test_source_is_a_path_or_a_file_object(self, tmp_path, source):
        with pytest.raises(DomainError, match="path or a file object"):
            load_profile(source)
        path = tmp_path / "p.txt"
        path.write_text("10 1 2 3\n")
        assert load_profile(path) == load_profile(str(path)) == load_profile(io.StringIO("10 1 2 3\n"))


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

    def test_parsed_once_per_process(self):
        assert sushi_profile() is sushi_profile()

    def test_population_weights(self):
        pop = sushi_profile().to_population(1.0)
        assert math.fsum(pop.weights()) == pytest.approx(1.0, abs=1e-12)
        assert pop.n == 33 and pop.m == 5


@pytest.mark.parametrize("value", ["1", True, [True]], ids=["str", "bool", "list"])
@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, (_, knobs) in experiments.EXPERIMENTS.items() for key in knobs if key != "profile"],
)
def test_every_driver_checks_each_knob_on_entry(monkeypatch, name, key, value):
    def build(*args):
        raise AssertionError("a model was built")

    for model in ("MallowsModel", "PlackettLuceModel"):
        monkeypatch.setattr(experiments, model, build)
    driver = getattr(experiments, experiments.EXPERIMENTS[name][0])
    with pytest.raises(DomainError, match=f"config key {key!r}"):
        driver(**{key: value})


def count_solo_calls(monkeypatch) -> list[float]:
    """Record the accuracy of every ``solo_utility`` call, at each module that binds it."""
    calls = []
    real = collab.solo_utility

    def counted(h):
        calls.append(h.noise.phi)
        return real(h)

    for module in (collab, experiments, optimize, welfare):
        if getattr(module, "solo_utility", None) is real:
            monkeypatch.setattr(module, "solo_utility", counted)
    return calls


@pytest.mark.parametrize(
    "experiment, grid", [(tension_experiment, TENSION_PHI_GRID), (sushi_experiment, DEFAULT_PHI_GRID)]
)
def test_one_solo_utility_per_accuracy(monkeypatch, experiment, grid):
    # every type of either population shares its accuracy and value profile
    calls = count_solo_calls(monkeypatch)
    experiment()
    assert calls == list(grid)


def sushi_reference(profile, grid, k):
    """Sushi rows from one population, table and ``solo_utilities`` per accuracy."""
    modal = tuple(sorted(profile.modal_ranking().top(k)))
    out = []
    for phi_h in map(float, grid):
        pop = profile.to_population(phi_h)
        menus, table = collab.menu_utility_table(pop, k)
        total = welfare._welfare(table, pop.weights())
        fractions = welfare._welfare(welfare.uplifted(table, collab.solo_utilities(pop)), pop.weights())
        best, most = int(np.argmax(total)), int(np.lexsort((-total, -fractions))[0])
        for name, idx in (("A_m", menus.tolist().index(list(modal))), ("A_w", best), ("A_u", most)):
            out.append({"phi_h": phi_h, "algorithm": name, "welfare": float(total[idx]),
                        "uplift_fraction": float(fractions[idx]), "menu": experiments._menu_label(menus[idx])})
    return out


def tension_reference(gamma, grid, k):
    """Tension rows from one ``tension_population`` and table per accuracy."""
    out = []
    for phi_h in map(float, grid):
        pop = tension_population(gamma, phi_h)
        table = collab.menu_utility_table(pop, k)
        free = optimize.enumerate_best_menu(pop, k, table=table)
        held = optimize.optimize_with_uplift(pop, k, table=table)
        out.append({"gamma": gamma, "phi_h": phi_h, "welfare_unconstrained": free.welfare,
                    "menu_unconstrained": experiments._menu_label(free.menu),
                    "welfare_uplift_constrained": held.welfare if held is not None else "",
                    "menu_uplift_constrained": experiments._menu_label(held.menu) if held is not None else "infeasible"})
    return out


UNSORTED_GRID = (2.0, 0.5, 0.0, 0.5, 1.3)  # unsorted, a repeated accuracy and a 0
# five fractions of these counts sum to 1 - 2**-53, so the Population renormalizes its weights
RENORMALIZING_PROFILE = "2 1 2 3 4 5\n51 2 1 3 5 4\n44 5 4 3 2 1\n22 3 1 2 4 5\n34 1 3 5 2 4\n"


class TestGridTable:
    """The studies score a whole accuracy grid in one table, with the bits of one population per accuracy."""

    @pytest.mark.parametrize("grid", [DEFAULT_PHI_GRID, UNSORTED_GRID], ids=["default", "unsorted"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sushi_rows_have_the_bits_of_one_population_per_accuracy(self, grid, k):
        profile = sushi_profile()
        assert repr(sushi_experiment(phi_grid=grid, k=k)) == repr(sushi_reference(profile, grid, k))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_sushi_keeps_the_renormalized_weights(self, k):
        profile = load_profile(io.StringIO(RENORMALIZING_PROFILE))
        weights = profile.to_population(1.0).weights()
        assert weights != profile.fractions() and math.fsum(profile.fractions()) != 1.0
        got = sushi_experiment(profile=profile, phi_grid=UNSORTED_GRID, k=k)
        assert repr(got) == repr(sushi_reference(profile, UNSORTED_GRID, k))

    @pytest.mark.parametrize("grid", [TENSION_PHI_GRID, UNSORTED_GRID], ids=["default", "unsorted"])
    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_tension_rows_have_the_bits_of_one_population_per_accuracy(self, grid, gamma, k):
        assert repr(tension_experiment(gamma, grid, k)) == repr(tension_reference(gamma, grid, k))

    @pytest.mark.parametrize("name, points, rows_per_point", [("sushi", 13, 3), ("tension", 11, 1)])
    def test_a_random_grid_csv_has_each_accuracys_one_accuracy_rows(self, tmp_path, rng, name, points, rows_per_point):
        # each accuracy's rows of one grid run, byte for byte, are the CSV rows of its own one-accuracy run
        grid = [float(x) for x in rng.uniform(0.0, 3.0, points)]
        grid[-1] = grid[0]  # and a repeated accuracy
        out = tmp_path / "grid.csv"
        assert cli.main(["experiment", name, "--phi-grid", ",".join(map(repr, grid)), "--output", str(out)]) == 0
        header, *rows = out.read_bytes().splitlines(keepends=True)
        assert len(rows) == rows_per_point * points
        for i, phi in enumerate(grid):
            one = tmp_path / f"{i}.csv"
            assert cli.main(["experiment", name, "--phi-grid", repr(phi), "--output", str(one)]) == 0
            assert one.read_bytes() == header + b"".join(rows[i * rows_per_point:(i + 1) * rows_per_point])

    @pytest.mark.parametrize("grid", [(1.0,), UNSORTED_GRID, DEFAULT_PHI_GRID], ids=["one", "unsorted", "default"])
    @pytest.mark.parametrize("driver", [sushi_experiment, tension_experiment])
    def test_one_table_per_run(self, monkeypatch, driver, grid):
        sizes = []
        real = experiments.menu_utility_table

        def counted(pop, k):
            sizes.append(pop.n)
            return real(pop, k)

        monkeypatch.setattr(experiments, "menu_utility_table", counted)
        driver(phi_grid=grid)
        assert sizes == [len(grid)]  # one type per accuracy


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_have_the_bits_of_verify_uplift(self, k):
        profile = sushi_profile()
        for row in sushi_experiment(k=k):
            pop = profile.to_population(row["phi_h"])
            menu = [int(x) - 1 for x in row["menu"].split("+")]
            report = verify_uplift(pop, menu_policy(pop.m, menu))
            got = (row["welfare"].hex(), row["uplift_fraction"].hex())
            assert got == (report.social_welfare.hex(), report.uplift_fraction.hex()), row

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            sushi_experiment(phi_grid=())
        with pytest.raises(DomainError):
            sushi_experiment(phi_grid=(0.5, float("inf")))

    @pytest.mark.parametrize(
        "knobs, key",
        [({"phi_grid": ["a"]}, "'phi_grid'"), ({"phi_grid": [True]}, "'phi_grid'"), ({"k": 2.0}, "'k'"),
         ({"profile": "x.txt"}, "PreferenceProfile")],
    )
    def test_refuses_knobs_its_config_refuses(self, knobs, key):
        with pytest.raises(DomainError, match=key):
            sushi_experiment(**knobs)

    def test_numpy_integer_k_is_an_integer(self):
        assert sushi_experiment(phi_grid=(0.5, 1.0), k=np.int64(2)) == sushi_experiment(phi_grid=(0.5, 1.0), k=2)

    def test_rejects_wrong_m(self):
        profile = load_profile(io.StringIO("3 1 2\n1 2 1\n"))
        rows = sushi_experiment(profile=profile, phi_grid=(1.0,), k=1)
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

    def test_rows_list_mallows_before_rum(self):
        rows = beta_sweep(beta_grid=(1.0, 2.0), m=3, families=("rum", "mallows"))
        assert [(r["beta"], r["family"]) for r in rows] == [
            (beta, family) for beta in (1.0, 2.0) for family in ("mallows", "rum") for _ in range(5)
        ]

    @pytest.mark.parametrize(
        "grid, families, m, k, gumbel_beta",
        [
            ((0.0, 0.5, 2.0, 6.0), ("mallows", "rum"), 4, 2, 0.1),
            ((1.5, 4.0), ("mallows",), 4, 2, 0.1),
            ((1.5, 4.0), ("rum",), 4, 2, 0.1),
            ((2.0, 0.5, 2.0), ("rum", "mallows"), 4, 2, 0.1),
            ((0.0, 0.3, 1.1, 2.9, 5.7), ("rum",), 5, 3, 0.7),
            ((0.2, 3.0), ("rum",), 3, 1, 2.5),
            ((0.0, 1.0, 30.0), ("mallows", "rum"), 5, 2, 0.3),
            ((45.0, 0.4, 2.2), ("rum",), 6, 2, 0.1),
            ((0.0, 3.3), ("mallows",), 6, 3, 0.5),
            ((5.0, 0.0, 1.7, 31.0), ("rum", "mallows"), 6, 3, 1.0),
        ],
        ids=["both", "mallows", "rum", "repeated-beta", "rum-m5-k3", "rum-m3-k1", "both-m5-k2", "rum-m6-k2", "mallows-m6-k3", "both-m6-k3"],
    )
    def test_rows_equal_one_table_per_beta_and_family(self, grid, families, m, k, gumbel_beta):
        phi = 0.5
        gt = Ranking.identity(m)
        centers = list(itertools.permutations(range(m)))
        rows = collab.center_menu_rows(centers, k)
        want = []
        for beta in grid:
            vals = ValueProfile(tuple(math.exp(-beta * j) for j in range(m)))
            for family in ("mallows", "rum"):
                if family in families:
                    if family == "mallows":
                        noise = MallowsModel(gt, phi)
                    else:
                        noise = PlackettLuceModel(vals.values, gumbel_beta)
                    h = HumanType(gt, noise, vals, 1.0)
                    u = collab.center_utilities(collab.menu_utility_table(Population.single(h), k), h.noise, rows)
                    aligned, *misaligned = u[:, 0].tolist()
                    want += [(beta, family, (x - aligned).hex()) for x in misaligned]
        got = beta_sweep(beta_grid=grid, m=m, k=k, phi=phi, gumbel_beta=gumbel_beta, families=families)
        assert [(r["beta"], r["family"], r["utility_difference"].hex()) for r in got] == want

    @pytest.mark.parametrize("m, k", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_rum_rows_have_the_bits_of_one_center_utilities_call_per_decay(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        grid = sorted(rng.uniform(0.0, 6.0, int(rng.integers(1, 8))).tolist())
        gumbel_beta = float(rng.uniform(0.05, 2.0))
        gt = Ranking.identity(m)
        rows = collab.center_menu_rows(list(itertools.permutations(range(m))), k)
        profiles = [ValueProfile(tuple(math.exp(-beta * j) for j in range(m))) for beta in grid]
        humans = tuple(HumanType(gt, PlackettLuceModel(v.values, gumbel_beta), v, 1 / len(grid)) for v in profiles)
        menus, table = collab.menu_utility_table(Population(humans), k)
        want = []
        for g, (beta, h) in enumerate(zip(grid, humans)):
            aligned, *misaligned = collab.center_utilities((menus, table[:, [g]]), h.noise, rows)[:, 0].tolist()
            want += [(beta, (u - aligned).hex()) for u in misaligned]
        got = beta_sweep(beta_grid=grid, m=m, k=k, gumbel_beta=gumbel_beta, families=["rum"])
        assert [(r["beta"], r["utility_difference"].hex()) for r in got] == want

    def test_the_rum_grid_is_one_subset_pass(self, monkeypatch):
        passes = []
        original = models._subset_pass
        monkeypatch.setattr(models, "_subset_pass", lambda pls, sets: passes.append(len(pls)) or original(pls, sets))
        beta_sweep(beta_grid=(0.0, 1.0, 2.0, 30.0), m=5, k=2, families=["rum"])
        assert passes == [4]

    @pytest.mark.parametrize("families", [(), ("foo",), ("rum", "plackett")])
    def test_refuses_families_its_config_refuses(self, families):
        with pytest.raises(DomainError, match="'families'"):
            beta_sweep(beta_grid=(1.0,), families=families)

    def test_unselected_family_builds_no_model(self, tmp_path):
        # phi = -1 would be refused by a Mallows model, which a RUM-only sweep never builds
        out = tmp_path / "sweep.csv"
        run_config({"experiment": "beta-sweep", "families": ["rum"], "phi": -1, "output": str(out)})
        with open(out, newline="") as handle:
            assert {r["family"] for r in csv.DictReader(handle)} == {"rum"}


class TestTensionExperiment:
    @pytest.mark.parametrize(
        "knobs, key", [({"gamma": "3"}, "'gamma'"), ({"phi_grid": ["0.5"]}, "'phi_grid'"), ({"k": 3.0}, "'k'")]
    )
    def test_refuses_knobs_its_config_refuses(self, knobs, key):
        with pytest.raises(DomainError, match=key):
            tension_experiment(**knobs)

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


    def test_a_menu_size_above_a_size_is_skipped_for_that_size(self):
        rows = mip_bench(sizes=(4, 6), k_list=(2, 5), type_counts=(1,))
        assert [(r["m"], r["k"]) for r in rows if r["family"] == "two-type"] == [(4, 2), (6, 2), (6, 5)]

    def test_only_the_seconds_column_varies(self, tmp_path, capsys):
        runs = []
        for name in ("a.csv", "b.csv"):
            assert cli.main(["experiment", "bench", "--sizes", "8", "--output", str(tmp_path / name)]) == 0
            with open(tmp_path / name, newline="") as handle:
                runs.append([{c: v for c, v in row.items() if c != "seconds"} for row in csv.DictReader(handle)])
        assert runs[0] == runs[1] and len(runs[0]) == 5

    @pytest.mark.parametrize(
        "knob, value", [("solver", "glpk"), ("sizes", ()), ("k_list", ()), ("type_counts", ())]
    )
    def test_refuses_knobs_its_config_refuses(self, knob, value):
        knobs = {"sizes": (5,), "k_list": (2,), "type_counts": (1,), knob: value}
        with pytest.raises(DomainError, match=repr(knob)):
            mip_bench(**knobs)

    def test_sizes_are_checked_before_any_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("a menu was searched")

        monkeypatch.setattr(experiments, "branch_and_bound_menu", search)
        with pytest.raises(DomainError, match="'sizes'"):
            mip_bench(sizes=(8, 3), k_list=(2,), type_counts=(1,))

    def test_menu_sizes_are_checked_before_any_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("a menu was searched")

        monkeypatch.setattr(experiments, "branch_and_bound_menu", search)
        with pytest.raises(DomainError, match="'k_list'"):
            mip_bench(sizes=(8, 10), k_list=(2, 0), type_counts=(1,))

    def test_type_counts_above_the_largest_size_are_refused_before_any_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("a menu was searched")

        monkeypatch.setattr(experiments, "branch_and_bound_menu", search)
        with pytest.raises(DomainError, match="'type_counts'.*'sizes'"):
            mip_bench(sizes=(4,), k_list=(2,), type_counts=(5,))

    def test_solver_error_row(self, monkeypatch):
        def fail(mip):
            raise RuntimeError("solver failed: infeasible")

        monkeypatch.setattr(experiments, "solve_mip", fail)
        rows = mip_bench(sizes=(5,), k_list=(2,), type_counts=(1,), solver="mip")
        assert rows
        for row in rows:
            assert row["status"] == "solver-error: solver failed: infeasible"
            assert math.isnan(row["welfare"])
            assert "welfare_gap_vs_enumeration" not in row


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

    def test_bench_csv_keeps_a_column_row_0_lacks(self, tmp_path):
        # m = 30 is past the enumeration check, m = 8 is not (C(8, 4) = 70)
        out = tmp_path / "bench.csv"
        run_config({"experiment": "bench", "output": str(out), "sizes": [30, 8], "k_list": [4], "type_counts": [1]})
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["m"] for r in rows] == ["30", "8", "30"]
        assert [r["welfare_gap_vs_enumeration"] != "" for r in rows] == [False, True, False]
        assert float(rows[1]["welfare_gap_vs_enumeration"]) <= 1e-9

    def test_csv_bytes_of_missing_none_and_float_cells(self):
        buf = io.StringIO()
        emit_csv([{"x": 1.0, "y": None, "z": "a,b"}, {"z": 1 / 3}, {"y": 1e-17, "x": -2.5e300}], buf)
        assert buf.getvalue() == 'x,y,z\n1.0,,"a,b"\n,,0.3333333333333333\n-2.5e+300,1e-17,\n'

    def test_no_rows_are_refused_and_no_file_is_written(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(DomainError, match="no rows to write"):
            emit_csv([], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "rows, got",
        [([1], "dicts, got a row of int"), ([{"a": 1}, ("a", 1)], "dicts, got a row of tuple"),
         (iter([{"a": 1}]), "a list of dicts, got list_iterator"), ({"a": 1}, "a list of dicts, got dict")],
        ids=["int-row", "tuple-row", "iterator", "dict"],
    )
    def test_rows_that_are_not_a_list_of_dicts_are_refused_and_no_file_is_written(self, tmp_path, rows, got):
        path = tmp_path / "rows.csv"
        with pytest.raises(DomainError, match=f"CSV rows must be {got}$"):
            emit_csv(rows, path)
        assert not path.exists()

    def test_csv_columns_are_the_union_in_first_seen_order(self):
        buf = io.StringIO()
        odd = {"a": 0.1 + 0.2, "b": -0.0, "c": math.inf, "d": math.nan, "e": 5e-324, "f": True}
        emit_csv([{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}, {"b": 0.5, "d": 4}, odd], buf)
        assert buf.getvalue() == (
            "a,b,c,d,e,f\n1,2.5,,,,\n3,,x,,,\n,0.5,,4,,\n0.30000000000000004,-0.0,inf,nan,5e-324,True\n"
        )

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

    def test_every_experiment_names_a_driver_that_takes_its_knobs(self):
        for driver, knobs in experiments.EXPERIMENTS.values():
            assert set(knobs) <= set(inspect.signature(getattr(experiments, driver)).parameters)

    def test_unknown_experiment_lists_names(self, tmp_path):
        with pytest.raises(DomainError) as err:
            run_config({"experiment": "nope", "output": str(tmp_path / "x.csv")})
        message = str(err.value)
        for name in ("sushi", "beta-sweep", "tension", "bench"):
            assert name in message


# a valid run of each prob query, swap condition and experiment; each declares only the flags it reads
ONE_QUESTION = {
    "prob perm": ["--center", "1 2 3", "--phi", "0.5", "--ranking", "2 1 3"],
    "prob pairwise": ["--center", "1 2 3", "--phi", "0.5", "--pair", "1 3"],
    "prob topk": ["--pl-values", "1 0.5 0", "--menu", "1 2"],
    "prob choice": ["--center", "1 2 3", "--phi", "0.5", "--menu", "1 2", "--target", "1"],
    "analyze harmful": ["--values", "3 2 1", "--phi-h", "1", "--ranks", "1 2"],
    "analyze helpful": ["--values", "100 2 1 1", "--human-center", "1 2 3 4", "--phi-h", "1",
                        "--alg-center", "1 2 3 4", "--phi-a", "1", "--ranks", "2 3"],
    "experiment sushi": ["--profile", "{tmp}/profile.txt", "-k", "2", "--phi-grid", "0.5", "--output", "{tmp}/out.csv"],
    "experiment tension": ["--gamma", "1", "-k", "2", "--phi-grid", "0.5", "--output", "{tmp}/out.csv"],
    "experiment beta-sweep": ["-k", "2", "--beta-grid", "0.5", "--output", "{tmp}/out.csv"],
    "experiment bench": ["--sizes", "4", "--solver", "bnb", "--output", "{tmp}/out.csv"],
}
DECLARED = declared_flags()
FOREIGN_FLAGS = [
    (command, flag)
    for command in ONE_QUESTION
    for flag in sorted(set().union(*(DECLARED[other] for other in ONE_QUESTION)) - DECLARED[command])
]


class TestCli:
    @pytest.mark.parametrize("command, flag", FOREIGN_FLAGS, ids=[f"{c}-{f}" for c, f in FOREIGN_FLAGS])
    def test_a_flag_another_question_reads_is_refused(self, tmp_path, capsys, command, flag):
        (tmp_path / "profile.txt").write_text("2 1 2 3\n1 2 1 3\n")
        argv = [*command.split(), *(a.replace("{tmp}", str(tmp_path)) for a in ONE_QUESTION[command])]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main([*argv, flag, "1"]) == 2
        assert capsys.readouterr() == ("", f"error: unrecognized arguments: {flag} 1\n")

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["prob", "perm", "--center", "1 2 3", "--phi", "0.5", "--ranking", "2 1 3", "--menu", "9 9",
              "--item", "40"], "--menu 9 9 --item 40"),
            (["prob", "choice", "--center", "1 2 3", "--phi", "0.5", "--menu", "1 2", "--target", "1",
              "--item", "1"], "--item 1"),
            (["analyze", "harmful", "--values", "3 2 1", "--phi-h", "1", "--ranks", "1 2", "--alg-center", "1 2 3"],
             "--alg-center 1 2 3"),
            # a prefix of a declared flag (--phi-h) is not read as that flag
            (["analyze", "harmful", "--values", "3 2 1", "--phi", "1", "--ranks", "1 2"], "--phi 1"),
        ],
        ids=["perm-menu-item", "choice-item", "harmful-alg-center", "harmful-prefix"],
    )
    def test_a_flag_the_question_does_not_read_is_refused(self, capsys, argv, refused):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: unrecognized arguments: {refused}\n")

    @pytest.mark.parametrize(
        "model_flags, want",
        [
            (["--center", "2 1 3", "--phi", "0.7", "--menu", "2"], "0.5736634765683373"),
            (["--pl-values", "1,0.5,0", "--beta", "0.3", "--menu", "3"], "0.029132338500945727"),
        ],
        ids=["mallows", "pl"],
    )
    def test_prob_topk_of_one_item_prints_the_first_item_probability(self, capsys, model_flags, want):
        # golden strings of the first-item query, which a one-item topk menu answers bit for bit
        assert cli.main(["prob", "topk", *model_flags]) == 0
        assert capsys.readouterr() == (f"{want}\n", "")

    def test_prob_perm(self, capsys):
        assert cli.main([
            "prob", "perm", "--center", "1 2 3", "--phi", "0.6931471805599453",
            "--ranking", "1 2 3",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(8 / 21, abs=1e-12)

    def test_prob_choice_pl(self, capsys):
        assert cli.main([
            "prob", "choice", "--pl-values", "1 0 -1",
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

    def test_experiment_sushi_other_profile(self, tmp_path, capsys):
        profile = tmp_path / "three.txt"
        profile.write_text("3 1 2 3\n2 2 1 3\n1 3 2 1\n")
        out = tmp_path / "sushi.csv"
        code = cli.main([
            "experiment", "sushi", "--profile", str(profile), "-k", "1",
            "--phi-grid", "0.5,1.0", "--output", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["phi_h"], r["algorithm"]) for r in rows] == [
            (phi, name) for phi in ("0.5", "1.0") for name in ("A_m", "A_w", "A_u")
        ]
        assert {r["menu"] for r in rows} <= {"1", "2", "3"}

    def test_sushi_majority_menu_adds_up_repeated_rankings(self, tmp_path, capsys):
        profile = tmp_path / "dup.txt"
        profile.write_text("5 2 1 3\n5 2 1 3\n8 1 2 3\n")
        out = tmp_path / "sushi.csv"
        argv = ["experiment", "sushi", "--profile", str(profile), "-k", "1", "--phi-grid", "1", "--output", str(out)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        with open(out, newline="") as handle:
            rows = {r["algorithm"]: r for r in csv.DictReader(handle)}
        assert rows["A_m"]["menu"] == "2" and rows["A_m"]["welfare"] == rows["A_w"]["welfare"]

    def test_csv_profile_without_a_header_is_an_error(self, tmp_path, capsys):
        profile = tmp_path / "p.csv"
        profile.write_text("10,1,2,3\n5,2,1,3\n")
        assert cli.main(["optimize", "--profile", str(profile), "--phi-h", "1", "-k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: line 1:") and "header" in captured.err

    @pytest.mark.parametrize("center", [" ".join(map(str, p)) for p in itertools.permutations((1, 2, 3))])
    def test_plackett_luce_human_answers_at_every_center(self, capsys, center):
        # --values top ties the two items after the favourite, so a center that
        # lists them in either order is the same human; each command answers
        first, *tied = center.split()
        policy = ["--alg-center", "1 2 3", "--phi-a", "1", "-k", "2"]
        outputs = []
        for human_center in (center, " ".join([first, *sorted(tied)])):
            flags = ["--human-center", human_center, "--beta", "1", "--values", "top"]
            for argv in (
                ["collab", *flags, *policy],
                ["analyze", "swap", *flags, *policy, "--pair", "1 2"],
                ["analyze", "order", *flags, "--phi-a", "1", "-k", "2", "--candidates", "1 2 3;2 1 3"],
                ["analyze", "helpful", *flags, "--alg-center", human_center,
                 "--phi-a", "1", "--ranks", "2 3"],
            ):
                assert cli.main(argv) == 0, capsys.readouterr().err
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[4:6]  # collab and swap; order and helpful name the items

    @pytest.mark.parametrize("ranks, want", [
        ("2 3", "--ranks: item 3 must be ahead of item 2 in --alg-center"),
        ("3 2", "--ranks needs 1 <= i < j <= 3, got (3, 2)"),
        ("2 2", "--ranks needs 1 <= i < j <= 3, got (2, 2)"),
    ])
    def test_helpful_condition_names_its_ranks_by_label(self, capsys, ranks, want):
        argv = ["analyze", "helpful", "--values", "3 2 1", "--human-center", "1 3 2",
                "--phi-h", "1", "--alg-center", "1 2 3", "--phi-a", "1", "--ranks", ranks]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {want}\n"

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
            "--phi-a", "inf", "-k", "3",
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

    def test_sushi_row_prints_the_welfare_commands_uplift_fraction(self, tmp_path, capsys):
        path = tmp_path / "sushi.csv"
        assert cli.main(["experiment", "sushi", "-k", "4", "--phi-grid", "1", "--output", str(path)]) == 0
        with open(path, newline="") as handle:
            cells = {row["menu"]: row["uplift_fraction"] for row in csv.DictReader(handle)}
        capsys.readouterr()
        assert cli.main([
            "welfare", "--phi-h", "1", "--alg-center", "1 2 4 5 3", "--phi-a", "inf", "-k", "4",
        ]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert f"uplift fraction (weighted): {cells['1+2+4+5']}" in printed

    def test_analyze_order_refuses_an_empty_candidate_list(self, capsys):
        code = cli.main([
            "analyze", "order", "--human-center", "1 2 3", "--phi-h", "1", "--values", "borda",
            "--phi-a", "1", "-k", "2", "--candidates", ";",
        ])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2 and captured.out == ""
        assert len(err) == 1 and err[0].startswith("error:")

    def test_analyze_order_says_when_no_edge_is_certified(self, capsys):
        # two candidates a three-cycle apart: neither single-swap argument applies
        code = cli.main([
            "analyze", "order", "--human-center", "1 2 3", "--phi-h", "1.0", "--values", "borda",
            "--phi-a", "1.0", "-k", "2", "--candidates", "1 2 3; 2 3 1",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and out[-1] == "no certified edges" and len(out) == 3

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

    def test_prob_topk_over_the_plackett_luce_cap_is_an_error(self, capsys):
        labels = [str(x) for x in range(1, 31)]
        code = cli.main(["prob", "topk", "--pl-values", " ".join(labels), "--menu", " ".join(labels[:16])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("pair, want", [("2 1", 0.0), ("1 2", 1.0)], ids=["gap-1000", "gap+1000"])
    def test_prob_pairwise_pl_value_gap_past_the_exp_range(self, capsys, pair, want):
        code = cli.main([
            "prob", "pairwise", "--pl-values", "1000 0", "--beta", "1", "--pair", pair,
        ])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(want, abs=1e-300)

    def test_analyze_conditions(self, capsys):
        code = cli.main([
            "analyze", "helpful",
            "--values", "100 2 1 1", "--human-center", "1 2 3 4", "--phi-h", "1.0",
            "--alg-center", "1 2 3 4", "--phi-a", "1.0", "--ranks", "2 3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds: True" in out and "lhs: 50.0" in out

    def test_analyze_conditions_pl_value_gap_past_the_exp_range(self, capsys):
        code = cli.main([
            "analyze", "helpful",
            "--values", "1000 2 1 0.5", "--beta", "1", "--ranks", "2 3",
            "--human-center", "1 2 3 4", "--alg-center", "1 2 3 4", "--phi-a", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds: False" in out and "nan" not in out.lower()

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
            (["prob", "topk", "--center", "1 x 3", "--phi", "1", "--menu", "1"], "--center"),
            (["collab", "--human-center", "1 2 3", "--phi-h", "1", "--values", "1 a 0",
              "--alg-center", "1 2 3", "--phi-a", "inf", "-k", "2"], "--values"),
            (["experiment", "sushi", "--phi-grid", "0.5,,1", "--output", "out.csv"], "--phi-grid"),
            (["analyze", "harmful", "--values", "3 2 1", "--phi-h", "1", "--ranks", "1 x"], "--ranks"),
            (["experiment", "bench", "--sizes", "4,x", "--output", "out.csv"], "--sizes"),
            (["prob", "pairwise", "--center", "1 2 3", "--phi", "1", "--pair", "1"], "--pair"),
            (["analyze", "harmful", "--values", "3 2 1", "--phi-h", "1", "--ranks", "1"], "--ranks"),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["prob", "topk", "--pl-values", "1e308,0", "--beta", "0.5", "--menu", "2"],
            ["collab", "--human-center", "1,2,3", "--beta", "5e-324", "--values", "1,0.5,0",
             "--alg-center", "1,2,3", "--phi-a", "1", "-k", "2"],
        ],
    )
    def test_plackett_luce_scale_that_overflows_is_an_error(self, capsys, argv):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "beta" in err

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
            ["experiment", "--config", "{tmp}/config.json", "sushi", "--output", "{tmp}/out.csv"],
            ["experiment", "bogus", "--output", "{tmp}/out.csv"],
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
              "--alg-center", "1 2 3", "--phi-a", "inf", "-k", "2"], "--phi-h"),
            (["analyze", "swap", "--human-center", "1 2 3", "--phi-h", "1", "--beta", "1",
              "--values", "borda", "--alg-center", "1 2 3", "--phi-a", "1", "-k", "2", "--pair", "1 2"],
             "--phi-h"),
            (["analyze", "harmful", "--values", "3 2 1", "--phi-h", "1", "--beta", "1", "--ranks", "1 2"], "--beta"),
            (["analyze", "harmful", "--values", "3 2 1", "--phi-h", "1", "--beta", "1", "--ranks", "2"], "--phi-h"),
        ],
    )
    def test_flag_of_the_other_model_family_is_an_error(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_prob_pl_takes_no_center(self, capsys):
        # "1 2 3" is the value order of the values, so even a matching center is refused
        code = cli.main(["prob", "topk", "--center", "1 2 3", "--pl-values", "-1 -2 -3", "--menu", "1 2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and "--center" in captured.err

    @pytest.mark.parametrize("kind", ["harmful", "helpful"])
    @pytest.mark.parametrize("family_flags", [[], ["--phi-h", "1", "--beta", "1"]], ids=["neither", "both"])
    def test_conditions_take_one_of_phi_h_and_beta(self, capsys, kind, family_flags):
        curator = ["--human-center", "1 2 3 4", "--alg-center", "1 2 3 4", "--phi-a", "1"] if kind == "helpful" else []
        code = cli.main(["analyze", kind, "--values", "4 3 2 1", "--ranks", "2 3", *curator, *family_flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "--phi-h" in captured.err and "--beta" in captured.err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["prob", "topk", "--center", "1 2 3", "--phi", "1", "--menu", "4"], "--menu: item 4 outside 1..3"),
            (["prob", "topk", "--center", "1 2 3", "--phi", "1", "--menu", "1 4"], "--menu: item 4 outside 1..3"),
            (["prob", "choice", "--center", "1 2 3", "--phi", "1", "--menu", "1 2", "--target", "3"],
             "--target: item 3 is not in --menu 1 2"),
            (["collab", "--human-center", "1 2 3", "--phi-h", "1", "--values", "top",
              "--alg-center", "0 1 2", "--phi-a", "1", "-k", "2"], "--alg-center: item 0 outside 1..3"),
            (["analyze", "swap", "--human-center", "1 2 3", "--phi-h", "1", "--values", "top",
              "--alg-center", "1 2 3", "--phi-a", "1", "-k", "2", "--pair", "3 1"],
             "--pair: item 3 must be ahead of item 1 in --alg-center"),
            (["analyze", "helpful", "--values", "100 2 1", "--human-center", "1 2 3",
              "--phi-h", "1.0", "--alg-center", "1 2 3 4", "--phi-a", "1.0", "--ranks", "2 3"],
             "--alg-center has 4 items, --human-center has 3"),
            (["analyze", "helpful", "--values", "100 2 1 1", "--human-center", "1 2 3 4",
              "--phi-h", "1.0", "--alg-center", "1 2 3", "--phi-a", "1.0", "--ranks", "2 4"],
             "--alg-center has 3 items, --human-center has 4"),
        ],
        ids=["prob-item", "prob-menu", "prob-target", "collab-alg-center", "swap-pair",
             "helpful-larger-curator", "helpful-larger-human"],
    )
    def test_bad_item_label_is_named_as_given(self, capsys, argv, want):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {want}\n")

    @pytest.mark.parametrize("gamma", ["-1", "nan", "inf", "260"])
    def test_tension_bad_gamma_is_named(self, tmp_path, capsys, gamma):
        out_path = tmp_path / "out.csv"
        assert cli.main(["experiment", "tension", "--gamma", gamma, "--output", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma") and captured.err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("counts, want", [
        (("3", "nan"), "line 2: count"), (("inf", "2"), "line 1: count"), (("1e308", "1e308"), "counts"),
    ])
    @pytest.mark.parametrize("command", [
        ["experiment", "sushi", "--output", "{tmp}/out.csv"],
        ["optimize", "--phi-h", "1", "-k", "1"],
        ["welfare", "--phi-h", "1", "--alg-center", "1 2 3", "--phi-a", "1", "-k", "1"],
    ])
    def test_profile_count_that_is_not_finite_is_an_error(self, tmp_path, capsys, counts, want, command):
        profile = tmp_path / "profile.txt"
        profile.write_text(f"{counts[0]} 1 2 3\n{counts[1]} 2 1 3\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in command] + ["--profile", str(profile)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and want in captured.err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--phi-h", "nan", "--ranks", "1 3"], ["--phi-h", "inf", "--ranks", "1 3"],
        ["--phi-h", "-1", "--ranks", "1 3"], ["--beta", "nan", "--ranks", "3"], ["--beta", "inf", "--ranks", "3"],
    ])
    def test_harmful_condition_refuses_an_invalid_accuracy(self, capsys, flags):
        argv = ["analyze", "harmful", "--values", "1 0.5 0", *flags]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and flags[0].lstrip("-").replace("-", "_") in captured.err

    @pytest.mark.parametrize("argv, want", [
        (["experiment", "beta-sweep", "--beta-grid", "0,-0.5", "--output", "{tmp}/out.csv"], "value-decay grid"),
        (["experiment", "--config", "{tmp}/bench.json"], "type_counts"),
    ])
    def test_driver_error_names_the_bad_input(self, tmp_path, capsys, argv, want):
        config = {"experiment": "bench", "type_counts": [0], "sizes": [4], "output": str(tmp_path / "out.csv")}
        (tmp_path / "bench.json").write_text(json.dumps(config))
        assert cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and want in captured.err and captured.err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_sushi_at_extreme_accuracy_warns_nothing(self, tmp_path, capsys):
        clear_caches()  # a grid's rows are built, and could warn, once per (m, phis)
        paths = {grid: tmp_path / f"{grid}.csv" for grid in ("1e308", "1e300")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid, path in paths.items():
                assert cli.main(["experiment", "sushi", "--phi-grid", grid, "--output", str(path)]) == 0
        assert capsys.readouterr().err == ""
        huge, large = ([row[1:] for row in csv.reader(path.read_text().splitlines())] for path in paths.values())
        assert huge == large  # both accuracies give the noiseless pick

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_calls_share_no_state(self, tmp_path, capsys):
        flags = ["--phi-grid", "0.3,0.9", "--output"]
        assert cli.main(["experiment", "tension", "--gamma", "2", *flags, str(tmp_path / "gamma2.csv")]) == 0
        assert cli.main(["experiment", "tension", *flags, str(tmp_path / "second.csv")]) == 0
        run_config({"experiment": "tension", "phi_grid": [0.3, 0.9], "output": str(tmp_path / "fresh.csv")})
        second = (tmp_path / "second.csv").read_bytes()
        assert second == (tmp_path / "fresh.csv").read_bytes() != (tmp_path / "gamma2.csv").read_bytes()

    def test_prob_pl_beta_defaults_to_one(self, capsys):
        argv = ["prob", "topk", "--pl-values", "1 0 -1", "--menu", "1 2"]
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--beta", "1"]) == 0
        default, explicit = capsys.readouterr().out.split()
        assert default == explicit

    @pytest.mark.parametrize("given", [["--phi-a", "1.0"], ["--phi-h", "1.0"]])
    def test_collab_missing_accuracy_is_an_error(self, capsys, given):
        code = cli.main([
            "collab", "--human-center", "1 2 3", "--alg-center", "2 1 3",
            "--values", "top", "-k", "2", *given,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and ("--phi-h" if given[0] == "--phi-a" else "--phi-a") in err

    @pytest.mark.parametrize(
        "argv, center",
        [
            (["collab", "--human-center", "1 2 3", "--phi-h", "0.7", "--values", "top"], R(0, 1, 2)),
            (["welfare", "--phi-h", "1.0"], R(1, 3, 4, 0, 2)),
            (["analyze", "swap", "--human-center", "1 2 3", "--phi-h", "0.7", "--values", "top",
              "--pair", "2 3"], R(0, 1, 2)),
        ],
        ids=["collab", "welfare", "analyze-swap"],
    )
    def test_phi_a_inf_builds_the_noiseless_policy(self, monkeypatch, capsys, argv, center):
        built = []
        policy_from_args = cli._policy_from_args

        def recorded(args):
            built.append(policy_from_args(args))
            return built[-1]

        monkeypatch.setattr(cli, "_policy_from_args", recorded)
        labels = " ".join(str(x + 1) for x in center.order)
        assert cli.main([*argv, "--alg-center", labels, "--phi-a", "inf", "-k", "2"]) == 0, capsys.readouterr().err
        assert built == [AlgorithmPolicy(center, NOISELESS, 2)] and built[0].is_noiseless

    @pytest.mark.parametrize(
        "argv",
        [
            ["collab", "--human-center", "1 2 3 4", "--phi-h", "0.7", "--values", "borda",
             "--alg-center", "2 1 3 4", "-k", "2"],
            ["welfare", "--phi-h", "1.0", "--alg-center", "2 4 5 1 3", "-k", "3"],
        ],
        ids=["collab", "welfare"],
    )
    def test_infinite_phi_a_is_noiseless(self, capsys, argv):
        assert cli.main([*argv, "--phi-a", "inf"]) == 0
        out = capsys.readouterr().out.splitlines()
        if argv[0] == "collab":
            human = HumanType(R(0, 1, 2, 3), MallowsModel(R(0, 1, 2, 3), 0.7), borda_values(4), 1.0)
            joint = joint_pick_dist(human, AlgorithmPolicy(R(1, 0, 2, 3), NOISELESS, 2))
            assert out[1] == f"joint pick dist: {cli._fmt_dist(joint)}"
            assert out[3] == f"joint utility: {expected_utility(joint, human)!r}"
        else:
            policy = AlgorithmPolicy(R(1, 3, 4, 0, 2), NOISELESS, 3)
            report = verify_uplift(sushi_profile().to_population(1.0), policy)
            assert out[0] == f"social welfare: {report.social_welfare!r}"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["prob", "choice", "--center", "1 2 3", "--phi", "0.7", "--menu", "1 1 2", "--target", "1"], "--menu"),
            (["prob", "topk", "--center", "1 2 3", "--phi", "0.7", "--menu", "1 1"], "--menu"),
            (["prob", "pairwise", "--center", "1 2 3", "--phi", "0.7", "--pair", "2 2"], "--pair"),
            (["prob", "topk", "--center", "1 1 2", "--phi", "0.7", "--menu", "1"], "--center"),
            (["collab", "--human-center", "1 2 3", "--phi-h", "0.7", "--values", "top",
              "--alg-center", "2 2 3", "--phi-a", "inf", "-k", "2"], "--alg-center"),
        ],
    )
    def test_repeated_item_label_is_an_error(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and flag in captured.err and "repeated" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["collab", "--human-center", "1 2 3", "--phi-h", "0.7", "--values", "3 2 1 0",
              "--alg-center", "1 2 3", "--phi-a", "inf", "-k", "2"], "--values"),
            (["prob", "perm", "--center", "1 2 3", "--ranking", "2 1 3"], "--phi"),
            (["analyze", "helpful", "--values", "4 3 2 1",
              "--human-center", "1 2 3 4", "--phi-h", "1", "--alg-center", "1 2 3 4", "--phi-a", "1",
              "--ranks", "2 5"], "--ranks"),
        ],
        ids=["values-count", "prob-without-phi", "helpful-ranks-range"],
    )
    def test_inconsistent_input_is_one_error_line(self, capsys, argv, flag):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and flag in captured.err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["prob", "perm", "--center", "1 2 3", "--phi", "1"], "the following arguments are required: --ranking"),
            (["collab", "--human-center", "1 2 3", "--values", "top", "--alg-center", "1 2 3", "--phi-a", "inf",
              "-k", "2"], "--phi-h or --beta is required for 'collab'"),
            (["analyze", "swap", "--human-center", "1 2 3", "--phi-h", "1", "--values", "top",
              "--alg-center", "1 2 3", "-k", "2", "--pair", "1 2"], "the following arguments are required: --phi-a"),
            (["analyze", "harmful", "--values", "3 2 1", "--ranks", "2"],
             "--phi-h or --beta is required for 'analyze harmful'"),
        ],
        ids=["prob", "collab", "analyze-swap", "analyze-conditions"],
    )
    def test_missing_flag_names_the_command(self, capsys, argv, want):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["optimize", "--phi-h", "1", "-k", "x"], "argument -k: invalid int value: 'x'"),
            (["optimize", "--phi-h", "1"], "the following arguments are required: -k"),
            (["optimize", "--phi-h", "1", "-k", "2", "--phi-a", "1"], "unrecognized arguments: --phi-a 1"),
            (["prob", "median", "--center", "1 2"], "argument query: invalid choice: 'median'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-type", "missing-required", "unknown-flag", "bad-choice", "no-command"],
    )
    def test_argparse_refusal_is_one_error_line(self, capsys, argv, want):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {want}") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--human-center", "9 9"], "--human-center"),
            (["--alg-center", "1 2 3 4"], "--alg-center"),
            (["--phi-a", "5"], "--phi-a"),
            (["--alg-center", "1 2 3 4", "--phi-a", "5", "--human-center", "9 9"], "--human-center"),
        ],
        ids=["human-center", "alg-center", "phi-a", "all-three"],
    )
    @pytest.mark.parametrize("family", [["--phi-h", "1"], ["--beta", "1"]], ids=["mallows", "pl"])
    def test_harmful_conditions_refuse_a_helpful_only_flag(self, capsys, family, flags, flag):
        ranks = "1 2" if family[0] == "--phi-h" else "2"
        argv = ["analyze", "harmful", "--values", "3 2 1", *family, "--ranks", ranks]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main([*argv, *flags]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: unrecognized arguments: {' '.join(flags)}\n") and flag in err

    def test_conditions_pl_helpful_without_beta_names_beta(self, capsys):
        code = cli.main([
            "analyze", "helpful",
            "--values", "4 3 2 1", "--ranks", "2 3", "--human-center", "1 2 3 4",
            "--alg-center", "1 2 3 4", "--phi-a", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "--beta" in err

    @pytest.mark.parametrize(
        "flags, ranks, verdict",
        [
            (["--phi-h", "1"], "2 3", lambda v: check_mallows_harmful(v, 1.0, 2, 3)),
            (["--beta", "1"], "3", lambda v: check_pl_harmful(v, 1.0, 3)),
        ],
        ids=["mallows", "pl"],
    )
    def test_conditions_harmful_reads_the_explicit_values(self, capsys, flags, ranks, verdict):
        base = ["analyze", "harmful", *flags, "--ranks", ranks]
        assert cli.main([*base, "--values", "1 0.9 0.5 0"]) == 0
        want = verdict(ValueProfile((1.0, 0.9, 0.5, 0.0)))
        assert want.holds
        assert capsys.readouterr().out.splitlines() == [
            "holds: True", "applicable: True", f"lhs: {want.lhs!r}", f"rhs: {want.rhs!r}",
        ]
        # the list is read as given, so a named profile is not a value list
        assert cli.main([*base, "--values", "borda"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--values" in err

    @pytest.mark.parametrize(
        "model_flags, model",
        [
            (["--center", "2 1 3", "--phi", "0.7"], MallowsModel(Ranking((1, 0, 2)), 0.7)),
            (["--pl-values", "0.5 1 -1", "--beta", "2"], PlackettLuceModel((0.5, 1.0, -1.0), 2.0)),
        ],
        ids=["mallows", "pl"],
    )
    def test_prob_first(self, capsys, model_flags, model):
        # a one-item topk menu is the first-item event, with its closed forms:
        # e^{-phi pos} / row_z(m) and a softmax of value / beta
        if isinstance(model, MallowsModel):
            weights = [math.exp(-0.7 * model.center.position(x)) for x in range(3)]
        else:
            weights = [math.exp(v / 2.0) for v in model.item_values]
        for item in range(3):
            assert cli.main(["prob", "topk", *model_flags, "--menu", str(item + 1)]) == 0
            got = float(capsys.readouterr().out.strip())
            assert got == model.topk_set_prob({item})
            assert got == pytest.approx(weights[item] / math.fsum(weights), rel=1e-14)
            assert got == pytest.approx(enumerate_event_prob(model, lambda r: r.order[0] == item), abs=1e-12)

    @pytest.mark.parametrize(
        "phi, pair, want",
        [("1e308", "1 3", 1.0), ("1e308", "3 1", 0.0), ("0.6931471805599453", "3 1", 5 / 21)],
        ids=["huge-phi", "huge-phi-reversed", "reversed"],
    )
    def test_prob_pairwise_answers_either_order(self, capsys, phi, pair, want):
        assert cli.main(["prob", "pairwise", "--center", "1 2 3", "--phi", phi, "--pair", pair]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(want, abs=1e-12)

    def test_optimize_uplift_on_sushi_is_infeasible(self, capsys):
        assert cli.main(["optimize", "--phi-h", "1.0", "-k", "3", "--uplift"]) == 1
        assert capsys.readouterr().out == "infeasible: no menu achieves uplift\n"

    def test_optimize_falls_back_to_branch_and_bound_above_the_cap(self, tmp_path, capsys):
        assert cli.main(["optimize", "--phi-h", "1.0", "-k", "3"]) == 0
        assert "method: enumeration (10 evaluations)" in capsys.readouterr().out
        # C(45, 5) = 1,221,759 menus is over the enumeration cap
        rng = np.random.default_rng(0)
        profile = tmp_path / "wide.txt"
        profile.write_text("".join(
            f"{count} " + " ".join(str(x + 1) for x in rng.permutation(45)) + "\n" for count in (3, 2, 1)
        ))
        code = cli.main(["optimize", "--profile", str(profile), "--phi-h", "0.8", "--values", "top", "-k", "5"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.splitlines()
        assert len(lines[0].split()) == 6  # "menu:" and five items
        assert re.fullmatch(r"method: branch-and-bound \(\d+ evaluations, \d+ nodes\)", lines[2]), lines[2]
