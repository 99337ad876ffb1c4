"""Each item rule has one check: a repeated item, a mismatched item universe, a curator's orientation.

- ``models._check_items`` refuses a repeated item (DomainError) wherever
  items enter a query, a menu or a MIP.
- ``rankings.check_universe`` refuses objects over different item universes
  (DimensionError) before any menu table or law is built.
- ``analysis.psi`` holds every curator to one orientation rule: a center
  for Mallows and Plackett-Luce, every support ranking for an explicit model.
- ``rankings.check_ranking_model`` refuses a human's noise or a curator that
  is not a ranking model (DomainError) at every entry that takes one.
- ``rankings.check_policy`` refuses a curator that is not a policy
  (DomainError) at every entry that takes one.
- ``rankings.check_accuracy`` is the one accuracy rule, with one message.
- ``models._integer_rows`` is the one integer pass for menus, centers and
  table rows: a bool or a ragged row in a list is a DomainError.
- ``collab.center_menu_rows`` refuses centers that are not a 2-d integer
  array of permutations (DomainError), and ``collab.joint_pick_from_menus``
  a law that is not a dict or a menu probability that is not a number.
- ``rankings.check_noise_scale`` is the one noise-scale rule, and the
  ``phi_grid`` knobs read ``rankings.is_accuracy``, the accuracy rule's test.
- ``rankings.open_text`` is the one path-or-stream rule: an integer file
  descriptor or None is refused, not written to and closed.
- ``rankings.check_universe`` also refuses an object with no item count, and
  ``as_tuple``, ``item_range`` and ``check_population`` refuse a
  non-iterable, a count that is not an integer and a lone type (DomainError).
- ``rankings.is_number`` refuses a finite real past float range, so a huge
  integer is refused in each site's own words, by a library call and by a
  config alike; a ``Population`` refuses a type that is not a ``HumanType``.
- ``rankings.check_human`` and ``rankings.check_value_profile`` refuse
  anything but a ``HumanType`` or a ``ValueProfile`` where one belongs, and
  ``item_range`` names its limit for a count past ``sys.maxsize``. A
  signature walk gives every public function's ``HumanType``,
  ``Population``, ``AlgorithmPolicy`` and ``ValueProfile`` parameter each
  other kind of object, so the next entry without its rule fails there.
"""
import contextlib
import importlib.resources
import inspect
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest

from conftest import make_ranking as R
from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    ExplicitModel,
    HumanType,
    MallowsModel,
    PickDistribution,
    PlackettLuceModel,
    Population,
    Ranking,
    ValueProfile,
    apply_swap,
    best_worst_topitem_rankings,
    borda_values,
    branch_and_bound_menu,
    build_mip,
    check_mallows_harmful,
    check_mallows_helpful,
    check_pl_harmful,
    check_pl_helpful,
    choice_dist,
    choice_table,
    derive_partial_order,
    enumerate_best_menu,
    enumerate_event_prob,
    export_lp,
    joint_pick_dist,
    joint_utility,
    kendall_tau,
    mc_joint_pick_dist,
    menu_policy,
    noisy_uplift_search,
    optimize_with_uplift,
    psi,
    social_welfare,
    solve_mip,
    swap_effect,
    top_item_values,
    top_recovery_strategy,
    verify_uplift,
)
import shortlist
from shortlist import analysis, cli, collab, optimize
from shortlist.choice import oracle_choice_dist
from shortlist.experiments import PreferenceProfile, beta_sweep, emit_csv, load_profile, run_config, sushi_experiment, sushi_profile, tension_experiment
from shortlist.errors import DimensionError, DomainError, ProfileParseError, ShortlistError
from shortlist.rankings import check_accuracy, is_accuracy, is_number
from shortlist.models import k_menus, model_menu_distribution, pairwise_matrix, policy_ranking_model

FAMILIES = {
    "mallows": MallowsModel(R(0, 1, 2, 3), 0.7),
    "pl": PlackettLuceModel((2.0, 1.0, 0.5, -1.0), 0.8),
    "explicit": ExplicitModel(((R(0, 1, 2, 3), 0.6), (R(0, 3, 1, 2), 0.4))),
}

REPEATED = {
    "choice_dist": lambda model: choice_dist(model, [1, 1, 2]),
    "oracle_choice_dist": lambda model: oracle_choice_dist(model, [1, 1, 2]),
    "topk_set_prob": lambda model: model.topk_set_prob((1, 1)),
    "topk_set_prob-triple": lambda model: model.topk_set_prob([2, 0, 2]),
    "topk_law": lambda model: model.topk_law(np.array([[0, 2], [1, 1]])),
    "pairwise_prob": lambda model: model.pairwise_prob(1, 1),
    "psi-i-is-r": lambda model: psi(model, 1, 2, 1),
    "psi-j-is-r": lambda model: psi(model, 1, 2, 2),
    "psi-i-is-j": lambda model: psi(model, 1, 1, 0),
}


def mallows_human(m, values=None):
    gt = Ranking.identity(m)
    values = ValueProfile(values or tuple(float(m - p) for p in range(m)))
    return HumanType(gt, MallowsModel(gt, 1.0), values, 1.0)


def pl_human(values):
    return HumanType(Ranking.identity(len(values)), PlackettLuceModel(values, 1.0), ValueProfile(values), 1.0)


@pytest.mark.parametrize("query", list(REPEATED.values()), ids=list(REPEATED))
@pytest.mark.parametrize("model", list(FAMILIES.values()), ids=list(FAMILIES))
def test_every_item_entry_refuses_a_repeated_item(model, query):
    with pytest.raises(DomainError, match="items must be distinct"):
        query(model)


def test_fixed_mip_menu_refuses_a_repeated_item():
    pop = Population((mallows_human(4),))
    with pytest.raises(DomainError, match="items must be distinct"):
        solve_mip(build_mip(pop, 2), fix_menu=(1, 1))


@pytest.mark.parametrize(
    "menus",
    [[[True, 2]], [[0, 2], [1, False]], [(np.int64(1), np.True_)], [[1, 2.0]], [[1, 2], [3]]],
    ids=["bool", "bool-in-a-later-row", "numpy-bool", "float", "ragged"],
)
@pytest.mark.parametrize("model", list(FAMILIES.values()), ids=list(FAMILIES))
def test_choice_table_checks_list_items_before_numpy_converts_them(model, menus):
    # numpy would read [[True, 2]] as the menu {1, 2}; choice_dist refuses [True, 2]
    with pytest.raises(DomainError, match="menu items must be integers"):
        choice_table(model, menus)


@pytest.mark.parametrize(
    "menus, error, match",
    [
        (np.array([[0, 2], [-1, 3]]), DimensionError, r"outside 0\.\.3"),
        (np.array([[0, 4]]), DimensionError, r"outside 0\.\.3"),
        (np.array([[0.0, 2.0]]), DomainError, "must be integers"),
        ([[True, 2]], DomainError, "must be integers"),
        (np.array([0, 2]), DimensionError, "2-d"),
    ],
    ids=["negative", "past-the-last-item", "float", "bool-list", "one-menu-1-d"],
)
@pytest.mark.parametrize("model", list(FAMILIES.values()), ids=list(FAMILIES))
def test_topk_law_checks_its_menus_in_every_family(model, menus, error, match):
    # numpy would wrap the item -1 to the last item's position
    with pytest.raises(error, match=match):
        model.topk_law(menus)


def test_choice_table_takes_integer_lists_and_arrays_alike():
    model = FAMILIES["mallows"]
    menus = [[2, 0], [np.int64(1), 3]]
    want = choice_table(model, np.array(menus, dtype=np.int32))
    assert [row.hex() for row in choice_table(model, menus).ravel()] == [row.hex() for row in want.ravel()]


def test_distinct_items_in_any_container_are_accepted():
    model = FAMILIES["mallows"]
    want = model.topk_set_prob((0, 2))
    for items in ([2, 0], {0, 2}, frozenset((2, 0)), np.array([0, 2]), range(0, 3, 2)):
        assert model.topk_set_prob(items) == want


# each site that combines a human or population with a curator, given the
# human's item count and the curator's
UNIVERSE_SITES = {
    "joint_pick_dist": lambda m_h, m_a: joint_pick_dist(
        mallows_human(m_h), AlgorithmPolicy(Ranking.identity(m_a), 1.0, 2)),
    "joint_pick_dist-noiseless": lambda m_h, m_a: joint_pick_dist(
        mallows_human(m_h), AlgorithmPolicy(Ranking.identity(m_a), NOISELESS, 2)),
    "mc_joint_pick_dist": lambda m_h, m_a: mc_joint_pick_dist(
        mallows_human(m_h), AlgorithmPolicy(Ranking.identity(m_a), 1.0, 2), 10, np.random.default_rng(0)),
    "joint_utility": lambda m_h, m_a: joint_utility(
        mallows_human(m_h), AlgorithmPolicy(Ranking.identity(m_a), 1.0, 2)),
    "helpful-policy": lambda m_h, m_a: check_mallows_helpful(
        mallows_human(m_h), policy_ranking_model(AlgorithmPolicy(Ranking.identity(m_a), 1.0, 2)), 1, 2),
    "helpful-model": lambda m_h, m_a: check_pl_helpful(
        pl_human((3.0, 2.0, 1.0, 0.0)[:m_h]), MallowsModel(Ranking.identity(m_a), 1.0), 1, 2),
    "derive_partial_order": lambda m_h, m_a: derive_partial_order(
        mallows_human(m_h), [Ranking.identity(m_h), Ranking.identity(m_a)], 1.0, 2),
    "noisy_uplift_search": lambda m_h, m_a: noisy_uplift_search(
        Population((mallows_human(m_h),)), Ranking.identity(m_a), (0.5, NOISELESS), 2),
}


@pytest.mark.parametrize("m_h, m_a", [(3, 4), (4, 3)])
@pytest.mark.parametrize("site", list(UNIVERSE_SITES.values()), ids=list(UNIVERSE_SITES))
def test_universe_mismatch_is_refused_before_any_table_or_law(monkeypatch, site, m_h, m_a):
    def built(*args, **kwargs):
        pytest.fail("a menu table, law or curator model was built")

    for module in (collab, analysis, optimize):
        for name in ("menu_utility_table", "model_menu_distribution", "policy_ranking_model", "psi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, built)
    with pytest.raises(DimensionError, match=f"different item universes: {m_h} and {m_a} items"):
        site(m_h, m_a)


# explicit curators that rank item 2 ahead of item 1 in some support ranking:
# refused, as the NOISELESS policy at that center is, rather than given a
# verdict with negative psi weights
MISORIENTED = {
    "point-mass": ExplicitModel(((R(0, 2, 1, 3), 1.0),)),
    "two-entry": ExplicitModel(((R(0, 1, 2, 3), 0.9), (R(0, 2, 1, 3), 0.1))),
}
HUMANS = {
    "mallows": (check_mallows_helpful, mallows_human(4, (100.0, 2.0, 1.0, 1.0))),
    "pl": (check_pl_helpful, pl_human((3.0, 2.0, 1.0, 0.0))),
}


@pytest.mark.parametrize("curator", list(MISORIENTED.values()), ids=list(MISORIENTED))
def test_psi_refuses_a_misoriented_explicit_curator(curator):
    with pytest.raises(DomainError, match="item 1 must be center-better than item 2"):
        psi(curator, 1, 2, 0)


@pytest.mark.parametrize(
    "curator",
    [*MISORIENTED.values(), policy_ranking_model(AlgorithmPolicy(R(0, 2, 1, 3), NOISELESS, 2))],
    ids=[*MISORIENTED, "noiseless-policy"],
)
@pytest.mark.parametrize("check, h", list(HUMANS.values()), ids=list(HUMANS))
def test_checkers_refuse_a_misoriented_curator(check, h, curator):
    with pytest.raises(DomainError, match="item 1 must be center-better than item 2"):
        check(h, curator, 1, 2)


@pytest.mark.parametrize("check, h", list(HUMANS.values()), ids=list(HUMANS))
def test_well_oriented_explicit_curators_get_the_policy_verdict(check, h):
    policy = AlgorithmPolicy(Ranking.identity(4), NOISELESS, 2)
    point_mass = ExplicitModel(((Ranking.identity(4), 1.0),))
    assert check(h, point_mass, 1, 2) == check(h, policy_ranking_model(policy), 1, 2)
    # every support ranking puts 1 ahead of 2, so the curator is accepted
    mixed = ExplicitModel(((R(0, 1, 2, 3), 0.5), (R(1, 3, 0, 2), 0.5)))
    assert all(psi(mixed, 1, 2, r) >= 0 for r in (0, 3))
    assert check(h, mixed, 1, 2).lhs is not None


# each entry whose argument is a human's noise or a curator's ranking model
MODEL_ENTRIES = {
    "HumanType": lambda model: HumanType(Ranking.identity(4), model, ValueProfile((3.0, 2.0, 1.0, 0.0))),
    "choice_dist": lambda model: choice_dist(model, [0, 1]),
    "choice_table": lambda model: choice_table(model, [[0, 1]]),
    "model_menu_distribution": lambda model: model_menu_distribution(model, 2),
    "center_utilities": lambda model: collab.center_utilities(
        collab.menu_utility_table(Population((mallows_human(4),)), 2), model, np.arange(6)[None]),
    "psi": lambda model: psi(model, 1, 2, 0),
    "mallows-helpful": lambda model: check_mallows_helpful(mallows_human(4, (100.0, 2.0, 1.0, 1.0)), model, 1, 2),
    "pl-helpful": lambda model: check_pl_helpful(pl_human((3.0, 2.0, 1.0, 0.0)), model, 1, 2),
}


@pytest.mark.parametrize(
    "model", [AlgorithmPolicy(Ranking.identity(4), 1.0, 2), None, "mallows"], ids=["policy", "none", "string"]
)
@pytest.mark.parametrize("entry", list(MODEL_ENTRIES.values()), ids=list(MODEL_ENTRIES))
def test_every_model_entry_refuses_what_is_not_a_ranking_model(entry, model):
    # before the rule each ended in an AttributeError, or took the policy as a human's noise
    with pytest.raises(DomainError, match=f"expected a ranking model, got {type(model).__name__}"):
        entry(model)


@pytest.mark.parametrize(
    "centers",
    [[[1, 1, 2, 3]], [[0.0, 1.0, 2.0, 3.0]], np.arange(4), [[0, 1, 2, 4]], np.array([[0, 1, 2, -1]]),
     [[0, 1, 2, 3], [0, 1]], [[0, True, 2, 3]], [(np.int64(0), np.True_, 2, 3)]],
    ids=["repeated-item", "floats", "1-d", "past-the-last-item", "negative", "ragged", "bool", "numpy-bool"],
)
def test_center_menu_rows_refuses_what_is_not_a_permutation_array(centers):
    # [[1, 1, 2, 3]] gave in-range rows that center_utilities scored as a center; numpy
    # refused the ragged list with its own ValueError and read [[0, True, 2, 3]] as the identity
    with pytest.raises(DomainError, match="2-d integer array of permutations"):
        collab.center_menu_rows(centers, 2)


@pytest.mark.parametrize("value", ["1.0", None, True], ids=["string", "none", "bool"])
def test_joint_pick_from_menus_refuses_a_probability_that_is_not_a_number(value):
    with pytest.raises(DomainError, match="menu probabilities must be numbers"):
        collab.joint_pick_from_menus(mallows_human(4), {frozenset({0, 1}): value})
    with pytest.raises(DomainError, match="menu probabilities must be numbers"):
        collab.joint_pick_from_menus(mallows_human(4), {frozenset({0, 1}): 0.5, frozenset({2, 3}): value})


def test_center_utilities_takes_a_list_of_rows_as_it_takes_an_array():
    # it ended in an AttributeError on rows.ndim; a bool in the list is refused (test_collab)
    table = collab.menu_utility_table(Population((mallows_human(4),)), 2)
    model = FAMILIES["mallows"]
    want = collab.center_utilities(table, model, np.arange(6)[None])
    assert collab.center_utilities(table, model, [[0, 1, 2, 3, 4, 5]]).tobytes() == want.tobytes()


@pytest.mark.parametrize("law", [[((0, 1), 1.0)], ((frozenset({0, 1}), 1.0),), None], ids=["list", "tuple", "none"])
def test_joint_pick_from_menus_refuses_a_law_that_is_not_a_dict(law):
    with pytest.raises(DomainError, match="a menu law must be a dict"):
        collab.joint_pick_from_menus(mallows_human(4), law)


# each entry whose argument is a curator's policy; before the rule a ranking
# model ended in an AttributeError on ``is_noiseless``
POLICY_ENTRIES = {
    "joint_pick_dist": lambda a: joint_pick_dist(mallows_human(4), a),
    "joint_utility": lambda a: joint_utility(mallows_human(4), a),
    "policy_ranking_model": policy_ranking_model,
    "mc_joint_pick_dist": lambda a: mc_joint_pick_dist(mallows_human(4), a, 10, np.random.default_rng(0)),
    "verify_uplift": lambda a: verify_uplift(Population((mallows_human(4),)), a),
    "social_welfare": lambda a: social_welfare(Population((mallows_human(4),)), a),
    "swap_effect": lambda a: swap_effect(mallows_human(4), a, 0, 1),
}


@pytest.mark.parametrize("curator", [FAMILIES["mallows"], None, "mallows"], ids=["mallows-model", "none", "string"])
@pytest.mark.parametrize("entry", list(POLICY_ENTRIES.values()), ids=list(POLICY_ENTRIES))
def test_every_policy_entry_refuses_what_is_not_a_policy(entry, curator):
    with pytest.raises(DomainError, match=rf"expected a policy \(an AlgorithmPolicy\), got {type(curator).__name__}"):
        entry(curator)


# each accuracy site, given the accuracy, and the name its message uses
ACCURACY_SITES = {
    "MallowsModel": (lambda v: MallowsModel(R(0, 1, 2), v), "phi"),
    "AlgorithmPolicy": (lambda v: AlgorithmPolicy(R(0, 1, 2), v, 2), "accuracy"),
    "check_mallows_harmful": (lambda v: check_mallows_harmful(ValueProfile((1.0, 0.9, 0.5, 0.0)), v, 2, 3), "phi_h"),
    # the config rule names the key of a value that is not a number, in the same words
    "tension_experiment": (lambda v: tension_experiment(v, phi_grid=(0.5,), k=2), "'?gamma'?"),
}
FINITE_ONLY = ["MallowsModel", "check_mallows_harmful", "tension_experiment"]


@pytest.mark.parametrize("value", [math.nan, -1.0, "x", True], ids=["nan", "negative", "string", "bool"])
@pytest.mark.parametrize("site, name", list(ACCURACY_SITES.values()), ids=list(ACCURACY_SITES))
def test_every_accuracy_site_states_the_one_rule(site, name, value):
    with pytest.raises(DomainError, match=f"^(config key )?{name} must be a nonnegative finite number"):
        site(value)


@pytest.mark.parametrize("site", FINITE_ONLY)
def test_finite_accuracy_sites_refuse_inf_and_point_to_noiseless(site):
    call, name = ACCURACY_SITES[site]
    with pytest.raises(DomainError, match=rf"^{name} must be a nonnegative finite number; NOISELESS \(inf\)"):
        call(math.inf)


def test_zero_is_an_accuracy_and_a_policy_takes_noiseless():
    assert AlgorithmPolicy(R(0, 1, 2), math.inf, 2).is_noiseless
    assert MallowsModel(R(0, 1, 2), 0).phi == 0.0 and type(MallowsModel(R(0, 1, 2), 0).phi) is float
    assert AlgorithmPolicy(R(0, 1, 2), np.float64(0.0), 2).accuracy == 0.0
    assert not check_mallows_harmful(ValueProfile((1.0, 0.9, 0.5, 0.0)), 0, 2, 3).applicable


# the noise-scale rule, at each of its sites
NOISE_SCALE_SITES = {
    "PlackettLuceModel": lambda beta: PlackettLuceModel((1.0, 0.0), beta),
    "check_pl_harmful": lambda beta: check_pl_harmful(ValueProfile((1.0, 0.5, 0.0)), beta, 2),
}


@pytest.mark.parametrize("beta", [0, -1, math.inf, math.nan, "x", True], ids=["zero", "negative", "inf", "nan", "string", "bool"])
@pytest.mark.parametrize("site", list(NOISE_SCALE_SITES.values()), ids=list(NOISE_SCALE_SITES))
def test_every_noise_scale_site_states_the_one_rule(site, beta):
    with pytest.raises(DomainError, match="^noise scale beta must be a positive finite number, got "):
        site(beta)


def test_a_noise_scale_is_held_as_a_float():
    beta = PlackettLuceModel((1.0, 0.0), np.float32(0.5)).beta
    assert beta == 0.5 and type(beta) is float
    assert PlackettLuceModel((1.0, 0.0), 2).beta == 2.0


@pytest.mark.parametrize("bad", [math.inf, True], ids=["inf", "bool"])
@pytest.mark.parametrize("study", [sushi_experiment, tension_experiment], ids=["sushi", "tension"])
def test_an_accuracy_grid_reads_the_accuracy_rule(study, bad):
    # inf is a policy accuracy only, and True is not a number; the config message is the grid's own
    with pytest.raises(DomainError, match="^config key 'phi_grid' must be an accuracy grid: a nonempty list of finite nonnegative numbers"):
        study(phi_grid=(0.5, bad), k=2)


def test_the_accuracy_test_is_the_accuracy_rule():
    for value in (0, np.float64(2.5), math.inf, -1.0, math.nan, True, "1"):
        for noiseless in (False, True):
            try:
                check_accuracy(value, "phi", noiseless)
            except DomainError:
                assert not is_accuracy(value, noiseless)
            else:
                assert is_accuracy(value, noiseless)


# each site of a real parameter, given a 401-digit integer; each ended in an OverflowError
HUGE = 10**400
HUGE_SITES = {
    "MallowsModel-phi": (lambda: MallowsModel(R(0, 1, 2), HUGE), "phi must be a nonnegative finite number"),
    "AlgorithmPolicy-accuracy": (lambda: AlgorithmPolicy(R(0, 1, 2), HUGE, 2), "accuracy must be a nonnegative finite number"),
    "PlackettLuceModel-beta": (lambda: PlackettLuceModel((1.0, 0.0), HUGE), "noise scale beta must be a positive finite number"),
    "PlackettLuceModel-value": (lambda: PlackettLuceModel((HUGE, 0.0), 1.0), "item values must be numbers"),
    "ValueProfile": (lambda: ValueProfile((HUGE, 0.0)), "values must be numbers"),
    "ExplicitModel": (lambda: ExplicitModel(((R(0, 1), HUGE),)), "support probabilities must be numbers"),
    "check_mallows_harmful": (lambda: check_mallows_harmful(ValueProfile((1.0, 0.5, 0.0)), HUGE, 1, 2), "phi_h must be"),
    "check_pl_harmful": (lambda: check_pl_harmful(ValueProfile((1.0, 0.5, 0.0)), HUGE, 2), "noise scale beta must be"),
    "beta_sweep-beta_grid": (lambda: beta_sweep(beta_grid=[HUGE]), "config key 'beta_grid' must be"),
    "beta_sweep-phi": (lambda: beta_sweep(phi=HUGE), "config key 'phi' must be"),
    "beta_sweep-gumbel_beta": (lambda: beta_sweep(gumbel_beta=HUGE), "config key 'gumbel_beta' must be"),
    "tension-gamma": (lambda: tension_experiment(gamma=HUGE), "config key 'gamma' must be"),
    "sushi-phi_grid": (lambda: sushi_experiment(phi_grid=[HUGE]), "config key 'phi_grid' must be"),
    "noisy_uplift_search": (lambda: noisy_uplift_search(Population((mallows_human(3),)), R(0, 1, 2), [HUGE], 2), "accuracy must be"),
    "derive_partial_order": (lambda: derive_partial_order(mallows_human(3), [R(0, 1, 2)], HUGE, 2), "accuracy must be"),
}


@pytest.mark.parametrize("entry, message", list(HUGE_SITES.values()), ids=list(HUGE_SITES))
def test_a_huge_integer_is_refused_in_the_sites_own_words(entry, message):
    with pytest.raises(ShortlistError, match=f"^{re.escape(message)}"):
        entry()


# each config knob of a real, given a 401-digit integer; each exited 1 with a traceback
HUGE_CONFIGS = {
    "tension-gamma": ("tension", "gamma", HUGE),
    "tension-phi_grid": ("tension", "phi_grid", [HUGE]),
    "sushi-phi_grid": ("sushi", "phi_grid", [HUGE]),
    "beta-sweep-beta_grid": ("beta-sweep", "beta_grid", [HUGE]),
    "beta-sweep-phi": ("beta-sweep", "phi", HUGE),
    "beta-sweep-gumbel_beta": ("beta-sweep", "gumbel_beta", HUGE),
    "bench-sizes": ("bench", "sizes", [HUGE]),  # an item count past any sequence length
}


@pytest.mark.parametrize("experiment, key, value", list(HUGE_CONFIGS.values()), ids=list(HUGE_CONFIGS))
def test_a_config_with_a_huge_integer_exits_2_with_one_error_line(tmp_path, experiment, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"experiment": experiment, "output": str(tmp_path / "out.csv"), key: value}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["experiment", "--config", str(config)])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    assert not (tmp_path / "out.csv").exists()


def test_a_number_is_a_real_that_a_float_holds():
    for x in (0, -3, 1.5, np.int64(7), np.float32(0.25), math.inf, -math.inf, np.float64(math.inf), math.nan, 2**1023):
        assert is_number(x), x
    for x in (True, np.bool_(False), "1", None, HUGE, -HUGE, 2**1024):
        assert not is_number(x), x
    if np.finfo(np.longdouble).maxexp > 1024:  # a long double wider than a float is not rounded to inf
        assert not is_number(np.longdouble("1e400")) and is_number(np.longdouble("inf"))


# each entry that takes a path or a file object, given one
PATH_OR_STREAM = {
    "load_profile": load_profile,
    "emit_csv": lambda dest: emit_csv([{"a": 1}], dest),
    "export_lp": lambda dest: export_lp(build_mip(Population((mallows_human(4),)), 2), dest),
}


@pytest.mark.parametrize("entry", list(PATH_OR_STREAM), ids=list(PATH_OR_STREAM))
def test_every_path_or_stream_entry_refuses_a_descriptor_and_none(entry):
    # an integer was opened as a file descriptor, written to and closed
    read_end, write_end = os.pipe()
    try:
        for dest, name in ((write_end, "int"), (None, "NoneType")):
            with pytest.raises(DomainError, match=f"must be a path or a file object, got {name}$"):
                PATH_OR_STREAM[entry](dest)
        os.write(write_end, b"!")  # still open
        assert os.read(read_end, 100) == b"!"  # and nothing else was written
    finally:
        os.close(read_end)
        os.close(write_end)


@pytest.mark.parametrize("entry", list(PATH_OR_STREAM), ids=list(PATH_OR_STREAM))
def test_every_path_or_stream_entry_refuses_a_binary_stream(tmp_path, entry):
    path = tmp_path / "profile.txt"
    path.write_bytes(b"1 1 2 3\n")
    # a bytes buffer, an open(path, "rb") or "r+b" handle, and a wrapper that is no io stream but says "rb+"
    with open(path, "rb" if entry == "load_profile" else "r+b") as handle, tempfile.NamedTemporaryFile(dir=tmp_path) as named:
        for stream in (io.BytesIO(b"1 1 2 3\n"), handle, named):
            with pytest.raises(DomainError, match="must be a path or a text file object, got the binary stream "):
                PATH_OR_STREAM[entry](stream)
    assert path.read_bytes() == b"1 1 2 3\n"


class _ReadOnly:
    def read(self):
        return ""


@pytest.mark.parametrize("entry", ["emit_csv", "export_lp"])
def test_a_writer_refuses_a_file_object_it_cannot_write(entry):
    with pytest.raises(DomainError, match="must be a path or a file object, got _ReadOnly$"):
        PATH_OR_STREAM[entry](_ReadOnly())


@pytest.mark.parametrize("entry", ["emit_csv", "export_lp"])
def test_a_writer_writes_the_same_text_to_a_path_and_to_a_stream(tmp_path, entry):
    stream = io.StringIO()
    PATH_OR_STREAM[entry](stream)
    PATH_OR_STREAM[entry](tmp_path / "out")  # a PathLike
    PATH_OR_STREAM[entry](str(tmp_path / "str"))
    text = stream.getvalue()
    assert "\r" not in text and stream.closed is False
    assert (tmp_path / "out").read_bytes() == (tmp_path / "str").read_bytes() == text.encode("utf-8")


SUSHI_TEXT = importlib.resources.files("shortlist").joinpath("data/sushi_top33.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text",
    [SUSHI_TEXT, SUSHI_TEXT.replace("\n", "\r\n"), "# counts\n10 1 2 3\r\n\r\n5 2 1 3", "count,a,b\r\n2,1,2\r\n1,2,1\r\n"],
    ids=["sushi", "sushi-crlf", "text-crlf", "csv-crlf"],
)
def test_a_profile_reads_the_same_from_a_path_and_a_stream(tmp_path, text):
    path = tmp_path / "profile.txt"
    path.write_bytes(text.encode("utf-8"))
    want = load_profile(io.StringIO(text))
    assert load_profile(path) == load_profile(str(path)) == want
    if text.startswith(SUSHI_TEXT[:20]):
        assert want == sushi_profile()


def test_a_path_splits_its_lines_as_a_stream_does(tmp_path):
    # readlines() kept a form feed or U+2028 inside a line; str.splitlines ends the line there
    text = "10 1 2 3\f5 2 1 3\u20284 3 2 1\n"
    path = tmp_path / "profile.txt"
    path.write_text(text, encoding="utf-8")
    assert load_profile(path) == load_profile(io.StringIO(text))
    assert len(load_profile(path).entries) == 3


# objects without an item count m, where a Ranking, a value profile or a type belongs;
# each ended in an AttributeError
_GT = Ranking.identity(4)
NO_UNIVERSE = {
    "MallowsModel-center": lambda: MallowsModel((0, 1, 2, 3), 1.0).m,
    "AlgorithmPolicy-center": lambda: AlgorithmPolicy((0, 1, 2, 3), 1.0, 2),
    "HumanType-ground-truth": lambda: HumanType((0, 1, 2, 3), MallowsModel(_GT, 1.0), ValueProfile((3.0, 2.0, 1.0, 0.0))),
    "HumanType-values": lambda: HumanType(_GT, MallowsModel(_GT, 1.0), (3.0, 2.0, 1.0, 0.0)),
    "Population-type": lambda: Population((mallows_human(4), "x")),
    "kendall_tau": lambda: kendall_tau(_GT, (1, 0, 2, 3)),
    "perm_prob": lambda: MallowsModel(_GT, 1.0).perm_prob((0, 1, 2, 3)),
    "derive_partial_order": lambda: derive_partial_order(mallows_human(4), [(0, 1, 2, 3)], 1.0, 2),
    "noisy_uplift_search": lambda: noisy_uplift_search(Population((mallows_human(4),)), (0, 1, 2, 3), [1.0], 2),
    "ExplicitModel": lambda: ExplicitModel((((0, 1, 2, 3), 1.0),)),
    "apply_swap": lambda: apply_swap((0, 1, 2, 3), 0, 1),
}


@pytest.mark.parametrize("entry", list(NO_UNIVERSE.values()), ids=list(NO_UNIVERSE))
def test_an_object_without_an_item_count_is_refused(entry):
    with pytest.raises(DomainError, match=r"^expected objects with an item count m, got .*(tuple|str)"):
        entry()


def test_the_universe_rule_names_every_type_it_was_given():
    with pytest.raises(DomainError, match="^expected objects with an item count m, got Ranking, tuple$"):
        kendall_tau(_GT, (1, 0, 2, 3))
    with pytest.raises(DimensionError, match="different item universes: 4 and 3 items"):
        kendall_tau(_GT, Ranking.identity(3))


# other wrong-typed inputs: counts, non-iterables, and a type where a population belongs;
# each ended in a TypeError; from "k_menus-huge" on, each ended in an AttributeError or
# an OverflowError, except that k_menus called a count past sys.maxsize a non-integer
# and a HumanType took a population as its values, or a value profile as its ground
# truth beside a model without a center
WRONG_TYPES = {
    "identity-float": (lambda: Ranking.identity(2.0), "an item count must be an integer, got 2.0"),
    "borda-string": (lambda: borda_values("3"), "an item count must be an integer, got '3'"),
    "top-float": (lambda: top_item_values(2.0), "an item count must be an integer, got 2.0"),
    "best-worst-float": (lambda: best_worst_topitem_rankings(2.5), "need an integer item count m >= 2, got 2.5"),
    "best-worst-string": (lambda: best_worst_topitem_rankings("3"), "need an integer item count m >= 2, got '3'"),
    "Ranking": (lambda: Ranking(3), "a ranking must be an iterable, got int"),
    "ValueProfile": (lambda: ValueProfile(3), "a value profile must be an iterable, got int"),
    "choice_dist": (lambda: choice_dist(FAMILIES["mallows"], 5), "items must be an iterable, got int"),
    "Population": (lambda: Population(mallows_human(4)), "a population's types must be an iterable, got HumanType"),
    "Population-type": (
        lambda: Population((mallows_human(3), borda_values(3))), "population types must be HumanTypes, got HumanType, ValueProfile"),
    "branch_and_bound_menu": (lambda: branch_and_bound_menu(mallows_human(4), 2), "expected a Population, got HumanType"),
    "social_welfare": (
        lambda: social_welfare(mallows_human(4), AlgorithmPolicy(_GT, 1.0, 2)), "expected a Population, got HumanType"),
    "k_menus-huge": (lambda: k_menus(10**30, 2), f"an item count must be at most sys.maxsize = {sys.maxsize}, got {10**30}"),
    "best-worst-huge": (
        lambda: best_worst_topitem_rankings(10**30), f"an item count must be at most sys.maxsize = {sys.maxsize}, got {10**30}"),
    "joint_pick_dist": (lambda: joint_pick_dist(Population((mallows_human(4),)), AlgorithmPolicy(_GT, 1.0, 2)), "expected a HumanType, got Population"),
    "Population.single": (lambda: Population.single(5), "expected a HumanType, got int"),
    "check_mallows_harmful": (lambda: check_mallows_harmful((1.0, 0.5, 0.0), 1.0, 1, 2), "expected a ValueProfile, got tuple"),
    "check_pl_harmful": (lambda: check_pl_harmful(None, 1.0, 2), "expected a ValueProfile, got NoneType"),
    "HumanType-values": (lambda: HumanType(_GT, MallowsModel(_GT, 1.0), Population((mallows_human(4),))), "expected a ValueProfile, got Population"),
    "HumanType-ground-truth": (
        lambda: HumanType(borda_values(4), ExplicitModel(((_GT, 1.0),)), borda_values(4)), "expected a Ranking as the ground truth, got ValueProfile"),
    "enumerate_best_menu": (lambda: enumerate_best_menu(None, 2), "expected a Population, got NoneType"),
    "optimize_with_uplift": (lambda: optimize_with_uplift((1.0,), 2), "expected a Population, got tuple"),
}


@pytest.mark.parametrize("entry, message", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_a_wrong_typed_input_is_refused(entry, message):
    with pytest.raises(ShortlistError, match=f"^{re.escape(message)}"):
        entry()


# each entry whose argument is a population, given one human type; the rule runs in
# branch_and_bound_menu, build_mip, social_welfare, top_recovery_strategy and the
# menu table's and solo utilities' type grouping, which the others reach
POPULATION_ENTRIES = {
    "enumerate_best_menu": lambda h: enumerate_best_menu(h, 2),
    "optimize_with_uplift": lambda h: optimize_with_uplift(h, 2),
    "noisy_uplift_search": lambda h: noisy_uplift_search(h, _GT, [1.0], 2),
    "verify_uplift": lambda h: verify_uplift(h, AlgorithmPolicy(_GT, 1.0, 2)),
    "build_mip": lambda h: build_mip(h, 2),
    "top_recovery_strategy": lambda h: top_recovery_strategy(h, 2),
    "menu_utility_table": lambda h: collab.menu_utility_table(h, 2),
    "solo_utilities": collab.solo_utilities,
}


@pytest.mark.parametrize("entry", list(POPULATION_ENTRIES.values()), ids=list(POPULATION_ENTRIES))
def test_every_population_entry_refuses_a_single_type(entry):
    with pytest.raises(DomainError, match="^expected a Population, got HumanType: use Population.single"):
        entry(mallows_human(4))


def test_integer_counts_of_any_integer_type_are_accepted():
    assert Ranking.identity(np.int64(3)) == Ranking.identity(3)
    assert borda_values(np.int32(3)) == borda_values(3)
    assert best_worst_topitem_rankings(np.int64(3)) == best_worst_topitem_rankings(3)


# branches that no other test enters
def test_mallows_helpful_refuses_a_plackett_luce_human_and_a_uniform_one():
    curator = MallowsModel(Ranking.identity(4), 1.0)
    with pytest.raises(DomainError, match="human noise model must be Mallows"):
        check_mallows_helpful(pl_human((3.0, 2.0, 1.0, 0.0)), curator, 1, 2)
    gt = Ranking.identity(4)
    uniform = HumanType(gt, MallowsModel(gt, 0.0), ValueProfile((3.0, 2.0, 1.0, 0.0)))
    with pytest.raises(DomainError, match="condition checkers need phi_h > 0"):
        check_mallows_helpful(uniform, curator, 1, 2)


def test_a_text_profile_row_with_a_non_integer_item_is_refused():
    with pytest.raises(ProfileParseError, match="^line 2: non-integer ranking entry"):
        load_profile(io.StringIO("10 1 2 3\n5 1 x 3\n"))


def test_a_json_config_that_is_a_list_is_refused(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps([{"experiment": "sushi", "output": "x.csv"}]))
    with pytest.raises(DomainError, match="^config must be a JSON object$"):
        run_config(path)


def test_profiles_and_populations_built_directly_are_checked():
    with pytest.raises(ProfileParseError, match="profile is empty"):
        PreferenceProfile(())
    with pytest.raises(DimensionError, match="different item universes: 3 and 4 items"):
        PreferenceProfile(((Ranking.identity(3), 1.0), (Ranking.identity(4), 1.0)))
    with pytest.raises(DomainError, match="population must contain at least one type"):
        Population(())


def _five_item_table():
    """The one-type C(5, 2) table of a Borda human at accuracy 0.7."""
    gt = Ranking.identity(5)
    return collab.menu_utility_table(Population((HumanType(gt, MallowsModel(gt, 0.7), borda_values(5), 1.0),)), 2)


def _permuted_table():
    # rows permuted alike in both arrays, the last row kept: a curator at accuracy 0.9 scored
    # 2.638 and 2.758 at the centers 2 0 1 4 3 and 4 3 2 1 0, where joint_utility gives 3.101 and 1.348
    menus, utilities = _five_item_table()
    rows = [3, 0, 7, 1, 5, 2, 8, 4, 6, 9]
    return menus[rows], utilities[rows]


_CURATOR = MallowsModel(Ranking.identity(5), 0.9)


# a malformed menu table at center_utilities and at a solver's table=, and a wrong-typed
# argument at nine more entries; each ended in a TypeError, an AttributeError, an IndexError
# or a ValueError, or (the permuted tables) in a wrong value
MALFORMED = {
    "table-permuted": (
        lambda: collab.center_utilities(_permuted_table(), _CURATOR, collab.center_menu_rows([[2, 0, 1, 4, 3], [4, 3, 2, 1, 0]], 2)),
        DomainError, "table menus must be every 2-menu of 5 items in k_menus order"),
    "table-not-a-pair": (
        lambda: collab.center_utilities(5, _CURATOR, np.arange(10)[None]),
        DomainError, "a menu table must be a (menus, utilities) pair, got int"),
    "table-string-utilities": (
        lambda: collab.center_utilities((_five_item_table()[0], "x"), _CURATOR, np.arange(10)[None]),
        DomainError, "table utilities must be an array of numbers, got str"),
    "table-1-d-utilities": (
        lambda: collab.center_utilities(
            (_five_item_table()[0], _five_item_table()[1][:, 0]), _CURATOR, np.arange(10)[None]),
        DimensionError, "a menu table of (10, 2) menus and (10,) utilities, expected one row per menu"),
    "solver-table-not-a-pair": (
        lambda: enumerate_best_menu(Population((mallows_human(5),)), 2, table=5),
        DomainError, "a menu table must be a (menus, utilities) pair, got int"),
    "solver-table-triple": (
        lambda: enumerate_best_menu(Population((mallows_human(5),)), 2, table=(*_five_item_table(), None)),
        DomainError, "a menu table must be a (menus, utilities) pair, got tuple of 3"),
    "solver-table-permuted": (
        lambda: optimize_with_uplift(Population((mallows_human(5),)), 2, table=_permuted_table()),
        DomainError, "table menus must be every 2-menu of 5 items in k_menus order"),
    "noisy_uplift_search-int-grid": (
        lambda: noisy_uplift_search(Population((mallows_human(4),)), _GT, 5, 2),
        DomainError, "an accuracy grid must be an iterable, got int"),
    "noisy_uplift_search-none-grid": (
        lambda: noisy_uplift_search(Population((mallows_human(4),)), _GT, None, 2),
        DomainError, "an accuracy grid must be an iterable, got NoneType"),
    "derive_partial_order": (
        lambda: derive_partial_order(mallows_human(4), 5, 1.0, 2), DomainError, "candidate centers must be an iterable, got int"),
    "menu_policy-menu": (lambda: menu_policy(4, 5), DomainError, "a menu must be an iterable, got int"),
    "menu_policy-count": (lambda: menu_policy("x", [0]), DomainError, "an item count must be an integer, got 'x'"),
    "pairwise_matrix": (lambda: pairwise_matrix(5), DomainError, "expected a ranking model, got int"),
    "solve_mip": (lambda: solve_mip(5), DomainError, "expected a MipInstance (see build_mip), got int"),
    "export_lp": (lambda: export_lp(5, io.StringIO()), DomainError, "expected a MipInstance (see build_mip), got int"),
    "ExplicitModel": (
        lambda: ExplicitModel(((_GT, 1.0), 5)), DomainError, "an explicit support must hold (ranking, probability) pairs"),
    "PickDistribution-int": (
        lambda: PickDistribution(5), DomainError, "pick probabilities must be a dict of items to numbers, got int"),
    "PickDistribution-string": (lambda: PickDistribution({0: "x"}), DomainError, "pick probabilities must be numbers"),
    "enumerate_event_prob": (
        lambda: enumerate_event_prob(FAMILIES["mallows"], 5), DomainError, "an event must be a callable predicate on rankings, got int"),
}


@pytest.mark.parametrize("entry, error, message", list(MALFORMED.values()), ids=list(MALFORMED))
def test_a_malformed_table_or_argument_is_refused_in_its_own_words(entry, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        entry()


# the signature walk: every public function with a parameter annotated as one of the
# checked types, given in its place each other object below, raises a ShortlistError
_H = mallows_human(4)
_POP = Population((_H,))
_POLICY = AlgorithmPolicy(_GT, 1.0, 2)
WRONG_OBJECTS = {
    "None": None,
    "HumanType": _H,
    "Population": _POP,
    "AlgorithmPolicy": _POLICY,
    "ValueProfile": borda_values(4),
    "MallowsModel": FAMILIES["mallows"],
    "tuple": (3.0, 2.0, 1.0, 0.0),
}
CHECKED_TYPES = ("HumanType", "Population", "AlgorithmPolicy", "ValueProfile")

# one valid call per walked function; a function the walk finds but this table lacks fails the walk
VALID_CALLS = {
    "expected_utility": (PickDistribution({0: 1.0}), _H),
    "joint_pick_dist": (_H, _POLICY),
    "joint_utility": (_H, _POLICY),
    "mc_joint_pick_dist": (_H, _POLICY, 10, np.random.default_rng(0)),
    "solo_utility": (_H,),
    "social_welfare": (_POP, _POLICY),
    "top_recovery_strategy": (Population((mallows_human(4, (1.0, 0.0, 0.0, 0.0)),)), 2),
    "verify_uplift": (_POP, _POLICY),
    "branch_and_bound_menu": (_POP, 2),
    "build_mip": (_POP, 2),
    "enumerate_best_menu": (_POP, 2),
    "noisy_uplift_search": (_POP, _GT, [1.0], 2),
    "optimize_with_uplift": (_POP, 2),
    "check_mallows_harmful": (borda_values(4), 1.0, 1, 2),
    "check_mallows_helpful": (_H, FAMILIES["mallows"], 1, 2),
    "check_pl_harmful": (borda_values(4), 1.0, 2),
    "check_pl_helpful": (pl_human((3.0, 2.0, 1.0, 0.0)), FAMILIES["mallows"], 1, 2),
    "derive_partial_order": (_H, [_GT], 1.0, 2),
    "swap_effect": (_H, _POLICY, 0, 1),
}


def _walked_parameters() -> list:
    """(function name, parameter name, its annotated type) for each checked-type parameter of a public function."""
    found = []
    for name in shortlist.__all__:
        f = getattr(shortlist, name)
        if inspect.isfunction(f):
            found += [(name, p.name, p.annotation) for p in inspect.signature(f).parameters.values() if p.annotation in CHECKED_TYPES]
    return found


WALKED = _walked_parameters()


def test_the_walk_has_one_valid_call_per_function():
    assert {name for name, _, _ in WALKED} == set(VALID_CALLS)


@pytest.mark.parametrize("name", list(VALID_CALLS))
def test_each_walked_call_is_valid(name):
    getattr(shortlist, name)(*VALID_CALLS[name])


@pytest.mark.parametrize(
    "name, param, wrong",
    [(name, param, wrong) for name, param, annotation in WALKED for wrong in WRONG_OBJECTS if wrong != annotation],
    ids=str,
)
def test_a_wrong_object_in_a_checked_parameter_is_refused(name, param, wrong):
    f = getattr(shortlist, name)
    call = inspect.signature(f).bind(*VALID_CALLS[name])
    call.arguments[param] = WRONG_OBJECTS[wrong]
    with pytest.raises(ShortlistError):
        f(*call.args, **call.kwargs)
