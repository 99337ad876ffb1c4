"""Each item rule has one check: a repeated item, a mismatched item universe, a curator's orientation.

- ``models._check_items`` refuses a repeated item (DomainError) wherever
  items enter a query, a menu or a MIP.
- ``rankings.check_universe`` refuses objects over different item universes
  (DimensionError) before any menu table or law is built.
- ``analysis.psi`` holds every curator to one orientation rule: a center
  for Mallows and Plackett-Luce, every support ranking for an explicit model.
"""
import numpy as np
import pytest

from conftest import make_ranking as R
from shortlist import (
    NOISELESS,
    AlgorithmPolicy,
    ExplicitModel,
    HumanType,
    MallowsModel,
    PlackettLuceModel,
    Population,
    Ranking,
    ValueProfile,
    build_mip,
    check_mallows_helpful,
    check_pl_helpful,
    choice_dist,
    choice_table,
    derive_partial_order,
    joint_pick_dist,
    joint_utility,
    mc_joint_pick_dist,
    noisy_uplift_search,
    psi,
    solve_mip,
)
from shortlist import analysis, collab, optimize
from shortlist.choice import oracle_choice_dist
from shortlist.errors import DimensionError, DomainError
from shortlist.models import policy_ranking_model

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
