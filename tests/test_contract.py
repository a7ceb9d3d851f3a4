import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doubletop import contract as contract_module
from doubletop.contract import BudgetError, contract, plan, run
from oracles import contract_reference


def test_matches_einsum_with_repeated_and_shared_indices():
    rng = np.random.default_rng(5)
    shapes = {0: 2, 1: 3, 2: 2, 3: 4, 4: 3}
    nets = [[(0, 1), (1, 2, 2), (2, 3, 0), (3,), (4, 1), (4, 4)],
            [(0, 0), (1,), (1,), (2, 3, 4)],
            [(3, 1, 0)]]
    for ids_list in nets:
        factors = [(rng.normal(size=[shapes[i] for i in ids])
                    + 1j * rng.normal(size=[shapes[i] for i in ids]), ids)
                   for ids in ids_list]
        args = [x for a, ids in factors for x in (a, list(ids))] + [[]]
        want = complex(np.einsum(*args))
        assert abs(contract(factors)[0] - want) < 1e-12 * max(1.0, abs(want))


def test_empty_and_scalar_networks():
    assert contract([]) == (1, 1)
    assert contract([(np.array(2.5), ())]) == (2.5, 1)


def test_object_ints_stay_exact():
    # 2^80 + 3 is past float and int64; object arrays of Python ints keep it
    a = np.array([2 ** 40, 1], dtype=object)
    b = np.array([2 ** 40, 3], dtype=object)
    value, _ = contract([(a, (0,)), (b, (0,))])
    assert type(value) is int and value == 2 ** 80 + 3


def test_more_factors_than_one_einsum_takes():
    # 70 factors on one pair of indices; np.einsum takes at most 63 operands
    rng = np.random.default_rng(7)
    mats = [rng.uniform(0.5, 1.5, size=(2, 2)) for _ in range(70)]
    want = float(np.sum(np.prod(mats, axis=0)))
    got, _ = contract([(m, (0, 1)) for m in mats])
    assert abs(got - want) < 1e-12 * want


def test_budget_bounds_the_largest_step():
    # a chain of 4x4 matrices: every step sums over two indices, 4^2 = 16
    rng = np.random.default_rng(3)
    factors = [(rng.normal(size=(4, 4)), (k, k + 1)) for k in range(6)]
    want = float(np.sum(np.linalg.multi_dot([a for a, _ in factors])))
    value, step = contract(factors)
    assert step == 16 and abs(value - want) < 1e-12 * max(1.0, abs(want))
    assert contract(factors, budget=16)[1] == 16
    with pytest.raises(BudgetError, match="budget exceeded"):
        contract(factors, budget=15)


def test_plan_once_run_many():
    # one plan serves every set of arrays of the planned shapes
    rng = np.random.default_rng(9)
    ids = [(0, 1), (1, 2), (2, 0), (2,)]
    shapes = [(3,) * len(f) for f in ids]
    planned = plan(list(zip(shapes, ids)))
    for _ in range(3):
        arrays = [rng.normal(size=s) for s in shapes]
        want = contract(list(zip(arrays, ids)))
        assert (run(planned, arrays), planned[2]) == want


def _clear_plans():
    contract_module._plan_structure.cache_clear()


def test_cached_structure_is_sized_on_every_call():
    # a chain planned at 2 labels per id comes back at 4: the plan is
    # shared, the budget check and largest_step are this call's
    ids = [(k, k + 1) for k in range(6)]
    _clear_plans()
    with pytest.raises(BudgetError) as cold:
        plan([((4, 4), f) for f in ids], budget=15)
    _clear_plans()
    small = plan([((2, 2), f) for f in ids], budget=15)
    assert small[2] == 4
    with pytest.raises(BudgetError) as warm:
        plan([((4, 4), f) for f in ids], budget=15)
    assert str(warm.value) == str(cold.value) == (
        "budget exceeded: eliminating an index sums over 16 labels, "
        "budget is 15")
    big = plan([((4, 4), f) for f in ids], budget=16)
    assert big[2] == 16 and big[:2] == small[:2]
    assert contract_module._plan_structure.cache_info().currsize == 1


def test_plans_are_immutable_and_shared():
    ids = [(0, 1), (1, 2), (2, 0), (2,), ()]
    steps, rest, _ = plan([((3,) * len(f), f) for f in ids])
    again = plan([((2,) * len(f), f) for f in ids])
    assert again[0] is steps and again[1] is rest

    def nested_tuples(x):
        return type(x) is int or (type(x) is tuple
                                  and all(map(nested_tuples, x)))

    assert nested_tuples(steps) and nested_tuples(rest)
    with pytest.raises(TypeError):
        steps[0][1][0][0] = 5


def test_refused_network_runs_no_einsum(monkeypatch):
    def einsum(*args):
        raise AssertionError("einsum ran before the budget check")

    factors = [(np.ones((4, 4)), (k, k + 1)) for k in range(6)]
    _clear_plans()
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", einsum)
        with pytest.raises(BudgetError, match="budget exceeded"):
            contract(factors, budget=15)  # cold cache
    contract(factors, budget=16)
    monkeypatch.setattr(np, "einsum", einsum)
    with pytest.raises(BudgetError, match="budget exceeded"):
        contract(factors, budget=15)  # the plan comes from the cache


@pytest.mark.parametrize("factors, message", [
    ([(np.ones(2), (0,)), (np.ones(3), (0,))],
     "factor 1 gives id 0 size 3, an earlier axis gave it size 2"),
    ([(np.ones((2, 3)), (1, 1))],
     "factor 0 gives id 1 size 3, an earlier axis gave it size 2"),
    ([(np.ones((2, 2)), (0,))], r"factor 0 has 1 ids \(0,\) for 2 axes"),
    ([(np.ones(2), (0,)), (np.ones(2), (0, 1))],
     r"factor 1 has 2 ids \(0, 1\) for 1 axes"),
    ([(np.array(1.0), (3,))], r"factor 0 has 1 ids \(3,\) for 0 axes"),
])
def test_malformed_factor_is_named(factors, message):
    _clear_plans()
    with pytest.raises(ValueError, match=message):
        contract(factors)
    with pytest.raises(ValueError, match=message):
        plan([(a.shape, ids) for a, ids in factors])
    # the same ids, well formed, planned first: the messages do not change
    plan([((2,) * len(ids), ids) for _, ids in factors])
    with pytest.raises(ValueError, match=message):
        contract(factors)
    with pytest.raises(ValueError, match=message):
        plan([(a.shape, ids) for a, ids in factors])


@st.composite
def _networks(draw):
    """(kind, sizes, ids of each factor, budget) of a banded network.

    A chain of clasps (k, k+1) touches every id, a band of width 4 keeps
    every step small, and a pile of vector factors on one id and a few
    0-d factors are added on top.  Ids may repeat within a factor.
    """
    n_ids = draw(st.integers(1, 70))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_ids, max_size=n_ids))
    nets = [(k, k + 1) for k in range(n_ids - 1)]
    for _ in range(draw(st.integers(0, 30))):
        base = draw(st.integers(0, n_ids - 1))
        top = min(base + 3, n_ids - 1)
        nets.append(tuple(draw(st.lists(st.integers(base, top), max_size=4))))
    pile = draw(st.integers(0, n_ids - 1))
    nets += [(pile,)] * draw(st.integers(0, 40))
    nets += [()] * draw(st.integers(0, 3))
    nets = draw(st.permutations(nets))
    kind = draw(st.sampled_from(["float", "complex", "object"]))
    budget = draw(st.one_of(st.none(), st.integers(1, 400)))
    return kind, sizes, nets, budget


def _arrays(kind, sizes, nets):
    rng = np.random.default_rng(len(nets))
    out = []
    for ids in nets:
        shape = [sizes[i] for i in ids]
        if kind == "object":
            a = np.array(rng.integers(-3, 4, size=shape).tolist(), dtype=object)
        else:
            a = rng.uniform(0.5, 1.5, size=shape)
            if kind == "complex":
                a = a + 1j * rng.uniform(-0.5, 0.5, size=shape)
        out.append((a, ids))
    return out


def _outcome(f, *args):
    try:
        value, step = f(*args)
    except BudgetError as exc:
        return "BudgetError", str(exc)
    return type(value), value, step


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(net=_networks())
# 60 distinct ids
@example(net=("float", [2] * 60, [(k, k + 1) for k in range(59)], None))
# repeated ids in one factor, next to 0-d factors
@example(net=("complex", [2, 3, 2], [(0, 0), (1, 2, 1), (), (2, 0), ()], None))
# 40 factors on one id, after a chain
@example(net=("float", [3] * 4, [(0, 1), (1, 2), (2, 3)] + [(2,)] * 40, None))
# object ints, refused at one budget, run at the next
@example(net=("object", [3] * 5, [(k, k + 1) for k in range(4)], 8))
@example(net=("object", [3] * 5, [(k, k + 1) for k in range(4)], 9))
def test_contract_matches_reference(net):
    kind, sizes, nets, budget = net
    factors = _arrays(kind, sizes, nets)
    want = _outcome(contract_reference, factors, budget)
    _clear_plans()
    assert _outcome(contract, factors, budget) == want  # planned here
    assert _outcome(contract, factors, budget) == want  # from the cache
