import numpy as np
import pytest

from doubletop.contract import BudgetError, contract


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
