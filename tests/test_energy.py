import pytest

from entrokit.core import ProcessRecord
from entrokit.energy import (
    AGAINST,
    ALONG,
    WeightPolygonal,
    check_path_independence,
    polygonal_work,
)
from entrokit.errors import DomainError, StructuralError
from entrokit.mutants import mutate_model


def _leg(a, b, work):
    return ProcessRecord(a, b, work, sigma=0.0)


def _states(gas, *uv):
    e = gas.process_engine
    return [e.state(u, v) for u, v in uv]


def test_two_leg_polygonal_work(gas):
    a1, a2, a3 = _states(gas, (1000, 0.01), (1100, 0.01), (900, 0.02))
    poly = WeightPolygonal(
        ((_leg(a1, a3, 5.0), ALONG), (_leg(a2, a3, 3.0), AGAINST)),
        (a1, a2),
    )
    assert polygonal_work(poly) == 2.0


def test_single_leg_polygonal_work(gas):
    a1, a3 = _states(gas, (1000, 0.01), (900, 0.02))
    poly = WeightPolygonal(((_leg(a1, a3, 7.0), ALONG),), (a1, a3))
    assert polygonal_work(poly) == 7.0


def test_broken_chain_raises(gas):
    a1, a2, a3, a4 = _states(gas, (1000, 0.01), (1100, 0.01), (900, 0.02), (950, 0.03))
    with pytest.raises(StructuralError):
        WeightPolygonal(
            ((_leg(a1, a3, 5.0), ALONG), (_leg(a2, a4, 3.0), AGAINST)),
            (a1, a2),
        )


def test_path_independence_on_gas(gas, rng):
    e = gas.process_engine
    pairs = [(e.sample_state(rng), e.sample_state(rng)) for _ in range(10)]
    result = check_path_independence(gas, pairs, k=5, seed=7)
    assert result.passed


def test_path_independence_requires_k_at_least_two(gas, rng):
    e = gas.process_engine
    with pytest.raises(DomainError):
        check_path_independence(gas, [(e.sample_state(rng), e.sample_state(rng))], k=1)


def test_noisy_engine_fails_path_independence(gas, rng):
    noisy = mutate_model(gas, "noisy_work")
    e = noisy.process_engine
    pairs = [(e.sample_state(rng), e.sample_state(rng)) for _ in range(5)]
    result = check_path_independence(noisy, pairs, k=5, seed=7)
    assert result.failed
    assert result.witnesses


def test_engine_rejects_zero_leg_request(gas, rng):
    e = gas.process_engine
    a, b = e.sample_state(rng), e.sample_state(rng)
    with pytest.raises(DomainError):
        e.connect_polygonal(a, b, rng, legs=0)


def test_identical_polygonals_have_zero_spread(gas, rng):
    e = gas.process_engine
    a, b = e.sample_state(rng), e.sample_state(rng)
    poly = e.connect_polygonal(a, b, rng, legs=2)
    w = polygonal_work(poly)
    assert w - polygonal_work(poly) == 0.0
