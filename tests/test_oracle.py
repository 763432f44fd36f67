"""The grid oracle's skip rule: the same answer, bit for bit, with less work."""

import numpy as np
import pytest

import tripcover.oracle as oracle
from tripcover import parse_instance
from tripcover.model import network_point
from tripcover.oracle import _edge_positions, oracle_grid
from tripcover.preprocess import all_pairs_shortest_paths
from conftest import (
    SUITE_SEEDS,
    _reference_edge_pair_distance,
    fig4_doc,
    grid_instance_doc,
    random_instance_doc,
    reference_oracle_grid,
    transformed_doc,
    trapezoid_doc,
)

CASES = (
    [(f"suite{seed}-res{res}", random_instance_doc(seed), res) for seed in SUITE_SEEDS for res in (200, 17)]
    + [
        ("fig4", fig4_doc(), 200),
        ("fig4-res2", fig4_doc(), 2),
        ("fig4-res3", fig4_doc(), 3),
        ("trapezoid-a03", trapezoid_doc(alpha=0.3), 200),
        ("trapezoid-a04", trapezoid_doc(alpha=0.4), 200),
        ("grid4-10-12", grid_instance_doc(4, 10, 12), 200),
    ]
    + [
        (f"seed{seed}-{name}", transformed_doc(random_instance_doc(seed), **move), 64)
        for seed in (104, 107)
        for name, move in (("scale1e-3", {"scale": 1e-3}), ("scale1e6", {"scale": 1e6}), ("shift1e6", {"shift": 1e6}))
    ]
)


@pytest.mark.parametrize("doc, res", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_oracle_grid_equals_the_unskipped_reference(doc, res):
    inst = parse_instance(doc)
    result = oracle_grid(inst, res=res)
    assert (result.objective, result.x1, result.x2) == reference_oracle_grid(inst, res)


def test_nothing_coverable_reports_zero_at_the_start_of_edge_0():
    doc = fig4_doc()
    doc["pairs"] = [{**pair, "d": 0.01} for pair in doc["pairs"]]
    inst = parse_instance(doc)
    start = network_point(inst.network, 0, 0.0)
    result = oracle_grid(inst, res=50)
    assert (result.objective, result.x1, result.x2) == (0.0, start, start)
    assert (result.objective, result.x1, result.x2) == reference_oracle_grid(inst, 50)


def _least_sampled_trips(inst, res):
    """Per O/D pair, its least trip length over every grid sample of the oracle."""

    net = inst.network
    dist = all_pairs_shortest_paths(net)
    least = np.full(len(inst.pairs), np.inf)
    for ei in range(len(net.edges)):
        ps = np.linspace(0.0, net.edges[ei].length, res)
        pxs, pys = _edge_positions(net, ei, ps)
        for ej in range(ei, len(net.edges)):
            qs = np.linspace(0.0, net.edges[ej].length, res)
            qxs, qys = _edge_positions(net, ej, qs)
            network = inst.alpha * _reference_edge_pair_distance(net, dist, ei, ej, ps[:, None], qs[None, :])
            for k, pair in enumerate(inst.pairs):
                a = inst.facility_position(pair.origin)
                b = inst.facility_position(pair.dest)
                f12 = (np.hypot(a.x - pxs, a.y - pys)[:, None] + network) + np.hypot(b.x - qxs, b.y - qys)
                f21 = (np.hypot(a.x - qxs, a.y - qys) + network) + np.hypot(b.x - pxs, b.y - pys)[:, None]
                least[k] = min(least[k], np.minimum(f12, f21).min())
    return least


@pytest.mark.parametrize("res", [2, 5, 33])
def test_acceptance_at_the_least_sampled_trip_keeps_every_pair(res):
    # with cov_tol 0 each pair is covered only where its trip length is least,
    # the tightest case for the floors of the skip rule
    for seed in SUITE_SEEDS:
        doc = random_instance_doc(seed)
        least = _least_sampled_trips(parse_instance(doc), res)
        doc["pairs"] = [{**pair, "d": float(d)} for pair, d in zip(doc["pairs"], least)]
        inst = parse_instance(doc)
        result = oracle_grid(inst, res=res, cov_tol=0.0)
        assert (result.objective, result.x1, result.x2) == reference_oracle_grid(inst, res, cov_tol=0.0)
        assert result.objective > 0.0


def test_grid4_samples_fewer_edge_pairs_than_it_has(monkeypatch):
    # 151 of the 300 edge pairs of grid4/10/12 have a pair that may be covered
    calls = 0
    sample = oracle.edge_pair_distance

    def counted(*args):
        nonlocal calls
        calls += 1
        return sample(*args)

    monkeypatch.setattr(oracle, "edge_pair_distance", counted)
    inst = parse_instance(grid_instance_doc(4, 10, 12))
    assert oracle_grid(inst, res=200).objective == 11.0
    assert calls <= 151
