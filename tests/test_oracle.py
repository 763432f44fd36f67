"""The grid oracle's skip rule: the same answer, bit for bit, with less work."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import tripcover.oracle as oracle
from tripcover import parse_instance
from tripcover.mixed_distance import DEFAULT_COVERAGE_TOL
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
        # dozens of live pairs share an edge pair: the floors of many pairs at
        # once, and a box shared by many blocks
        ("grid5-15-60-res64", grid_instance_doc(5, 15, 60), 64),
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


def _bench_variants():
    # the benchmark's reflected and relabelled instances: the same arithmetic
    # as the base instance with other edge and pair orders, so other ties
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the module runs
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [
        (f"{name}-seed{seed}-{k}", doc)
        for name in ("suite20", "grid4")
        for seed in (1, 2)
        for k, doc in enumerate(workloads.workload_docs(name, seed))
    ]


VARIANTS = _bench_variants()


@pytest.mark.parametrize("doc", [case[1] for case in VARIANTS], ids=[case[0] for case in VARIANTS])
def test_oracle_grid_breaks_ties_as_the_reference_on_bench_variants(doc):
    inst = parse_instance(doc)
    result = oracle_grid(inst, res=200)
    assert (result.objective, result.x1, result.x2) == reference_oracle_grid(inst, 200)


def test_nothing_coverable_reports_zero_at_the_start_of_edge_0():
    doc = fig4_doc()
    doc["pairs"] = [{**pair, "d": 0.01} for pair in doc["pairs"]]
    inst = parse_instance(doc)
    start = network_point(inst.network, 0, 0.0)
    result = oracle_grid(inst, res=50)
    assert (result.objective, result.x1, result.x2) == (0.0, start, start)
    assert (result.objective, result.x1, result.x2) == reference_oracle_grid(inst, 50)


def test_no_pairs_reports_zero_at_the_start_of_edge_0():
    doc = fig4_doc()
    doc["pairs"] = []
    inst = parse_instance(doc)
    start = network_point(inst.network, 0, 0.0)
    result = oracle_grid(inst, res=5)
    assert (result.objective, result.x1, result.x2) == (0.0, start, start)
    assert (result.objective, result.x1, result.x2) == reference_oracle_grid(inst, 5)


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


@pytest.mark.parametrize("doc, res", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_floors_and_blocks_hold_every_sample_the_reference_covers(doc, res):
    # the certification of the oracle's floors on every edge pair: each row
    # and column floor is at most its row or column of alpha * d, and each
    # term's blocks hold every sample the reference covers in that boarding
    # order (a term not listed, or an edge pair without blocks, covers
    # nothing); and of its weight bounds: every sample total of the reference
    # is at most its edge pair's bound and its row's bound
    inst = parse_instance(doc)
    net = inst.network
    dist = all_pairs_shortest_paths(net)
    grid = oracle._Grid(inst, dist, res, DEFAULT_COVERAGE_TOL)
    bounds = grid.bounds()
    n = 0
    for ei in range(len(net.edges)):
        ps = np.linspace(0.0, net.edges[ei].length, res)
        pxs, pys = _edge_positions(net, ei, ps)
        for ej in range(ei, len(net.edges)):
            assert (grid.first[n], grid.second[n]) == (ei, ej)
            qs = np.linspace(0.0, net.edges[ej].length, res)
            qxs, qys = _edge_positions(net, ej, qs)
            network = inst.alpha * _reference_edge_pair_distance(net, dist, ei, ej, ps[:, None], qs[None, :])
            rfloor, cfloor = oracle._network_floors(net, dist, inst.alpha, ei, ej, ps, qs)
            assert np.all(rfloor <= network.min(axis=1)), (ei, ej)
            assert np.all(cfloor <= network.min(axis=0)), (ei, ej)
            box, terms = grid.terms(n) or ((slice(0, 0), slice(0, 0)), [])
            blocks = {k: (b12, b21) for k, b12, b21 in terms}
            total = np.zeros_like(network)
            for k, pair in enumerate(inst.pairs):
                a = inst.facility_position(pair.origin)
                b = inst.facility_position(pair.dest)
                f12 = (np.hypot(a.x - pxs, a.y - pys)[:, None] + network) + np.hypot(b.x - qxs, b.y - qys)
                f21 = (np.hypot(a.x - qxs, a.y - qys) + network) + np.hypot(b.x - pxs, b.y - pys)[:, None]
                for f, block in zip((f12, f21), blocks.get(k, (None, None))):
                    outside = np.ones(f.shape, dtype=bool)
                    if block:
                        outside[box][block] = False
                    assert not np.any(outside & (f <= pair.acceptance + DEFAULT_COVERAGE_TOL)), (ei, ej, k)
                total[np.minimum(f12, f21) <= pair.acceptance + DEFAULT_COVERAGE_TOL] += pair.weight
            assert total.max() <= bounds[n], (ei, ej)
            if terms:
                assert np.all(total[box].max(axis=1) <= grid.row_bounds(box, terms)), (ei, ej)
            n += 1
    assert n == len(bounds)


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


def test_grid4_samples_only_the_boxes_of_its_blocks(monkeypatch):
    # the row and column floors leave 115 of the 300 edge pairs of grid4/10/12
    # with a block, and alpha * d is computed at 2,482,578 samples, against
    # 6,040,000 on the 151 full grids that the edge-pair floor alone leaves
    grids = cells = 0
    sample = oracle.edge_pair_distance

    def counted(*args):
        nonlocal grids, cells
        network = sample(*args)
        grids += 1
        cells += network.size
        return network

    monkeypatch.setattr(oracle, "edge_pair_distance", counted)
    inst = parse_instance(grid_instance_doc(4, 10, 12))
    assert oracle_grid(inst, res=200).objective == 11.0
    assert grids <= 115
    assert cells <= 2_482_578


def test_grid4_samples_only_what_may_beat_the_incumbent(monkeypatch):
    # best first by weight bound: the first box sampled reaches 11, and no
    # other edge pair's bound beats it or ties it at a smaller index
    grids = cells = 0
    sample = oracle.edge_pair_distance

    def counted(*args):
        nonlocal grids, cells
        network = sample(*args)
        grids += 1
        cells += network.size
        return network

    monkeypatch.setattr(oracle, "edge_pair_distance", counted)
    inst = parse_instance(grid_instance_doc(4, 10, 12))
    assert oracle_grid(inst, res=200).objective == 11.0
    assert grids <= 1
    assert cells <= 40_000


def test_oracle_imports_nothing_of_the_solver():
    # the oracle checks the solver, so it may share only the default tolerance
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module or "", set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.name, set()) for a in node.names)
    forbidden = {"bounds", "fds_solver", "level_curves"}
    for module, names in imported.items():
        assert not forbidden & {module.rpartition(".")[2], *names}, module
    assert imported.get("mixed_distance") == {"DEFAULT_COVERAGE_TOL"}
