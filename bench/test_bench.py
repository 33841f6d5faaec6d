"""Tests of the benchmark harness: python3 -m pytest bench"""

import gc
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import CACHES, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, stratified_sample  # noqa: E402

engine = worker.import_engine()


def clear_caches():
    for cache in Tracer(engine).caches.values():
        cache.cache_clear()


def prefix(name, count=25):
    workload = WORKLOADS[name]
    return workload, workload.make(random.Random(7))[:count]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_renders_the_same_bytes_and_self_time_fits(name):
    workload, instances = prefix(name)
    clear_caches()
    plain, _, _ = worker.run_instances(engine, workload, instances)
    clear_caches()
    tracer = Tracer(engine)
    traced, times, _ = worker.run_instances(engine, workload, instances, tracer)
    wall = sum(times)
    assert [workload.render(o) for o in traced] == [workload.render(o) for o in plain]
    assert all(workload.check(i, o) for i, o in zip(instances, plain))
    metrics = tracer.metrics()
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) <= wall
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s"))
    assert tracer.unmeasured == []


def test_tracer_patches_every_binding_and_restores_it():
    mul, rmul = engine.Polynomial.__mul__, engine.Polynomial.__rmul__
    symmetrizer = engine.hallittlewood.jacobi_symmetrizer
    tracer = Tracer(engine)
    tracer.install()
    try:
        assert engine.Polynomial.__mul__ is not mul
        assert engine.Polynomial.__rmul__ is not rmul
        assert engine.hallittlewood.jacobi_symmetrizer is not symmetrizer
        assert engine.gysin.signed_permutation_sum is engine.antisym.signed_permutation_sum
        x = engine.Polynomial.x(2, 1)
        assert 3 * x == x * 3
    finally:
        tracer.uninstall()
    assert engine.Polynomial.__mul__ is mul and engine.Polynomial.__rmul__ is rmul
    assert engine.hallittlewood.jacobi_symmetrizer is symmetrizer
    assert tracer.stats["polyring.mul"]["calls"] == 2


def test_fallback_counts_direct_division_by_the_vandermonde():
    clear_caches()
    tracer = Tracer(engine)
    tracer.install()
    try:
        with pytest.raises(engine.NotDivisibleError):
            engine.hall_littlewood_r_coset(3, (1, 0, 1))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["antisym.alternating_vandermonde_quotient.fallback"] == 1
    assert metrics["hallittlewood.r_coset.failed"] == 1


def test_every_lru_cache_of_the_package_is_listed():
    found = {
        (name.rsplit(".", 1)[-1], attr)
        for name, module in sys.modules.items()
        if name.startswith("hlgysin.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == name
    }
    assert found == set(CACHES.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_import_engine_refuses_a_copy_outside_src(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match="not from"):
        worker.import_engine()


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-tminus1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = WORKLOADS[name].make
    assert make(random.Random(3)) == make(random.Random(3))
    assert len(make(random.Random(3))) == len(make(random.Random(4))) >= 100


def test_stratified_sample_shares_do_not_depend_on_the_seed():
    population = list(range(100))
    key = lambda v: v % 7
    shares = lambda seed: sorted(
        key(v) for v in stratified_sample(population, key, 30, random.Random(seed))
    )
    assert shares(1) == shares(2)
    assert len(set(stratified_sample(population, key, 30, random.Random(1)))) == 30


def test_reference_task_is_fixed_and_leaves_the_collector_as_it_was():
    assert reference.task() == reference.task()
    assert len(reference.task()) > 100
    assert gc.isenabled()
    assert reference.timed() > 0
    assert gc.isenabled()


def test_oracles_agree_with_independent_formulas():
    for a in range(7):
        for b in range(7):
            closed = 0 if a * b % 2 else math.comb((a + b) // 2, a // 2)
            assert oracles.gaussian_at_minus_one(a, b) == closed
    assert oracles.hook_content((2, 1), 3) == 8
    assert oracles.normalizer_coeffs((0, 0, 1, 0)) == [1, 2, 2, 1]
    assert oracles.schur_p_at((2,), (1, 2)) == (1 + 2) ** 2


def test_oracles_reject_wrong_outputs():
    r = engine.hall_littlewood_r(3, (1, 0, 0))
    p = engine.hall_littlewood_p(3, (1, 0, 0))
    assert oracles.r_at_t1_is_orbit(r.terms, (1, 0, 0))
    assert oracles.r_is_p_times_v(r.terms, p.terms, (1, 0, 0))
    bumped = dict(r.terms)
    bumped[next(iter(bumped))] += 1
    assert not oracles.r_at_t1_is_orbit(bumped, (1, 0, 0))
    assert not oracles.r_is_p_times_v(bumped, p.terms, (1, 0, 0))

    s = engine.schur_s((2, 1), 3)
    at = (2, -3, 5)
    assert oracles.schur_s_ok(s.terms, (2, 1), 3, at)
    assert not oracles.schur_s_ok((s + engine.Polynomial.x(3, 1) ** 3).terms, (2, 1), 3, at)
    sp = engine.schur_p_recursive((3, 1), 4)
    assert oracles.schur_p_ok(sp.terms, (3, 1), 4, (1, -2, 4, 7))
    assert not oracles.schur_p_ok((2 * sp).terms, (3, 1), 4, (1, -2, 4, 7))

    assert oracles.expected_classification((2, 0, 2, 0)) == (False, False)
    assert oracles.expected_classification((2, 0, 2, 1)) == (False, True)
    assert oracles.expected_classification((1, 1, 0, 2, 2)) == (True, True)
    assert oracles.expected_classification((1, 0, 1, 2, 2)) == (False, None)


def test_d_matches_the_engine():
    for n in range(2, 8):
        for q in range(1, n):
            for k in range(q + 1):
                for h in range(n - q + 1):
                    assert oracles.t_minus1_d(n, q, k, h) == engine.d_coefficient(n, q, k, h)
