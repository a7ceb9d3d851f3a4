"""Tests of the benchmark itself (not of the package):

    python3 -m pytest bench

Each test trims a workload's case list so that it runs in seconds.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _trim(name, state):
    """Keep a few cheap cases of each workload."""
    if name == "modular_ladder":
        state.cases = [c for c in state.cases if c in ("fibonacci", "ising")]
    elif name == "statesum_lens":
        state.cases = sorted(state.cases, key=lambda c: (
            state.cats[c[0]].n ** state.tris[c[1:]].n_edges))[:4]
    else:
        for name, cases in state.cases.items():
            ref, _ = state.refs[name]
            for key in ("lens", "forests"):
                cases[key] = cases[key][:4]
                ref[key] = ref[key][:4]
    return state


@pytest.fixture(scope="module")
def dt():
    return run.fresh_import()


@pytest.fixture(scope="module")
def states(dt):
    return {name: _trim(name, w.setup(dt, seed=7))
            for name, w in WORKLOADS.items()}


def _attrs(dt):
    mods = [m for n, m in sys.modules.items()
            if n == "doubletop" or n.startswith("doubletop.")]
    return {(m.__name__, a): v for m in mods for a, v in vars(m).items()}


def test_tracer_restores_every_patched_attribute(dt):
    for mod, _ in TRACED:  # install() imports the lazily loaded ones
        importlib.import_module("doubletop." + mod)
    before = _attrs(dt)
    tracer = Tracer().install()
    try:
        # names the CLI imported with "from .x import f" are wrapped too
        assert dt.cli.compute_modular_data is not before[
            ("doubletop.cli", "compute_modular_data")]
        assert dt.state_sum is not before[("doubletop", "state_sum")]
        assert len(tracer._patched) > len(tracer.traced)
    finally:
        tracer.uninstall()
    after = _attrs(dt)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_digests_match(dt, states, name):
    w, state = WORKLOADS[name], states[name]
    plain = w.check(dt, state, w.run_pass(dt, state))
    with Tracer() as tracer:
        traced = w.check(dt, state, w.run_pass(dt, state))
    assert tracer.spans
    assert all(r["ok"] for r in plain + traced), [
        r for r in plain + traced if not r["ok"]]
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_at_most_wall(dt, states, name):
    w, state = WORKLOADS[name], states[name]
    with Tracer() as tracer:
        wall, _, _ = run.timed_pass(w, dt, state)
    stats = tracer.layer_stats()
    total_self = sum(st["self_s"] for st in stats.values())
    assert 0 < total_self <= wall
    for st in stats.values():
        assert 0 <= st["self_s"] <= st["busy_s"] + 1e-12


def test_injected_failure_raises_fail_ratio(dt, states, monkeypatch):
    w, state = WORKLOADS["statesum_lens"], states["statesum_lens"]
    real = dt.state_sum
    bad_cat = state.cats[state.cases[0][0]]
    bad_tri = state.tris[state.cases[0][1:]]

    def wrong_once(cat, tri, *args, **kwargs):
        z = real(cat, tri, *args, **kwargs)
        return z + 1e-6 if (cat, tri) == (bad_cat, bad_tri) else z

    assert run.summarize(w.check(dt, state, w.run_pass(dt, state)))[1] == 0
    monkeypatch.setattr(dt, "state_sum", wrong_once)
    attempted, failed = run.summarize(w.check(dt, state,
                                              w.run_pass(dt, state)))
    assert (attempted, failed) == (len(state.cases), 1)

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(dt, "state_sum", boom)
    recs = w.check(dt, state, w.run_pass(dt, state))
    assert run.summarize(recs) == (len(state.cases), len(state.cases))
    assert all("injected" in r["error"] for r in recs)


def test_reference_failure_fails_its_cases_only(dt, monkeypatch):
    w = WORKLOADS["statesum_lens"]

    def broken_cli(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(dt.cli, "main", broken_cli)
    state = _trim("statesum_lens", w.setup(dt, seed=7))
    recs = w.check(dt, state, w.run_pass(dt, state))
    for (name, _, _), r in zip(state.cases, recs):
        assert r["ok"] == name.startswith("vec_z"), r


def test_metric_names_match_benchmark_json(dt, states):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    w, state = WORKLOADS["two_route"], states["two_route"]
    with Tracer() as tracer:
        wall, _, _ = run.timed_pass(w, dt, state)
    names = set(run.layer_metrics(tracer, wall, wall))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(run.metric_units()) >= names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    res = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
