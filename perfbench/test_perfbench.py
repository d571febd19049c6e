"""Tests of the benchmark's input generator, checks and tracer.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from susychain import cli, lattice  # noqa: E402
from susychain.models import ModelKind, ModelParams, validate_params  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argvs_and_valid_draws(workload):
    def argvs(seed):
        return [workloads.static_argvs(workload, r, "out")
                for r in workloads.generate(workload, seed, 200)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)
    for req in workloads.generate(workload, 7, 200):
        p = ModelParams(ModelKind(req.model.kind), req.model.mass, req.model.flat_energy)
        assert validate_params(p) == []
        for argv in workloads.static_argvs(workload, req, "out"):
            values = [a.split("=", 1)[1] for a in argv if "=" in a]
            assert all(isinstance(cli._parse_value(v), (float, str)) for v in values)
            assert not any("np." in v for v in values)


def test_tight_binding_draws_follow_verify_sweep():
    for req in workloads.generate("analytic_pipeline", 3, 100):
        tb = dict(req.tb)
        assert abs(tb["t_ab"]) >= 0.1 and abs(tb["t_ab_inter"]) >= 0.1
        assert abs(tb["t_ac"] * tb["t_bc"]) >= 1e-3
        assert all(-1.5 <= v < 1.5 for v in tb.values())


def test_verify_seed_172_counts_toward_fail_frac(tmp_path):
    req = workloads.generate("analytic_pipeline", 0, 1)[0]
    client = run.Client(cli, "analytic_pipeline", tmp_path)
    records = [client.call(dataclasses.replace(req, verify_seed=172)), client.call(req)]
    assert records[0].outcome.problems == [workloads.KNOWN_DEFECT]
    assert records[1].outcome.problems == []
    assert run.fail_frac(records) == 0.5


class StubClient:
    def call(self, req, tracer=None):
        return run.Record(0.01, tracer is not None, workloads.Outcome([]), 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_sends_a_fixed_number_of_requests(workload):
    n = run.request_count(workload, 30, trace=0)
    assert n == max(run.TAIL_BEYOND + 1, round(30 * run.NOMINAL_RATE[workload]))
    assert run.request_count(workload, 30, trace=1) == (n + 1) // 2
    requests = workloads.generate(workload, 5, n)
    assert len(run.measure(StubClient(), requests, None)) == n
    assert len(run.measure(StubClient(), requests[:4], spans.Tracer())) == 8


def test_chain_gap_check_rejects_a_wrong_edge(tmp_path):
    req = workloads.generate("spectrum_chain_800", 0, 1)[0]
    argv = ["spectrum", "--out", str(tmp_path), "--cells", "800", *req.model.args()]
    runs = [(argv, cli.main(argv))]
    assert workloads.check("spectrum_chain_800", req, runs, str(tmp_path)).problems == []
    summary_path = tmp_path / "spectrum_summary.json"
    summary = json.loads(summary_path.read_text())
    summary["chain"]["gap_edge_pos"] *= 1.1
    summary_path.write_text(json.dumps(summary))
    problems = workloads.check("spectrum_chain_800", req, runs, str(tmp_path)).problems
    assert any("gap edge" in p for p in problems)


def test_summarize_self_time_and_concurrency():
    names = [spans.REQUEST, spans.MAIN, "lattice.chain_spectrum", "numcore.eigh_banded"]
    rows = np.array([
        # id, name, start, end, parent, request, thread
        [0, 0, 0.0, 10.0, -1, 0, 0],
        [1, 1, 1.0, 9.0, 0, 0, 0],
        [2, 2, 2.0, 6.0, 1, 0, 1],
        [3, 2, 4.0, 8.0, 1, 0, 2],
        [4, 3, 3.0, 4.0, 2, 0, 1],
    ])
    stats = spans.summarize(rows, names, [(0, "numcore.eigh_banded.dim", 30.0)])
    assert stats["cli.main.self_ms"] == pytest.approx(2e3)      # 8 - union(2..8)
    assert stats["lattice.chain_spectrum.self_ms"] == pytest.approx(7e3)
    assert stats["lattice.chain_spectrum.concurrency"] == pytest.approx(8 / 6)
    assert stats["numcore.eigh_banded.calls"] == 1
    assert stats["numcore.eigh_banded.dim"] == 30.0


def test_tracer_parents_pool_workers_on_cli_main_and_restores(tmp_path):
    original = cli.chain_spectrum
    tracer = spans.Tracer()
    with tracer.request(0):
        assert cli.chain_spectrum is not original
        rc = cli.main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
                       "--set", "mass=0.1", "--set", "method=both",
                       "--cells", "20", "--grid-points", "31"])
    assert rc == 0
    assert cli.chain_spectrum is original
    assert not hasattr(lattice.eigh_banded, "__wrapped__")
    rows = tracer.spans()
    name = {n: i for i, n in enumerate(tracer.names)}
    main_id = rows[rows[:, spans.NAME] == name[spans.MAIN], spans.ID]
    jobs = rows[rows[:, spans.NAME] == name["lattice.chain_spectrum"]]
    assert len(jobs) == 2 and set(jobs[:, spans.PARENT]) == set(main_id)
    stats = spans.summarize(rows, tracer.names, tracer.counts)
    assert stats["numcore.eigh_banded.calls"] == 2
    assert stats["numcore.eigh_banded.dim"] == 3 * 31
    assert stats["numcore.eigh_banded.bandwidth"] == 4


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "analytic_pipeline", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
