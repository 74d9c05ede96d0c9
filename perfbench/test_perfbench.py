"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Problems that finish in well under a second, so three seeds stay cheap,
# and whose document changes with the seed (for C2, C3 and C2xC2, and for
# "stable.free", it does not, so they cannot test agreement across seeds).
SEEDS = (1, 2, 3)
CHEAP = {
    "elim.c4_z2",
    "elim.c4_z4",
    "elim.c4_z2z2",
    "stable.z4z4_z2",
    "stable.z2x3_z2_q",
    "stable.z2z2_z2z2",
}


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield run.import_package()
    signal.signal(signal.SIGALRM, previous)


def _documents(workload, seed, work):
    workloads.generate(workload, seed, run.ROOT, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", ["elim", "kinv", "stable", "oracle"])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    assert _documents(workload, 5, tmp_path / "a") == _documents(workload, 5, tmp_path / "b")


def test_seed_varies_labels_and_relation_bases(tmp_path):
    seen = {"elim.c4_z2z2.json": set(), "stable.z2x3_z2.json": set()}
    for seed in range(10):
        docs = _documents("elim", seed, tmp_path / f"e{seed}") | _documents("stable", seed, tmp_path / f"s{seed}")
        for name in seen:
            seen[name].add(docs[name])
    assert all(len(docs) > 1 for docs in seen.values())


def test_label_free_answers_agree_across_seeds(cli, tmp_path):
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    documents, answers = {}, {}
    for seed in SEEDS:
        for workload in ("elim", "stable"):
            for item in workloads.generate(workload, seed, run.ROOT, tmp_path / str(seed)):
                if item.id not in CHEAP:
                    continue
                documents.setdefault(item.id, set()).add(Path(item.argv[1]).read_bytes())
                _, status, report = run.call(cli.main, item.argv)
                assert status == "ok", item.id
                answers.setdefault(item.id, set()).add(json.dumps(workloads.answer(report)))
    assert set(answers) == CHEAP
    for problem, seen in answers.items():
        assert len(documents[problem]) > 1, f"{problem}: the seeds give one document"
        assert seen == {json.dumps(expected[problem])}, problem


def test_time_limit_records_a_timeout_not_an_internal_error(cli, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "INPUT_LIMIT_S", 0.01)
    item = next(i for i in workloads.generate("elim", 1, run.ROOT, tmp_path) if i.id == "elim.c4_z2z2")
    seconds, status, _ = run.call(cli.main, item.argv)
    assert status == "timeout"
    assert seconds == 0.01


def test_tracer_replaces_every_lookup_site_and_restores_it(cli):
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "twostage"]
    originals = {
        name: getattr(sys.modules[f"twostage.{name.split('.')[0]}"], name.split(".")[1])
        for name in tracing.TRACED
        if name.count(".") == 1
    }
    sites = {
        (m.__name__, key)
        for m in modules
        for key, value in vars(m).items()
        if any(value is f for f in originals.values())
    }
    assert ("twostage.moduli", "act_on_kinvariants") in sites
    assert ("twostage.abelian", "integer_kernel") in sites
    assert ("twostage.linalg", "smith_normal_form") in sites
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, key in sites:
            assert getattr(sys.modules[module], key).__wrapped__ in originals.values()
        assert sys.modules["twostage.linalg"].SnfDecomposition.solve.__wrapped__ is not None
    finally:
        tracer.remove()
    for module, key in sites:
        assert not hasattr(getattr(sys.modules[module], key), "__wrapped__")
    assert not hasattr(sys.modules["twostage.linalg"].SnfDecomposition.solve, "__wrapped__")


def test_tracer_keeps_its_counting_out_of_open_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None, lambda count, args, result: time.sleep(0.2))
    outer = tracer.wrap("outer", inner)
    tracer.input_id = "x"
    outer()
    values = tracer.values["x"]
    assert values["outer.s"] < 0.1
    assert values["outer.self_s"] < 0.1
    (_, _, start, end, _, _), = (s for s in tracer.spans if s[1] == "outer")
    assert end - start == values["outer.s"]


@pytest.mark.parametrize("traced, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_declared_metric_with_its_unit(traced, section, monkeypatch, capsys):
    small = workloads.Workload((workloads.case_a("kinv.c2c2_z2", [2, 2], [2]),))
    monkeypatch.setitem(workloads.WORKLOADS, "kinv", small)
    assert run.main(["--workload", "kinv", "--seed", "3", "--seconds", "1", "--trace", str(traced)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % (len(workloads.GOLDEN_RUNS) + 1) == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_declares_the_metrics_the_code_reports():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
