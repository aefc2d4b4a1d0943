"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They run the real benchmark for a second per workload, so they take about a
minute.
"""

import json
import subprocess
import sys
from itertools import islice

import pytest

import run

sys.path.insert(0, str(run.SRC))

from inputs import warm_ops, write_cold_documents  # noqa: E402
from trilie import derivations  # noqa: E402
from trilie.algebra import LinearMap  # noqa: E402
from trilie.linalg import Matrix, ONE  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    record = run.WORK / f"{workload}-seed{seed}-trace{trace}.json"
    return lines, json.loads(lines[-1]), json.loads(record.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_by_name_with_its_unit(workload, trace):
    _, result, _ = bench(workload, 7, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace and workload != "cold_spaces":
        assert result["metrics"]["bench.span_coverage"]["value"] >= 0.9


def test_a_different_seed_changes_the_inputs(tmp_path):
    for workload in ("theorem", "probe"):
        first = list(islice(warm_ops(workload, 1), 12))
        assert first == list(islice(warm_ops(workload, 1), 12))
        assert first != list(islice(warm_ops(workload, 2), 12))

    def docs(seed, where):
        return [p.read_bytes() for p, _, _ in write_cold_documents(seed, 2, tmp_path / where)]

    assert docs(1, "a") == docs(1, "b")
    assert not set(docs(1, "a")) & set(docs(2, "c"))


def test_digests_repeat_across_two_invocations():
    runs = [[(phase, op, digest) for phase, op, _, _, digest in bench("theorem", 5, 0)[2]["ops"]]
            for _ in range(2)]
    for phase in ("warmup", "canary"):
        picked = [[d for d in digests if d[0] == phase] for digests in runs]
        assert picked[0] == picked[1] and all(d[2] for d in picked[0])
    timed = [[d for d in digests if d[0] == "timed"] for digests in runs]
    common = min(len(t) for t in timed)
    assert common >= 1 and timed[0][:common] == timed[1][:common]


def _perturb_level_two(sample):
    def corrupted(alg, kind, levels, seed):
        seq = sample(alg, kind, levels, seed)
        entries = [list(row) for row in seq.levels[2].matrix.entries]
        entries[0][0] += ONE
        bad = LinearMap.from_matrix(Matrix.from_rows(entries, alg.dim))
        return derivations.HigherMapSequence(kind, seq.levels[:2] + (bad,) + seq.levels[3:])
    return corrupted


@pytest.mark.parametrize("trusting_verifier", [False, True])
def test_a_corrupted_output_is_a_counted_failure(monkeypatch, capsys, trusting_verifier):
    """One entry of L_2 perturbed: every op fails, none crashes the run.

    With trusting_verifier the program's own verify_sequence is made to
    accept everything, so only the benchmark-side checks can catch it."""
    monkeypatch.setattr(derivations, "sample_sequence",
                        _perturb_level_two(derivations.sample_sequence))
    if trusting_verifier:
        monkeypatch.setattr(derivations, "verify_sequence", lambda alg, seq: ())
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "theorem", "--seed", "3", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench_dir / path.name).write_bytes(path.read_bytes())
    out = subprocess.run([sys.executable, str(bench_dir / "run.py"), "--workload", "theorem",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_a_corrupted_spaces_report_is_caught(tmp_path):
    from checks import Product, spaces_violation
    ((path, _, consts),) = write_cold_documents(1, 1, tmp_path)
    out = subprocess.run([sys.executable, "-m", "trilie.cli", "spaces", "--input", str(path),
                          "--json"], capture_output=True, timeout=120, check=True,
                         env={**run.os.environ, "PYTHONPATH": str(run.SRC)}).stdout
    dims = json.loads((run.HERE / "golden.json").read_text(encoding="utf-8"))["cold_spaces_dims"]
    assert spaces_violation(Product(consts), out, dims) is None
    report = json.loads(out)
    report["spaces"]["lie-triple-derivation"]["basis"][0][2][1] += "1"
    assert "lie-triple-derivation basis map 0" in spaces_violation(
        Product(consts), json.dumps(report).encode(), dims)
    assert spaces_violation(Product(consts), b"not json", dims).startswith("unreadable")
