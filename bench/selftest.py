"""Self-test of the benchmark on tiny corpora.

Run from the repository root, either way:

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import corpus as corpora
import run

SCALE = 0.05
WORK = run.WORK / "selftest"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, seed: int, name: str) -> corpora.Corpus:
    return corpora.generate(workload, seed, WORK / name / workload, scale=SCALE)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.suffix != ".txt"}


def test_same_seed_gives_identical_corpora():
    shutil.rmtree(WORK, ignore_errors=True)
    for workload in corpora.WORKLOADS:
        first = _tiny(workload, 7, "a")
        again = _tiny(workload, 7, "b")
        other = _tiny(workload, 8, "c")
        assert _files(first.directory) == _files(again.directory)
        assert first.expected_flat == again.expected_flat
        assert first.data.read_bytes() != other.data.read_bytes()


def test_flipped_output_byte_counts_as_error():
    corpus = _tiny(corpora.CONVERT, 3, "flip")
    with run.Spawner() as spawner:
        good = spawner.run(run.CLI + corpus.cli_args(), corpus.directory / "stderr.txt")
    assert corpus.check(good.returncode, good.stdout) is None
    for at in (0, len(good.stdout) // 2, len(good.stdout) - 1):
        flipped = bytearray(good.stdout)
        flipped[at] ^= 0x01
        assert corpus.check(good.returncode, bytes(flipped)) is not None
    assert corpus.check(1, good.stdout) is not None

    # The same mismatch, met inside a timed run, is counted in `failed`.
    wrong = bytearray(corpus.expected_flat)
    wrong[len(wrong) // 2] ^= 0x01
    result = run.measure_e2e(
        dataclasses.replace(corpus, expected_flat=bytes(wrong)), 0, corpus.directory
    )
    # Every workload run fails; the set-up and reference runs of each round pass.
    assert result["failed"] >= 1
    assert result["attempted"] == 4 * result["failed"]


def test_report_verdicts_are_checked():
    classify = _tiny(corpora.CLASSIFY, 3, "verdicts")
    doc = {"elementCount": classify.elements, "statementCount": classify.statements,
           "conforming": ["graphStream", "subjectGraphStream"], "ambiguous": True}
    assert classify.check_report(doc) is None
    assert classify.check_report({**doc, "statementCount": classify.statements + 1}) is not None
    assert classify.check_report({**doc, "ambiguous": False}) is not None

    validate = _tiny(corpora.VALIDATE, 3, "verdicts")
    doc = {"consistent": True, "violations": [], "crossCheck": [
        {"streamType": "timestampedNamedGraphStream", "pass": True, "message": "m"},
        {"streamType": "flatQuadStream", "pass": True, "message": "m"},
    ]}
    assert validate.check_report(doc) is None
    doc["crossCheck"][1]["pass"] = False
    assert validate.check_report(doc) is not None


def test_every_workload_finishes_with_every_metric():
    import layers

    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(corpora.WORKLOADS)
    for workload in corpora.WORKLOADS:
        corpus = _tiny(workload, 5, "finish")
        e2e = run.measure_e2e(corpus, 0, corpus.directory)
        assert e2e["failed"] == 0, e2e["errors"]
        assert set(e2e["metrics"]) == end_to_end
        traced = layers.traced_run(corpus, 0, corpus.directory / "trace.json")
        assert traced["failed"] == 0, traced["errors"]
        assert set(traced["metrics"]) == per_layer
        spans = json.loads((corpus.directory / "trace.json").read_text())["spans"]
        assert all("self_s" in s and "parent" in s for s in spans)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
