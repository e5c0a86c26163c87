"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from mixtext.docmodel import OptionsList  # noqa: E402
from mixtext.embeddings import hash_model  # noqa: E402
from mixtext.imaging import load_image  # noqa: E402
from mixtext.lexicon import Dictionary, spell_check  # noqa: E402
from mixtext.nomination import resolve_document  # noqa: E402


def generate(workload: str, seed: int, root: Path, batch: int = 0) -> Path:
    for piece in (["--shared"], ["--batch", str(batch)]):
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "corpus.py"), "--workload", workload,
             "--seed", str(seed), "--root", str(root), *piece],
            cwd=ROOT, check=True,
        )
    return root / f"batch-{batch:03d}"


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_identical_corpus(tmp_path, workload):
    generate(workload, 7, tmp_path / "a")
    generate(workload, 7, tmp_path / "b")
    first, second = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert first and first == second
    generate(workload, 8, tmp_path / "c")
    assert tree_bytes(tmp_path / "c") != first


@pytest.mark.parametrize("seed", [2, 3])
def test_external_engines_passes_on_other_seeds(seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "external_engines",
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    assert set(result["metrics"]) == {m["name"] for m in bench_spec()["end_to_end"]}


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tampered_output_counts_as_failed(tmp_path):
    workload = corpus.WORKLOADS["external_engines"]
    work = tmp_path / "work"
    bench = run.Bench(workload, 5, ROOT, work)
    bench.generate("--shared")
    bench.generate("--batch", "0")
    batch_dir = work / "batch-000"
    expected = json.loads((batch_dir / "expected.json").read_text(encoding="utf-8"))
    outcome = bench.run_corpus(batch_dir, bench.batch_config(batch_dir))

    clean = run.Phase(Tracer(()))
    bench.check(batch_dir, expected, outcome, clean)
    assert (clean.matched, clean.wrong, clean.raised) == (len(expected), 0, 0)

    stem = sorted(outcome["records"])[0]
    record = outcome["records"][stem]
    position = sorted(record.options)[0]
    options = dict(record.options)
    options[position] = OptionsList(a="tampered", b="tampered")
    outcome["records"][stem] = dataclasses.replace(record, options=options)
    other = sorted(outcome["records"])[1]
    (batch_dir / "out" / f"{other}.txt").write_text("tampered\n", encoding="utf-8")

    tampered = run.Phase(Tracer(()))
    bench.check(batch_dir, expected, outcome, tampered)
    assert tampered.wrong == 2 and tampered.matched == len(expected) - 2
    assert any("options lists differ" in p for p in tampered.problems)
    assert any("written transcription differs" in p for p in tampered.problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gated_forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = bench_spec()
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    phase = run.Phase(Tracer(()), wall_s=1.0, matched=1)
    emitted = run.per_layer(phase, phase)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: unit for name, (_, unit) in emitted.items()} == declared


def test_png_rows_use_sub_up_and_paeth(tmp_path):
    rng = np.random.default_rng(0)
    arr = np.full((60, 80), 255, dtype=np.uint8)
    arr[10:30, 5:70] = rng.integers(0, 256, size=(20, 65))
    arr[35:50, 20:40] = 0
    path = tmp_path / "page.png"
    data = corpus.encode_png(arr)
    path.write_bytes(data)
    assert np.array_equal(load_image(path).to_array(), arr)


def test_reference_context_nomination_matches_program():
    rng = random.Random(4)
    words = ["move", "house", "order", "<UNK>", "qzxqz", "time", "paper"]
    seq = []
    for _ in range(40):
        size = rng.choice((1, 3, 4))
        a = rng.choice(words)
        if size == 1:
            seq.append((a, a, None, None))
        elif size == 3:
            c = rng.choice(words[:3])
            seq.append((a + "q", "<UNK>", c, c))
        else:
            seq.append((a + "q", rng.choice(words), rng.choice(words) + "z", rng.choice(words)))
    program = resolve_document([OptionsList(*o) for o in seq], "context",
                               hash_model(reference.HASH_DIM))
    assert [w for line in program.lines for w in line] == reference.nominate_context(seq)


def test_reference_corrections_match_program():
    words, frequencies = corpus.synthetic_dictionary(3)
    sample = words[::50]
    lexicon = reference.Lexicon(sample, {w: frequencies[w] for w in sample})
    program = Dictionary(sample, {w: frequencies[w] for w in sample})
    planter = corpus.Planter(lexicon)
    planter.rng = random.Random(1)
    for length in (4, 5, 6, 7):
        truth, twist = planter.twisted(length)
        assert spell_check(twist, program).corrected == truth
        garble = planter.garble()
        assert spell_check(garble, program).corrected == reference.UNK
