"""mixtext benchmark: seeded synthetic corpora through the public pipeline.

    python3 perfbench/run.py --workload scan_pages --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the repository root. Each run generates its workload's corpus from
the seed (in a child process, outside every metric), loads the program's
resources several times to time set-up, transcribes batches of fresh pages
until the measured time reaches --seconds (a batch is never cut short,
so a run measures at least one whole batch), and times set-up again. Every
page's options lists and final words are compared with the planted truth.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics. --trace 0 gives the end-to-end metrics; --trace 1 spends half the
time untraced and half traced and gives the per-layer metrics, writing the
spans under .perfbench/. --all runs the three workloads untraced, one child
process each, and prints their results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from corpus import SMALL_DICTIONARY, WORKLOADS, Workload, dictionary_paths
from tracer import FULL_TARGETS, LAYERS, PAGE_TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
# Set-up is timed in two windows, before and after the batches, so that its
# median spans the run rather than one moment of the machine's load.
MIN_SETUPS = 5
SETUP_SECONDS = 0.5
OPTION_SIZE = {"size1": 1, "size3": 3, "size4c": 4, "size4u": 4}
END_TO_END_UNITS = {
    "pages_per_s": "pages/s",
    "page_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


@dataclass
class Phase:
    """Outcome of the batches run under one tracer."""

    tracer: Tracer
    wall_s: float = 0.0
    attempted: int = 0
    matched: int = 0
    raised: int = 0
    wrong: int = 0
    bad_batches: int = 0
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.next_batch = 0
        from mixtext import pipeline, recognizers

        self.pipeline = pipeline
        self.recognizers = recognizers
        words, frequencies = dictionary_paths(workload, work)
        if workload.dictionary == "small":
            words = root / words
        self.base_config = pipeline.PipelineConfig(
            dictionary_path=str(words),
            frequency_path=None if frequencies is None else str(frequencies),
            enhance=True,
            deskew=workload.deskew,
            rotate_select=workload.rotate_select,
            nomination=workload.nomination,
            parallelism=1 if workload.name == "scan_pages" else 2,
        )
        self.setup_times: list[float] = []

    # --- corpus ----------------------------------------------------------------

    def generate(self, *piece: str) -> None:
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "corpus.py"), "--workload", self.workload.name,
             "--seed", str(self.seed), "--root", str(self.work), *piece],
            cwd=self.root, check=True, timeout=170,
        )

    def batch_config(self, batch_dir: Path):
        rz = self.recognizers
        if self.workload.external:
            engine = str(self.work / "engine")
            stub = [sys.executable, "-S", "-I"]
            machine = rz.RecognizerSpec(
                kind=rz.MACHINE_PRINTED, backend=rz.EXTERNAL,
                argv_template=(*stub, str(BENCH_DIR / "stubs" / "page_engine.py"), engine,
                               "{in}", "{out}"))
            hand = rz.RecognizerSpec(
                kind=rz.HANDWRITTEN, backend=rz.EXTERNAL,
                argv_template=(*stub, str(BENCH_DIR / "stubs" / "word_engine.py"), engine,
                               "{in}"))
        else:
            def script(name):
                return json.loads((batch_dir / f"{name}.json").read_text(encoding="utf-8"))

            machine = rz.RecognizerSpec(kind=rz.MACHINE_PRINTED, backend=rz.MOCK,
                                        mock_script=script("machine"))
            hand = rz.RecognizerSpec(kind=rz.HANDWRITTEN, backend=rz.MOCK,
                                     mock_script=script("hand"))
        return replace(self.base_config, machine_printed=machine, handwritten=hand)

    # --- measurement -------------------------------------------------------------

    def measure_setup(self) -> None:
        """Time load_resources at least MIN_SETUPS times and for SETUP_SECONDS."""
        with Tracer(PAGE_TARGETS) as tracer:
            started = time.perf_counter()
            count = 0
            while count < MIN_SETUPS or time.perf_counter() - started < SETUP_SECONDS:
                self.pipeline.load_resources(self.base_config)
                count += 1
        self.setup_times += tracer.setup_times()

    def run_phase(self, seconds: float, targets) -> Phase:
        phase = Phase(Tracer(targets))
        resources = None
        if self.workload.name == "scan_pages":  # run_corpus loads its own
            with phase.tracer:
                resources = self.pipeline.load_resources(self.base_config)
        while True:
            batch = self.next_batch
            self.next_batch += 1
            self.generate("--batch", str(batch))
            batch_dir = self.work / f"batch-{batch:03d}"
            cfg = self.batch_config(batch_dir)
            expected = json.loads((batch_dir / "expected.json").read_text(encoding="utf-8"))
            setups_before = len(phase.tracer.setup_times())
            with phase.tracer:
                started = time.perf_counter()
                if self.workload.name == "scan_pages":
                    outcome = self.transcribe_pages(batch_dir, cfg, resources)
                else:
                    outcome = self.run_corpus(batch_dir, cfg)
                wall = time.perf_counter() - started
            inner_setups = phase.tracer.setup_times()[setups_before:]
            phase.wall_s += wall - sum(inner_setups)
            self.check(batch_dir, expected, outcome, phase)
            shutil.rmtree(batch_dir)
            if phase.wall_s >= seconds:
                break
        self.setup_times += phase.tracer.setup_times()
        return phase

    def transcribe_pages(self, batch_dir: Path, cfg, resources) -> dict:
        """The `mixtext transcribe --out` path, one page at a time."""
        out = batch_dir / "out"
        out.mkdir()
        outcome = {"records": {}, "failures": {}, "report": None}
        for path in sorted((batch_dir / "input").iterdir()):
            try:
                record = self.pipeline.transcribe_page(path, cfg, resources)
            except Exception as exc:  # a page that raises is a failed page, not a crash
                outcome["failures"][path.stem] = f"{type(exc).__name__}: {exc}"
                continue
            (out / f"{record.source_id}.txt").write_text(record.final.to_text(), encoding="utf-8")
            (out / f"{record.source_id}.json").write_text(record.to_json(), encoding="utf-8")
            outcome["records"][path.stem] = record
        return outcome

    def run_corpus(self, batch_dir: Path, cfg) -> dict:
        result = self.pipeline.run_corpus(batch_dir / "input", cfg, batch_dir / "out",
                                          batch_dir / "labels")
        return {"records": {r.source_id: r for r in result.pages},
                "failures": dict(result.failures), "report": result.report}

    # --- correctness -------------------------------------------------------------

    def check(self, batch_dir: Path, expected: dict, outcome: dict, phase: Phase) -> None:
        out = batch_dir / "out"
        for stem, plant in sorted(expected.items()):
            phase.attempted += 1
            if stem in outcome["failures"]:
                phase.raised += 1
                note = "sideways page" if plant["sideways"] else "upright page"
                phase.problems.append(f"{stem} raised ({note}): {outcome['failures'][stem][:160]}")
                continue
            record = outcome["records"].get(stem)
            mismatch = self.compare(stem, plant, record, out)
            if mismatch:
                phase.wrong += 1
                phase.problems.append(f"{stem} wrong: {mismatch}")
            else:
                phase.matched += 1
        report = outcome["report"]
        if self.workload.name == "scan_pages":
            return
        produced = sorted(outcome["records"])
        if report is None or not (out / "report.json").is_file():
            phase.problems.append("no evaluation report written")
            phase.bad_batches += 1
        elif sorted(report.per_doc) != produced:
            phase.problems.append(f"report covers {sorted(report.per_doc)}, pages {produced}")
            phase.bad_batches += 1
        else:
            sizes = Counter(OPTION_SIZE[k] for stem in produced for k in expected[stem]["kinds"])
            if dict(report.options_totals) != dict(sizes):
                phase.problems.append(f"report options totals {report.options_totals} != {dict(sizes)}")
                phase.bad_batches += 1

    @staticmethod
    def compare(stem: str, plant: dict, record, out: Path) -> str:
        if record is None:
            return "no page record"
        options = {f"{li},{wi}": [o.a, o.b, o.c, o.d] for (li, wi), o in record.options.items()}
        if options != plant["options"]:
            diff = [k for k in plant["options"] if options.get(k) != plant["options"][k]]
            extra = sorted(set(options) - set(plant["options"]))
            return f"options lists differ at {(diff + extra)[:5]}"
        final = [list(line) for line in record.final.lines]
        if final != plant["final"]:
            return "final words differ"
        text = "".join(" ".join(line) + "\n" for line in plant["final"])
        txt_path, json_path = out / f"{stem}.txt", out / f"{stem}.json"
        if not txt_path.is_file() or txt_path.read_text(encoding="utf-8") != text:
            return "written transcription differs"
        if not json_path.is_file():
            return "no JSON record written"
        written = json.loads(json_path.read_text(encoding="utf-8"))["options"]
        if {k: [v["a"], v["b"], v["c"], v["d"]] for k, v in written.items()} != plant["options"]:
            return "written JSON record differs"
        return ""


# --- metrics -----------------------------------------------------------------------


def end_to_end(bench: Bench, phase: Phase) -> dict[str, float]:
    pages = phase.tracer.page_times()
    return {
        "pages_per_s": phase.matched / phase.wall_s,
        "page_s_p50": statistics.median(pages),
        "setup_s": statistics.median(bench.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": phase.matched / phase.attempted,
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def per_layer(untraced: Phase, traced: Phase) -> dict[str, tuple[float, str]]:
    tracer = traced.tracer
    names = tracer.by_name()
    counts = tracer.counts

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for layer, _, attr in FULL_TARGETS:
        fn = attr.rpartition(".")[2]
        metrics[f"{layer}.{fn}_s"] = (total(f"{layer}.{fn}"), "s")
    metrics.update({
        "imaging.rotate_calls": (calls("imaging.rotate"), "count"),
        "imaging.crop_word_calls": (calls("imaging.crop_word"), "count"),
        "recognizers.page_calls": (calls("recognizers.recognize_page"), "count"),
        "recognizers.word_calls": (calls("recognizers.recognize_word"), "count"),
        "recognizers.errors": (names.get("recognizers.recognize_page", {}).get("errors", 0)
                               + names.get("recognizers.recognize_word", {}).get("errors", 0), "count"),
        "recognizers.word_useful_ratio": (ratio(counts["c_passed"], calls("recognizers.recognize_word")), "ratio"),
        "hocr.words_parsed": (counts["words_parsed"], "count"),
        "lexicon.spell_chain_calls": (calls("lexicon.spell_chain"), "count"),
        "lexicon.gate_ratio": (ratio(counts["a_failed"], counts["a_checked"]), "ratio"),
        "embeddings.bigrams_embedded": (calls("embeddings.embed_bigram"), "count"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v["self_s"] for k, v in names.items() if k.startswith(layer + ".")), "s")
    untraced_rate = untraced.matched / untraced.wall_s
    traced_rate = traced.matched / traced.wall_s
    metrics["trace.pages_per_s_delta"] = (traced_rate - untraced_rate, "pages/s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


# --- reporting ---------------------------------------------------------------------


def source_info(root: Path) -> tuple[str, int]:
    """(commit or "unknown", lines of Python under src/); informational."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            commit = ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else commit
        else:
            commit = ref
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((root / "src").rglob("*.py")))
    return commit, lines


def run_workload(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # engine calls make their temp dirs here, inside the checkout
    tempfile.tempdir = str((work / "tmp").resolve())
    os.environ["TMPDIR"] = tempfile.tempdir
    work = work.resolve()

    bench = Bench(workload, args.seed, root, work)
    bench.generate("--shared")
    bench.measure_setup()
    if args.trace:
        untraced = bench.run_phase(args.seconds / 2, PAGE_TARGETS)
        traced = bench.run_phase(args.seconds / 2, FULL_TARGETS)
        phases = [untraced, traced]
    else:
        phases = [bench.run_phase(args.seconds, PAGE_TARGETS)]
    bench.measure_setup()
    main_phase = phases[0]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.raised + p.wrong for p in phases)
    wrong = sum(p.wrong for p in phases)
    bad_batches = sum(p.bad_batches for p in phases)
    commit, src_lines = source_info(root)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"commit={commit} src_lines={src_lines}")
    for p in phases:
        for problem in p.problems:
            print(f"  note: {problem}")
    e2e = end_to_end(bench, main_phase)
    pages = main_phase.tracer.page_times()
    print(f"  {'pages_per_s':<14}{e2e['pages_per_s']:>12.5f} pages/s  "
          f"({main_phase.matched} matching pages in {main_phase.wall_s:.2f} s)")
    print(f"  {'page_s_p50':<14}{e2e['page_s_p50']:>12.5f} s        ({len(pages)} pages)")
    page_tail = tail(pages)
    if page_tail is None:
        print(f"  {'page_s_tail':<14}{'-':>12} s        (needs 11 pages, run had {len(pages)})")
    else:
        print(f"  {'page_s_tail':<14}{page_tail[1]:>12.5f} s        "
              f"(p{page_tail[0]:.0f} of {len(pages)} pages)")
    print(f"  {'setup_s':<14}{e2e['setup_s']:>12.5f} s        ({len(bench.setup_times)} set-ups)")
    print(f"  {'peak_rss_mb':<14}{e2e['peak_rss_mb']:>12.1f} MB")
    print(f"  {'ok_ratio':<14}{e2e['ok_ratio']:>12.4f} ratio")
    print(f"  {'failed_ratio':<14}{failed / attempted:>12.4f} ratio    "
          f"({failed} of {attempted} pages: {failed - wrong} raised, {wrong} wrong)")

    if args.trace:
        metrics = per_layer(phases[0], phases[1])
        phases[1].tracer.write(work / "trace.json")
        by_name = phases[1].tracer.by_name()
        top = sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        print("  largest self times: " + ", ".join(f"{k} {v['self_s']:.3f}s" for k, v in top))
        if phases[1].tracer.missing:
            print("  not traced (missing): " + ", ".join(phases[1].tracer.missing))
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    result = {
        "correct": wrong == 0 and bad_batches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({
        **result, "workload": workload.name, "seed": args.seed, "commit": commit,
        "src_lines": src_lines, "page_times_s": pages, "setup_times_s": bench.setup_times,
    }, indent=1), encoding="utf-8")
    for leftover in work.iterdir():  # keep only the result and the spans
        if leftover.is_dir():
            shutil.rmtree(leftover)
    print(json.dumps(result))
    return 0


def run_all(args, root: Path) -> int:
    """Every workload, untraced, in its own process."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=root, stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mixtext benchmark")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload, untraced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "mixtext" / "__init__.py"
    if not package.is_file():
        print(f"error: run from the repository root; {package} not found", file=sys.stderr)
        return 2
    if not (root / SMALL_DICTIONARY).is_file():
        print(f"error: {SMALL_DICTIONARY} not found", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    import mixtext

    if Path(mixtext.__file__).resolve() != package.resolve():
        print(f"error: imported mixtext from {mixtext.__file__}, not {package}", file=sys.stderr)
        return 2
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
