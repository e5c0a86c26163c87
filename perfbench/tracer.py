"""Spans and counters around the program's public functions, recorded from
outside the program.

`Tracer.install()` replaces each target function with a timing wrapper in
every `mixtext` module namespace that holds it, which is where callers look
it up (`mixtext.pipeline.rotate` and `mixtext.imaging.rotate` alike), and
restores the originals on exit. Spans (id, name, start, end, parent, thread,
raised) stay in memory; self time is a span's duration minus that of its
direct children, which run on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (layer, defining module, attribute); "Class.method" patches the class.
FULL_TARGETS = (
    ("imaging", "mixtext.imaging", "load_image"),
    ("imaging", "mixtext.imaging", "enhance"),
    ("imaging", "mixtext.imaging", "estimate_skew"),
    ("imaging", "mixtext.imaging", "rotate"),
    ("imaging", "mixtext.imaging", "crop_word"),
    ("recognizers", "mixtext.recognizers", "image_fingerprint"),
    ("recognizers", "mixtext.recognizers", "recognize_page"),
    ("recognizers", "mixtext.recognizers", "recognize_word"),
    ("hocr", "mixtext.hocr", "parse_hocr"),
    ("lexicon", "mixtext.lexicon", "load_dictionary"),
    ("lexicon", "mixtext.lexicon", "spell_chain"),
    ("lexicon", "mixtext.lexicon", "dictionary_score"),
    ("nomination", "mixtext.nomination", "resolve_document"),
    ("embeddings", "mixtext.embeddings", "embed_bigram"),
    ("metrics", "mixtext.metrics", "build_report"),
    ("docmodel", "mixtext.docmodel", "PageRecord.to_json"),
    ("pipeline", "mixtext.pipeline", "transcribe_page"),
    ("pipeline", "mixtext.pipeline", "select_rotation"),
    ("pipeline", "mixtext.pipeline", "load_resources"),
)
# What an untraced run needs: page wall times and set-up time.
PAGE_TARGETS = (
    ("pipeline", "mixtext.pipeline", "transcribe_page"),
    ("pipeline", "mixtext.pipeline", "load_resources"),
)
LAYERS = ("imaging", "recognizers", "hocr", "lexicon", "nomination", "embeddings",
          "metrics", "docmodel", "pipeline")


class Tracer:
    def __init__(self, targets=FULL_TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, raised)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []
        self._hooks = {
            "recognizers.recognize_word": self._after_word,
            "lexicon.spell_chain": self._after_spell,
            "hocr.parse_hocr": self._after_parse,
        }

    # --- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mixtext" or name.startswith("mixtext."))]
        for layer, module_name, attr in self.targets:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module else None
            if method:
                original = getattr(owner, method, None) if owner else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(owner, method, self._wrap(f"{layer}.{method}", original))
                continue
            if owner is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{layer}.{attr}", owner)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _patch(self, holder, name: str, wrapper) -> None:
        self._patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def _wrap(self, span_name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        hook = self._hooks.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, span_name, start, clock(), parent,
                              threading.get_ident(), True))
                stack.pop()
                raise
            spans.append((span_id, span_name, start, clock(), parent,
                          threading.get_ident(), False))
            stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # --- counters -------------------------------------------------------------

    def _count(self, **increments) -> None:
        with self._lock:
            self.counts.update(increments)

    def _after_word(self, args, result) -> None:
        # a non-empty handwriting reading is spell-checked next on this thread
        self._local.pending_reading = result or None

    def _after_spell(self, args, result) -> None:
        word = args[0]
        if word == getattr(self._local, "pending_reading", None):
            self._local.pending_reading = None
            self._count(c_checked=1, c_passed=int(result.passed))
        else:
            self._count(a_checked=1, a_failed=int(not result.passed))

    def _after_parse(self, args, result) -> None:
        self._count(words_parsed=len(result.words))

    # --- summaries ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        return {sid: (end - start) - child_time[sid] for sid, _, start, end, _, _, _ in self.spans}

    def by_name(self) -> dict[str, dict]:
        self_time = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _, _, raised in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["errors"] += int(raised)
            entry["total_s"] += end - start
            entry["self_s"] += self_time[sid]
        return dict(out)

    def page_times(self) -> list[float]:
        return [end - start for _, name, start, end, _, _, _ in self.spans
                if name == "pipeline.transcribe_page"]

    def setup_times(self) -> list[float]:
        return [end - start for _, name, start, end, _, _, _ in self.spans
                if name == "pipeline.load_resources"]

    def write(self, path: Path) -> None:
        parents = {sid: parent for sid, _, _, _, parent, _, _ in self.spans}

        def root(sid: int) -> int:
            while parents.get(sid):
                sid = parents[sid]
            return sid

        doc = {
            "fields": ["id", "name", "start", "end", "parent", "thread", "raised", "root"],
            "spans": [list(span) + [root(span[0])] for span in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
