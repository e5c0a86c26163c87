"""Stub page engine for the external-engine workload.

    python -S -I page_engine.py SCRIPT_DIR IN.pgm OUT

Writes OUT.hocr: the script entry keyed by a digest of the input PGM bytes
(the page's hOCR at the right rotation, garbage at the wrong ones). An
image the script does not know exits 3, as a failing engine would.
"""

import hashlib
import sys


def main() -> int:
    script_dir, in_path, out_base = sys.argv[1:4]
    with open(in_path, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:32]
    try:
        with open(f"{script_dir}/{key}.hocr", "rb") as f:
            hocr = f.read()
    except FileNotFoundError:
        sys.stderr.write(f"page engine: no script entry for {key}\n")
        return 3
    with open(out_base + ".hocr", "wb") as f:
        f.write(hocr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
