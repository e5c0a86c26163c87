"""Stub handwriting engine for the external-engine workload.

    python -S -I word_engine.py SCRIPT_DIR IN.pgm

Prints the script entry keyed by a digest of the input PGM bytes. A crop
the script does not know exits 3, as a failing engine would.
"""

import hashlib
import sys


def main() -> int:
    script_dir, in_path = sys.argv[1:3]
    with open(in_path, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:32]
    try:
        with open(f"{script_dir}/{key}.txt", "rb") as f:
            reading = f.read()
    except FileNotFoundError:
        sys.stderr.write(f"word engine: no script entry for {key}\n")
        return 3
    sys.stdout.buffer.write(reading)
    return 0


if __name__ == "__main__":
    sys.exit(main())
