"""Rewrite the golden corpus manifest (``tests/golden/manifest.json``).

Runs every case of ``tests/test_golden.py`` in a temporary directory and
writes the hashes it gets.  With ``--check`` it writes nothing: it lists
the cases whose hashes differ from the manifest and exits 1 when there
are any.

    PYTHONPATH=src python tests/golden/regenerate.py [--check]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="list changed cases; write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        hashes, _ = test_golden.run_corpus(Path(directory))
    if args.check:
        pinned = json.loads(test_golden.MANIFEST.read_text()) if test_golden.MANIFEST.exists() else {}
        changed = test_golden.changed_cases(pinned, hashes)
        print("\n".join(changed) if changed else "no case changed")
        return 1 if changed else 0
    test_golden.MANIFEST.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} cases to {test_golden.MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
