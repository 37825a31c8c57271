"""Gate the benchmark's deterministic work counts per commit.

Runs ``bench/run.py --quick --trace 1`` on every workload and compares
all of ``run.EXACT_COUNTS`` — the matcher's retrieved and refined
ratios, refinement pairs, search candidates and states, hit ratio and
answers per query; the service's cache hit ratios, rejections and
sheds; the store's WAL bytes and appends per write, write
amplification and recovery verdict; the SQL baseline's rows examined;
spans per query — with the checked-in expectation
``tools/exact_counts_quick.json``.  A change that moves any of them
changed what the system does, not merely how fast it does it.

    python tools/check_counts.py            # compare; exit 1 on a mismatch
    python tools/check_counts.py --write    # record the current counts

``bench/run.py`` pins ``PYTHONHASHSEED`` to its seed, so the counts are
a function of the code and the interpreter's string hash (siphash13 on
Python 3.11 and later); record the expectation on such a Python.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "exact_counts_quick.json"

sys.path.insert(0, str(ROOT))
from bench.run import EXACT_COUNTS, WORKLOADS  # noqa: E402


def measure(workload: str) -> Dict[str, float]:
    """The exact counts of one quick traced run of *workload*."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick",
         "--trace", "1", "--workload", workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record the counts in {EXPECTED.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    measured = {workload: measure(workload) for workload in sorted(WORKLOADS)}
    if args.write:
        EXPECTED.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {len(measured) * len(EXACT_COUNTS)} counts to "
              f"{EXPECTED.relative_to(ROOT)}")
        return 0
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    bad = 0
    for workload, counts in measured.items():
        for name, value in counts.items():
            want = expected[workload][name]
            verdict = "ok" if value == want else "MISMATCH"
            bad += value != want
            print(f"{workload}/{name} {value!r} (expected {want!r}) {verdict}")
    print(f"-- {bad} mismatch(es)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
