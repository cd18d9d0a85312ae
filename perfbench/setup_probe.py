"""One set-up, timed in a fresh interpreter: import simcal from the
checkout, write the workload's config and load it back.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <config path>
Prints the elapsed seconds. ``run.py`` starts it several times and
reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import simcal.cli  # noqa: E402  (the import is what is being timed)
from simcal import harness  # noqa: E402

from configs import config_text  # noqa: E402

workload, seed, path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
path.write_text(config_text(workload, seed))
harness.load_config(path)
print(repr(time.perf_counter() - t0))
