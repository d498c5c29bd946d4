"""Print the seconds a fresh interpreter spends importing mubc and making the
first call into each layer. run.py starts it several times per run and
reports the median as ``setup_s``."""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.warm_up()
print(time.perf_counter() - _START)
