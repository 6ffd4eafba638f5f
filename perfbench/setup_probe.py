"""One benchmark set-up in a fresh interpreter: import the program's
command-line module and make the workload's first input.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

Prints the import time in seconds.  ``run.py`` times this whole process
from spawn to exit, several times, for the ``setup_s`` metric.
"""

import sys
import time
from pathlib import Path


def main(workload: str, seed: int, out_dir: Path) -> None:
    t0 = time.perf_counter()
    import singwave.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import first_input

    first_input(workload, seed, out_dir)
    print(f"{import_s:.9f}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
