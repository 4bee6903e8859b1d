"""Set-up probe: a fresh process imports besovbm and builds one workload's inputs.

``run.py`` times this script from spawn to exit; the median over several
spawns is ``setup_s``.

    python3 perfbench/probe.py <workload> <seed> <work-dir> [--tiny]
"""

import sys

import run

if __name__ == "__main__":
    run.prepare()
    import workloads

    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name].build(seed, work_dir, "--tiny" in sys.argv[4:])
