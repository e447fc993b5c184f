"""One set-up, as a user pays it: start Python, generate and write the
workload's inputs, import projarr.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import generators  # noqa: E402

generators.write_inputs(generators.jobs_for(sys.argv[1], int(sys.argv[2])), Path(sys.argv[3]))

import projarr.cli  # noqa: E402,F401
