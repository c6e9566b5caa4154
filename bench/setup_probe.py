"""Time `import pathrel` plus reading one workload's input files, in a fresh process.

Usage: python3 bench/setup_probe.py SRC_DIR SCHEMA TRAIN TEST OTHER_FILE...
Prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pathrel  # noqa: E402

schema = pathrel.load_schema(sys.argv[2])
for dataset in sys.argv[3:5]:
    pathrel.load_dataset(dataset, schema)
for other in sys.argv[5:]:
    with open(other, "rb") as fh:
        fh.read()
print(repr(time.perf_counter() - start))
