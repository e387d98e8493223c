"""Fresh-process probe for set-up time, import time and peak memory.

Usage: python3 probe.py SRC_DIR SPEC_JSON, where SPEC_JSON is
``{"model": PATH | null, "commands": [[ARG, ...], ...]}``.

Prints ``ready`` once ``mhi.cli`` is imported and the model, if any, is
loaded; the parent times the interval from start to that line. It then runs
each command through ``mhi.cli.main`` and prints ``{"peak_rss_kb": N}``.
"""

import json
import resource
import sys

sys.path.insert(0, sys.argv[1])
spec = json.loads(sys.argv[2])

import mhi.cli  # noqa: E402

if spec["model"]:
    from mhi.classify import TrainedModel

    TrainedModel.load(spec["model"])
print("ready", flush=True)

for argv in spec["commands"]:
    if mhi.cli.main(argv) != 0:
        sys.exit(f"probe: command failed: mhi {' '.join(argv)}")
print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
