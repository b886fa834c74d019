"""Copy each registered artifact's benchmark_results/<file>.md into its
``<!-- BEGIN name --> ... <!-- END name -->`` block of EXPERIMENTS.md.

Run after `pytest benchmarks/ --benchmark-only` or `jobs/run_experiment.py`,
with the `repro` package importable (installed, or `src` on PYTHONPATH):
    python tools/assemble_experiments.py
"""
from __future__ import annotations

import os
import re
import sys

from repro.experiments import ARTIFACTS
from repro.reporting import RESULTS_DIR

TARGET = os.path.join(os.path.dirname(RESULTS_DIR), "EXPERIMENTS.md")


def main() -> None:
    with open(TARGET) as f:
        text = f.read()
    for name, artifact in ARTIFACTS.items():
        path = os.path.join(RESULTS_DIR, f"{artifact.results}.md")
        if not os.path.exists(path):
            sys.exit(f"{name}: results file {path} not found")
        begin, end = f"<!-- BEGIN {name} -->", f"<!-- END {name} -->"
        block = re.compile(re.escape(begin) + r".*?" + re.escape(end), flags=re.S)
        if len(block.findall(text)) != 1:
            sys.exit(f"{name}: EXPERIMENTS.md needs exactly one {begin} ... {end} block")
        with open(path) as f:
            body = f.read().strip()
        text = block.sub(lambda _: f"{begin}\n{body}\n{end}", text)
    with open(TARGET, "w") as f:
        f.write(text)


if __name__ == "__main__":
    main()
