"""Set-up a user pays before any work: import, config and CLI parser.

    python3 perfbench/setup_probe.py '{"duration_s": 420.0}'

The argument holds the workload's ``ExperimentConfig`` fields as JSON.
``run.py`` times whole fresh interpreters running this file, with
``PYTHONPATH`` pointing at the checkout's ``src``.
"""

import json
import sys

import blechannel
from blechannel.cli import build_parser

blechannel.ExperimentConfig(**json.loads(sys.argv[1]))
build_parser()
