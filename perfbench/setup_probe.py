"""Set-up probe: import thermoscale and validate one workload's plan, then exit.

The parent times this process from spawn to exit, which is what a user pays
before the first trial runs. Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``
with ``src`` on ``PYTHONPATH``.
"""

import sys

import plans

if sys.argv[1] == "cli-cold":
    import thermoscale.cli  # noqa: F401  (a CLI user pays for the front end too)
plans.campaign_plan(sys.argv[1], int(sys.argv[2]), 0).validate()
