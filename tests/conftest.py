import os
from pathlib import Path

from hypothesis import HealthCheck, settings

import ddcircuits

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The tests that run ``python -m ddcircuits`` in a subprocess must run the
# package the suite imports, installed or not: its root goes first on the
# subprocesses' PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(ddcircuits.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)
