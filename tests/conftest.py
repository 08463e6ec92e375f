"""Session setup shared by the test modules.

``pyproject.toml`` puts this checkout's ``src`` first on ``sys.path``, ahead
of any ``PYTHONPATH``, so the report header names the ``qhcalc`` package the
tests import: a run meant for another tree shows the wrong path at once.
"""

from pathlib import Path

import qhcalc


def pytest_report_header(config):
    return f"qhcalc: {Path(qhcalc.__file__).parent}"
