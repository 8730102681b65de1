"""Suite-wide test settings.

A numpy ``RuntimeWarning`` (overflow, invalid value, division by zero)
fails the test that raised it: the package guards every place where such
a value is expected with ``np.errstate``, so an unguarded one is a defect.
A test that provokes one on purpose says so with its own
``filterwarnings`` mark, which takes precedence over this one.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            # prepended: marks applied later take precedence, so the test's own marks still win
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"), append=False)
