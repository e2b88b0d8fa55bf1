"""Session set-up shared by every test file."""

import pytest

from rseg.cli import pin_malloc


@pytest.fixture(scope="session", autouse=True)
def _pinned_malloc():
    """Pin glibc's malloc thresholds for the test process, as every ``rseg`` command does.

    Criterion 7 and other tests train through library calls, which do not pin.
    """
    pin_malloc()
