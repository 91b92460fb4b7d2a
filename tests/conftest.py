import pytest

from dp3.tiling import BlockScheme
from support import CALIBRATED_LABELING


@pytest.fixture(scope="session")
def scheme():
    # built from the pinned labeling, not by the calibration search, so that a
    # broken builder or kernel fails its own tests rather than every test's
    # set-up; test_default_scheme_has_the_pinned_labeling ties the two
    return BlockScheme.from_labeling(CALIBRATED_LABELING)
