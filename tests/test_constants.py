"""Physical constants, bit for bit."""

from twpaopt.constants import (
    FLUX_QUANTUM,
    REDUCED_FLUX_QUANTUM,
    VACUUM_PERMITTIVITY,
)


def test_constants_frozen_values():
    assert FLUX_QUANTUM == float.fromhex("0x1.2a019a84284cdp-49")
    assert REDUCED_FLUX_QUANTUM == float.fromhex("0x1.7b6ef0ac4bd32p-52")
    assert VACUUM_PERMITTIVITY == float.fromhex("0x1.37876f1591150p-37")
