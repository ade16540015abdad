import os
from pathlib import Path

import pytest

from wderiv import build_table

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """os.environ with ``src`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env

# The first five rows are small enough to check by hand; rows 6..8 were
# computed offline by an independent script (the explicit double sum over
# exact rationals) and frozen here so the tests do not depend on the code
# under test.
GOLDEN_ROWS = {
    1: (1,),
    2: (2, 1),
    3: (9, 8, 2),
    4: (64, 79, 36, 6),
    5: (625, 974, 622, 192, 24),
    6: (7776, 14543, 11758, 5126, 1200, 120),
    7: (117649, 255828, 248250, 137512, 45756, 8640, 720),
    8: (2097152, 5187775, 5846760, 3892430, 1651480, 445572, 70560, 5040),
}


@pytest.fixture(scope="session")
def table8():
    return build_table(8)


@pytest.fixture(scope="session")
def table40():
    return build_table(40)
