import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def oracle_module():
    """perfbench's independent min-max oracle module, loaded from its file
    (the library itself does not import it)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
