import os

# One BLAS thread per process, as the benchmark runs: a FedFD-A run's adapter
# worker is a second process, and two BLAS threads in each oversubscribe a
# two-core machine. NumPy reads these once, when it is first imported, and
# pytest loads this file before any test module.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import multiprocessing  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a ``multiprocessing`` child process alive."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"the test left processes running: {left}"
