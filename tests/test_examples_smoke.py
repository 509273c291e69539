"""Smoke tests that the shipped examples run end to end.

Every ``examples/*.py`` is executed (1-2 s each); each must complete without
error and print its headline metrics, so an example cannot rot unseen.
"""

import logging
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example {name} is missing"
    # An example may configure logging (onto the captured stderr of this
    # test); the rest of the suite must not inherit that handler.
    logger = logging.getLogger("repro")
    handlers, level = list(logger.handlers), logger.level
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        logger.handlers[:] = handlers
        logger.setLevel(level)
    return capsys.readouterr().out


#: Every shipped example with a fragment of its headline output.
EXAMPLES = [
    ("uncertainty_isosurface.py", "recovered by uncertainty"),
    ("warpx_adaptive_roi.py", "SZ3MR (pad+eb)"),
    ("store_random_access.py", "blocks decoded"),
    ("serve_shared_cache.py", "0 new decodes"),
    ("http_gateway.py", "/health: ok=True"),
    ("shard_fanout.py", "post-rebalance reads still bit-for-bit"),
    ("observe_daemon.py", "read blocks by outcome"),
    ("postprocess_blockwise.py", "ours (dynamic a)"),
    ("nyx_amr_insitu.py", "re-read last container"),
]


@pytest.mark.parametrize("name,expected_fragment", EXAMPLES)
def test_example_runs_and_reports(name, expected_fragment, capsys):
    output = _run_example(name, capsys)
    assert expected_fragment in output


def test_quickstart_reports_quality(capsys):
    output = _run_example("quickstart.py", capsys)
    assert "compression ratio" in output
    assert "PSNR" in output


def test_every_example_is_covered():
    covered = {"quickstart.py"} | {name for name, _ in EXAMPLES}
    assert covered == {path.name for path in EXAMPLES_DIR.glob("*.py")}
