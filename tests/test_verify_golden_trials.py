"""Golden verify reports at a trial override of 1000: larger blocks, more
dead-point references and the 200- and 100-trial caps than the default
counts reach.

``data/verify_all_seed0_trials1000.json`` is
``fdivbounds verify --suite all --seed 0 --trials 1000`` as printed when
each sweep drew its trials as one padded block, and
``data/verify_all_trials1000_sha256.json`` holds, for suite seeds 1-3, the
sha256 of ``json.dumps(run_suite("all", seed, trials=1000), sort_keys=True)``
from the same implementation.  Any moved bit in any record fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fdivbounds.verify import run_suite

DATA = Path(__file__).parent / "data"


def test_seed0_trials1000_report_equals_golden_file():
    golden = (DATA / "verify_all_seed0_trials1000.json").read_text(encoding="utf-8")
    text = json.dumps(run_suite("all", 0, trials=1000), sort_keys=True, indent=2) + "\n"
    assert text == golden


_HASHES = json.loads(
    (DATA / "verify_all_trials1000_sha256.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("seed", range(1, 4))
def test_trials1000_report_digest_equals_golden(seed):
    text = json.dumps(run_suite("all", seed, trials=1000), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _HASHES[str(seed)]
