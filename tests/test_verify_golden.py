"""Golden verify reports: every record of every suite, bit for bit.

``data/verify_all_seed0.json`` is ``fdivbounds verify --suite all --seed 0``
as printed (``json.dumps`` with sorted keys and indent 2) when each sweep
drew its trials as one padded block and called the library once per
member count, and ``data/verify_all_sha256.json`` holds, for suite seeds
1-15, the sha256 of ``json.dumps(run_suite("all", seed), sort_keys=True)``
from the same implementation.  Any moved bit in any record fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fdivbounds.verify import run_suite

DATA = Path(__file__).parent / "data"


def test_seed0_report_equals_golden_file():
    golden = (DATA / "verify_all_seed0.json").read_text(encoding="utf-8")
    text = json.dumps(run_suite("all", 0), sort_keys=True, indent=2) + "\n"
    assert text == golden


_HASHES = json.loads((DATA / "verify_all_sha256.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", range(1, 16))
def test_report_digest_equals_golden(seed):
    text = json.dumps(run_suite("all", seed), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _HASHES[str(seed)]
