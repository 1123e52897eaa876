"""Output bytes pinned across changes: tools/parity.py's digests of drawn
estimator, ECDF and sweep calls, at a reduced size."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

# measured with numpy 2.4.6; Philox, Generator.random and the kernel's
# arithmetic fix every byte, so only a numpy that changes those moves them
PINNED_NUMPY = "2.4.6"
PINNED = {
    "calls": "feb799c18f298a00dcf70c28a2a342febee6a210a34b50211ea13c0bd24e135e",
    "sweeps": "948f4512f885b352ddfa2e0bf8ab98a3bed5b5442f480f25755bbb5b9d99f581",
}


def test_parity_digests_are_pinned():
    found = parity.digests(seed=0, calls=200, sweeps=50)
    moved = sorted(what for what in PINNED if found[what] != PINNED[what])
    assert not moved, (f"parity digests moved: {moved} (pinned on numpy {PINNED_NUMPY}, "
                       f"running numpy {np.__version__})")
