"""Certificate digests pinned across versions.

``golden/digests.json`` holds, for eleven CLI runs at seed 0, the exit
code and the content digest of every certificate printed: two probes
and two ``reproduce`` cases recorded with the unblocked row-by-row
elimination, ``sweep -m 4..6`` recorded before sweep certificates
came from the shared certificate constructor, probes of the
shapes (1, 2, 3) and (2, 3, 3), the only cases with unequal factor
sizes, recorded with the per-point contact contractions, and the
benchmark's binary m=10 probes at k=90 (a tangency probe) and k=93
(a rank probe), recorded before sub-panels were factored on a window
first, the binary m=11 probe at k=92, recorded while the window was
still a copy of its rows: a 1116x2048 matrix where windows in 9 of its
32 panels find no pivot and, from panel 16 on, the window takes the
last rows, and the m=10 k=90 probe at the 20-bit prime 1048573,
recorded while the limb width depended on the inner dimension alone;
every product of inner dimension above 4 in it now takes fewer limbs.
Any change to how frames, ranks, kernels, coranks, verdicts
or certificates are computed must reproduce them exactly.
"""

import json
from pathlib import Path

import pytest

from segreid.certificates import certificate_from_dict
from segreid.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_digests_reproduce(case, capsys):
    code = main(case["argv"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    digests = [certificate_from_dict(d).digest() for d in lines if "schema_version" in d]
    assert code == case["exit"]
    assert digests == case["digests"]
