"""Golden-file pin of the default bundled verification report.

If this fails after an intentional report-format change, regenerate with:

    python3 -c "from nonelliptic.paper import full_paper_verification; \
from nonelliptic.data_io import canonical_json; \
open('tests/data/golden_verify_paper.json','w').write(\
canonical_json(full_paper_verification()))"
"""

from pathlib import Path

from nonelliptic.data_io import canonical_json
from nonelliptic.paper import full_paper_verification

GOLDEN = Path(__file__).parent / "data" / "golden_verify_paper.json"


def test_default_verification_matches_golden_bytes():
    fresh = canonical_json(full_paper_verification())
    assert fresh == GOLDEN.read_text()
