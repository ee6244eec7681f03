"""The quick serve sweep still says what it said on the parent commit.

``test_determinism.py`` compares two runs of the *same* tree, so a
change that shifts simulated results deterministically passes it.
``golden/serve_quick_seed42.json`` is the ``serve --quick --seed 42``
payload written by the commit before the serving hot path was
optimised (PR 13); the CI ``serving-smoke`` job diffs against the same
file.  Regenerate it only for a change that is *meant* to move
simulated results, and say so in CHANGES.md::

    PYTHONPATH=src python -m repro serve --quick --seed 42 \\
        --out tests/serving/golden/serve_quick_seed42.json
"""

from pathlib import Path

from repro.bench.experiments.serve import build_payload, write_payload

GOLDEN = Path(__file__).parent / "golden" / "serve_quick_seed42.json"


def test_quick_seed42_payload_matches_committed_golden(tmp_path):
    payload, _ = build_payload(seed=42, quick=True)
    written = tmp_path / "serve_quick_seed42.json"
    write_payload(payload, written)
    assert written.read_bytes() == GOLDEN.read_bytes()
