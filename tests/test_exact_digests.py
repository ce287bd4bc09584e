"""The exact routes' CLI bytes, pinned by their sha256 (see exact_digests.py)."""

import json

from exact_digests import ARGVS, TABLE, digest


def test_exact_routes_match_their_digests():
    table = json.loads(TABLE.read_text())
    assert sorted(table) == sorted(" ".join(argv) for argv in ARGVS)
    changed = [" ".join(argv) for argv in ARGVS if digest(argv) != table[" ".join(argv)]]
    assert not changed, f"stdout changed for {changed}"
