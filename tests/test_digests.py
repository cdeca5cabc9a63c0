"""Every output promised byte-identical per seed matches tests/digests.json."""

import json

from make_digests import DIGESTS, builds, digests


def test_outputs_match_the_committed_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    now = digests(tmp_path)
    changed = sorted(name for name in recorded["digests"].keys() | now.keys()
                     if recorded["digests"].get(name) != now.get(name))
    here = builds()
    assert not changed, (
        f"{len(changed)} digests differ from {DIGESTS.name}: {changed}. "
        f"They were made with numpy {recorded['numpy']} and BLAS {recorded['blas']}; "
        f"this run has numpy {here['numpy']} and BLAS {here['blas']}. A change that "
        "alters output bytes on purpose reruns tests/make_digests.py and logs the change.")
