"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    # the first python block is the tour; every name it imports from
    # mirrorclone must still be exported by the package
    tour = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert tour is not None
    exec(compile(tour.group(1), str(README), "exec"), {})
