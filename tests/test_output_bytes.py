"""The output bytes of mirror-clone, pinned: each run's sha256 against tests/output_sums.txt.

The manifest is the one list of pinned runs.  Each entry runs in process
through cli.main on every host and must exit 0; CI's byte step reads the
same file and compares every entry but the optimize ones with the base
commit.  A change that moves bytes edits the manifest.

`sweep` uses only math and element-wise NumPy, whose results are correctly
rounded on any host, so its sums are compared everywhere.  The other
subcommands go through BLAS or LAPACK (matrix products, vecdot, eigvalsh),
whose last bits may differ under another NumPy or BLAS build or machine: on
a host whose fingerprint differs from the manifest's, their sums skip after
the run and name both fingerprints.  On the recorded host no entry skips, so
a byte move there fails; CI's comparison with the base commit covers other
hosts.
"""

import hashlib
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from mirrorclone.cli import main

MANIFEST = Path(__file__).resolve().parent / "output_sums.txt"
HOST_FREE = {"sweep"}  # subcommands whose bytes no BLAS or LAPACK call reaches
SUBCOMMANDS = {"sweep", "bloch", "certify", "circuits", "optimize"}


def _host() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}, {platform.machine()}"


def _entries() -> tuple[str, list]:
    """The manifest's recorded host and its (sum, what, arguments) lines."""
    host, entries = None, []
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.startswith("# host: "):
            host = line.removeprefix("# host: ")
        elif not line.startswith("#"):
            digest, what, args = line.split(maxsplit=2)
            entries.append(pytest.param(digest, what, args, id=f"{what}: {args}"))
    return host, entries


RECORDED_HOST, ENTRIES = _entries()
HOST = _host()


def test_manifest_holds_every_pinned_run():
    # the format CI's byte step reads too: it splits each line on whitespace and runs every entry once
    assert MANIFEST.read_text(encoding="utf-8").count("\n# host: ") == 1 and len(ENTRIES) == 35
    runs = [(entry.values[1], " ".join(entry.values[2].split())) for entry in ENTRIES]
    assert len(set(runs)) == len(runs)
    for digest, what, args in (entry.values for entry in ENTRIES):
        assert re.fullmatch("[0-9a-f]{64}", digest) and what in ("stdout", "dump")
        assert args.split()[0] in (SUBCOMMANDS if what == "stdout" else {"circuits"})


@pytest.mark.parametrize("digest, what, args", ENTRIES)
def test_output_bytes_match_the_manifest(digest, what, args, capsys, tmp_path):
    dump = tmp_path / "dump.txt"
    assert main(args.split() + (["--dump", str(dump)] if what == "dump" else [])) == 0
    out = capsys.readouterr().out.encode() if what == "stdout" else dump.read_bytes()
    if args.split()[0] not in HOST_FREE and HOST != RECORDED_HOST:
        pytest.skip(f"ran, but BLAS-dependent bytes recorded on {RECORDED_HOST!r}, this host is {HOST!r}")
    assert hashlib.sha256(out).hexdigest() == digest
