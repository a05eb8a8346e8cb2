"""Pinned output of the command line and of the bound catalogue.

Two SHA-256 digests, taken before classes held integer numerators, that any
rewrite of the ring, the catalog or the CLI must reproduce byte for byte:
every argv the benchmark's `cli-queries` workload generates for seeds 1-30,
run through `cli.main` in-process, and the JSON of the bound catalogue for
genera 2..60.  The argv come from `bench/workloads.py`, which is read and
never changed here.
"""

import hashlib
import importlib.util
import io
import pathlib
import re
from contextlib import redirect_stderr, redirect_stdout

from cdcalc import bounds_to_json, full_catalog
from cdcalc.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Over "code\0stdout\0stderr\0" of each of the 1380 calls, seeds 1-30 in order,
# with every `"micros": N` of the verify reports written as `"micros": 0`.
CLI_QUERIES_DIGEST = "ccd287f2f68bee7bef4f4689ed909e55474ea34c40c970149be2493ae69ec79c"
CATALOG_DIGEST = "ab8dc3338b586d2d434d182eb7abee2fcac8f804aaefa0acbe5c8bee93a3ec98"

_MICROS = re.compile(r'"micros": [0-9]+')


def _workloads():
    spec = importlib.util.spec_from_file_location("cdcalc_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_queries() -> list:
    """The (argv, expected-stdout thunk, masks micros?) of every call, seeds 1-30 in order."""
    return [query for seed in range(1, 31) for query in _workloads().CliQueries(seed, str(ROOT)).queries]


def cli_queries_digest() -> tuple[int, str]:
    """The number of argv run and the digest of what `main` returned and printed for them."""
    queries = cli_queries()
    digest = hashlib.sha256()
    for argv, _expected, masked in queries:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        stdout = _MICROS.sub('"micros": 0', out.getvalue()) if masked else out.getvalue()
        digest.update(f"{code}\0{stdout}\0{err.getvalue()}\0".encode())
    return len(queries), digest.hexdigest()


def test_cli_queries_output_is_byte_identical():
    assert cli_queries_digest() == (1380, CLI_QUERIES_DIGEST)


def test_bound_catalogue_is_byte_identical():
    text = bounds_to_json(full_catalog(2, 60))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST
