"""Print one SHA-256 per benchmark workload over every output it judges.

    python3 tests/output_digest.py

Run it from anywhere; it imports the package from `src/` and the workload
definitions from `perfbench/`.  Two trees whose digests agree produce the
same outputs bit for bit, signed zeros and NaN payloads included, so a
change meant to leave every result alone (a speed-up) can be checked by
running this script before and after it.  The digests cover:

- catalog: every operation of one round for each of the seeds 1-3 (the
  ladder N = 4..12 with that seed's Chebyshev draws), its raw result or
  the exception it raised;
- highdim: the eight tensor Jacobi shapes, each operation's systems, Gram
  and recurrence blocks, rank checks, generated system, residuals,
  relation and classification;
- cli-files: for seed 1, every envelope the set-up writes, then every call
  of one round with its exit code, standard output (the report's
  "seconds" field dropped), standard error and --out file.

After those three lines it prints one digest per catalog configuration,
over that configuration's operations of the same rounds, so a change that
moves the catalog digest shows which configurations it moved.

The file name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, as the benchmark fixes them
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (needs the paths above)

CATALOG_SEEDS = (1, 2, 3)


def feed(h, obj) -> None:
    """Add a typed, unambiguous encoding of obj to the hash h."""
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}[{len(obj)}".encode())
        for item in obj:
            feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"dict[{len(obj)}".encode())
        for key, value in obj.items():
            feed(h, key)
            feed(h, value)
        h.update(b"]")
    elif isinstance(obj, BaseException):
        feed(h, (type(obj).__name__, str(obj)))
    elif dataclasses.is_dataclass(obj):
        feed(h, (type(obj).__name__,
                 {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}))
    elif hasattr(obj, "rows") and hasattr(obj, "monic"):   # PolySystem
        feed(h, ("PolySystem", obj.d, obj.label, obj.monic, obj.rows))
    else:
        raise TypeError(f"no digest encoding for {type(obj).__name__}")


def call(op):
    """An operation's raw result, or the library exception it raised."""
    try:
        return op.call()
    except workloads.VERDICT_ERRORS as exc:
        return exc


def catalog_digests() -> tuple[str, dict]:
    """The catalog's digest, and one digest per configuration."""
    h, by_config = hashlib.sha256(), {}
    for seed in CATALOG_SEEDS:
        for op in workloads.Catalog(seed, "").next_round():
            record = (op.config, op.N, op.label, call(op))
            feed(h, record)
            feed(by_config.setdefault(op.config, hashlib.sha256()), record)
    return h.hexdigest(), {config: d.hexdigest() for config, d in by_config.items()}


def highdim_digest() -> str:
    h = hashlib.sha256()
    work = workloads.HighDim(1, "")
    for shape in workloads.HIGHDIM_SHAPES:
        op = work._op(*shape)
        feed(h, (op.config, call(op)))
    return h.hexdigest()


def _without_seconds(stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    report.pop("seconds", None)
    return json.dumps(report, sort_keys=True)


def cli_files_digest(workdir: str) -> str:
    h = hashlib.sha256()
    work = workloads.CliFiles(1, workdir)
    work.setup()
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name)) as fh:
            feed(h, (name, fh.read()))
    for op in work.next_round():
        code, stdout, stderr = op.call()
        out_path = os.path.join(workdir, f"out-d{op.config.split()[0][2:]}.json")
        written = None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                written = fh.read()
        # a message naming a file names it under the temporary directory
        stdout, stderr = (text.replace(workdir, "<workdir>") for text in (stdout, stderr))
        feed(h, (op.config, code, _without_seconds(stdout), stderr, written))
    return h.hexdigest()


def main() -> int:
    catalog, by_config = catalog_digests()
    print(f"catalog    {catalog}")
    print(f"highdim    {highdim_digest()}")
    workdir = tempfile.mkdtemp(prefix="mvops-digest-")
    try:
        print(f"cli-files  {cli_files_digest(workdir)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for config, digest in sorted(by_config.items()):
        print(f"catalog {config}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
