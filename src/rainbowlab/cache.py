"""Content-addressed result cache with run manifests.

Layout under the cache root (``LAB_CACHE_DIR`` or ./cache):

- ``turan/``      one file per TuranRecord, named n<k>_<family hash>.rec
- ``ar/``         one file per ArRecord, named n<k>_t<j>_<F hash>.rec
- ``colorings/``  constructed colorings, content-addressed
- ``manifests/``  JSON run manifests

Record files carry a ``meta`` line referencing the manifest that produced
them.  Manifest ids hash only timeless content (argv, input hashes, solver
version), so re-running a command rewrites byte-identical records; wall time
lives only inside the manifest JSON.  Writes go through atomic renames, and
every witness is re-verified on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .antiramsey import (
    ArRecord,
    ar_exact,
    coloring_from_text,
    coloring_to_text,
    verify_no_rainbow,
)
from .core import family_key, from_text, to_text
from .turan import SOLVER_VERSION, TuranRecord, ex_exact, singleton, verify_witness


class CacheError(Exception):
    """Corrupt or failed-verification cache content."""


def _atomic_write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def turan_record_to_text(rec, manifest=""):
    status = rec.status
    head = f"TURAN n={rec.n} fam={rec.family_key} value={rec.value} status={status}"
    meta = f"meta solver={rec.solver} manifest={manifest}"
    return head + "\n" + meta + "\n" + to_text(rec.witness)


def turan_record_from_text(text):
    lines = text.split("\n", 2)
    if len(lines) < 3 or not lines[0].startswith("TURAN "):
        raise CacheError("not a TURAN record")
    fields = dict(kv.split("=", 1) for kv in lines[0].split(" ")[1:])
    meta = dict(kv.split("=", 1) for kv in lines[1].split(" ")[1:])
    witness = from_text(lines[2])
    return TuranRecord(
        n=int(fields["n"]),
        r=witness.r,
        family_key=fields["fam"],
        value=int(fields["value"]),
        witness=witness,
        status=fields["status"],
        solver=meta.get("solver", ""),
    )


def ar_record_to_text(rec, manifest=""):
    status = rec.status
    if status == "bounds":
        status = f"bounds:{rec.lo}:{rec.hi}"
    head = f"AR n={rec.n} t={rec.t} F={rec.F_key} value={rec.value} status={status}"
    meta = f"meta solver={rec.solver} manifest={manifest}"
    body = coloring_to_text(rec.witness) if rec.witness is not None else "nowitness\n"
    return head + "\n" + meta + "\n" + body


def ar_record_from_text(text):
    lines = text.split("\n", 2)
    if len(lines) < 3 or not lines[0].startswith("AR "):
        raise CacheError("not an AR record")
    fields = dict(kv.split("=", 1) for kv in lines[0].split(" ")[1:])
    meta = dict(kv.split("=", 1) for kv in lines[1].split(" ")[1:])
    status = fields["status"]
    lo = hi = 0
    if status.startswith("bounds:"):
        _, lo, hi = status.split(":")
        status, lo, hi = "bounds", int(lo), int(hi)
    witness = None
    if lines[2] != "nowitness\n":
        witness = coloring_from_text(lines[2])
    return ArRecord(
        n=int(fields["n"]),
        t=int(fields["t"]),
        r=witness.r if witness is not None else 0,
        F_key=fields["F"],
        value=int(fields["value"]),
        witness=witness,
        status=status,
        lo=lo,
        hi=hi,
        solver=meta.get("solver", ""),
    )


class Cache:
    """Filesystem cache; safe for concurrent processes (atomic renames)."""

    def __init__(self, root=None):
        if root is None:
            root = os.environ.get("LAB_CACHE_DIR", "cache")
        self.root = Path(root)

    # -- manifests ---------------------------------------------------------

    def manifest_id(self, argv, input_hashes):
        payload = json.dumps(
            {"argv": list(argv), "inputs": dict(input_hashes), "solver": SOLVER_VERSION},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def write_manifest(self, argv, input_hashes, wall_time, verdicts=()):
        mid = self.manifest_id(argv, input_hashes)
        doc = {
            "id": mid,
            "argv": list(argv),
            "inputs": dict(input_hashes),
            "solver": SOLVER_VERSION,
            "wall_time": wall_time,
            "verdicts": list(verdicts),
        }
        _atomic_write(self.root / "manifests" / f"{mid}.json", json.dumps(doc, indent=1) + "\n")
        return mid

    # -- turan records -------------------------------------------------------

    def _turan_path(self, n, key):
        return self.root / "turan" / f"n{n}_{key}.rec"

    def store_turan(self, rec, manifest=""):
        _atomic_write(self._turan_path(rec.n, rec.family_key), turan_record_to_text(rec, manifest))

    def load_turan(self, n, fam):
        """Load and re-verify a record for (n, fam); None when absent."""
        path = self._turan_path(n, family_key(fam))
        if not path.exists():
            return None
        rec = turan_record_from_text(path.read_text(encoding="ascii"))
        if rec.family_key != family_key(fam) or rec.n != n:
            raise CacheError(f"record at {path} does not match its key")
        if not verify_witness(rec, fam):
            raise CacheError(f"witness verification failed for {path}")
        return rec

    # -- ar records ------------------------------------------------------------

    def _ar_path(self, n, t, key):
        return self.root / "ar" / f"n{n}_t{t}_{key}.rec"

    def store_ar(self, rec, manifest=""):
        _atomic_write(self._ar_path(rec.n, rec.t, rec.F_key), ar_record_to_text(rec, manifest))

    def load_ar(self, n, t, F):
        path = self._ar_path(n, t, family_key(singleton(F)))
        if not path.exists():
            return None
        rec = ar_record_from_text(path.read_text(encoding="ascii"))
        if rec.n != n or rec.t != t:
            raise CacheError(f"record at {path} does not match its key")
        if rec.witness is not None:
            if rec.witness.n != n or rec.witness.ncolors != rec.value - 1:
                raise CacheError(f"witness shape mismatch for {path}")
            if not verify_no_rainbow(rec.witness, F, t):
                raise CacheError(f"witness verification failed for {path}")
        elif rec.is_exact() and rec.value != 1:
            raise CacheError(f"missing witness for {path}")
        return rec

    # -- colorings -----------------------------------------------------------------

    def store_coloring(self, chi, name=None):
        text = coloring_to_text(chi)
        if name is None:
            name = hashlib.sha256(text.encode()).hexdigest()[:16]
        path = self.root / "colorings" / f"{name}.col"
        _atomic_write(path, text)
        return path

    def load_coloring(self, path):
        return coloring_from_text(Path(path).read_text(encoding="ascii"))


# -- compute-through helpers -----------------------------------------------------


def turan_record(cache, n, fam, budget=None, manifest=""):
    """Cached ex(n, fam): load + re-verify, else compute and store."""
    rec = cache.load_turan(n, fam)
    if rec is not None and rec.is_exact():
        return rec
    rec = ex_exact(n, fam, budget=budget)
    cache.store_turan(rec, manifest)
    return rec


def ar_record(cache, n, t, F, budget=None, manifest=""):
    """Cached ar(n, tF): load + re-verify, else compute and store."""
    rec = cache.load_ar(n, t, F)
    if rec is not None and rec.is_exact():
        return rec
    rec = ar_exact(n, t, F, budget=budget)
    cache.store_ar(rec, manifest)
    return rec
