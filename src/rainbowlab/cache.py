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
from dataclasses import replace
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


def _fields(line, tag, names):
    """The values of ``<tag> name=value ...`` with exactly ``names``, in order."""
    head, *parts = line.split(" ")
    pairs = [part.partition("=") for part in parts]
    if head != tag or [key for key, _, _ in pairs] != list(names):
        raise CacheError(f"expected {tag} with fields {', '.join(names)}: {line!r}")
    return [value for _, _, value in pairs]


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise CacheError(f"non-integer field {text!r}") from None


def _parse_record(text, tag, names):
    """Split a record into its header values, meta values and witness text."""
    lines = text.split("\n", 2)
    if len(lines) < 3:
        raise CacheError(f"not a {tag} record")
    head = _fields(lines[0], tag, names)
    meta = _fields(lines[1], "meta", ("solver", "manifest"))
    return head, meta, lines[2]


def turan_record_to_text(rec, manifest=""):
    status = rec.status
    head = f"TURAN n={rec.n} fam={rec.family_key} value={rec.value} status={status}"
    meta = f"meta solver={rec.solver} manifest={manifest}"
    return head + "\n" + meta + "\n" + to_text(rec.witness)


def turan_record_from_text(text):
    (n, fam, value, status), (solver, manifest), body = _parse_record(
        text, "TURAN", ("n", "fam", "value", "status")
    )
    if status not in ("exact", "lower_bound_only"):
        raise CacheError(f"unknown TURAN status {status!r}")
    witness = from_text(body)
    rec = TuranRecord(
        n=_int(n),
        r=witness.r,
        family_key=fam,
        value=_int(value),
        witness=witness,
        status=status,
        solver=solver,
        closed_by="cache",
    )
    if turan_record_to_text(rec, manifest) != text:
        raise CacheError("record is not in canonical serialization")
    return rec


def ar_record_to_text(rec, manifest=""):
    status = rec.status
    if status == "bounds":
        status = f"bounds:{rec.lo}:{rec.hi}"
    head = f"AR n={rec.n} t={rec.t} F={rec.F_key} value={rec.value} status={status}"
    meta = f"meta solver={rec.solver} manifest={manifest}"
    body = coloring_to_text(rec.witness) if rec.witness is not None else "nowitness\n"
    return head + "\n" + meta + "\n" + body


def ar_record_from_text(text):
    """Parse an AR record; without a witness ``r`` is 0 (``Cache.load_ar`` sets it)."""
    (n, t, F, value, status), (solver, manifest), body = _parse_record(
        text, "AR", ("n", "t", "F", "value", "status")
    )
    lo = hi = 0
    if status.startswith("bounds:"):
        bounds = status.split(":")
        if len(bounds) != 3:
            raise CacheError(f"malformed bounds status {status!r}")
        status, lo, hi = "bounds", _int(bounds[1]), _int(bounds[2])
        if not lo == _int(value) <= hi:
            raise CacheError(f"bounds {lo}:{hi} do not hold value={value}")
    elif status != "exact":
        raise CacheError(f"unknown AR status {status!r}")
    witness = None if body == "nowitness\n" else coloring_from_text(body)
    rec = ArRecord(
        n=_int(n),
        t=_int(t),
        r=witness.r if witness is not None else 0,
        F_key=F,
        value=_int(value),
        witness=witness,
        status=status,
        lo=lo,
        hi=hi,
        solver=solver,
        closed_by="cache",
    )
    if ar_record_to_text(rec, manifest) != text:
        raise CacheError("record is not in canonical serialization")
    return rec


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
        """Load and re-verify a record for (n, t, F); None when absent."""
        key = family_key(singleton(F))
        path = self._ar_path(n, t, key)
        if not path.exists():
            return None
        rec = ar_record_from_text(path.read_text(encoding="ascii"))
        if (rec.n, rec.t, rec.F_key) != (n, t, key):
            raise CacheError(f"record at {path} does not match its key")
        if rec.witness is not None:
            w = rec.witness
            if w.r != F.r or w.n != n or w.ncolors != rec.value - 1:
                raise CacheError(f"witness shape mismatch for {path}")
            if not verify_no_rainbow(w, F, t):
                raise CacheError(f"witness verification failed for {path}")
            return rec
        if rec.value != 1:
            raise CacheError(f"missing witness for {path}")
        return replace(rec, r=F.r)

    # -- colorings -----------------------------------------------------------------

    def store_coloring(self, chi):
        text = coloring_to_text(chi)
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
