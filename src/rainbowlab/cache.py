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

import json
import os
from pathlib import Path

from .core import CacheError, MissingRecordError, digest16, family_key, from_text, to_text
from .turan import SOLVER_VERSION, TuranRecord, ex_exact, singleton, verify_witness

# ``antiramsey`` is imported only on the ``ar`` paths below, so that the
# `lab` commands that read no ``ar`` record never load it.


def _atomic_write(path, text):
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and an atomic rename.  The file gets the mode that ``open()``
    gives a new file, 0666 & ~umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    head = f"TURAN n={rec.n} fam={rec.family_key} value={rec.value} status={rec.status}"
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
    from .antiramsey import coloring_to_text

    status = f"bounds:{rec.value}:{rec.hi}" if rec.status == "bounds" else rec.status
    head = f"AR n={rec.n} t={rec.t} F={rec.F_key} value={rec.value} status={status}"
    meta = f"meta solver={rec.solver} manifest={manifest}"
    body = coloring_to_text(rec.witness) if rec.witness is not None else "nowitness\n"
    return head + "\n" + meta + "\n" + body


def ar_record_from_text(text):
    """Parse an AR record; ``Cache.load_ar`` checks it against its target."""
    from .antiramsey import ArRecord, coloring_from_text

    (n, t, F, value, status), (solver, manifest), body = _parse_record(
        text, "AR", ("n", "t", "F", "value", "status")
    )
    hi = 0
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
        F_key=F,
        value=_int(value),
        witness=witness,
        status=status,
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
        return digest16(payload.encode())

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
        from .antiramsey import verify_no_rainbow

        key = family_key(singleton(F))
        path = self._ar_path(n, t, key)
        if not path.exists():
            return None
        rec = ar_record_from_text(path.read_text(encoding="ascii"))
        if (rec.n, rec.t, rec.F_key) != (n, t, key):
            raise CacheError(f"record at {path} does not match its key")
        w = rec.witness
        if w is None:  # only a one-edge target has none: ar = 1 exactly
            if (rec.value, rec.status, t, len(F.edges)) != (1, "exact", 1, 1):
                raise CacheError(f"missing witness for {path}")
            return rec
        if w.r != F.r or w.n != n or w.ncolors != rec.value - 1:
            raise CacheError(f"witness shape mismatch for {path}")
        if not verify_no_rainbow(w, F, t):
            raise CacheError(f"witness verification failed for {path}")
        return rec

    # -- colorings -----------------------------------------------------------------

    def store_coloring(self, chi):
        from .antiramsey import coloring_to_text

        text = coloring_to_text(chi)
        path = self.root / "colorings" / f"{digest16(text.encode())}.col"
        _atomic_write(path, text)
        return path


# -- the records of one command -------------------------------------------------


class Records:
    """The exact records one command reads: ex(n, fam) and ar(n, tF).

    A lookup tries the records already read or ``put``, then ``cache``,
    which re-verifies what it loads.  Only with a ``manifest`` id (any
    string, "" included) does it then run the solver and store the record
    citing that manifest; with None, a missing or inexact record raises
    MissingRecordError, so nothing is computed.  A record computed under a
    node ``budget`` may come back inexact.
    """

    def __init__(self, cache=None, manifest=None):
        self.cache = cache
        self.manifest = manifest
        self._held = {}

    def put(self, rec):
        """Hold a TuranRecord or an ArRecord as if it had been read."""
        key = (rec.n, rec.family_key) if isinstance(rec, TuranRecord) else (rec.n, rec.t, rec.F_key)
        self._held[key] = rec

    def turan(self, fam, n, budget=None):
        key = family_key(fam)
        return self._get("turan", (n, key), (n, fam), budget, f"n={n}, fam={key}")

    def ex(self, fam, n):
        return self.turan(fam, n).value

    def ar(self, F, n, t, budget=None):
        """The record of ar(n, tF).  For a tF that does not fit in K_n^r no
        record can exist, so it raises ``ar_exact``'s ValueError first."""
        from .antiramsey import _check_embeds

        _check_embeds(n, t, F)
        key = family_key(singleton(F))
        return self._get("ar", (n, t, key), (n, t, F), budget, f"n={n}, t={t}, F={key}")

    def _get(self, kind, key, args, budget, name):
        """The record of ``kind`` under ``key``, from the held records, then
        ``Cache.load_<kind>(*args)``, then the solver on ``args``."""
        rec = self._held.get(key)
        if rec is None and self.cache is not None:
            rec = getattr(self.cache, f"load_{kind}")(*args)
        if rec is None or not rec.is_exact():
            if self.manifest is None:
                raise MissingRecordError(f"no exact {kind} record for {name}")
            if kind == "turan":
                rec = ex_exact(*args, budget=budget)
            else:
                from .antiramsey import ar_exact

                rec = ar_exact(*args, budget=budget)
            if self.cache is not None:
                getattr(self.cache, f"store_{kind}")(rec, self.manifest)
        self._held[key] = rec
        return rec
