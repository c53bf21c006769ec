"""Sharded v3 snapshots: partition the corpus at subtree boundaries.

A shard is an ordinary, self-contained v3 snapshot (``index/snapshot``)
holding a *subset* of the postings plus the **global** statistics —
vocabulary (cf/df/rel, element doc count, total tokens), path table,
path node counts, Eq. 8 totals, the per-path term counts f_w^p, and
the FastSS variant buckets.  Query-side consequences:

* every shard generates the identical candidate space, error weights,
  normalizers, and result types as a single-index run (those depend
  only on global statistics);
* each shard's accumulator masses cover exactly the entities whose
  subtrees live on that shard, so per-candidate masses are *additive*
  across shards: summed exactly (``core/pruning.add_partial``), the
  merged table is bit-identical to the single-index table.

Partitioning invariant: the corpus is split at depth
``partition_depth`` subtree boundaries.  Every element subtree rooted
at that depth — and therefore every deeper subtree, including every
Algorithm 1 group at ``min_depth >= partition_depth`` and every scored
entity — lives wholly on one shard.  Postings *above* the partition
depth (tokens attached to shallow structural nodes) all go to shard 0;
subtree length entries above the partition depth are replicated to
every shard with their global values so ``subtree_length`` stays
correct everywhere.

Assignment strategies (both deterministic):

* ``range`` (default) — the sorted partition subtrees are cut into N
  contiguous runs balanced by their token counts; each shard's
  manifest entry records its ``[lo, hi]`` Dewey range.
* ``hash`` — crc32 of the dotted Dewey prefix modulo N; spreads hot
  document-order neighborhoods at the cost of range locality.

The shard set is described by a CRC-checked JSON manifest
(:class:`ShardManifest`): per shard its relative path, sha256, byte
size, Dewey range, and its share of the Eq. 8 totals (entities =
partition subtrees, token_total = their subtree lengths, postings);
the per-shard shares must sum to the recorded global totals, which
:func:`load_manifest` re-validates on every load.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, fields

from repro.index.atomic import atomic_write
from repro.index.snapshot import build_snapshot, verify_snapshot
from repro.exceptions import ConfigurationError, StorageError
from repro.xmltree.dewey import DeweyCode, format_code

#: Manifest format tag + version (rejected on mismatch).
MANIFEST_FORMAT = "xclean-shard-manifest"
MANIFEST_VERSION = 1

#: Default partition depth.  Must stay <= the query-time ``min_depth``
#: (``XCleanConfig``, default 2) so groups and entities never span
#: shards; 2 matches the paper's "d = 2 is usually enough".
DEFAULT_PARTITION_DEPTH = 2

#: File name of the manifest inside a shard directory.
MANIFEST_NAME = "manifest.json"

_STRATEGIES = ("range", "hash")


def _dotted(code: DeweyCode) -> str:
    return format_code(code)


def hash_shard_of(prefix: DeweyCode, shards: int) -> int:
    """Deterministic hash assignment of one partition prefix.

    crc32 rather than ``hash()``: Python string hashing is salted per
    process, and shard assignment must be reproducible across builds.
    """
    return zlib.crc32(_dotted(prefix).encode("utf-8")) % shards


def partition_prefixes(index, partition_depth: int) -> list[DeweyCode]:
    """The sorted partition subtree roots (depth == partition_depth)."""
    return sorted(
        code
        for code in index.subtree_token_counts
        if len(code) == partition_depth
    )


def assign_prefixes(
    index,
    shards: int,
    partition_depth: int = DEFAULT_PARTITION_DEPTH,
    strategy: str = "range",
) -> dict[DeweyCode, int]:
    """Map every partition prefix to a shard id.

    ``range`` balances contiguous runs by subtree token count (the
    Eq. 8 totals are the best single predictor of per-shard scoring
    work); ``hash`` uses :func:`hash_shard_of`.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if strategy not in _STRATEGIES:
        raise ConfigurationError(
            f"unknown shard strategy {strategy!r}; "
            f"expected one of {_STRATEGIES}"
        )
    prefixes = partition_prefixes(index, partition_depth)
    if strategy == "hash":
        return {
            prefix: hash_shard_of(prefix, shards) for prefix in prefixes
        }
    lengths = index.subtree_token_counts
    total = sum(lengths[prefix] for prefix in prefixes) or 1
    assignment: dict[DeweyCode, int] = {}
    seen = 0
    for rank, prefix in enumerate(prefixes):
        # Cut so that shard i ends once the running weight passes
        # total*(i+1)/N — contiguous, deterministic, balanced; the
        # min() guards degenerate weight skew, the max() guarantees
        # progress when there are more shards than prefixes.
        remaining_prefixes = len(prefixes) - rank
        shard = min(
            shards * seen // total,
            shards - 1,
            # Never leave a later shard more prefixes than it can use.
            len(prefixes) - remaining_prefixes,
        )
        assignment[prefix] = shard
        seen += lengths[prefix]
    return assignment


class _ShardInverted:
    """Filtered posting view handed to ``build_snapshot``.

    ``list_for`` keeps only postings whose partition prefix is
    assigned to this shard; postings shallower than the partition
    depth belong to shard 0.  Lists stay strictly document-ordered
    (filtering preserves order), so snapshot packing is unchanged.
    """

    def __init__(self, inverted, assignment, shard_id, partition_depth):
        self._inverted = inverted
        self._assignment = assignment
        self._shard_id = shard_id
        self._depth = partition_depth

    def _keep(self, code: DeweyCode) -> bool:
        if len(code) < self._depth:
            return self._shard_id == 0
        return self._assignment.get(code[: self._depth]) == self._shard_id

    def tokens(self):
        return self._inverted.tokens()

    def list_for(self, token: str) -> list:
        keep = self._keep
        return [
            posting
            for posting in self._inverted.list_for(token)
            if keep(posting[0])
        ]

    def total_postings(self) -> int:
        return sum(
            len(self.list_for(token)) for token in self.tokens()
        )


class _ShardView:
    """One shard of a corpus, shaped like what ``build_snapshot`` reads.

    Postings and deep subtree lengths are filtered to the shard;
    everything statistical — vocabulary, path table, path node counts,
    Eq. 8 totals, f_w^p, tokenizer — is the *global* object, so the
    resulting snapshot scores its local entities with global smoothing
    and normalization (the additivity argument in the module
    docstring).
    """

    def __init__(self, index, assignment, shard_id, partition_depth):
        self._index = index
        self.inverted = _ShardInverted(
            index.inverted, assignment, shard_id, partition_depth
        )
        depth = partition_depth
        self.subtree_token_counts = {
            code: count
            for code, count in index.subtree_token_counts.items()
            if (
                len(code) < depth  # shared shallow spine, global values
                or assignment.get(code[:depth]) == shard_id
            )
        }
        self.vocabulary = index.vocabulary
        self.path_table = index.path_table
        self.path_node_counts = index.path_node_counts
        self.path_index = index.path_index
        self.tokenizer = index.tokenizer
        self.name = f"{index.name}#shard{shard_id}"

    def path_token_totals(self):
        return self._index.path_token_totals()

    def max_path_depth(self) -> int:
        return self._index.max_path_depth()


@dataclass(frozen=True)
class ShardInfo:
    """One shard's manifest entry."""

    shard_id: int
    #: Path relative to the manifest's directory.
    path: str
    sha256: str
    bytes: int
    #: This shard's share of the Eq. 8 totals.
    entities: int
    token_total: int
    postings: int
    #: Inclusive dotted-Dewey range of assigned partition subtrees
    #: (range strategy; ``None`` for hash or an empty shard).
    range: tuple[str, str] | None = None

    def as_dict(self) -> dict:
        out = {
            "shard_id": self.shard_id,
            "path": self.path,
            "sha256": self.sha256,
            "bytes": self.bytes,
            "entities": self.entities,
            "token_total": self.token_total,
            "postings": self.postings,
        }
        if self.range is not None:
            out["range"] = list(self.range)
        return out


@dataclass(frozen=True)
class ShardManifest:
    """The CRC-checked description of one sharded index build."""

    name: str
    partition_depth: int
    strategy: str
    shards: tuple[ShardInfo, ...]
    #: Global Eq. 8 totals the per-shard shares must sum to.
    entities: int
    token_total: int
    postings: int
    #: Data generation of this build (0 for pre-live manifests;
    #: bumped by every compaction fold, mirroring the per-shard
    #: snapshot meta stamps).
    generation: int = 0
    #: crc32 of the canonical payload (computed on write/load).
    crc: int = 0
    #: Directory the relative shard paths resolve against (set by
    #: :func:`load_manifest`; empty for an in-memory manifest).
    directory: str = ""

    def shard_paths(self) -> list[str]:
        """Absolute (directory-resolved) shard snapshot paths."""
        return [
            os.path.join(self.directory, info.path)
            for info in self.shards
        ]

    def payload(self) -> dict:
        """The canonical JSON payload (without crc)."""
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "name": self.name,
            "generation": self.generation,
            "partition_depth": self.partition_depth,
            "strategy": self.strategy,
            "totals": {
                "entities": self.entities,
                "token_total": self.token_total,
                "postings": self.postings,
            },
            "shards": [info.as_dict() for info in self.shards],
        }


def _payload_crc(payload: dict) -> int:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(canonical.encode("utf-8"))


def write_manifest(manifest: ShardManifest, path: str) -> ShardManifest:
    """Atomically write ``manifest`` (with a fresh crc) to ``path``."""
    payload = manifest.payload()
    crc = _payload_crc(payload)
    document = dict(payload, crc=crc)
    with atomic_write(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ShardManifest(
        name=manifest.name,
        partition_depth=manifest.partition_depth,
        strategy=manifest.strategy,
        shards=manifest.shards,
        entities=manifest.entities,
        token_total=manifest.token_total,
        postings=manifest.postings,
        generation=manifest.generation,
        crc=crc,
        directory=os.path.dirname(os.path.abspath(path)),
    )


def load_manifest(path: str) -> ShardManifest:
    """Load + integrity-check a shard manifest.

    Raises :class:`StorageError` on a bad format tag, a crc mismatch
    (any byte of the payload changed since the build), a missing or
    mistyped field, or per-shard totals that no longer sum to the
    recorded global totals.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError, RecursionError) as error:
        raise StorageError(
            f"cannot read shard manifest {path}: {error}"
        ) from error
    if not isinstance(document, dict) or document.get(
        "format"
    ) != MANIFEST_FORMAT:
        raise StorageError(f"{path} is not a shard manifest")
    if document.get("version") != MANIFEST_VERSION:
        raise StorageError(
            f"{path}: unsupported manifest version "
            f"{document.get('version')!r}"
        )
    stored_crc = document.get("crc")
    payload = {k: v for k, v in document.items() if k != "crc"}
    actual_crc = _payload_crc(payload)
    if stored_crc != actual_crc:
        raise StorageError(
            f"{path}: manifest crc mismatch (stored {stored_crc}, "
            f"computed {actual_crc}) — manifest corrupt or hand-edited"
        )
    try:
        return _manifest_from(document, path)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise StorageError(
            f"{path}: malformed manifest: {error!r}"
        ) from None


def _manifest_from(document: dict, path: str) -> ShardManifest:
    """The manifest a CRC-valid ``document`` describes."""
    totals = document["totals"]
    shards = tuple(
        _typed(ShardInfo(
            shard_id=entry["shard_id"],
            path=entry["path"],
            sha256=entry["sha256"],
            bytes=entry["bytes"],
            entities=entry["entities"],
            token_total=entry["token_total"],
            postings=entry["postings"],
            range=tuple(entry["range"]) if "range" in entry else None,
        ))
        for entry in document["shards"]
    )
    if not shards or [info.shard_id for info in shards] != list(
        range(len(shards))
    ):
        raise StorageError(f"{path}: shard ids must be 0..N-1, N >= 1")
    for field in ("entities", "token_total", "postings"):
        share_sum = sum(getattr(info, field) for info in shards)
        if share_sum != totals[field]:
            raise StorageError(
                f"{path}: per-shard {field} sum {share_sum} != global "
                f"total {totals[field]}"
            )
    return _typed(ShardManifest(
        name=document["name"],
        partition_depth=document["partition_depth"],
        strategy=document["strategy"],
        shards=shards,
        entities=totals["entities"],
        token_total=totals["token_total"],
        postings=totals["postings"],
        generation=document.get("generation", 0),
        crc=document["crc"],
        directory=os.path.dirname(os.path.abspath(path)),
    ))


def _typed(record):
    """``record``, once each of its int and str fields has that type.

    Field types are compared by name: under ``from __future__ import
    annotations`` a dataclass field's ``type`` is its annotation text.
    """
    for spec in fields(record):
        value = getattr(record, spec.name)
        if spec.type in ("int", "str") and type(value).__name__ != spec.type:
            raise TypeError(f"{spec.name} must be {spec.type}: {value!r}")
    return record


def is_manifest(path: str) -> bool:
    """Cheap sniff: does ``path`` look like a shard manifest?

    Reads only the first bytes, so ``--index`` can dispatch between a
    manifest and a single v3 snapshot.  A directory counts when it
    holds a ``manifest.json``.
    """
    if os.path.isdir(path):
        return os.path.exists(os.path.join(path, MANIFEST_NAME))
    try:
        with open(path, "rb") as handle:
            head = handle.read(256)
    except OSError:
        return False
    return (
        head.lstrip().startswith(b"{")
        and MANIFEST_FORMAT.encode("utf-8") in head
    )


def resolve_manifest_path(path: str) -> str:
    """Accept either the manifest file or its directory."""
    if os.path.isdir(path):
        return os.path.join(path, MANIFEST_NAME)
    return path


def _sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def shard_file_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}.xcs3"


def build_sharded_snapshot(
    index,
    directory: str,
    shards: int,
    partition_depth: int = DEFAULT_PARTITION_DEPTH,
    strategy: str = "range",
    generator=None,
    fastss_max_errors: int | None = 3,
    workers: int | None = None,
    metrics=None,
    generation: int = 0,
) -> ShardManifest:
    """Partition ``index`` into N v3 snapshots under ``directory``.

    Each shard is written through ``build_snapshot`` (atomic writes,
    optional parallel packing, byte-identical to a serial build) and
    recorded in the returned manifest, itself written atomically as
    ``directory/manifest.json``.  ``generator`` (or a freshly built
    FastSS index over the *global* vocabulary) is embedded into every
    shard so variant generation is identical on all of them.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if partition_depth < 1:
        raise ConfigurationError("partition_depth must be >= 1")
    os.makedirs(directory, exist_ok=True)
    assignment = assign_prefixes(
        index, shards, partition_depth, strategy
    )
    if generator is None and fastss_max_errors is not None:
        # Built once over the global vocabulary, embedded N times.  In
        # the snapshot's byte order its token ids are the vocabulary
        # ranks every shard shares, so each shard gets the same bytes.
        from repro.fastss.generator import VariantGenerator

        generator = VariantGenerator(
            sorted(
                (row[0] for row in index.vocabulary.export_rows()),
                key=lambda token: token.encode("utf-8"),
            ),
            max_errors=fastss_max_errors,
        )
    lengths = index.subtree_token_counts
    infos: list[ShardInfo] = []
    for shard_id in range(shards):
        view = _ShardView(
            index, assignment, shard_id, partition_depth
        )
        file_name = shard_file_name(shard_id)
        shard_path = os.path.join(directory, file_name)
        build_snapshot(
            view,
            shard_path,
            generator=generator,
            fastss_max_errors=fastss_max_errors,
            workers=workers,
            metrics=metrics,
            generation=generation,
        )
        mine = sorted(
            prefix
            for prefix, owner in assignment.items()
            if owner == shard_id
        )
        infos.append(
            ShardInfo(
                shard_id=shard_id,
                path=file_name,
                sha256=_sha256_of(shard_path),
                bytes=os.path.getsize(shard_path),
                entities=len(mine),
                token_total=sum(lengths[p] for p in mine),
                postings=view.inverted.total_postings(),
                range=(
                    (_dotted(mine[0]), _dotted(mine[-1]))
                    if mine and strategy == "range"
                    else None
                ),
            )
        )
    manifest = ShardManifest(
        name=index.name,
        partition_depth=partition_depth,
        strategy=strategy,
        shards=tuple(infos),
        entities=len(assignment),
        token_total=sum(lengths[p] for p in assignment),
        postings=index.inverted.total_postings(),
        generation=generation,
    )
    return write_manifest(
        manifest, os.path.join(directory, MANIFEST_NAME)
    )


def verify_sharded(manifest_path: str) -> list[dict]:
    """Deep-verify every shard of a manifest.

    Returns one report dict per shard: ``{"shard_id", "path", "ok",
    "bytes", "error"}``.  Verification is per-section CRC
    (``verify_snapshot``) plus the manifest's recorded sha256 and byte
    size, so both silent corruption and file swaps are caught.  The
    manifest itself is integrity-checked by :func:`load_manifest`
    before any shard is opened.
    """
    manifest = load_manifest(resolve_manifest_path(manifest_path))
    reports: list[dict] = []
    for info, path in zip(manifest.shards, manifest.shard_paths()):
        report = {
            "shard_id": info.shard_id,
            "path": path,
            "ok": True,
            "bytes": info.bytes,
            "error": None,
        }
        try:
            verify_snapshot(path)
            actual = _sha256_of(path)
            if actual != info.sha256:
                raise StorageError(
                    f"sha256 mismatch: manifest {info.sha256[:12]}…, "
                    f"file {actual[:12]}…"
                )
            size = os.path.getsize(path)
            if size != info.bytes:
                raise StorageError(
                    f"size mismatch: manifest {info.bytes}, file {size}"
                )
        except (OSError, StorageError) as error:
            report["ok"] = False
            report["error"] = str(error)
        reports.append(report)
    return reports
