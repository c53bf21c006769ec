"""Inputs: the corpus, the seeded query and update streams, run identity.

Everything the program sees is made here: the XML text of a synthetic
DBLP corpus, misspelled keyword queries, and live-update records.  The
same ``--seed`` gives byte-identical inputs, and each run records their
sha256 so runs on different inputs are never compared.

The corpus is the repository's default bench corpus,
``DBLPConfig(publications=12000, extra_vocabulary=350)`` with the
generator's default seed, the same for every run: corpora of different
seeds differ in which terms are frequent, and that alone moved the
p50 and throughput of suggest-miss by about 10% between seeds (spread
over five seeds fell from 10.6% to 3.3% with one corpus), more than
the timing noise.  The run seed varies the query and update streams.

Queries follow the paper's DBLP protocol (Section VII-A): a clean
query of one author last name plus content keywords, sampled from one
publication so that it has results, then perturbed by RAND (random
edits) and RULE (human misspellings).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import sys
from collections import Counter
from dataclasses import dataclass

from repro.datasets.misspellings import reverse_map
from repro.datasets.queries import (
    QueryRecord,
    rand_perturb_query,
    rand_perturb_word,
    rule_perturb_query,
    sample_clean_queries,
)
from repro.datasets.synthetic_dblp import DBLPConfig, generate_dblp
from repro.index.tokenizer import Tokenizer

#: The repository's default bench corpus (generator seed included).
CORPUS_PARAMS = {"publications": 12000, "extra_vocabulary": 350, "seed": 42}

#: Candidate queries drawn per query kept (see :func:`misspelled_queries`).
POOL_FACTOR = 4


@dataclass
class Corpus:
    """The generated corpus: XML text plus what the generators need."""

    xml: str
    document: object
    title_vocabulary: tuple
    author_names: tuple
    #: Corpus frequency of every token (its keys are the vocabulary).
    frequency: Counter
    identity: dict


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_json(value) -> str:
    return sha256_text(json.dumps(value, sort_keys=True))


def make_corpus() -> Corpus:
    """The bench corpus and its id (generator, params, seed, sha256)."""
    config = DBLPConfig(**CORPUS_PARAMS)
    generated = generate_dblp(config)
    xml = generated.document.serialize()
    tokenizer = Tokenizer()
    frequency = Counter(
        token
        for node in generated.document.iter_nodes()
        if node.text
        for token in tokenizer.iter_tokens(node.text)
    )
    digest = sha256_text(xml)
    identity = {
        "id": f"dblp-synthetic-{digest[:12]}",
        "generator": "repro.datasets.synthetic_dblp.generate_dblp",
        "params": dict(CORPUS_PARAMS),
        "sha256": digest,
    }
    return Corpus(
        xml=xml,
        document=generated.document,
        title_vocabulary=generated.title_vocabulary,
        author_names=generated.author_names,
        frequency=frequency,
        identity=identity,
    )


def misspelled_queries(corpus: Corpus, seed: int, count: int) -> list:
    """``count`` distinct RAND+RULE misspelled queries, seeded.

    Distinct after tokenization, so no query of the stream can hit the
    service's result cache (whose key is the token sequence).
    Unperturbed queries are skipped: they are not misspellings.

    The queries are a systematic sample of a POOL_FACTOR times larger
    pool sorted by weight, the corpus frequency of a query's clean
    tokens, which drives what the query costs.  Every seed so gets the
    pool's mix of cheap and costly queries, and a p99 does not hinge on
    how many costly ones one seed happened to draw.
    """
    rng = random.Random(seed)
    pool = _distinct_misspelled(corpus, rng, POOL_FACTOR * count)
    frequency = corpus.frequency
    pool.sort(key=lambda record: (
        sum(frequency[token] for token in record.golden[0]),
        record.dirty_text,
    ))
    chosen = pool[rng.randrange(POOL_FACTOR)::POOL_FACTOR]
    rng.shuffle(chosen)
    return chosen


def _distinct_misspelled(corpus: Corpus, rng: random.Random,
                         count: int) -> list:
    tokenizer = Tokenizer()
    known = reverse_map()
    vocabulary = corpus.frequency
    out: list[QueryRecord] = []
    seen: set = set()
    while len(out) < count:
        clean = sample_clean_queries(
            corpus.document, tokenizer, count, rng,
            min_words=2, max_words=3, style="dblp",
        )
        if not clean:
            raise RuntimeError("corpus yields no clean queries")
        for query in clean:
            for kind, dirty in (
                ("RAND", rand_perturb_query(query, vocabulary, rng)),
                ("RULE", rule_perturb_query(query, vocabulary, rng, known)),
            ):
                key = tuple(tokenizer.tokenize(" ".join(dirty)))
                if dirty == query or not key or key in seen:
                    continue
                seen.add(key)
                out.append(QueryRecord(dirty=dirty, golden=(query,),
                                       kind=kind))
    return out[:count]


def _fresh_token(rng: random.Random, taken: set) -> str:
    """A pronounceable token absent from ``taken`` (which it joins)."""
    consonants = "bcdfghklmnprstvz"
    while True:
        token = "".join(
            rng.choice(consonants) + rng.choice("aeiou")
            for _ in range(rng.randint(4, 5))
        )
        if token not in taken:
            taken.add(token)
            return token


@dataclass(frozen=True)
class Update:
    """One ``apply_updates`` record plus the query that must see it."""

    record: dict
    #: The misspelled query sent right after an add/update, its golden
    #: answer, and the new token some suggestion must contain.
    probe: QueryRecord | None
    token: str | None


def update_stream(corpus: Corpus, seed: int, count: int) -> list:
    """``count`` seeded add/update/delete records on publications.

    Adds append a publication under the root, updates replace one and
    deletes remove one (leaving the placeholder the live index keeps).
    Each add or update carries a token new to the corpus; its probe
    query misspells that token and one title word of the same
    publication, so only the new publication can answer it.
    """
    rng = random.Random(seed)
    tokenizer = Tokenizer()
    publications = corpus.document.root.children
    alive = list(range(1, len(publications) + 1))
    taken = set(corpus.frequency)
    title_words = [
        word for word in corpus.title_vocabulary
        if len(word) >= 5 and tokenizer.accepts(word)
    ]
    # Fixed shares (20% delete, 40% add, 40% update) in seeded order, so
    # every seed grows the delta by the same amount.
    kinds = ["delete"] * (count // 5) + ["add"] * (2 * count // 5)
    kinds += ["update"] * (count - len(kinds))
    rng.shuffle(kinds)
    out: list[Update] = []
    for op in kinds:
        if op == "delete":
            ordinal = alive.pop(rng.randrange(len(alive)))
            record = {"op": "delete", "dewey": [1, ordinal]}
            out.append(Update(record=record, probe=None, token=None))
            continue
        token = _fresh_token(rng, taken)
        word = rng.choice(title_words)
        filler = rng.sample(corpus.title_vocabulary, 3)
        title = " ".join([token, word, *filler])
        if op == "add":
            label, dewey = "article", [1]
        else:
            ordinal = rng.choice(alive)
            label = publications[ordinal - 1].label
            dewey = [1, ordinal]
        subtree = {"label": label, "children": [
            {"label": "author", "text": rng.choice(corpus.author_names)},
            {"label": "title", "text": title},
            {"label": "year", "text": str(rng.randint(2010, 2020))},
        ]}
        dirty = (
            rand_perturb_word(token, taken, rng),
            rand_perturb_word(word, corpus.frequency, rng),
        )
        probe = QueryRecord(dirty=dirty, golden=((token, word),),
                            kind="UPDATE")
        out.append(Update(
            record={"op": op, "dewey": dewey, "subtree": subtree},
            probe=probe, token=token,
        ))
    return out


def stream_digest(items) -> str:
    """sha256 of a query/update stream, as the program receives it."""
    def plain(item):
        if isinstance(item, QueryRecord):
            return item.dirty_text
        if isinstance(item, Update):
            return [item.record, item.probe and item.probe.dirty_text]
        return item
    return sha256_json([plain(item) for item in items])


def source_digest(src: str) -> str:
    """sha256 over the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    """HEAD's commit when ``root`` is a git checkout, read without git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def machine_identity(root: str, src: str, workdir: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workdir_fs": filesystem_of(workdir),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }
