"""Dataset ingestion, synthetic generation, and all on-disk formats.

Everything on disk is line-oriented text: diffable, trivially fixture-able,
and fast enough at desk scale. Three dataset formats share a headered block
layout (one block per query):

* scores:      ``query <id> k <K>`` then K rows of K floats in [0, 1]
               (diagonal entries written as 0, ignored on read)
* rankings:    ``query <id> k <K>`` then one row of K integers forming a
               permutation of 1..K
* embeddings:  ``query <id> k <K> d <d>`` then K rows of d floats

Each file lists a query id once: a repeated id is a :class:`SchemaError`.

Ranking datasets in the common sparse-feature line format
(``<rel> qid:<id> <idx>:<val> ... [# comment]``) are parsed into
:class:`RawQuery` records; ground-truth rankings are derived from graded
relevance labels by stable descending sort, ties keeping input order (the
convention is declared, not inferred -- it makes downstream losses
reproducible under tied labels).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .core import LabeledQuery, PairwiseScores, PredictionSet, Ranking, _checked_embeddings

__all__ = [
    "ParseError",
    "SchemaError",
    "RawQuery",
    "SyntheticSpec",
    "parse_letor",
    "ranking_from_relevance",
    "pairwise_from_utilities",
    "generate_synthetic",
    "read_scores",
    "write_scores",
    "read_rankings",
    "write_rankings",
    "read_embeddings",
    "write_embeddings",
    "assemble_queries",
    "load_dataset",
    "write_dataset",
    "write_predictions_csv",
    "write_trials_csv",
    "write_strata_csv",
    "write_sweep_csv",
    "write_trace_csv",
    "write_report_json",
    "write_json",
]


class ParseError(ValueError):
    """Malformed ranking-dataset line; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(ValueError):
    """A dataset file disagrees with its own headers."""


@dataclass(frozen=True)
class RawQuery:
    """One query as stored on disk: graded labels plus sparse feature maps."""

    query_id: str
    relevance: tuple[int, ...]
    features: tuple[dict[int, float], ...]


# ---------------------------------------------------------------------------
# Sparse ranking-line format


def _decode_lines(source: Union[str, bytes, TextIO]) -> list[str]:
    if isinstance(source, bytes):
        raw = source.split(b"\n")
        lines = []
        for no, chunk in enumerate(raw, start=1):
            try:
                lines.append(chunk.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(no, f"invalid UTF-8: {exc.reason}") from None
        return lines
    if isinstance(source, str):
        return source.split("\n")
    return source.read().split("\n")


def parse_letor(source: Union[str, bytes, TextIO]) -> list[RawQuery]:
    """Parse ``<rel> qid:<id> <idx>:<val> ...`` lines grouped by consecutive qid.

    Blank lines and lines that are only a comment are skipped. Any malformed
    content raises :class:`ParseError` with the offending line number; no
    input crashes the parser.
    """
    lines = _decode_lines(source)
    queries: list[RawQuery] = []
    cur_id: Optional[str] = None
    cur_rel: list[int] = []
    cur_feat: list[dict[int, float]] = []

    def flush():
        nonlocal cur_id, cur_rel, cur_feat
        if cur_id is not None:
            queries.append(RawQuery(cur_id, tuple(cur_rel), tuple(cur_feat)))
        cur_id, cur_rel, cur_feat = None, [], []

    for no, line in enumerate(lines, start=1):
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens = line.split()
        if not tokens:
            continue
        try:
            rel = int(tokens[0])
        except ValueError:
            raise ParseError(no, f"relevance label {tokens[0]!r} is not an integer") from None
        if rel < 0:
            raise ParseError(no, f"relevance label {rel} is negative")
        if len(tokens) < 2 or not tokens[1].startswith("qid:"):
            raise ParseError(no, "missing qid:<id> token")
        qid = tokens[1][4:]
        if not qid:
            raise ParseError(no, "empty qid")
        features: dict[int, float] = {}
        prev_idx = 0
        for tok in tokens[2:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise ParseError(no, f"feature token {tok!r} is not <idx>:<val>")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(no, f"feature token {tok!r} is not <int>:<float>") from None
            if idx < 1:
                raise ParseError(no, f"feature index {idx} must be >= 1")
            if idx <= prev_idx:
                raise ParseError(no, f"feature index {idx} not increasing (previous {prev_idx})")
            if not np.isfinite(val):
                raise ParseError(no, f"feature value {val_str!r} is not finite")
            features[idx] = val
            prev_idx = idx
        if qid != cur_id:
            flush()
            cur_id = qid
        cur_rel.append(rel)
        cur_feat.append(features)
    flush()
    return queries


# ---------------------------------------------------------------------------
# Derivations


def ranking_from_relevance(labels) -> Ranking:
    """Ranks from graded labels: stable descending sort, ties keep input order."""
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 1 or labels.size < 1:
        raise ValueError("labels must be a nonempty 1-D array")
    if not np.all(np.isfinite(labels)):
        raise ValueError("labels contain non-finite values")
    order = np.argsort(-labels, kind="stable")
    ranks = np.empty(labels.size, dtype=int)
    ranks[order] = np.arange(1, labels.size + 1)
    return Ranking(ranks)


def pairwise_from_utilities(utilities, temperature: float = 1.0) -> PairwiseScores:
    """Logistic pairwise preference probabilities from per-item utilities.

    ``p[i, j] = sigmoid((u_i - u_j) / temperature)`` -- complementary by
    construction, standing in for any trained pairwise ranker. Lower
    temperature sharpens toward a deterministic ordering.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    u = np.asarray(utilities, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("utilities must be a nonempty 1-D array")
    if not np.all(np.isfinite(u)):
        raise ValueError("utilities contain non-finite values")
    z = (u[:, None] - u[None, :]) / temperature
    # exp(-z) overflows to inf only where the probability is 0.
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-z))
    np.fill_diagonal(probs, 0.0)
    return PairwiseScores(probs)


# ---------------------------------------------------------------------------
# Synthetic data with known ground truth


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic ranking dataset.

    Latent item utilities define the true ranking; the simulated model sees
    them corrupted by Gaussian noise of scale ``noise`` before the logistic
    pairwise link, so ``noise=0`` is a perfect model. Embeddings are i.i.d.
    standard normal, ``embedding_dim=None`` omits them. Everything is a pure
    function of ``seed``: each query draws from its own derived substream, so
    queries could be generated in parallel without changing the output.
    """

    seed: int
    n_queries: int
    k_min: int
    k_max: int
    utility_scale: float = 1.0
    noise: float = 0.5
    embedding_dim: Optional[int] = 8
    temperature: float = 1.0

    def __post_init__(self):
        if self.n_queries < 0:
            raise ValueError(f"n_queries must be >= 0, got {self.n_queries}")
        if self.k_min < 1:
            raise ValueError(f"k_min must be >= 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ValueError(f"k_max must be >= k_min, got {self.k_max} < {self.k_min}")
        if self.utility_scale <= 0:
            raise ValueError(f"utility_scale must be > 0, got {self.utility_scale}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1 or None, got {self.embedding_dim}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


def _synthetic_query(spec: SyntheticSpec, index: int) -> LabeledQuery:
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(index,)))
    k = int(rng.integers(spec.k_min, spec.k_max + 1))
    utilities = rng.normal(0.0, spec.utility_scale, k)
    ranking = ranking_from_relevance(utilities)
    # Noise is drawn even at noise=0 so utilities and embeddings stay aligned
    # across noise levels at a fixed seed.
    seen = utilities + spec.noise * rng.standard_normal(k)
    embeddings = rng.standard_normal((k, spec.embedding_dim)) if spec.embedding_dim else None
    return LabeledQuery(
        query_id=f"synth-{spec.seed}-{index}",
        scores=pairwise_from_utilities(seen, spec.temperature),
        ranking=ranking,
        embeddings=embeddings,
    )


def generate_synthetic(spec: SyntheticSpec) -> list[LabeledQuery]:
    return [_synthetic_query(spec, i) for i in range(spec.n_queries)]


# ---------------------------------------------------------------------------
# Headered block files


@contextmanager
def _text_stream(target, mode: str):
    """A path is opened (and closed on exit); an open stream is used as is."""
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8") as f:
            yield f
    else:
        yield target


def _read_blocks(source, shape: tuple, build, dtype=float) -> list[tuple[str, object]]:
    """Each block of ``source`` as ``(query id, build(block))``, in file order.

    ``shape`` gives a block's (rows, columns), each a header field name or a
    number; the header lists the named fields in order. ``block`` is one
    ``dtype`` array of that shape. Every error names the query id and line.
    """
    with _text_stream(source, "r") as f:
        text = f.read().split("\n")
    # Tokens are split one line at a time, so a file's tokens are never all held at once.
    lines = ((no, t) for no, t in enumerate(map(str.split, text), 1) if t)
    fields = tuple(dict.fromkeys(s for s in shape if isinstance(s, str)))
    out = []
    for no, tokens in lines:
        if tokens[0] != "query" or len(tokens) != 2 + 2 * len(fields):
            raise SchemaError(
                f"line {no}: expected header 'query <id> "
                + " ".join(f"{k} <{k}>" for k in fields) + f"', got {' '.join(tokens)!r}"
            )
        qid, header = tokens[1], {}
        where = f"query {qid!r}, line {no}"
        for key, name, raw in zip(fields, tokens[2::2], tokens[3::2]):
            if name != key:
                raise SchemaError(f"{where}: expected field {key!r}, got {name!r}")
            try:
                header[key] = int(raw)
            except ValueError:
                raise SchemaError(f"{where}: field {key!r} value {raw!r} not an integer") from None
            if header[key] < 1:
                raise SchemaError(f"{where}: field {key!r} must be >= 1, got {header[key]}")
        n_rows, width = (header.get(s, s) for s in shape)
        rows = list(islice(lines, n_rows))
        found = next((i for i, (_, t) in enumerate(rows) if t[0] == "query"), len(rows))
        if found < n_rows:
            raise SchemaError(f"{where}: header needs {n_rows} data rows, only {found} follow")
        flat = []
        for no, tokens in rows:
            where = f"query {qid!r}, line {no}"
            if len(tokens) != width:
                raise SchemaError(f"{where}: expected {width} values, got {len(tokens)}")
            try:
                flat += map(dtype, tokens)
            except ValueError:
                raise SchemaError(f"{where}: non-numeric or non-{dtype.__name__} value") from None
        try:
            out.append((qid, build(np.array(flat, dtype=dtype).reshape(n_rows, width))))
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"query {qid!r}, line {rows[0][0]}: {exc}") from None
    return out


def _write_blocks(target, shape: tuple, pairs: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write ``(query id, 2-D array)`` pairs as the blocks :func:`_read_blocks` reads.

    The header's fields are read off the array's shape; values are written as
    ``repr`` of the Python numbers, so floats round-trip exactly.
    """
    with _text_stream(target, "w") as f:
        for qid, block in pairs:
            dims = {s: n for s, n in zip(shape, block.shape) if isinstance(s, str)}
            f.write(f"query {qid} " + " ".join(f"{k} {n}" for k, n in dims.items()) + "\n")
            f.writelines(" ".join(map(repr, row)) + "\n" for row in block.tolist())


def read_scores(source) -> list[tuple[str, PairwiseScores]]:
    return _read_blocks(source, ("k", "k"), PairwiseScores)


def write_scores(target, pairs: Iterable[tuple[str, PairwiseScores]]) -> None:
    _write_blocks(target, ("k", "k"), (
        (qid, np.where(np.eye(s.k, dtype=bool), 0.0, s.probs)) for qid, s in pairs))


def read_rankings(source) -> list[tuple[str, Ranking]]:
    return _read_blocks(source, (1, "k"), lambda block: Ranking(block[0]), dtype=int)


def write_rankings(target, pairs: Iterable[tuple[str, Ranking]]) -> None:
    _write_blocks(target, (1, "k"), ((qid, r.ranks[None]) for qid, r in pairs))


def read_embeddings(source) -> list[tuple[str, np.ndarray]]:
    return _read_blocks(source, ("k", "d"), _checked_embeddings)


def write_embeddings(target, pairs: Iterable[tuple[str, np.ndarray]]) -> None:
    _write_blocks(target, ("k", "d"), ((qid, np.asarray(m, dtype=float)) for qid, m in pairs))


def _join_by_id(**files) -> list[tuple]:
    """Rows ``(query id, record from each file)``, joined by id in the first file's order.

    Each file lists a query id at most once, and every id of the first file must
    appear in each other file; a file passed as None gives None in every row.
    """
    tables = {}
    for name, pairs in files.items():
        table = tables[name] = {}
        for qid, record in pairs or ():
            if qid in table:
                raise SchemaError(f"duplicate query id {qid!r} in {name}")
            table[qid] = record
    first, *others = files
    rows = []
    for qid in tables[first]:
        missing = [name for name in others if files[name] is not None and qid not in tables[name]]
        if missing:
            raise SchemaError(f"query {qid!r} has {first} but no {missing[0]}")
        rows.append((qid, *(tables[name].get(qid) for name in files)))
    return rows


def assemble_queries(
    score_pairs: Sequence[tuple[str, PairwiseScores]],
    ranking_pairs: Sequence[tuple[str, Ranking]],
    embedding_pairs: Optional[Sequence[tuple[str, np.ndarray]]] = None,
) -> list[LabeledQuery]:
    """Join per-file records into labeled queries, keyed by query id.

    Order follows the scores file. Each file lists a query id once, and every
    scored query must have a ranking (and embeddings, when an embeddings file
    is given) with a matching id.
    """
    out = []
    joined = _join_by_id(scores=score_pairs, rankings=ranking_pairs, embeddings=embedding_pairs)
    for qid, scores, ranking, emb in joined:
        try:
            out.append(LabeledQuery(qid, scores, ranking, embeddings=emb))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    return out


def load_dataset(scores_path, rankings_path, embeddings_path=None) -> list[LabeledQuery]:
    return assemble_queries(
        read_scores(scores_path),
        read_rankings(rankings_path),
        read_embeddings(embeddings_path) if embeddings_path else None,
    )


def write_dataset(prefix: Union[str, Path], queries: Sequence[LabeledQuery]) -> dict[str, Path]:
    """Write scores/rankings(/embeddings) files under ``<prefix>.*.txt``."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "scores": prefix.with_name(prefix.name + ".scores.txt"),
        "rankings": prefix.with_name(prefix.name + ".rankings.txt"),
    }
    write_scores(paths["scores"], [(q.query_id, q.scores) for q in queries])
    write_rankings(paths["rankings"], [(q.query_id, q.ranking) for q in queries])
    if any(q.embeddings is not None for q in queries):
        if not all(q.embeddings is not None for q in queries):
            raise ValueError("either all queries carry embeddings or none do")
        paths["embeddings"] = prefix.with_name(prefix.name + ".embeddings.txt")
        write_embeddings(paths["embeddings"], [(q.query_id, q.embeddings) for q in queries])
    return paths


# ---------------------------------------------------------------------------
# Report files (CSV plus optional JSON mirrors)


def _write_csv(target, header: Sequence[str], rows: Iterable[Sequence], manifest: Optional[str]):
    with _text_stream(target, "w") as f:
        if manifest:
            f.write(f"# manifest={manifest}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join("" if v is None else str(v) for v in row) + "\n")


def write_trace_csv(target, trace, manifest: Optional[str] = None) -> None:
    """One row per tested threshold of a calibration walk, in walk order."""
    _write_csv(
        target,
        ("lambda", "mean_fdp", "ucb", "rejected"),
        ((repr(e.lam), repr(e.mean_fdp), repr(e.ucb), e.rejected) for e in trace),
        manifest,
    )


def write_predictions_csv(target, rows, manifest: Optional[str] = None) -> None:
    """Rows of (query_id, PredictionSet, fdp-or-None)."""
    def fmt(qid, pred: PredictionSet, loss):
        return (qid, " ".join(str(i) for i in pred.items), len(pred), loss)

    _write_csv(target, ("query_id", "items", "size", "fdp"),
               (fmt(*row) for row in rows), manifest)


def write_trials_csv(target, records, manifest: Optional[str] = None) -> None:
    _write_csv(
        target,
        ("trial", "lambda_hat", "test_fdr", "mean_set_size", "stopped_reason",
         "sampled_set_size"),
        ((r.trial, repr(r.lambda_hat), repr(r.test_fdr), repr(r.mean_set_size),
          r.stopped_reason, r.sampled_set_size) for r in records),
        manifest,
    )


def write_strata_csv(target, strata, manifest: Optional[str] = None) -> None:
    _write_csv(
        target,
        ("stratum", "label", "size_lo", "size_hi", "count", "fdr"),
        ((i + 1, s.label, s.size_lo, s.size_hi, s.count,
          None if s.fdr is None else repr(s.fdr)) for i, s in enumerate(strata)),
        manifest,
    )


def write_sweep_csv(target, rows, manifest: Optional[str] = None) -> None:
    _write_csv(
        target,
        ("param", "value", "mean_test_fdr", "mean_relative_diversity", "fraction_modified"),
        ((r.param, r.value, repr(r.mean_test_fdr),
          None if r.mean_relative_diversity is None else repr(r.mean_relative_diversity),
          None if r.fraction_modified is None else repr(r.fraction_modified)) for r in rows),
        manifest,
    )


def write_report_json(target, report, manifest: Optional[str] = None) -> None:
    payload = report.to_dict()
    if manifest:
        payload["manifest"] = manifest
    write_json(target, payload)


def write_json(target, payload) -> None:
    """Every JSON artefact (reports, sweeps, manifests): 2-space indent, final newline."""
    with _text_stream(target, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
