"""Dataset ingestion, synthetic generation, and all on-disk formats.

Everything on disk is line-oriented text: diffable, trivially fixture-able,
and fast enough at desk scale. Three dataset formats share a headered block
layout (one block per query):

* scores:      ``query <id> k <K>`` then K rows of K floats in [0, 1]
               (diagonal entries written as 0, ignored on read)
* rankings:    ``query <id> k <K>`` then one row of K integers forming a
               permutation of 1..K
* embeddings:  ``query <id> k <K> d <d>`` then K rows of d floats

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
    "write_letor",
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


def write_letor(queries: Sequence[RawQuery]) -> str:
    out = []
    for q in queries:
        for rel, feats in zip(q.relevance, q.features):
            parts = [str(rel), f"qid:{q.query_id}"]
            parts.extend(f"{idx}:{repr(val)}" for idx, val in sorted(feats.items()))
            out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


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


class _BlockReader:
    def __init__(self, f: TextIO):
        self.lines = f.read().split("\n")
        self.pos = 0

    def _next_tokens(self) -> Optional[tuple[int, list[str]]]:
        while self.pos < len(self.lines):
            no = self.pos + 1
            tokens = self.lines[self.pos].split()
            self.pos += 1
            if tokens:
                return no, tokens
        return None

    def blocks(self, header_keys: tuple[str, ...], rows_per_block=None):
        """Yield (query_id, header values dict, data rows) per block.

        A block has ``rows_per_block(header values)`` data rows, default k.
        """
        if rows_per_block is None:
            rows_per_block = lambda values: values["k"]
        item = self._next_tokens()
        while item is not None:
            no, tokens = item
            if tokens[0] != "query" or len(tokens) != 2 + 2 * len(header_keys):
                raise SchemaError(
                    f"line {no}: expected header 'query <id> "
                    + " ".join(f"{k} <{k}>" for k in header_keys)
                    + f"', got {' '.join(tokens)!r}"
                )
            qid = tokens[1]
            values: dict[str, int] = {}
            for slot, key in enumerate(header_keys):
                name, raw = tokens[2 + 2 * slot], tokens[3 + 2 * slot]
                if name != key:
                    raise SchemaError(f"line {no}: expected field {key!r}, got {name!r}")
                try:
                    values[key] = int(raw)
                except ValueError:
                    raise SchemaError(f"line {no}: field {key!r} value {raw!r} not an integer")
                if values[key] < 1:
                    raise SchemaError(f"line {no}: field {key!r} must be >= 1, got {values[key]}")
            n_rows = rows_per_block(values)
            rows = []
            for _ in range(n_rows):
                item = self._next_tokens()
                if item is None or item[1][0] == "query":
                    raise SchemaError(
                        f"query {qid!r}: header declares k={values['k']} but only "
                        f"{len(rows)} of {n_rows} data rows follow"
                    )
                rows.append(item)
            yield qid, values, rows
            item = self._next_tokens()


def _parse_float_row(qid: str, row, width: int) -> np.ndarray:
    no, tokens = row
    if len(tokens) != width:
        raise SchemaError(f"query {qid!r}, line {no}: expected {width} values, got {len(tokens)}")
    try:
        return np.array([float(t) for t in tokens])
    except ValueError:
        raise SchemaError(f"query {qid!r}, line {no}: non-numeric value") from None


def read_scores(source) -> list[tuple[str, PairwiseScores]]:
    with _text_stream(source, "r") as f:
        out = []
        for qid, header, rows in _BlockReader(f).blocks(("k",)):
            probs = np.vstack([_parse_float_row(qid, row, header["k"]) for row in rows])
            try:
                out.append((qid, PairwiseScores(probs)))
            except ValueError as exc:
                raise SchemaError(f"query {qid!r}: {exc}") from None
        return out


def write_scores(target, pairs: Iterable[tuple[str, PairwiseScores]]) -> None:
    with _text_stream(target, "w") as f:
        for qid, scores in pairs:
            k = scores.k
            f.write(f"query {qid} k {k}\n")
            probs = scores.probs.copy()
            np.fill_diagonal(probs, 0.0)
            for row in probs:
                f.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_rankings(source) -> list[tuple[str, Ranking]]:
    with _text_stream(source, "r") as f:
        out = []
        for qid, header, rows in _BlockReader(f).blocks(("k",), rows_per_block=lambda v: 1):
            k = header["k"]
            no, tokens = rows[0]
            if len(tokens) != k:
                raise SchemaError(
                    f"query {qid!r}, line {no}: expected {k} ranks, got {len(tokens)}"
                )
            try:
                ranks = [int(t) for t in tokens]
            except ValueError:
                raise SchemaError(f"query {qid!r}, line {no}: non-integer rank") from None
            try:
                out.append((qid, Ranking(np.array(ranks))))
            except ValueError as exc:
                raise SchemaError(f"query {qid!r}, line {no}: {exc}") from None
        return out


def write_rankings(target, pairs: Iterable[tuple[str, Ranking]]) -> None:
    with _text_stream(target, "w") as f:
        for qid, ranking in pairs:
            f.write(f"query {qid} k {ranking.k}\n")
            f.write(" ".join(str(int(r)) for r in ranking.ranks) + "\n")


def read_embeddings(source) -> list[tuple[str, np.ndarray]]:
    with _text_stream(source, "r") as f:
        out = []
        for qid, header, rows in _BlockReader(f).blocks(("k", "d")):
            mat = np.vstack([_parse_float_row(qid, row, header["d"]) for row in rows])
            try:
                out.append((qid, _checked_embeddings(mat)))
            except ValueError as exc:
                raise SchemaError(f"query {qid!r}: {exc}") from None
        return out


def write_embeddings(target, pairs: Iterable[tuple[str, np.ndarray]]) -> None:
    with _text_stream(target, "w") as f:
        for qid, mat in pairs:
            mat = np.asarray(mat, dtype=float)
            f.write(f"query {qid} k {mat.shape[0]} d {mat.shape[1]}\n")
            for row in mat:
                f.write(" ".join(repr(float(v)) for v in row) + "\n")


def assemble_queries(
    score_pairs: Sequence[tuple[str, PairwiseScores]],
    ranking_pairs: Sequence[tuple[str, Ranking]],
    embedding_pairs: Optional[Sequence[tuple[str, np.ndarray]]] = None,
) -> list[LabeledQuery]:
    """Join per-file records into labeled queries, keyed by query id.

    Order follows the scores file. Every scored query must have a ranking
    (and embeddings, when an embeddings file is given) with a matching id.
    """
    rankings = dict(ranking_pairs)
    if len(rankings) != len(ranking_pairs):
        raise SchemaError("duplicate query ids in rankings")
    embeddings = dict(embedding_pairs) if embedding_pairs is not None else None
    out = []
    seen = set()
    for qid, scores in score_pairs:
        if qid in seen:
            raise SchemaError(f"duplicate query id {qid!r} in scores")
        seen.add(qid)
        if qid not in rankings:
            raise SchemaError(f"query {qid!r} has scores but no ranking")
        emb = None
        if embeddings is not None:
            if qid not in embeddings:
                raise SchemaError(f"query {qid!r} has scores but no embeddings")
            emb = embeddings[qid]
        try:
            out.append(LabeledQuery(qid, scores, rankings[qid], embeddings=emb))
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
