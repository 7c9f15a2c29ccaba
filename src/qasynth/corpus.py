"""Data model and ingestion: QA examples, passage pools, sampling, JSONL I/O.

The canonical record is an extractive QA example: a context passage, a
question, an answer that (for gold and fully filtered synthetic data) appears
verbatim in the context at a known character offset, a language code, and a
provenance tag saying how the example came to be (gold, mt, pe, pt).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

PROVENANCES = ("gold", "mt", "pe", "pt")
SCENARIOS = ("english_only", "few_shot")

# Exact field set (and order) of one JSONL record; OPTIONAL_FIELD follows
# them only when the example has alternative gold answers.
JSONL_FIELDS = (
    "id",
    "context",
    "question",
    "answer",
    "answer_start",
    "language",
    "provenance",
    "source_dataset",
)
OPTIONAL_FIELD = "extra_answers"


class CorpusError(ValueError):
    """Raised for malformed input data or invalid record construction."""


@dataclass(frozen=True)
class Passage:
    """An unlabeled context passage drawn from a monolingual pool."""

    id: str
    text: str
    language: str
    source: str = ""

    def __post_init__(self):
        if not self.id:
            raise CorpusError("passage id must be non-empty")
        if not isinstance(self.text, str) or not self.text:
            raise CorpusError(f"passage {self.id!r}: text must be a non-empty string")
        if not self.language:
            raise CorpusError(f"passage {self.id!r}: language must be non-empty")


@dataclass(frozen=True)
class QAExample:
    """One extractive QA training/eval example.

    answer_start is the character offset of the answer in the context, or
    None for records whose alignment was discarded (e.g. field-wise machine
    translation). When set, context[answer_start : answer_start+len(answer)]
    must equal answer exactly.

    extra_answers holds alternative gold answers used only for max-over-golds
    evaluation. It is written to JSONL only when non-empty, and it is
    excluded from equality: two records of one example compare equal
    whatever alternatives they carry.
    """

    id: str
    context: str
    question: str
    answer: str
    answer_start: Optional[int]
    language: str
    provenance: str
    source_dataset: str
    extra_answers: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise CorpusError(f"example id must be a non-empty string, got {self.id!r}")
        for name in ("context", "question", "answer", "language"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise CorpusError(
                    f"example {self.id!r}: {name} must be a non-empty string, got {value!r}"
                )
        if self.provenance not in PROVENANCES:
            raise CorpusError(
                f"example {self.id!r}: provenance {self.provenance!r} not one of "
                f"{PROVENANCES}"
            )
        if self.answer_start is not None:
            start = self.answer_start
            if isinstance(start, bool) or not isinstance(start, int) or start < 0:
                raise CorpusError(
                    f"example {self.id!r}: answer_start must be null or an "
                    f"integer >= 0, got {start!r}"
                )
            end = self.answer_start + len(self.answer)
            if self.context[self.answer_start : end] != self.answer:
                raise CorpusError(
                    f"example {self.id!r}: context[{self.answer_start}:{end}] "
                    f"does not equal the answer"
                )
        extras = self.extra_answers
        if not isinstance(extras, tuple) or not all(
            isinstance(a, str) and a for a in extras
        ):
            raise CorpusError(
                f"example {self.id!r}: extra_answers must be a list of non-empty "
                f"strings, got {extras!r}"
            )

    def gold_answers(self) -> Tuple[str, ...]:
        """The training answer followed by any alternative gold answers."""
        return (self.answer,) + self.extra_answers

    def to_json_dict(self) -> dict:
        record = {name: getattr(self, name) for name in JSONL_FIELDS}
        if self.extra_answers:
            record[OPTIONAL_FIELD] = list(self.extra_answers)
        return record


@dataclass(frozen=True)
class Dataset:
    """A named, ordered collection of QA examples with unique ids."""

    name: str
    examples: Tuple[QAExample, ...]

    def __post_init__(self):
        if not self.name:
            raise CorpusError("dataset name must be non-empty")
        seen = set()
        for ex in self.examples:
            if ex.id in seen:
                raise CorpusError(
                    f"dataset {self.name!r}: duplicate example id {ex.id!r}"
                )
            seen.add(ex.id)

    def __len__(self) -> int:
        return len(self.examples)

    def by_language(self) -> Dict[str, Tuple[QAExample, ...]]:
        out: Dict[str, List[QAExample]] = {}
        for ex in self.examples:
            out.setdefault(ex.language, []).append(ex)
        return {lang: tuple(exs) for lang, exs in out.items()}


@dataclass(frozen=True)
class IngestReport:
    """Outcome of parsing a raw dataset: counts plus per-record problems."""

    total_qas: int
    parsed: int
    skipped: int
    errors: Tuple[str, ...]


@dataclass(frozen=True)
class DatasetStats:
    """Summary counts for a dataset."""

    total: int
    by_language: Dict[str, int]
    by_provenance: Dict[str, int]
    mean_context_len: float
    mean_question_len: float
    mean_answer_len: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "by_language": dict(sorted(self.by_language.items())),
            "by_provenance": dict(sorted(self.by_provenance.items())),
            "mean_context_len": self.mean_context_len,
            "mean_question_len": self.mean_question_len,
            "mean_answer_len": self.mean_answer_len,
        }


def is_language_code(code) -> bool:
    """A non-empty string that is one plain path component, since commands
    name files and directories after it (<lang>/raw.jsonl, <lang>.gold.jsonl)."""
    return isinstance(code, str) and code not in ("", ".", "..") and not {"/", "\\"} & set(code)


def _objects(value, key: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise CorpusError(f"{key!r} must be a list of objects")
    return value


def _squad_qas(doc) -> Iterator[Tuple[dict, dict]]:
    """(paragraph, qa) for every qa of a parsed SQuAD-format document, in order."""
    if not isinstance(doc, dict) or "data" not in doc:
        raise CorpusError("top level must be an object with a 'data' list")
    for article in _objects(doc["data"], "data"):
        for para in _objects(article.get("paragraphs", []), "paragraphs"):
            for qa in _objects(para.get("qas", []), "qas"):
                yield para, qa


def squad_language_counts(doc) -> Dict[str, int]:
    """Per-language qa counts of a parsed SQuAD-format document whose qa ids
    begin with a language name ("finnish-273...-1" style)."""
    return Counter(
        str(qa.get("id", "")).split("-", 1)[0].lower() or "unknown" for _, qa in _squad_qas(doc)
    )


def parse_squad_json(
    raw: Union[str, bytes],
    dataset_name: str,
    language: str,
) -> Tuple[Dataset, IngestReport]:
    """Parse a SQuAD-v1.1-format JSON string into a Dataset.

    Structure: {"data": [{"paragraphs": [{"context", "qas": [{"id",
    "question", "answers": [{"text", "answer_start"}, ...]}]}]}]}.

    The first answer of each qa becomes the training answer; the remaining
    distinct answer texts are kept as alternatives for evaluation. A qa with
    an empty answers list is skipped and reported, and so is one that is not
    a valid QAExample, such as an answer whose offset does not match the
    context or a field of the wrong type. Bytes that are not UTF-8, malformed
    JSON (both named by byte offset) and a structure that is not SQuAD's,
    answers that are not a list of objects included, raise CorpusError.
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorpusError(f"not UTF-8 at byte offset {e.start}: {e.reason}") from e
    else:
        text = raw
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        byte_offset = len(text[: e.pos].encode("utf-8"))
        raise CorpusError(
            f"malformed JSON at byte offset {byte_offset}: {e.msg}"
        ) from e

    examples: List[QAExample] = []
    errors: List[str] = []
    total = 0
    for para, qa in _squad_qas(doc):
        context = para.get("context", "")
        total += 1
        qa_id = qa.get("id", f"<unnamed #{total}>")
        answers = _objects(qa.get("answers", []), "answers")
        if not answers:
            errors.append(f"{qa_id}: no answers; skipped")
            continue
        first = answers[0]
        a_text = first.get("text", "")
        a_start = first.get("answer_start")
        if a_start is None:
            errors.append(f"{qa_id}: answer has no answer_start; skipped")
            continue
        extras = []
        for alt in answers[1:]:
            alt_text = alt.get("text", "")
            if alt_text and alt_text != a_text and alt_text not in extras:
                extras.append(alt_text)
        try:
            examples.append(
                QAExample(
                    id=qa_id,
                    context=context,
                    question=qa.get("question", ""),
                    answer=a_text,
                    answer_start=a_start,
                    language=language,
                    provenance="gold",
                    source_dataset=dataset_name,
                    extra_answers=tuple(extras),
                )
            )
        except CorpusError as e:
            errors.append(f"{qa_id}: {e}; skipped")

    dataset = Dataset(name=dataset_name, examples=tuple(examples))
    report = IngestReport(
        total_qas=total,
        parsed=len(examples),
        skipped=total - len(examples),
        errors=tuple(errors),
    )
    return dataset, report


def _json_lines(path: Path) -> Iterable[Tuple[int, int, object]]:
    """(1-based line number, byte offset, parsed value) for each non-blank
    line of a UTF-8 file; a line that is not UTF-8 or not JSON raises
    CorpusError naming the file and line."""
    offset = 0
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            start, offset = offset, offset + len(raw)
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"{path}:{lineno}: not UTF-8: {e.reason}") from e
            if line.strip():
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise CorpusError(f"{path}:{lineno}: malformed JSON: {e.msg}")
                yield lineno, start, obj


def _pool_passages(
    path: Path, language: str
) -> Iterator[Tuple[int, Passage]]:
    """(byte offset, passage) for each line of an NDJSON passage pool.

    Any malformed line, or a repeated id, raises CorpusError naming its
    1-based line number.
    """
    # The ids are the only per-line state a streamed pass keeps, and a
    # dict's compact table takes about a quarter of the memory of a set's.
    seen: Dict[str, None] = {}
    for lineno, offset, obj in _json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
            raise CorpusError(f"{path}:{lineno}: expected an object with 'id' and 'text'")
        pid = str(obj["id"])
        if pid in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate passage id {pid!r}")
        seen[pid] = None
        try:
            passage = Passage(
                id=pid, text=obj["text"], language=language, source=path.name
            )
        except CorpusError as e:
            raise CorpusError(f"{path}:{lineno}: {e}")
        yield offset, passage


def load_passage_pool(
    path: Union[str, Path],
    language: str,
) -> Tuple[Passage, ...]:
    """Load an NDJSON passage pool: one {"id": ..., "text": ...} per line.

    A passage's source is the pool's file name. Blank lines are ignored. Any
    malformed line raises CorpusError naming its 1-based line number.
    """
    return tuple(p for _, p in _pool_passages(Path(path), language))


def write_passages(passages: Iterable[Passage], path: Union[str, Path]) -> None:
    """Write an NDJSON passage pool that load_passage_pool reads back."""
    with atomic_open(path) as fh:
        for p in passages:
            fh.write(json.dumps({"id": p.id, "text": p.text}, ensure_ascii=False) + "\n")


def _check_sample_size(
    n: int, eligible: int, total: int, min_len: int, max_len: int
) -> None:
    if n < 0:
        raise CorpusError("sample size must be >= 0")
    if n > eligible:
        raise CorpusError(
            f"requested {n} passages but only {eligible} of {total} "
            f"are within [{min_len}, {max_len}] characters"
        )


def sample_unlabeled(
    pool: Sequence[Passage],
    n: int,
    seed: int,
    min_len: int = 200,
    max_len: int = 510,
) -> Tuple[Passage, ...]:
    """Sample n passages uniformly without replacement, filtered by length.

    Only passages whose character length is within [min_len, max_len]
    (inclusive) are eligible. Asking for more than the eligible count raises
    with both numbers in the message.
    """
    eligible = [p for p in pool if min_len <= len(p.text) <= max_len]
    _check_sample_size(n, len(eligible), len(pool), min_len, max_len)
    rng = random.Random(seed)
    return tuple(rng.sample(eligible, n))


def sample_passage_pool(
    path: Union[str, Path],
    language: str,
    n: int,
    seed: int,
    min_len: int = 200,
    max_len: int = 510,
) -> Tuple[Passage, ...]:
    """sample_unlabeled over load_passage_pool(path, language), streamed.

    The first pass validates every line as load_passage_pool does and keeps
    only the byte offsets of the eligible lines (and every id, for the
    duplicate check). random.sample picks indices from the population's
    length alone, so sampling range(len(eligible)) picks the same passages
    in the same order. The second pass reads only the picked lines.
    """
    from array import array  # a shared library; only this command needs it

    path = Path(path)
    offsets = array("q")
    total = 0
    for offset, passage in _pool_passages(path, language):
        total += 1
        if min_len <= len(passage.text) <= max_len:
            offsets.append(offset)
    _check_sample_size(n, len(offsets), total, min_len, max_len)
    picks = random.Random(seed).sample(range(len(offsets)), n)
    picked: Dict[int, Passage] = {}
    with path.open("rb") as fh:
        for i in sorted(picks):
            fh.seek(offsets[i])
            obj = json.loads(fh.readline().decode("utf-8"))
            picked[i] = Passage(
                id=str(obj["id"]), text=obj["text"], language=language, source=path.name
            )
    return tuple(picked[i] for i in picks)


def subsample_fewshot(
    dataset: Dataset,
    language: str,
    n: int,
    seed: int,
) -> Dataset:
    """Pick n examples of one language uniformly without replacement.

    Output order is the sampling order (a seeded permutation), so n equal
    to the split size returns the whole split permuted.
    """
    if n <= 0:
        raise CorpusError("n must be >= 1")
    exs = dataset.by_language().get(language, ())
    if len(exs) < n:
        raise CorpusError(
            f"language {language!r} has {len(exs)} examples; need {n}"
        )
    rng = random.Random(seed)
    picked = [exs[i] for i in rng.sample(range(len(exs)), n)]
    return Dataset(
        name=f"{dataset.name}-{language}-fewshot{n}",
        examples=tuple(picked),
    )


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """Counts and mean field lengths (characters) for a dataset."""
    by_language: Dict[str, int] = {}
    by_provenance: Dict[str, int] = {}
    c_len = q_len = a_len = 0
    for ex in dataset.examples:
        by_language[ex.language] = by_language.get(ex.language, 0) + 1
        by_provenance[ex.provenance] = by_provenance.get(ex.provenance, 0) + 1
        c_len += len(ex.context)
        q_len += len(ex.question)
        a_len += len(ex.answer)
    n = len(dataset.examples)
    return DatasetStats(
        total=n,
        by_language=by_language,
        by_provenance=by_provenance,
        mean_context_len=c_len / n if n else 0.0,
        mean_question_len=q_len / n if n else 0.0,
        mean_answer_len=a_len / n if n else 0.0,
    )


@contextlib.contextmanager
def atomic_open(path: Union[str, Path], binary: bool = False):
    """Open a new file beside path for writing, as UTF-8 text or as bytes.

    Leaving the block without an error moves the file onto path with
    os.replace, so a reader sees the old file or the finished new one, never
    a partial write. An error removes the temporary file and leaves path as
    it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with (open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text(path: Union[str, Path], text: str) -> None:
    """Write a UTF-8 text artifact through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path: Union[str, Path], payload) -> None:
    """Write one JSON artifact: UTF-8, no ASCII escaping, sorted keys, indent 2."""
    write_text(path, json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def config_hash(config: dict) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_jsonl(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write one JSON object per example, UTF-8, no ASCII escaping.

    Each record has the JSONL_FIELDS, plus extra_answers when the example
    has alternative gold answers.
    """
    with atomic_open(path) as fh:
        for ex in dataset.examples:
            fh.write(json.dumps(ex.to_json_dict(), ensure_ascii=False))
            fh.write("\n")


def read_jsonl(
    path: Union[str, Path],
    name: Optional[str] = None,
) -> Dataset:
    """Read a JSONL dataset written by write_jsonl.

    Every record must carry exactly the canonical fields, and may carry
    extra_answers; unknown or missing fields raise with the 1-based line
    number.
    """
    path = Path(path)
    examples: List[QAExample] = []
    for lineno, _, obj in _json_lines(path):
        if not isinstance(obj, dict) or set(obj) - {OPTIONAL_FIELD} != set(JSONL_FIELDS):
            got = sorted(obj) if isinstance(obj, dict) else repr(obj)
            raise CorpusError(
                f"{path}:{lineno}: expected an object with fields "
                f"{sorted(JSONL_FIELDS)} and optionally {OPTIONAL_FIELD!r}, got {got}"
            )
        extras = obj.get(OPTIONAL_FIELD, [])
        obj[OPTIONAL_FIELD] = tuple(extras) if isinstance(extras, list) else extras
        try:
            examples.append(QAExample(**obj))
        except CorpusError as e:
            raise CorpusError(f"{path}:{lineno}: {e}")
    return Dataset(name=name or path.stem, examples=tuple(examples))
